/* The step loop of one collect_samples block, with the numpy loop's bits.
 *
 * estimator._kernel compiles this file at the first collect_samples call,
 * and estimator._run_block calls run_block through ctypes, once per block.
 * The uniforms come from the generator's own next_double, in the numpy
 * loop's order.  The records' states psi are updated in place; the only
 * other buffer is u, the 2m uniforms of a step.
 *
 * Every factor is one kind, c I + (i s) P for a signed Pauli P with
 * (P v)[a] = f[a] v[a ^ x]; one term's phase f is +-1 at every amplitude
 * or +-i at every amplitude, so one of its parts is an exact zero
 * (pauli.phase_rows).  A segment of order n is a rotation at
 * (cos th, sin th) and then n factors i P from (i x H)^n, each the same
 * primitive at (c, s) = (0, 1); their n factors of i are the segment's
 * phase i^n, so no bare Pauli and no sign fix-up is needed.  The numpy
 * loop forms c v + (i s) (f v[a ^ x]), and i (f v[a ^ x]) at (0, 1), with
 * full complex products, where a real c enters as (c, 0) and the real
 * part of i s is a signed zero.  Here only the products that can be
 * nonzero are kept, pair (a, a ^ x) by pair in place:
 *   f = +-1:  v[a] <- c v[a] + s f[a] (-Im, Re) v[a ^ x]
 *   f = +-i:  v[a] <- c v[a] - s Im f[a] v[a ^ x]
 * Every dropped product is a signed zero, and every kept one differs from
 * numpy's only by an exact sign flip (a factor +-1) or, for c v[a] at
 * (0, 1), is itself a signed zero.  So each nonzero value has numpy's
 * bits and a zero may differ in sign.  Under +, - and * the sign of a zero
 * never reaches a nonzero value, and the Hadamard test u < (1 + z) / 2
 * reads +0 and -0 alike, so the records and the generator state are the
 * numpy loop's.  Build with -ffp-contract=off and without
 * fast-math, so no product is fused into an add.
 */
#include <math.h>
#include <stdint.h>

typedef double (*next_double_fn)(void *);

/* numpy's searchsorted(cum, u, side="right"), clipped to n - 1 */
static int64_t search(const double *cum, int64_t n, double u)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (u < cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < n ? lo : n - 1;
}

/* The loops below visit each pair (a, b = a ^ x) once: a runs over the
 * indices whose bit x & -x is clear.  With x = 0 they visit every a with
 * b = a and write the same value twice. */

/* v = c v + (i s) P v, where (P v)[a] = f[a] v[a ^ x] */
static void rotate(double *v, int64_t dim, int64_t x, const double *f, double c, double s)
{
    int64_t half = x ? x & -x : dim;
    if (f[0] != 0.0) {
        for (int64_t base = 0; base < dim; base += 2 * half)
            for (int64_t a = base; a < base + half; a++) {
                int64_t b = a ^ x;
                double ar = v[2 * a], ai = v[2 * a + 1], br = v[2 * b], bi = v[2 * b + 1];
                double ka = s * f[2 * a], kb = s * f[2 * b];
                v[2 * a] = c * ar - ka * bi;
                v[2 * a + 1] = c * ai + ka * br;
                v[2 * b] = c * br - kb * ai;
                v[2 * b + 1] = c * bi + kb * ar;
            }
    } else {
        for (int64_t base = 0; base < dim; base += 2 * half)
            for (int64_t a = base; a < base + half; a++) {
                int64_t b = a ^ x;
                double ar = v[2 * a], ai = v[2 * a + 1], br = v[2 * b], bi = v[2 * b + 1];
                double ka = s * f[2 * a + 1], kb = s * f[2 * b + 1];
                v[2 * a] = c * ar - ka * br;
                v[2 * a + 1] = c * ai - ka * bi;
                v[2 * b] = c * br - kb * ar;
                v[2 * b + 1] = c * bi - kb * ai;
            }
    }
}

/* Advance the blk records of psi (sorted by descending r) through all their
 * segments.  A step draws m order uniforms and m term uniforms for the m
 * live records, rotates the order-0 records, then redoes the higher-order
 * records in row order, each with its n extra term draws. */
void run_block(int64_t blk, int64_t dim, int64_t n_terms, int64_t n_orders,
               const int64_t *r, const int64_t *gid, const double *sign,
               const double *cos0, const double *isin0, const double *q0,
               const double *cum_term, const int64_t *x_tab, const double *f_tab,
               const double *q_cum, const double *thetas, const int64_t *orders,
               double *psi, double *u, next_double_fn next_double, void *state)
{
    int64_t m = blk;
    for (int64_t step = 0;; step++) {
        while (m > 0 && r[m - 1] <= step)
            m--;
        if (m == 0)
            return;
        for (int64_t i = 0; i < 2 * m; i++)
            u[i] = next_double(state);
        for (int64_t i = 0; i < m; i++) {
            if (u[i] > q0[i])
                continue;
            int64_t el = search(cum_term, n_terms, u[m + i]);
            rotate(psi + 2 * i * dim, dim, x_tab[el], f_tab + 2 * el * dim,
                   cos0[i], isin0[2 * i + 1]);
        }
        for (int64_t i = 0; i < m; i++) {
            if (!(u[i] > q0[i]))
                continue;
            const double *q = q_cum + gid[i] * n_orders;
            int64_t below = 0;
            for (int64_t k = 0; k < n_orders - 1; k++)
                below += u[i] <= q[k];
            int64_t ni = n_orders - 1 - below, n = orders[ni];
            double th = thetas[gid[i] * n_orders + ni] * sign[i];
            double *vec = psi + 2 * i * dim;
            int64_t el = search(cum_term, n_terms, u[m + i]);
            rotate(vec, dim, x_tab[el], f_tab + 2 * el * dim, cos(th), sin(th));
            for (int64_t k = 0; k < n; k++) {
                el = search(cum_term, n_terms, next_double(state));
                rotate(vec, dim, x_tab[el], f_tab + 2 * el * dim, 0.0, 1.0);
            }
        }
    }
}
