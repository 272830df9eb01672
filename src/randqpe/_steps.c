/* The step loop of one collect_samples block, with the numpy loop's bits.
 *
 * estimator._kernel compiles this file at the first collect_samples call,
 * and estimator._run_block calls run_block through ctypes, once per block.
 * Every value is computed in the numpy loop's order: the uniforms come
 * from the generator's own next_double, a complex product is spelled
 * (ar br - ai bi, ar bi + ai br) as numpy spells it, and a real factor c
 * enters as the complex (c, 0).  Build with -ffp-contract=off and without
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

/* vec = (c, 0) vec + (sr, si) (f vec[g]), the gather taken first into row */
static void rotate(double *vec, int64_t dim, const int64_t *g, const double *f,
                   double c, double sr, double si, double *row)
{
    for (int64_t a = 0; a < dim; a++) {
        double br = vec[2 * g[a]], bi = vec[2 * g[a] + 1];
        row[2 * a] = f[2 * a] * br - f[2 * a + 1] * bi;
        row[2 * a + 1] = f[2 * a] * bi + f[2 * a + 1] * br;
    }
    for (int64_t a = 0; a < dim; a++) {
        double tr = row[2 * a], ti = row[2 * a + 1];
        double vr = vec[2 * a], vi = vec[2 * a + 1];
        vec[2 * a] = (c * vr - 0.0 * vi) + (sr * tr - si * ti);
        vec[2 * a + 1] = (c * vi + 0.0 * vr) + (sr * ti + si * tr);
    }
}

/* vec = f vec[g] */
static void apply(double *vec, int64_t dim, const int64_t *g, const double *f, double *row)
{
    for (int64_t a = 0; a < dim; a++) {
        row[2 * a] = vec[2 * g[a]];
        row[2 * a + 1] = vec[2 * g[a] + 1];
    }
    for (int64_t a = 0; a < dim; a++) {
        double br = row[2 * a], bi = row[2 * a + 1];
        vec[2 * a] = f[2 * a] * br - f[2 * a + 1] * bi;
        vec[2 * a + 1] = f[2 * a] * bi + f[2 * a + 1] * br;
    }
}

/* Advance the blk records of psi (sorted by descending r) through all their
 * segments.  A step draws m order uniforms and m term uniforms for the m
 * live records, rotates the order-0 records, then redoes the higher-order
 * records in row order, each with its n extra term draws. */
void run_block(int64_t blk, int64_t dim, int64_t n_terms, int64_t n_orders,
               const int64_t *r, const int64_t *gid, const double *sign,
               const double *cos0, const double *isin0, const double *q0,
               const double *cum_term, const int64_t *g_tab, const double *f_tab,
               const double *q_cum, const double *thetas, const int64_t *orders,
               double *psi, double *u, double *row,
               next_double_fn next_double, void *state)
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
            rotate(psi + 2 * i * dim, dim, g_tab + el * dim, f_tab + 2 * el * dim,
                   cos0[i], isin0[2 * i], isin0[2 * i + 1], row);
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
            double s = sin(th);
            /* Python's 1j * s: (0 s - 0 1, 0 0 + 1 s) */
            double sr = 0.0 * s - 0.0, si = 0.0 * 0.0 + s;
            double *vec = psi + 2 * i * dim;
            int64_t el = search(cum_term, n_terms, u[m + i]);
            rotate(vec, dim, g_tab + el * dim, f_tab + 2 * el * dim, cos(th), sr, si, row);
            for (int64_t k = 0; k < n; k++) {
                el = search(cum_term, n_terms, next_double(state));
                apply(vec, dim, g_tab + el * dim, f_tab + 2 * el * dim, row);
            }
            if (n % 4 != 0)
                for (int64_t a = 0; a < 2 * dim; a++)
                    vec[a] = -vec[a];
        }
    }
}
