"""Runtime-vector selection and complexity accounting.

All operations work on parallel arrays over the sampled Fourier indices
(zero-time indices excluded by the caller): `weights` holds |F_j| and
`times` holds t_j.  The relaxed real-valued problem uses the analytic
weight bound u_j = exp(t_j^2 / r_j); results are rounded to integers and
reported with exact truncated weights on request.  The optimizers evaluate
the expected gate count S(r) through one evaluator per call, `_Gates`,
and hand it to their root-finder objectives through args=.  The root
finder, `_brentq`, is scipy's brentq step for step, so that no run loads
scipy.optimize.  What does not depend on s (validation, t^2, the leaf
plan, the clamp heads, the memo of S by s) is a `Problem`, which `_Gates`
reads in place.  A public solve without problem= builds its own and shares
nothing with other calls; a trade-off curve holds one Problem for its sweep
and passes it to every solve.  Inside a public call, `_Gates` runs the
leaves of each S on the calling thread and, for a problem of more than one
leaf, on the one thread of an executor that lives as long as the call.
The walk that rounds the optimal vector also yields A = sum w u and
c_gate = S(r), which `Problem.cost` hands to the callers that price the
vector.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lcu import segment_weight


class FeasibilityError(ValueError):
    """Requested gate budget cannot be met with admissible runtime vectors."""


@dataclass(frozen=True)
class Complexities:
    """Weight, sample, and gate complexities for one runtime vector."""

    weight_A: float
    c_sample: int
    c_gate: float
    c_total: float
    used_exact_mu: bool


def _validate(weights, times):
    w = np.asarray(weights, dtype=float)
    t = np.asarray(times, dtype=float)
    if w.shape != t.shape or w.ndim != 1 or w.size == 0:
        raise ValueError("weights and times must be equal-length 1-d arrays")
    for name, a in (("weights", w), ("times", t)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite (no NaN or inf)")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if np.any(t == 0):
        raise ValueError("zero-time indices must be excluded before optimizing")
    return w, t


def mu_vector(times, r, M: int | None, exact: bool) -> np.ndarray:
    """Per-index LCU weights: exact truncated mu_j or the bound exp(t^2/r)."""
    t = np.asarray(times, dtype=float)
    r = np.asarray(r, dtype=float)
    if not exact:
        return np.exp(t * t / r)
    if M is None:
        raise ValueError("exact mu needs a truncation order M")
    return segment_weight(t / r, M) ** r


def constant_weight(times) -> np.ndarray:
    """Heuristic r_j = ceil(2 t_j^2), clamped to >= 1; gives A <= sqrt(e) F."""
    t = np.asarray(times, dtype=float)
    return np.maximum(np.ceil(2.0 * t * t), 1.0).astype(np.int64)


def weight_and_gates(weights, mu, r) -> tuple[float, float]:
    """A = sum w mu and c_gate = sum w mu r / A, with no validation."""
    wmu = weights * mu
    a = float(wmu.sum())
    return a, float((wmu * r).sum() / a)


# numpy sums a contiguous float64 array pairwise: a block of more than 128
# entries splits at n2 = n//2 - (n//2) % 8.  _Gates sums leaves of at most
# _LEAF entries of that tree, so its buffers stay cache-sized; smaller leaves
# cost more in hand-offs of the GIL between the two threads than they save
_LEAF = 1 << 16
# entries a memo of S by s may hold before a new one replaces it
_MEMO_CAP = 4096


class Problem:
    """The s-independent part of the solves on one (weights, times).

    Holds the validated arrays, t^2 and t^2/2, the leaf plan of the S(r)
    walk, the clamp heads (the entries with |t| < 2) with their lower
    bounds max(1, |t|), the extremes of t^2, per clamp a memo of S by s
    with, where one produced it, the y = ln(s - s_min) of each s, and the
    (r, A, c_gate) of the last vector one of its solves rounded.  Solves
    passed the same problem= share it: a curve validates and derives t^2
    once, evaluates the floor and the usual first upper bracket once, and
    starts each brentq of its sweep from the tightest bracket the memo
    holds.  The arrays must not change while the problem is in use.
    """

    def __init__(self, weights, times):
        self.args = weights, times
        self.w, self.t = _validate(weights, times)
        self.t2 = self.t * self.t
        self.half_t2 = 0.5 * self.t2
        self.t2_min, self.t2_max = float(self.t2.min()), float(self.t2.max())
        self.leaves = _leaves(0, self.t.size)
        self.head = np.flatnonzero(np.abs(self.t) < 2.0)
        self.lb_head = np.maximum(1.0, np.abs(self.t[self.head]))
        self.memos = {}
        self.last = None

    def memo(self, clamp: bool) -> tuple[dict, dict]:
        """(memo, ys) for one clamp; a full memo is replaced by an empty one."""
        memo = self.memos.get(clamp)
        if memo is None or len(memo[0]) >= _MEMO_CAP:
            memo = self.memos[clamp] = ({}, {})
        return memo

    def cost(self, r) -> tuple[float, float]:
        """(A, c_gate) of r under the bound u_j = exp(t_j^2 / r_j).

        If r is the vector a solve on this problem rounded last, unchanged
        since, these are the sums of the walk that rounded it; otherwise
        weight_and_gates computes them over whole arrays.  Both ways give
        the same bits.
        """
        if self.last is not None and self.last[0] is r:
            return self.last[1:]
        return weight_and_gates(self.w, np.exp(self.t2 / r), r)


def _problem(weights, times, problem: Problem | None) -> Problem:
    """problem, if built from these very arrays, or a new one if None."""
    if problem is None:
        return Problem(weights, times)
    if problem.args[0] is not weights or problem.args[1] is not times:
        raise ValueError("problem= was built from other weights and times")
    return problem


def _usable_cpus() -> int:
    """CPUs this process may run on: the one count behind every thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(n: int) -> int:
    return n // 2 - (n // 2) % 8


def _leaves(lo: int, n: int) -> list:
    """(lo, hi) of each leaf of the summation tree over entries lo:lo+n, in order."""
    if n <= _LEAF:
        return [(lo, lo + n)]
    n2 = _split(n)
    return _leaves(lo, n2) + _leaves(lo + n2, n - n2)


def _tree_sum(sums, n: int, k: int = 0):
    """Leaf sums sums[k:] of a block of n entries added as numpy does,
    (left) + (right); returns the block's sums and the next leaf index."""
    if n <= _LEAF:
        return sums[k], k + 1
    n2 = _split(n)
    (a1, b1), k = _tree_sum(sums, n2, k)
    (a2, b2), k = _tree_sum(sums, n - n2, k)
    return (a1 + a2, b1 + b2), k


class _Gates:
    """S(r) = sum w u r / sum w u, u = exp(t^2/r), evaluated leaf by leaf.

    R(s) = (t^2/2)(1 + sqrt(1 + 4s/t^2)) is clamped to max(1, |t|) if `clamp`,
    only where |t| < 2: for s >= -t_min^2/4, R(s) >= t^2/2 >= |t| elsewhere.

    Both sums walk the leaves of the tree that numpy's pairwise summation
    uses on a contiguous float64 array: blocks of more than _LEAF entries
    split at n2 = n//2 - (n//2) % 8, and the leaf sums are added as
    (left) + (right).  A leaf runs the whole-array operations in the same
    order on _LEAF-entry buffers.  So S has the bits of
    (w u r).sum() / (w u).sum() over whole arrays, with no whole-array
    temporary; a test pins this against numpy.  Everything that does not
    depend on s (the arrays, the leaf plan, the clamp heads, the memo of S
    by s) is read from its Problem; a _Gates holds only the clamp, that
    clamp's memo and its leaf buffers.

    Used as a context manager, for a problem of more than one leaf and two
    usable CPUs, it makes a one-thread executor on entry and shuts it down
    on exit.  Each S then runs `_drain` once on that thread beside the
    calling thread and joins it before it adds the sums.  Each thread takes
    the next leaf not yet taken and writes its sums to that leaf's slot;
    the slots are added in tree order, so S keeps its bits for any thread
    count and timing.  Only the calling thread allocates: one pair of leaf
    buffers per thread.  A leaf that raises stops only its own thread; the
    other takes the leaves left, and the error, from either thread, reaches
    the caller after both have stopped, through the helper's future or
    through the `finally` that joins it.
    """

    def __init__(self, prob: Problem, clamp: bool):
        self.prob, self.clamp = prob, clamp
        self.memo, self.ys = prob.memo(clamp)
        self.bufs = [self._buffers()]
        self.pool = None

    def _buffers(self):
        leaf = min(self.prob.t2.size, _LEAF)
        return np.empty(leaf), np.empty(leaf)

    def __enter__(self):
        if len(self.prob.leaves) > 1 and _usable_cpus() > 1:
            self.bufs.append(self._buffers())
            self.pool = ThreadPoolExecutor(1, thread_name_prefix="randqpe-leaf-walk")
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def _fill_r(self, s: float, lo: int, hi: int, out) -> np.ndarray:
        """R(s) on the entries lo:hi, written to out."""
        p = self.prob
        r = np.divide(4.0 * s, p.t2[lo:hi], out=out)
        r += 1.0
        np.sqrt(r, out=r)
        r += 1.0
        r *= p.half_t2[lo:hi]
        if self.clamp:
            k0, k1 = np.searchsorted(p.head, (lo, hi))
            head = p.head[k0:k1] - lo
            r[head] = np.maximum(r[head], p.lb_head[k0:k1])
        return r

    def at(self, s: float) -> float:
        """S(R(s)), memoized by s."""
        if s not in self.memo:
            self.memo[s] = self.evaluate(lambda lo, hi, rb, ub: self._fill_r(s, lo, hi, rb))
        return self.memo[s]

    def at_ln(self, y: float, s_min: float) -> float:
        """S(R(s)) at s = s_min + e^y, keeping y as the coordinate of s."""
        s = s_min + math.exp(y)
        self.ys.setdefault(s, y)
        return self.at(s)

    def rounded(self, s: float) -> tuple[np.ndarray, float]:
        """r = max(round(R(s)), lb) as int64 and S(r), where lb is
        ceil(max(1, |t|) - 1e-9) if clamped, else 1; (r, A, S(r)) becomes
        the problem's last.

        Each leaf writes its entries of r, then S reads them as int64, which
        casts them as r.astype(float) would.
        """
        t = self.prob.t
        self.prob.last = None  # replaced below; the problem keeps one vector
        r = np.empty(t.size, dtype=np.int64)

        def r_leaf(lo, hi, rb, ub):
            rr = np.round(self._fill_r(s, lo, hi, rb), out=rb)
            if self.clamp:
                lb = np.maximum(1.0, np.abs(t[lo:hi], out=ub), out=ub)
                lb -= 1e-9
                np.ceil(lb, out=lb)
            else:
                lb = 1.0
            np.copyto(r[lo:hi], np.maximum(rr, lb, out=rr), casting="unsafe")
            return r[lo:hi]
        a, b = self._walk(r_leaf)
        self.prob.last = r, a, b / a
        return r, b / a

    def evaluate(self, r_leaf) -> float:
        """S of the runtime entries r_leaf gives, as _walk takes it."""
        a, b = self._walk(r_leaf)
        return b / a

    def _walk(self, r_leaf) -> tuple[float, float]:
        """(A, A S) = (sum w u, sum w u r) of the runtime entries that
        r_leaf(lo, hi, rb, ub) gives for each leaf lo:hi; it may use the
        leaf buffers rb and ub and may return rb."""
        leaves = self.prob.leaves
        sums, todo = [None] * len(leaves), deque(range(len(leaves)))
        helper = None if self.pool is None else self.pool.submit(
            self._drain, r_leaf, sums, todo, *self.bufs[1])
        try:
            self._drain(r_leaf, sums, todo, *self.bufs[0])
        finally:
            if helper is not None:
                helper.result()
        return _tree_sum(sums, self.prob.t2.size)[0]

    def _drain(self, r_leaf, sums, todo, rb, ub):
        """Sum the leaves left in todo until none is; a leaf's error propagates."""
        while True:
            try:
                k = todo.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            lo, hi = self.prob.leaves[k]
            sums[k] = self._leaf(r_leaf, lo, hi, rb[:hi - lo], ub[:hi - lo])

    def _leaf(self, r_leaf, lo: int, hi: int, rb, ub) -> tuple[float, float]:
        r = r_leaf(lo, hi, rb, ub)
        u = np.divide(self.prob.t2[lo:hi], r, out=ub)
        np.exp(u, out=u)
        u *= self.prob.w[lo:hi]
        a = float(u.sum())
        u *= r
        return a, float(u.sum())


def _brentq(f, xa: float, xb: float, args=(), xtol: float = 2e-12,
            rtol: float = 8.881784197001252e-16, maxiter: int = 100) -> float:
    """Root of f(x, *args) in [xa, xb] by scipy.optimize.brentq's steps.

    A line-for-line port of scipy's brentq.c: the same evaluations in the
    same order, so the same root to the bit, and the same errors, a
    ValueError for a NaN value or no sign change and a RuntimeError past
    maxiter.  Where a step's denominator is 0, C divides to inf or NaN,
    fails the step test and bisects; here the ZeroDivisionError bisects.
    """
    def call(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects unless the step test below passes
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # C's MIN
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# objectives are module-level functions with their state in args=, so a
# solve builds no closure and nothing it allocates waits for cyclic gc
def _gap(s, gates):
    return gates.at(s) - s


def _gap_in_ln(y, gates, s_min, target):
    return gates.at_ln(y, s_min) - target


def minimize_total(weights, times, *, problem: Problem | None = None) -> np.ndarray:
    """Minimize 2 * c_sample * c_gate via the one-dimensional fixed point.

    Stationarity gives r_j = (t_j^2/2)(1 + sqrt(1 + 4 s / t_j^2)) where the
    scalar s solves s = S(R(s)); s is bracketed in (0, 2 t_max^2].  r is
    rounded leaf by leaf to max(round(R(s)), 1).  problem=, a Problem of
    these weights and times, shares its memo with the other solves given it.
    """
    with _Gates(_problem(weights, times, problem), clamp=False) as gates:
        return gates.rounded(_fixed_point(gates))[0]


def fixed_point_residual(weights, times, s: float) -> float:
    """|s - S(R(s))| / s, for tests of the fixed-point solve."""
    with _Gates(Problem(weights, times), clamp=False) as gates:
        return abs(_gap(s, gates)) / abs(s)


def solve_fixed_point(weights, times) -> float:
    """The scalar s* behind minimize_total (pre-rounding)."""
    with _Gates(Problem(weights, times), clamp=False) as gates:
        return _fixed_point(gates)


def _fixed_point(gates) -> float:
    tmax2 = gates.prob.t2_max
    lo = 0.5 * min(gates.prob.t2_min, tmax2 * 1e-12)
    hi = 2.0 * tmax2 * (1.0 + 1e-9)
    if _gap(hi, gates) > 0.0:
        return hi
    return _brentq(_gap, lo, hi, args=(gates,), rtol=1e-14, maxiter=200)


def gate_floor(weights, times, *, problem: Problem | None = None) -> float:
    """Smallest expected gate count reachable by the constrained family."""
    with _Gates(_problem(weights, times, problem), clamp=True) as gates:
        return gates.at(-0.25 * gates.prob.t2_min * (1.0 - 1e-15))


def minimize_samples(weights, times, g: float, *,
                     problem: Problem | None = None) -> np.ndarray:
    """Minimize the sample count subject to expected gate count S(r) = g.

    The Lagrange condition yields the same one-parameter family as the
    total-complexity problem, with the multiplier entering through
    s = 1/lambda - g; S(R(s)) = g is solved by Brent's method in ln(s - s_min), in
    which S is close to linear.  Entries are clamped to max(1, |t_j|) so
    truncation bounds stay applicable, and rounded with a relative slack of
    1% on g, retrying at 2% lower targets; a failed retry at s_min is final.
    problem= as for minimize_total.
    """
    prob = _problem(weights, times, problem)
    with _Gates(prob, clamp=True) as gates:
        if math.isnan(g) or g == math.inf:
            raise ValueError(f"gate budget {g} is not a finite number")
        if g < 1.0:
            raise FeasibilityError("gate budget below one rotation per circuit")
        s_min = -0.25 * prob.t2_min * (1.0 - 1e-15)
        # in y = ln(s - s_min): at this y, s_min + e^y rounds to s_min
        floor = gates.at_ln(math.log(-s_min) - 40.0, s_min)
        if g < floor * (1.0 - 1e-12):
            raise FeasibilityError(f"gate budget {g:.6g} below feasibility floor {floor:.6g}")
        target, g_cap = g, g * (1.0 + 0.01)
        for _ in range(8):
            if floor >= target:
                s_star = s_min
            else:
                hi = max(2.0 * prob.t2_max, 4.0 * target)
                for _ in range(200):
                    y_hi = math.log(hi - s_min)
                    if gates.at_ln(y_hi, s_min) >= target:
                        break
                    hi *= 2.0
                s_star = s_min + math.exp(_brentq(
                    _gap_in_ln, *_bracket(gates, target, y_hi),
                    args=(gates, s_min, target), xtol=1e-15, rtol=1e-15, maxiter=200))
            r, c_gate = gates.rounded(s_star)
            feasible = c_gate <= g_cap
            if feasible or floor >= target:  # past the floor every retry repeats s_min
                break
            del r  # a retry rounds a new vector; two would be alive at once
            target *= 0.98
    if not feasible:
        raise FeasibilityError("rounding could not satisfy the gate budget")
    if r.size <= 256:
        r = _polish(prob.w, prob.t2, np.maximum(1.0, np.abs(prob.t)), r, g_cap)
    return r


def _bracket(gates, target: float, y_hi: float) -> tuple[float, float]:
    """y of the largest memo point with S < target and of the smallest with
    S >= target (y_hi if none has), each the y that produced that point, so
    both of brentq's ends are memo hits.  The floor's point is below."""
    below = [s for s in gates.ys if gates.memo[s] < target]
    above = [s for s in gates.ys if gates.memo[s] >= target]
    return gates.ys[max(below)], gates.ys[min(above)] if above else y_hi


def _polish(w, t2, lb, r, g_cap):
    r = r.copy()
    best = weight_and_gates(w, np.exp(t2 / r), r)[0]
    for _ in range(4):
        improved = False
        for i in range(r.size):
            for step in (+1, -1):
                cand = r.copy()
                cand[i] += step
                if cand[i] < max(1, math.ceil(lb[i] - 1e-9)):
                    continue
                cf = cand.astype(float)
                val, gates = weight_and_gates(w, np.exp(t2 / cf), cf)
                if gates > g_cap:
                    continue
                if val < best - 1e-12 * abs(best):
                    r, best, improved = cand, val, True
        if not improved:
            break
    return r


def complexity_report(weights, times, r, eta: float, eps: float, theta: float,
                      exact_mu: bool = True, M: int | None = None,
                      bias: float = 0.0) -> Complexities:
    """Weight A, sample count, expected gates, and total cost for r.

    c_sample = ceil((2A / (eta/2 - eps - bias))^2 ln(1/theta)); the bias
    term charges the truncation budget against the decision margin.
    """
    return _report(weights, times, r, eta, eps, theta, exact_mu, M, bias)[0]


def _report(weights, times, r, eta, eps, theta, exact_mu, M, bias):
    """complexity_report and the mu vector behind it, which build_plan keeps."""
    w, t = _validate(weights, times)
    r = np.asarray(r)
    if not np.isfinite(r).all():
        raise ValueError("runtime entries must be finite (no NaN or inf)")
    if np.any(r < 1):
        raise ValueError("runtime entries must be >= 1")
    if not 0.0 < eps < eta / 2.0 <= 0.5:
        raise ValueError("need 0 < eps < eta/2 <= 1/2")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be a probability")
    margin = eta / 2.0 - eps - bias
    if margin <= 0.0:
        raise ValueError("decision margin eta/2 - eps - bias must be positive")
    mu = mu_vector(t, r, M, exact_mu)
    weight_a, c_gate = weight_and_gates(w, mu, r)
    c_sample = math.ceil((2.0 * weight_a / margin) ** 2 * math.log(1.0 / theta))
    return Complexities(weight_A=weight_a, c_sample=c_sample, c_gate=c_gate,
                        c_total=2.0 * c_sample * c_gate, used_exact_mu=exact_mu), mu
