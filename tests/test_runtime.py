import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import brentq

from randqpe import cli, estimator, resources, runtime


def random_instance(rng, n=6, fmax=1.0, tmax=4.0):
    w = rng.uniform(0.05, fmax, size=n)
    t = rng.uniform(0.4, tmax, size=n) * rng.choice([-1.0, 1.0], size=n)
    return w, t


# (xtol, rtol, maxiter) of minimize_total's and minimize_samples' root
# solves, and scipy's defaults, which _brentq shares
BRENTQ_TOLERANCES = [
    dict(rtol=1e-14, maxiter=200),
    dict(xtol=1e-15, rtol=1e-15, maxiter=200),
    dict(),
]

BRENTQ_FUNCTIONS = [
    lambda x: math.exp(x) - 2.0,
    lambda x: x ** 3 - 2.0 * x - 5.0,
    lambda x: math.tanh(x - 0.3),
    lambda x: math.cos(x) - x,
    lambda x: (x - 1.0) ** 5,  # a root of order 5: many bisections
    lambda x: math.atan(1e3 * (x - 0.1)) + 1e-3 * x,  # a near-step
]


def _root_and_path(solver, f, a, b, **kw):
    """(root or error type, every x the solver evaluated f at, in order)."""
    seen = []
    try:
        root = solver(lambda x, out: out.append(x) or f(x), a, b, args=(seen,), **kw)
    except (ValueError, RuntimeError) as exc:
        root = type(exc)
    return root, seen


class TestBrentqPort:
    @pytest.mark.parametrize("k", range(len(BRENTQ_FUNCTIONS)))
    def test_same_root_bits_and_steps_as_scipy(self, k):
        f, rng = BRENTQ_FUNCTIONS[k], np.random.default_rng(k)
        for a, b in np.sort(rng.uniform(-6.0, 6.0, (200, 2)), axis=1).tolist():
            for kw in BRENTQ_TOLERANCES:
                want, want_path = _root_and_path(brentq, f, a, b, **kw)
                got, path = _root_and_path(runtime._brentq, f, a, b, **kw)
                assert path == want_path
                if isinstance(want, float):
                    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
                else:
                    assert got is want

    def test_zero_at_an_end_is_returned(self):
        for a, b in ((1.0, 3.0), (-2.0, 1.0)):
            assert runtime._brentq(lambda x: x - 1.0, a, b) == brentq(lambda x: x - 1.0, a, b)

    def test_zero_denominator_bisects_as_scipy(self):
        # at values near 1e-150 the product of three value differences in
        # each extrapolation step's denominator underflows to exactly 0: C
        # divides to inf or NaN and bisects, and so must the port, which
        # then evaluates f at more points than on the unscaled cubic
        cubic = BRENTQ_FUNCTIONS[1]
        paths = []
        for scale in (1.0, 1e-150):
            want, want_path = _root_and_path(brentq, lambda x: scale * cubic(x), -1.0, 4.0,
                                             **BRENTQ_TOLERANCES[0])
            got, path = _root_and_path(runtime._brentq, lambda x: scale * cubic(x), -1.0, 4.0,
                                       **BRENTQ_TOLERANCES[0])
            assert got == want and path == want_path
            paths.append(path)
        assert len(paths[1]) > len(paths[0])

    @pytest.mark.parametrize("f, a, b, kw, error, match", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError, "different signs"),
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError, "NaN"),
        (lambda x: math.exp(x) - 2.0, -5.0, 5.0, dict(maxiter=3), RuntimeError,
         "Failed to converge after 3 iterations"),
    ])
    def test_same_errors_as_scipy(self, f, a, b, kw, error, match):
        with pytest.raises(error, match=match):
            brentq(f, a, b, **kw)
        with pytest.raises(error, match=match):
            runtime._brentq(f, a, b, **kw)


class TestConstantWeight:
    def test_ceiling(self):
        np.testing.assert_array_equal(runtime.constant_weight([2.5]), [13])

    def test_clamp(self):
        np.testing.assert_array_equal(runtime.constant_weight([0.1]), [1])

    def test_weight_bound_sqrt_e(self, rng):
        # A(r) with u_j weights is at most sqrt(e) * sum |F_j|
        for _ in range(20):
            w, t = random_instance(rng)
            r = runtime.constant_weight(t)
            a = float((w * np.exp(t * t / r)).sum())
            assert a <= math.sqrt(math.e) * w.sum() * (1 + 1e-12)


class TestMinimizeTotal:
    def test_symmetric_inputs_equal_entries(self):
        r = runtime.minimize_total([0.3, 0.3, 0.3], [2.0, -2.0, 2.0])
        assert len(set(r.tolist())) == 1

    def test_single_index_against_scan(self):
        # c(r) = u(r)^2 r with u = exp(t^2/r); dense integer scan oracle
        t = 2.0
        r_opt = int(runtime.minimize_total([1.0], [t])[0])
        scan = min(range(1, 201), key=lambda r: math.exp(2 * t * t / r) * r)
        assert r_opt == scan == 8

    def test_fixed_point_residual(self, rng):
        for _ in range(10):
            w, t = random_instance(rng)
            s = runtime.solve_fixed_point(w, t)
            assert runtime.fixed_point_residual(w, t, s) <= 1e-9

    def test_stationarity(self, rng):
        w, t = random_instance(rng)
        s = runtime.solve_fixed_point(w, t)
        t2 = t * t
        r = 0.5 * t2 * (1 + np.sqrt(1 + 4 * s / t2))

        def c_of(rv):
            u = np.exp(t2 / rv)
            return float((w * u).sum() * (w * u * rv).sum())

        base = c_of(r)
        for i in range(len(r)):
            h = 1e-4 * r[i]
            rp, rm = r.copy(), r.copy()
            rp[i] += h
            rm[i] -= h
            grad = (c_of(rp) - c_of(rm)) / (2 * h)
            assert abs(grad) * r[i] <= 1e-6 * base

    def test_dominates_constant_weight(self, rng):
        wins = 0
        for _ in range(50):
            w, t = random_instance(rng)
            r_opt = runtime.minimize_total(w, t)
            r_cw = runtime.constant_weight(t)
            c_opt = _total(w, t, r_opt)
            c_cw = _total(w, t, r_cw)
            assert c_opt <= c_cw * (1 + 1e-9)
            wins += c_opt < c_cw
        assert wins > 0


def _total(w, t, r):
    u = np.exp(t * t / r)
    a = float((w * u).sum())
    return a * float((w * u * r).sum())


class TestMinimizeSamples:
    def test_beats_constant_weight_at_its_own_budget(self, rng):
        for _ in range(10):
            w, t = random_instance(rng)
            r_cw = runtime.constant_weight(t)
            u = np.exp(t * t / r_cw)
            g = float((w * u * r_cw).sum() / (w * u).sum())
            r = runtime.minimize_samples(w, t, g)
            assert _objective(w, t, r) <= _objective(w, t, r_cw) * (1 + 1e-9)

    def test_symmetric_entries_near_budget(self):
        # uniform vectors satisfy S(r) = r, so entries land within one of g
        w = np.array([0.4, 0.4, 0.4, 0.4])
        t = np.array([1.5, -1.5, 1.5, -1.5])
        g = 30.0
        r = runtime.minimize_samples(w, t, g)
        assert r.max() - r.min() <= 1
        assert np.all(np.abs(r - g) <= 1)

    def test_matches_exhaustive_search(self, rng):
        # three indices, exhaustive integer oracle over the admissible box
        for seed in range(4):
            gen = np.random.default_rng(seed)
            w = gen.uniform(0.2, 1.0, size=3)
            t = gen.uniform(0.8, 3.5, size=3)
            g = float(gen.uniform(6.0, 25.0))
            r = runtime.minimize_samples(w, t, g)
            ours = _objective(w, t, r)
            lbs = [max(1, math.ceil(abs(x))) for x in t]
            best = None
            for combo in itertools.product(*[range(lb, 61) for lb in lbs]):
                rv = np.array(combo, dtype=float)
                u = np.exp(t * t / rv)
                s = float((w * u * rv).sum() / (w * u).sum())
                if s > g * 1.01:
                    continue
                val = float((w * u).sum())
                if best is None or val < best:
                    best = val
            assert ours <= best * 1.02

    def test_constraint_slack(self, rng):
        w, t = random_instance(rng)
        g = runtime.gate_floor(w, t) * 3.0
        r = runtime.minimize_samples(w, t, g)
        u = np.exp(t * t / r)
        s = float((w * u * r).sum() / (w * u).sum())
        assert s <= g * 1.01

    def test_respects_truncation_premise(self):
        r = runtime.minimize_samples([1.0, 1.0], [3.0, -0.3], 12.0)
        assert r[0] >= 3 and r[1] >= 1

    def test_infeasible_raises(self):
        with pytest.raises(runtime.FeasibilityError):
            runtime.minimize_samples([1.0, 1.0], [4.0, -4.0], 1.0)


def _objective(w, t, r):
    return float((np.asarray(w) * np.exp(np.asarray(t) ** 2 / r)).sum())


def _bracket_in_s(w, t, g, slack=0.01):
    """Oracle for minimize_samples: brentq on s itself over [s_min, hi], every
    rounding retry taken, S(r) evaluated with plain numpy."""
    t2 = t * t
    lb = np.maximum(1.0, np.abs(t))
    s_min = -0.25 * float(t2.min()) * (1.0 - 1e-15)

    def gates(r):
        u = w * np.exp(t2 / r)
        return float((u * r).sum() / u.sum())

    def r_of(s):
        return np.maximum(0.5 * t2 * (1.0 + np.sqrt(1.0 + 4.0 * s / t2)), lb)

    floor = gates(r_of(s_min))
    if g < floor * (1.0 - 1e-12):
        return None
    target = g
    for _ in range(8):
        hi = max(2.0 * float(t2.max()), 4.0 * target)
        while gates(r_of(hi)) < target:
            hi *= 2.0
        s = s_min if floor >= target else brentq(
            lambda s: gates(r_of(s)) - target, s_min, hi, rtol=1e-14, maxiter=200)
        r = np.maximum(np.round(r_of(s)), np.ceil(lb - 1e-9))
        if gates(r) <= g * (1.0 + slack):
            return r
        target *= 0.98
    return None


def test_heavy_sweep_evaluation_count_and_oracle(monkeypatch):
    # lambda 1511 at a 100x coarser Delta than the heavy-molecule point: d = 7,495
    *_, times, weights = estimator._window(1511.0, 0.16, 1.0, 0.2)
    r_opt = runtime.minimize_total(weights, times)
    c_gate_opt = runtime.weight_and_gates(weights, np.exp(times ** 2 / r_opt), r_opt)[1]
    problem = runtime.Problem(weights, times)
    floor = runtime.gate_floor(weights, times, problem=problem)
    calls = _count_evaluations(monkeypatch)
    feasible = 0
    for g in np.geomspace(1.05 * c_gate_opt, floor * (1 + 1e-6), 10):
        expect = _bracket_in_s(weights, times, float(g))
        if expect is None:
            with pytest.raises(runtime.FeasibilityError):
                runtime.minimize_samples(weights, times, float(g), problem=problem)
            continue
        r = runtime.minimize_samples(weights, times, float(g), problem=problem)
        got = runtime.weight_and_gates(weights, np.exp(times ** 2 / r), r)
        want = runtime.weight_and_gates(weights, np.exp(times ** 2 / expect), expect)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        feasible += 1
    assert feasible >= 8
    # bracketing in s took 223 evaluations here, ln(s - s_min) 160; memoizing
    # S by s makes brentq's two endpoints hits (138), and sharing the memo
    # through one Problem makes the floor and the first hi hits (119);
    # starting each brentq from the tightest bracket in the memo makes 80
    assert 0 < len(calls) <= 80


class TestComplexityReport:
    def test_sample_count_formula(self):
        # ceil((2*1/(1/2 - 0.1))^2 ln 20) = ceil(25 ln 20) = 75
        rep = runtime.complexity_report([1.0], [1e-3], [10 ** 6], eta=1.0, eps=0.1,
                                        theta=0.05, exact_mu=False)
        assert rep.weight_A == pytest.approx(1.0, rel=1e-9)
        assert rep.c_sample == 75

    def test_uniform_r_gives_r(self, rng):
        w, t = random_instance(rng)
        rep = runtime.complexity_report(w, t, np.full(len(w), 17), eta=1.0,
                                        eps=0.2, theta=0.1, exact_mu=False)
        assert rep.c_gate == pytest.approx(17.0, rel=1e-12)

    def test_gate_below_max(self, rng):
        w, t = random_instance(rng)
        r = runtime.constant_weight(t)
        rep = runtime.complexity_report(w, t, r, eta=0.8, eps=0.2, theta=0.1,
                                        exact_mu=True, M=12)
        assert rep.c_gate <= r.max()
        assert rep.c_total == pytest.approx(2 * rep.c_sample * rep.c_gate)

    def test_exact_mu_below_bound(self, rng):
        w, t = random_instance(rng)
        r = runtime.constant_weight(t)
        exact = runtime.complexity_report(w, t, r, 1.0, 0.2, 0.1, exact_mu=True, M=16)
        loose = runtime.complexity_report(w, t, r, 1.0, 0.2, 0.1, exact_mu=False)
        assert exact.weight_A <= loose.weight_A * (1 + 1e-12)
        assert exact.used_exact_mu and not loose.used_exact_mu

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            runtime.complexity_report([1.0], [1.0], [5], eta=0.4, eps=0.2, theta=0.1)
        with pytest.raises(ValueError):
            runtime.complexity_report([1.0], [1.0], [5], eta=1.0, eps=0.4,
                                      theta=0.1, bias=0.2)


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("n", [1, 7, 8, 129, runtime._LEAF, runtime._LEAF + 1,
                               3 * runtime._LEAF + 5, 749_049])
def test_leaf_walk_has_the_bits_of_whole_array_sums(n, clamp):
    # the leaf walk follows numpy's pairwise summation tree; if numpy ever
    # changes that tree, these sums stop matching bit for bit
    gen = np.random.default_rng(n)
    w = gen.uniform(1e-6, 1.0, size=n)
    t = gen.uniform(0.05, 40.0, size=n) * gen.choice([-1.0, 1.0], size=n)
    t2 = t * t
    gates = runtime._Gates(runtime.Problem(w, t), clamp)
    for s in (-0.25 * float(t2.min()) * (1.0 - 1e-15), 0.0, 3.0, 1e4):
        r = (np.sqrt(4.0 * s / t2 + 1.0) + 1.0) * (0.5 * t2)
        if clamp:
            r = np.where(np.abs(t) < 2.0, np.maximum(r, np.maximum(1.0, np.abs(t))), r)
        wu = w * np.exp(t2 / r)
        sums = (float(wu.sum()), float((wu * r).sum()))
        np.testing.assert_array_equal(gates._fill_r(s, 0, n, np.empty(n)), r)
        assert gates._walk(lambda lo, hi, rb, ub: r[lo:hi]) == sums
        assert gates.at(s) == float(sums[1] / sums[0])


def _count_evaluations(monkeypatch) -> list:
    """One entry per S(r) evaluated from here on: one per leaf walk."""
    calls = []
    orig = runtime._Gates._walk

    def counting(self, r_leaf):
        calls.append(1)
        return orig(self, r_leaf)

    monkeypatch.setattr(runtime._Gates, "_walk", counting)
    return calls


def test_passed_problem_shares_its_memo_and_calls_without_share_none(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    w, t = random_instance(np.random.default_rng(5), n=40)
    w.flags.writeable = t.flags.writeable = False  # read-only makes no difference
    floor = runtime.gate_floor(w, t)
    assert runtime.gate_floor(w, t) == floor and len(calls) == 2
    runtime.minimize_samples(w, t, 2.0 * floor)
    alone = len(calls) - 2
    runtime.minimize_samples(w, t, 2.0 * floor)
    assert len(calls) == 2 + 2 * alone
    problem = runtime.Problem(w, t)
    assert runtime.gate_floor(w, t, problem=problem) == floor
    assert runtime.gate_floor(w, t, problem=problem) == floor
    before = len(calls)
    assert before == 2 + 2 * alone + 1
    # the floor is a hit; so, on a repeat, is every s but the rounded vector's
    runtime.minimize_samples(w, t, 2.0 * floor, problem=problem)
    assert len(calls) == before + alone - 1
    runtime.minimize_samples(w, t, 2.0 * floor, problem=problem)
    assert len(calls) == before + alone


def test_problem_of_other_arrays_raises():
    w, t = random_instance(np.random.default_rng(7), n=8)
    problem = runtime.Problem(w, t)
    assert runtime.gate_floor(w, t, problem=problem) == runtime.gate_floor(w, t)
    # equal values are not enough: the problem holds what it derived from its arrays
    for args in ((w.copy(), t), (w, t.copy()), (list(w), list(t))):
        for solve in (runtime.minimize_total, runtime.gate_floor,
                      lambda w, t, problem: runtime.minimize_samples(w, t, 9.0,
                                                                     problem=problem)):
            with pytest.raises(ValueError, match="other weights and times"):
                solve(*args, problem=problem)


@pytest.mark.parametrize("call", [
    runtime.Problem, runtime.minimize_total, runtime.gate_floor,
    lambda w, t: runtime.minimize_samples(w, t, 9.0),
    lambda w, t: runtime.complexity_report(w, t, np.full(w.size, 5), eta=1.0, eps=0.2,
                                           theta=0.1, exact_mu=True, M=8),
], ids=["Problem", "minimize_total", "gate_floor", "minimize_samples",
        "complexity_report"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["weights", "times"])
def test_non_finite_input_raises_naming_the_array(call, value, name):
    w, t = random_instance(np.random.default_rng(8))
    (w if name == "weights" else t)[2] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(w, t)


@pytest.mark.parametrize("exact_mu", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_runtime_vector_raises(value, exact_mu):
    w, t = random_instance(np.random.default_rng(8))
    r = np.full(w.size, 5.0)
    r[2] = value
    with pytest.raises(ValueError, match="^runtime entries must be finite"):
        runtime.complexity_report(w, t, r, eta=1.0, eps=0.2, theta=0.1,
                                  exact_mu=exact_mu, M=8)


def test_curve_builds_one_problem_per_eps(monkeypatch):
    built = []

    class Counted(runtime.Problem):
        def __init__(self, weights, times):
            built.append(len(times))
            super().__init__(weights, times)

    monkeypatch.setattr(runtime, "Problem", Counted)
    points = resources.tradeoff_curve(1511.0, 0.16, 1.0, [0.1, 0.2], n_grid=6)
    # minimize_total, gate_floor and six minimize_samples calls per eps
    assert len(points) == 14
    d = [estimator._window(1511.0, 0.16, 1.0, eps)[2].d for eps in (0.1, 0.2)]
    assert built == [d[0] + 1, d[1] + 1]


def test_gate_floor_sees_a_change_in_place_between_calls():
    w, t = random_instance(np.random.default_rng(6), n=40)
    w.flags.writeable = t.flags.writeable = False
    before = runtime.gate_floor(w, t)
    t.flags.writeable = True
    t *= 3.0
    t.flags.writeable = False
    after = runtime.gate_floor(w, t)
    assert after == runtime.gate_floor(w.copy(), t.copy()) and after != before


def _sweep_vector(w, t, g):
    try:
        return runtime.minimize_samples(w, t, g)
    except runtime.FeasibilityError:
        return None


def test_sweep_vectors_do_not_depend_on_earlier_solves():
    # the heavy-molecule window, solved in the order of a curve's sweep; when
    # solves on read-only arrays shared a memo, two of these budgets (1.8013e11
    # and 1.6020e11) rounded to vectors 19 and 3 entries away from fresh ones
    *_, t, w = estimator._window(1511.0, 0.0016, 1.0, 0.2)
    w.flags.writeable = t.flags.writeable = False
    r_opt = runtime.minimize_total(w, t)
    c_gate = runtime.weight_and_gates(w, np.exp(t ** 2 / r_opt), r_opt)[1]
    floor = runtime.gate_floor(w, t)
    for g in np.geomspace(1.05 * c_gate, floor * (1 + 1e-6), 10):
        after_others = _sweep_vector(w, t, float(g))
        alone = _sweep_vector(w.copy(), t.copy(), float(g))
        assert (after_others is None) == (alone is None)
        if alone is not None:
            np.testing.assert_array_equal(after_others, alone)


@pytest.mark.parametrize("cpus", [1, 8])
@pytest.mark.parametrize("heavy", [False, True])
def test_walk_sums_have_the_bits_of_weight_and_gates(monkeypatch, cpus, heavy):
    # heavy: the heavy-molecule window, d = 749,049 over 16 leaves; else 40
    # indices, which minimize_samples polishes after rounding
    monkeypatch.setattr(runtime, "_usable_cpus", lambda: cpus)
    if heavy:
        *_, t, w = estimator._window(1511.0, 0.0016, 1.0, 0.2)
    else:
        w, t = random_instance(np.random.default_rng(9), n=40)
    problem = runtime.Problem(w, t)
    sums = []
    for solve in (lambda: runtime.minimize_total(w, t, problem=problem),
                  lambda: runtime.minimize_samples(
                      w, t, math.sqrt(sums[0][1] * runtime.gate_floor(w, t, problem=problem)),
                      problem=problem)):
        r = solve()
        # the problem kept the sums of the walk that rounded r, unless polishing
        # replaced r after that walk
        assert (problem.last[0] is r) == (heavy or not sums)
        want = runtime.weight_and_gates(w, np.exp(t ** 2 / r), r)
        sums.append(problem.cost(r))
        assert sums[-1] == want
        # a copy is not the vector the walk rounded: whole-array sums, same bits
        assert problem.cost(r.copy()) == want


# sha256 of `resource-curve --lambda 1511 --Delta 0.0016 --eta 1 --eps 0.2
# --ngrid 10` as the single-threaded leaf walk wrote it
HEAVY_CURVE_SHA256 = "be6ef7c3c5a98fbf301a6d15980f29ef12f91a04d14de0cc5a1878c3773dc1af"


def _started_threads(monkeypatch) -> list:
    """The threads started from here on, through threading.Thread."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


class TestTwoThreadWalk:
    """_Gates runs the leaves of an S on the calling thread and one worker."""

    @staticmethod
    def instance(n=5 * runtime._LEAF + 3):
        gen = np.random.default_rng(2)
        w = gen.uniform(1e-6, 1.0, size=n) * np.exp(gen.uniform(-20.0, 0.0, size=n))
        t = gen.uniform(0.05, 40.0, size=n) * gen.choice([-1.0, 1.0], size=n)
        return w, t

    def test_same_bits_for_any_cpu_count(self, monkeypatch):
        w, t = self.instance()
        t2 = t * t
        s_list = (-0.25 * float(t2.min()) * (1.0 - 1e-15), 0.0, 3.0, 1e4)
        want, orders_differ = [], 0
        for s in s_list:
            r = (np.sqrt(4.0 * s / t2 + 1.0) + 1.0) * (0.5 * t2)
            r = np.where(np.abs(t) < 2.0, np.maximum(r, np.maximum(1.0, np.abs(t))), r)
            wu = w * np.exp(t2 / r)
            want.append(float((wu * r).sum() / wu.sum()))
            for x in (wu, wu * r):
                leaf_sums = [float(x[lo:hi].sum()) for lo, hi in runtime._leaves(0, x.size)]
                orders_differ += sum(leaf_sums[1:], leaf_sums[0]) != float(x.sum())
        # adding the leaf sums left to right would change some of these bits
        assert orders_differ > 0
        results, started = [], _started_threads(monkeypatch)
        for cpus in (1, 8):
            monkeypatch.setattr(runtime, "_usable_cpus", lambda: cpus)
            before = len(started)
            with runtime._Gates(runtime.Problem(w, t), clamp=True) as gates:
                assert [gates.at(s) for s in s_list] == want
            r_total = runtime.minimize_total(w, t)
            c_gate = runtime.weight_and_gates(w, np.exp(t2 / r_total), r_total)[1]
            g = math.sqrt(c_gate * runtime.gate_floor(w, t))
            results.append((r_total, runtime.minimize_samples(w, t, g)))
            # one worker per public call that evaluates S, and only with two CPUs
            assert len(started) - before == (0 if cpus == 1 else 4)
        for one, two in zip(*results):
            assert one.dtype == two.dtype == np.int64
            np.testing.assert_array_equal(one, two)

    def test_each_leaf_once_under_frequent_switches(self, monkeypatch):
        monkeypatch.setattr(runtime, "_usable_cpus", lambda: 2)
        w, t = self.instance()
        started = _started_threads(monkeypatch)
        gen = np.random.default_rng(3)
        rs = [t * t * gen.uniform(0.5, 4.0, size=t.size) for _ in range(3)]
        want = [float((w * np.exp(t * t / r) * r).sum() / (w * np.exp(t * t / r)).sum())
                for r in rs]
        leaves = sorted(lo for lo, _ in runtime._leaves(0, t.size))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with runtime._Gates(runtime.Problem(w, t), clamp=False) as gates:
                for i in range(60):
                    seen = []

                    def r_leaf(lo, hi, rb, ub, r=rs[i % 3]):
                        seen.append(lo)
                        return r[lo:hi]
                    assert gates.evaluate(r_leaf) == want[i % 3]
                    assert sorted(seen) == leaves
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_heavy_curve_digest(self, monkeypatch, capsys, cpus):
        monkeypatch.setattr(runtime, "_usable_cpus", lambda: cpus)
        assert cli.run(["resource-curve", "--lambda", "1511", "--Delta", "0.0016",
                        "--eta", "1", "--eps", "0.2", "--ngrid", "10"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == HEAVY_CURVE_SHA256

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(runtime, "_usable_cpus", lambda: 2)
        w, t = self.instance()
        caller, worker_ran = threading.get_ident(), threading.Event()
        fill_r = runtime._Gates._fill_r

        def failing(self, s, lo, hi, out):
            if threading.get_ident() != caller:
                worker_ran.set()
                raise ArithmeticError(f"leaf {lo}:{hi} failed")
            # the caller's first leaf waits, so the worker takes a leaf
            assert worker_ran.wait(30), "no leaf ran on a worker"
            return fill_r(self, s, lo, hi, out)

        monkeypatch.setattr(runtime._Gates, "_fill_r", failing)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="failed"):
            runtime.gate_floor(w, t)
        assert threading.active_count() == threads

    def test_caller_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(runtime, "_usable_cpus", lambda: 2)
        w, t = self.instance()
        caller = threading.get_ident()
        helper_running, raising = threading.Event(), threading.Event()
        fill_r = runtime._Gates._fill_r

        def failing(self, s, lo, hi, out):
            if threading.get_ident() == caller:
                assert helper_running.wait(30), "no leaf ran on the helper"
                raising.set()
                raise ArithmeticError(f"leaf {lo}:{hi} failed")
            # the helper's first leaf is still running when the caller raises
            helper_running.set()
            assert raising.wait(30), "the calling thread ran no leaf"
            return fill_r(self, s, lo, hi, out)

        monkeypatch.setattr(runtime._Gates, "_fill_r", failing)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="failed"):
            runtime.gate_floor(w, t)
        assert threading.active_count() == threads

    def test_one_leaf_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(runtime, "_usable_cpus", lambda: 8)
        started = _started_threads(monkeypatch)
        for n, threads in ((runtime._LEAF, 0), (runtime._LEAF + 1, 1)):
            w, t = self.instance(n)
            floor = runtime.gate_floor(w, t)
            assert len(started) == threads
            runtime.minimize_samples(w, t, 1.5 * floor)
            assert len(started) == 2 * threads
