import gc
import math
import tracemalloc

import numpy as np
import pytest

import randqpe as rq
from randqpe import estimator, resources, runtime


class TestHwpToffoli:
    def test_single_rotation(self):
        assert resources.hwp_toffoli(1) == pytest.approx(27.0)

    def test_per_gate_reference_points(self):
        # formula values: (2w + 25 log2(2w)) / w
        assert resources.hwp_toffoli_per_gate(100) == pytest.approx(3.911, abs=0.05)
        assert resources.hwp_toffoli_per_gate(40) == pytest.approx(5.951, abs=0.05)

    def test_per_gate_approaches_two(self):
        # per-rotation cost decreases in w and limits to 2
        ws = [40, 2 ** 5 * 4, 2 ** 10, 10 ** 4, 10 ** 6]
        vals = [resources.hwp_toffoli_per_gate(w) for w in ws]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 2.0 < vals[-1] < 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            resources.hwp_toffoli(0)


class TestToffoliPerSample:
    def test_multipliers(self):
        assert resources.toffoli_per_sample(1e11, "asymptotic2x") == pytest.approx(2e11)
        assert resources.toffoli_per_sample(1e11, "modest6x") == pytest.approx(6e11)

    def test_synthesis_ratio(self):
        # T-count over Toffoli-count ratio is 100/2 = 50 per unit c_gate
        ratio = (resources.toffoli_per_sample(3.0, "synthesis")
                 / resources.toffoli_per_sample(3.0, "asymptotic2x"))
        assert ratio == pytest.approx(50.0)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            resources.toffoli_per_sample(1.0, "magic")


class TestTradeoffCurve:
    # small desk-scale configuration; structure identical to the big runs
    LAM, DELTA, ETA, EPS = 4.0, 1.0, 1.0, 0.2

    def curve(self, n_grid=12, b=1.0):
        return resources.tradeoff_curve(self.LAM, self.DELTA, self.ETA,
                                        [self.EPS], b=b, n_grid=n_grid)

    def test_optimal_point_flagged_once(self):
        pts = self.curve()
        assert sum(p.flag_optimal for p in pts) == 1

    def test_monotone_tradeoff(self):
        pts = [p for p in self.curve() if p.feasible and not p.flag_optimal]
        gs = np.array([p.g_target for p in pts])
        cs = np.array([p.c_sample_over_ln for p in pts])
        order = np.argsort(gs)
        assert np.all(np.diff(cs[order]) <= 1e-9 * cs[order][:-1])

    def test_consistency_with_complexity_report(self):
        pts = [p for p in self.curve() if p.feasible]
        tau = math.pi / (2 * self.LAM + self.DELTA)
        from randqpe.heaviside import build_fourier, optimize_split
        series = build_fourier(optimize_split(tau * self.DELTA, self.EPS))
        js = 2 * np.arange(series.d + 1) + 1
        times = -js * tau * self.LAM
        weights = 2.0 * series.odd_abs
        for p in pts:
            if p.flag_optimal:
                rvec = runtime.minimize_total(weights, times)
            else:
                rvec = runtime.minimize_samples(weights, times, p.g_target)
            rep = runtime.complexity_report(weights, times, rvec, self.ETA,
                                            self.EPS, theta=math.exp(-1.0),
                                            exact_mu=False)
            assert p.c_gate == pytest.approx(rep.c_gate, rel=1e-12)
            margin = self.ETA / 2 - self.EPS
            assert p.c_sample_over_ln == pytest.approx(
                (2 * rep.weight_A / margin) ** 2, rel=1e-12)

    def test_infeasible_grid_points_become_warnings(self):
        pts = resources.tradeoff_curve(self.LAM, self.DELTA, self.ETA, [self.EPS],
                                       g_grid=[1.0])
        warn = [p for p in pts if not p.feasible]
        assert len(warn) == 1 and "floor" in warn[0].note

    def test_toffoli_map_keys(self):
        pts = self.curve()
        for p in pts:
            if p.feasible:
                assert set(p.toffoli_per_sample_estimates) == {40, 100}
                assert p.toffoli_per_sample_estimates[100] == pytest.approx(
                    p.c_gate * resources.hwp_toffoli_per_gate(100))

    def test_csv_lines(self):
        pts = self.curve(n_grid=4)
        lines = resources.curve_csv_lines(pts, comments=("hello",))
        assert lines[0] == "# hello"
        assert lines[1] == resources.CSV_HEADER
        assert any(line.endswith(",1") for line in lines[2:])


def test_ground_search_multiplier_near_six():
    lam, Delta = 1511.0, 0.0016
    tau = math.pi / (2 * lam + Delta)
    val = resources.ground_search_multiplier(0.1, tau * lam, 0.5 * tau * Delta)
    assert abs(val - 6.0) < 1.5


@pytest.mark.parametrize("b", [1.0, 2.5])
def test_curve_optimum_matches_build_plan(b):
    # both derive tau, the filter and the runtime vector from one helper
    lam, Delta, eta, eps = 3.7, 0.9, 1.0, 0.2
    h = rq.Hamiltonian([(lam, rq.SignedPauli(rq.PauliString.from_axes("Z")))])
    plan = estimator.build_plan(h, Delta, eta, eps, 0.1, b=b, rmode="total")
    u = np.exp(plan.times ** 2 / plan.rvec)
    _, c_gate = runtime.weight_and_gates(plan.weights, u, plan.rvec)
    (opt,) = resources.tradeoff_curve(lam, Delta, eta, [eps], b=b, g_grid=[])
    assert opt.flag_optimal
    assert opt.c_gate == c_gate


def test_curve_retains_nothing_without_cyclic_gc():
    # nothing the filter build and the runtime solves allocate may stay
    # reachable from a reference cycle that only cyclic gc would free
    *_, times, _ = estimator._window(1511.0, 0.16, 1.0, 0.2)
    resources.tradeoff_curve(1511.0, 0.16, 1.0, [0.2], n_grid=10)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        resources.tradeoff_curve(1511.0, 0.16, 1.0, [0.2], n_grid=10)
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left <= 2 * times.nbytes


def test_heavy_curve_peak_memory_is_bounded():
    # the heavy-molecule curve keeps times, weights, t^2, t^2/2 and one
    # runtime vector alive at a time (5 arrays of length d + 1, plus the
    # leaf buffers); no filter, index array or priced vector stays behind
    lam, Delta, eps = 1511.0, 0.0016, 0.2
    d = estimator._window(lam, Delta, 1.0, eps)[2].d
    gc.collect()
    tracemalloc.start()
    try:
        resources.tradeoff_curve(lam, Delta, 1.0, [eps], n_grid=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * (d + 1)


@pytest.mark.parametrize("lam, Delta, b", [(1511.0, 0.16, 1.0), (3.7, 0.9, 2.5)])
def test_window_arrays_have_the_bits_of_the_whole_array_expressions(lam, Delta, b):
    tau, _, series, js, times, weights = estimator._window(lam, Delta, b, 0.2)
    want_js = 2 * np.arange(series.d + 1, dtype=np.int64) + 1
    np.testing.assert_array_equal(js, want_js)
    assert times.view(np.uint64).tolist() == (-want_js * tau * lam).view(np.uint64).tolist()
    assert weights.view(np.uint64).tolist() == (2.0 * series.odd_abs).view(np.uint64).tolist()
