import math

import numpy as np
import pytest

from randqpe import resources, runtime


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
