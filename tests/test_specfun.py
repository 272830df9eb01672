import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp

from randqpe import specfun


def ive_series_oracle(n: int, beta: float, terms: int = 400) -> float:
    # scaled power series: sum_m (beta/2)^(2m+n) / (m! (m+n)!) * e^-beta
    tot = 0.0
    for m in range(terms):
        lg = (2 * m + n) * math.log(beta / 2.0) - math.lgamma(m + 1) \
            - math.lgamma(m + n + 1) - beta
        tot += math.exp(lg)
    return tot


class TestBessel:
    def test_order_one_small_argument(self):
        assert specfun.bessel_i_scaled(1, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_frozen_values_from_series_oracle(self):
        # ive_series_oracle(0, 1) = 0.46575960759364043
        assert specfun.bessel_i_scaled(0, 1.0) == pytest.approx(
            0.46575960759364043, rel=1e-12)
        # ive_series_oracle(3, 2) = 0.02879122263947089
        assert specfun.bessel_i_scaled(3, 2.0) == pytest.approx(
            0.02879122263947089, rel=1e-12)

    def test_against_series_oracle_grid(self):
        for beta in (0.3, 1.0, 7.5, 40.0):
            for n in (0, 1, 2, 5, 11):
                assert specfun.bessel_i_scaled(n, beta) == pytest.approx(
                    ive_series_oracle(n, beta), rel=1e-10)

    def test_decreasing_in_order(self):
        seq = specfun.bessel_i_scaled_sequence(30, 5.0)
        assert np.all(np.diff(seq) < 0)
        assert 0 < seq[0] <= 1.0

    def test_recurrence_path_matches_scipy(self):
        # beta above the internal cutoff but still fine for scipy's ive
        beta = 5e8
        nmax = int(math.sqrt(6 * beta))
        mine = specfun.bessel_i_scaled_sequence(nmax, beta)
        ref = sp.ive(np.arange(nmax + 1), beta)
        assert np.max(np.abs(mine - ref) / ref) < 1e-9

    def test_recurrence_path_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        beta = 1e10
        seq = specfun.bessel_i_scaled_sequence(200_000, beta)
        for n in (0, 1, 1000, 200_000):
            ref = float(mpmath.besseli(n, beta, derivative=0) * mpmath.exp(-beta))
            assert seq[n] == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("beta, extra", [
        (1.0001e8, (79_766,)),
        # the upward recurrence that served here before returned 0 from order
        # 70,985 on, where the value is 1.65e-12, about 5e-8 of the peak
        (1.5e8, (70_985, 71_000, 80_000)),
        (1.6e11, (749_048,)),  # the heavy-molecule filter's last order
    ], ids=["1.0001e8", "1.5e8", "1.6e11"])
    def test_uniform_expansion_matches_quadrature(self, beta, extra):
        mpmath = pytest.importorskip("mpmath")

        def quadrature(n):
            # (1/pi) int_0^pi e^{beta (cos th - 1)} cos(n th) dth, with
            # cos th - 1 = -2 sin^2(th/2), split every 1/sqrt(beta); past
            # 24/sqrt(beta) the integrand is below e^-287
            with mpmath.workdps(40):
                b = mpmath.mpf(beta)
                h = 1 / mpmath.sqrt(b)

                def f(th):
                    return mpmath.exp(-2 * b * mpmath.sin(th / 2) ** 2) * mpmath.cos(n * th)
                return float(mpmath.quad(f, [k * h for k in range(25)]) / mpmath.pi)

        orders = [round(f * math.sqrt(beta)) for f in np.linspace(0.0, 8.0, 9)]
        orders += [1, 2, *extra]
        want = np.array([quadrature(n) for n in orders])
        assert np.all(want > 0)
        got = specfun.bessel_i_scaled(np.array(orders), beta)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        seq = specfun.bessel_i_scaled_sequence(max(extra), beta)
        np.testing.assert_allclose(seq[list(extra)], want[-len(extra):], rtol=1e-13, atol=0)

    def test_kasperkovitz_bound(self, rng):
        for beta in (1.0, 4.0, 30.0, 1000.0):
            for j in rng.integers(0, int(3 * math.sqrt(beta)) + 5, size=8):
                lhs = abs(math.sqrt(2 * math.pi * beta)
                          * specfun.bessel_i_scaled(int(j), beta)
                          - math.exp(-j * j / (2 * beta)))
                assert lhs <= 1.07 * beta ** -0.25

    def test_tail_identity_binomial_double_sum(self):
        # sum_{j>d} e^-b I_j(b) equals the re-indexed binomial double sum
        for beta in (0.7, 3.0, 10.0):
            for d in (0, 3, 20):
                direct = float(sum(specfun.bessel_i_scaled(j, beta)
                                   for j in range(d + 1, d + 200)))
                double = 0.0
                for j in range(d + 1, 400):
                    inner = sum(math.comb(j, k) for k in range(0, (j - d - 1) // 2 + 1))
                    double += math.exp(j * math.log(beta / 2.0)
                                       - math.lgamma(j + 1) - beta) * inner
                assert direct == pytest.approx(double, abs=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            specfun.bessel_i_scaled(0, 0.0)
        with pytest.raises(ValueError):
            specfun.bessel_i_scaled(-1, 1.0)


def ive_uniform_whole_array(nmax: int, beta: float) -> np.ndarray:
    """The closed form over all orders at once, as one whole-array expression."""
    nu = np.arange(nmax + 1).astype(float)
    x = nu / beta
    q = np.hypot(x, 1.0)
    p2 = (x / q) * (x / q)
    inv = 1.0 / (beta * q)
    corr = 1.0 + inv * ((3.0 - 5.0 * p2) / 24.0
                        + inv * (81.0 - 462.0 * p2 + 385.0 * p2 * p2) / 1152.0)
    return np.exp(nu * (x / (q + 1.0) - np.arcsinh(x))) * corr * np.sqrt(inv / (2.0 * math.pi))


class TestBesselSequenceBlocks:
    @pytest.mark.parametrize("nmax", [0, 1, specfun._UNIFORM_BLOCK - 1, specfun._UNIFORM_BLOCK,
                                      specfun._UNIFORM_BLOCK + 1, 3 * specfun._UNIFORM_BLOCK + 5])
    @pytest.mark.parametrize("beta", [1.0001e8, 1.6e11])
    def test_closed_form_has_the_bits_of_the_whole_array_expression(self, nmax, beta):
        # every order on both sides of every block boundary
        got = specfun.bessel_i_scaled_sequence(nmax, beta)
        want = ive_uniform_whole_array(nmax, beta)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("beta", [2.0, 5e7])
    def test_scipy_regime_has_the_bits_of_ive(self, beta):
        got = specfun.bessel_i_scaled_sequence(3 * specfun._UNIFORM_BLOCK + 5, beta)
        want = sp.ive(np.arange(3 * specfun._UNIFORM_BLOCK + 6), beta)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_closed_form_peak_memory_is_at_most_two_results(self):
        # the heavy-molecule degree: the result and one block's scratch
        nmax, beta = 749_048, 1.6e11
        tracemalloc.start()
        try:
            out = specfun.bessel_i_scaled_sequence(nmax, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestLambertW:
    def test_fixed_points(self):
        assert specfun.lambert_w0(0.0) == 0.0
        assert specfun.lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        # Newton oracle on w e^w = 1 gives 0.5671432904097838
        assert specfun.lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-13)

    def test_round_trip_log_grid(self):
        for x in np.concatenate([np.geomspace(1e-6, 1e8, 40),
                                 [-0.36, -0.3, -0.1, -0.01]]):
            w = specfun.lambert_w0(float(x))
            assert w >= -1.0
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-12, abs=1e-300)

    def test_against_scipy(self):
        for x in (-0.367, -0.2, 0.3, 2.0, 75.0, 1e5):
            assert specfun.lambert_w0(x) == pytest.approx(
                float(sp.lambertw(x).real), rel=1e-11)

    def test_branch_point(self):
        assert specfun.lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)
        with pytest.raises(ValueError):
            specfun.lambert_w0(-0.5)


class TestThreshold:
    def test_frozen_root_values(self):
        # brentq oracle on t (1 + ln b - ln t) = b + ln(eps):
        # f(1, 0.1) = 3.822109975814008, f(5, 1e-6) = 20.775294779276045
        assert specfun.f_threshold(1.0, 0.1) == pytest.approx(3.822109975814008, rel=1e-10)
        assert specfun.f_threshold(5.0, 1e-6) == pytest.approx(20.775294779276045, rel=1e-10)

    def test_residual_and_lower_bound(self):
        for beta in (0.5, 1.0, 8.0, 200.0):
            for eps in (0.9, 0.3, 1e-3, 1e-9):
                t = specfun.f_threshold(beta, eps)
                assert t > beta
                # |log residual| <= 1e-9 makes (e b/t)^t e^-b match eps to 1e-9 relative
                resid = t * (1 + math.log(beta) - math.log(t)) - beta - math.log(eps)
                assert abs(resid) <= 1e-9

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            specfun.f_threshold(1.0, 1.0)


class TestHarmonic:
    def test_half(self):
        assert specfun.harmonic_half(0) == pytest.approx(2 - 2 * math.log(2), rel=1e-14)

    def test_three_halves(self):
        assert specfun.harmonic_half(1) == pytest.approx(
            2 - 2 * math.log(2) + 2.0 / 3.0, rel=1e-14)

    def test_monotone(self):
        vals = [specfun.harmonic_half(d) for d in range(20)]
        assert np.all(np.diff(vals) > 0)

    def test_digamma_oracle(self):
        for d in (0, 1, 7, 100, 5000):
            ref = float(sp.digamma(d + 1.5)) + np.euler_gamma
            assert specfun.harmonic_half(d) == pytest.approx(ref, rel=1e-12)
