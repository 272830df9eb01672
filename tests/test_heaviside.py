import math

import numpy as np
import pytest

from randqpe import heaviside, specfun


class TestSelectParameters:
    def test_beta_component(self):
        # oracle: W(2/(0.04 pi)) = W(15.915494) = 2.0496325744621036
        p = heaviside.select_parameters(0.5, 0.2, 0.2, 0.2)
        expect = 2.0496325744621036 / (4 * math.sin(0.5) ** 2)
        assert p.beta == pytest.approx(max(expect, 1.0), rel=1e-12)

    def test_w_eps1(self):
        # oracle: W(8/(0.04 pi)) = W(63.661977) = 3.041301825028391
        p = heaviside.select_parameters(0.5, 0.2, 0.2, 0.2)
        assert p.w_eps1 == pytest.approx(3.041301825028391, rel=1e-12)

    def test_d_definition(self):
        for delta, e in ((0.3, 0.1), (0.05, 0.02), (1.2, 0.4)):
            p = heaviside.select_parameters(delta, e, e, e)
            assert p.d >= 1
            assert p.d >= math.sqrt(p.t_int * p.w_eps1) - 1
            assert p.d == max(1, math.ceil(math.sqrt(p.t_int * p.w_eps1)))

    def test_loose_eps2_branch_uses_beta(self):
        p = heaviside.select_parameters(0.5, 0.2, 5.0, 0.2)
        assert p.t_int == math.ceil(p.beta)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            heaviside.select_parameters(0.0, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            heaviside.select_parameters(0.3, -0.1, 0.1, 0.1)


class TestOptimizeSplit:
    def test_never_worse_than_equal_split(self):
        for delta, eps in ((0.3, 0.2), (0.1, 0.1), (0.05, 0.05)):
            best = heaviside.optimize_split(delta, eps)
            e = 2 * eps / 3
            equal = heaviside.select_parameters(delta, e, e, e)
            assert best.d <= equal.d
            total = best.eps1 + best.eps2 + best.eps3
            assert total == pytest.approx(2 * eps, rel=1e-12)

    def test_halving_delta_roughly_doubles_d(self):
        d1 = heaviside.optimize_split(0.1, 0.1).d
        d2 = heaviside.optimize_split(0.05, 0.1).d
        assert 1.3 <= d2 / d1 <= 6.0


class TestFourierCoefficients:
    def test_f0_is_half(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.3, 0.2))
        assert s.coeff(0) == 0.5

    def test_odd_coeffs_negative_imaginary(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.2, 0.1))
        for j in range(s.d + 1):
            c = s.coeff(2 * j + 1)
            assert c.real == 0.0 and c.imag < 0.0
            assert s.coeff(-(2 * j + 1)) == -c

    def test_frozen_first_coefficient_beta2(self):
        # |F_1| at beta=2, d=2 from the scaled-series Bessel oracle:
        # sqrt(1/pi) (ive(0,2) + ive(1,2)) = 0.2955098726745521
        p = heaviside.ApproxParams(delta=0.3, eps1=0.1, eps2=0.1, eps3=0.1,
                                   beta=2.0, w_eps1=1.0, t_int=2, d=2)
        s = heaviside.build_fourier(p)
        assert s.coeff(1) == pytest.approx(-0.2955098726745521j, rel=1e-12)

    def test_weight_matches_sum(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.2, 0.1))
        assert s.weight == pytest.approx(0.5 + 2 * float(s.odd_abs.sum()), rel=1e-12)


class TestEval:
    def test_value_at_zero(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.3, 0.2))
        assert heaviside.eval_fourier(s, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_complementarity(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.2, 0.1))
        xs = np.linspace(-math.pi, math.pi, 257)
        f = heaviside.eval_fourier(s, xs)
        fr = heaviside.eval_fourier(s, -xs)
        np.testing.assert_allclose(f + fr, 1.0, atol=1e-10)

    def test_band_error_certified(self):
        s = heaviside.build_fourier(heaviside.optimize_split(0.2, 0.1))
        xs = heaviside.band_grid(0.2, 2000)
        err = np.abs((xs > 0).astype(float) - heaviside.eval_fourier(s, xs))
        assert err.max() <= s.params.eps_total

    def test_imaginary_residue_raises(self):
        # a complex odd_abs leaves an imaginary part 0.2 sin(x) in the sum
        s = heaviside.FourierSeries(beta=1.0, d=0, odd_abs=np.array([0.1 + 0.1j]))
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            heaviside.eval_fourier(s, 1.0)


class TestCheb:
    def test_p_at_zero(self):
        for delta, eps in ((0.4, 0.2), (0.15, 0.08)):
            params = heaviside.optimize_split(delta, eps)
            c = heaviside.build_cheb(params)
            assert heaviside.eval_cheb_p(c, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_fourier_is_cheb_of_sine(self):
        params = heaviside.optimize_split(0.25, 0.12)
        c = heaviside.build_cheb(params)
        f = heaviside.build_fourier(params)
        xs = np.linspace(-math.pi, math.pi, 1000)
        np.testing.assert_allclose(heaviside.eval_cheb_p(c, np.sin(xs)),
                                   heaviside.eval_fourier(f, xs), atol=1e-9)

    def test_t1_coefficient_beta2(self):
        p = heaviside.ApproxParams(delta=0.3, eps1=0.1, eps2=0.1, eps3=0.1,
                                   beta=2.0, w_eps1=1.0, t_int=2, d=2)
        c = heaviside.build_cheb(p)
        expect = 2 * math.sqrt(4 / math.pi) * (specfun.bessel_i_scaled(0, 2.0)
                                               + specfun.bessel_i_scaled(1, 2.0))
        assert c.q_odd[0] == pytest.approx(expect, rel=1e-12)

    def test_erf_approximation_bound(self):
        params = heaviside.select_parameters(0.4, 0.1, 0.05, 0.1)
        c = heaviside.build_cheb(params)
        xs = np.linspace(-1, 1, 1501)
        err = np.abs(specfun.erf(math.sqrt(2 * params.beta) * xs)
                     - heaviside.eval_cheb_q(c, xs))
        assert err.max() <= params.eps1 + params.eps2


def test_sign_function_erf_bound():
    # k^2 >= W(2/(pi e3^2)) / (2 nu^2) forces |sgn - erf(kx)| <= e3 on |x| >= nu
    for nu, e3 in ((0.3, 0.1), (0.05, 0.02)):
        k = math.sqrt(specfun.lambert_w0(2 / (math.pi * e3 ** 2)) / (2 * nu ** 2))
        xs = np.concatenate([np.linspace(nu, 10, 500), -np.linspace(nu, 10, 500)])
        err = np.abs(np.sign(xs) - specfun.erf(k * xs))
        assert err.max() <= e3 * (1 + 1e-12)


def test_range_bound_tighter_than_band():
    s = heaviside.build_fourier(heaviside.optimize_split(0.1, 0.1))
    xs = np.linspace(-math.pi, math.pi, 4001)
    vals = heaviside.eval_fourier(s, xs)
    assert vals.min() >= -s.params.eps_range - 1e-12
    assert vals.max() <= 1 + s.params.eps_range + 1e-12


def test_weight_bound_harmonic():
    for delta, eps in ((0.3, 0.2), (0.1, 0.1)):
        s = heaviside.build_fourier(heaviside.optimize_split(delta, eps))
        bound = 0.5 * specfun.harmonic_half(s.d) + math.log(2.0)
        assert float(s.odd_abs.sum()) <= bound
