"""Certified Fourier approximation to the Heaviside step.

The Fourier series lives on odd frequencies {0} U {+-(2j+1)} for
j = 0..d.  Its coefficients come from scaled modified Bessel functions;
the parameters (beta, d) are chosen so the approximation error on the
band [delta, pi - delta] (and mirrored) is certified analytically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun


@dataclass(frozen=True)
class ApproxParams:
    """Certified filter parameters for one (delta, eps1, eps2, eps3) choice.

    Band error is (eps1+eps2+eps3)/2, range slack (eps1+eps2)/2.
    """

    delta: float
    eps1: float
    eps2: float
    eps3: float
    beta: float
    w_eps1: float
    t_int: int
    d: int

    @property
    def eps_total(self) -> float:
        return 0.5 * (self.eps1 + self.eps2 + self.eps3)


@dataclass(frozen=True)
class FourierSeries:
    """F(x) = 1/2 + sum_j F_{2j+1} (e^{i(2j+1)x} - e^{-i(2j+1)x}).

    odd_abs[j] holds |F_{2j+1}|; each F_{2j+1} is -i * odd_abs[j] and
    negative indices follow by antisymmetry F_{-k} = -F_k.
    """

    beta: float
    d: int
    odd_abs: np.ndarray
    params: ApproxParams | None = None

    def __post_init__(self):
        self.odd_abs.flags.writeable = False

    @property
    def weight(self) -> float:
        """Total coefficient weight sum_{j in S1} |F_j|."""
        return 0.5 + 2.0 * float(self.odd_abs.sum())

    def coeff(self, j: int) -> complex:
        if j == 0:
            return 0.5 + 0.0j
        k = abs(j)
        if k % 2 == 0 or k > 2 * self.d + 1:
            return 0.0 + 0.0j
        mag = self.odd_abs[(k - 1) // 2]
        return -1j * mag if j > 0 else 1j * mag

    def indices(self) -> list[int]:
        """S1 ordered as 0, 1, -1, 3, -3, ..."""
        out = [0]
        for j in range(self.d + 1):
            out.extend((2 * j + 1, -(2 * j + 1)))
        return out


def select_parameters(delta: float, eps1: float, eps2: float, eps3: float) -> ApproxParams:
    """Pick (beta, t, d) certifying the three error contributions.

    beta = max{W(2/(pi eps3^2)) / (4 sin^2 delta), 1}; the integer t
    exceeds the Poisson-tail threshold (or beta when eps2 is loose);
    d = ceil(sqrt(t * W(8/(pi eps1^2)))).
    """
    if not 0.0 < delta < math.pi / 2:
        raise ValueError("delta must lie in (0, pi/2)")
    if min(eps1, eps2, eps3) <= 0.0:
        raise ValueError("eps components must be positive")
    beta, w1, t = _beta_w1_t(delta, eps1, eps2, eps3)
    if t == math.inf:
        raise ValueError(f"delta = {delta:.6g} is too small: the filter degree overflows")
    t_int = math.ceil(t)
    d = max(1, math.ceil(math.sqrt(t_int * w1)))
    return ApproxParams(delta, eps1, eps2, eps3, beta, w1, t_int, d)


def _beta_w1_t(delta: float, eps1: float, eps2: float, eps3: float):
    """beta, W(8/(pi eps1^2)) and the real-valued Poisson-tail threshold t."""
    w3 = specfun.lambert_w0(2.0 / (math.pi * eps3 ** 2))
    sin2 = math.sin(delta) ** 2  # 0.0 below delta = 1.5e-154, where beta overflows
    beta = max(w3 / (4.0 * sin2), 1.0) if sin2 else math.inf
    w1 = specfun.lambert_w0(8.0 / (math.pi * eps1 ** 2))
    eff = math.sqrt(2.0 * math.pi * w1) * eps2
    t = specfun.f_threshold(beta, eff) if eff < 1.0 else beta
    return beta, w1, t


def _d_continuous(delta: float, eps1: float, eps2: float, eps3: float) -> float:
    # real-valued d proxy (no ceilings), used only to steer the refinement
    _, w1, t = _beta_w1_t(delta, eps1, eps2, eps3)
    return math.sqrt(t * w1)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# eps range of optimize_split: its split components (eps/40 to 2 eps) are
# squared in W(2/(pi eps3^2)) and W(8/(pi eps1^2)), which under- or overflow
# from about 1.2e-153 and 4.2e153 on
EPS_RANGE = (1e-150, 1e150)
# largest filter degree optimize_split returns: over 10x the heavy-molecule
# d = 749,048, and 64 MiB per array of length d
MAX_DEGREE = 1 << 23


def _golden_min(fun, lo, hi, iters=40):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d_)
    for _ in range(iters):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = fun(d_)
    return (a + b) / 2.0


@functools.lru_cache(maxsize=128)
def optimize_split(delta: float, eps: float) -> ApproxParams:
    """Minimize d over error splits eps1 + eps2 + eps3 = 2 * eps.

    Simplex grid search in steps of 2 eps / 20, followed by golden-section
    refinement along each of the two free axes; never returns a split worse
    than the equal one.
    ValueError if eps lies outside EPS_RANGE or the chosen split needs
    d > MAX_DEGREE.
    """
    if not 0.0 < delta < math.pi / 2:
        raise ValueError("delta must lie in (0, pi/2)")
    if not EPS_RANGE[0] <= eps <= EPS_RANGE[1]:
        raise ValueError(f"eps = {eps!r} lies outside [{EPS_RANGE[0]:g}, {EPS_RANGE[1]:g}]")
    total, grid = 2.0 * eps, 20
    candidates = [(total / 3.0, total / 3.0)]
    best = None
    for i in range(1, grid):
        for j in range(1, grid - i):
            e1 = total * i / grid
            e2 = total * j / grid
            val = _d_continuous(delta, e1, e2, total - e1 - e2)
            if best is None or val < best[0]:
                best = (val, e1, e2)
    _, e1, e2 = best
    candidates.append((e1, e2))
    lo1, hi1 = total / (4 * grid), total - e2 - total / (4 * grid)
    e1 = _golden_min(lambda a: _d_continuous(delta, a, e2, total - a - e2), lo1, hi1)
    lo2, hi2 = total / (4 * grid), total - e1 - total / (4 * grid)
    e2 = _golden_min(lambda a: _d_continuous(delta, e1, a, total - e1 - a), lo2, hi2)
    candidates.append((e1, e2))
    results = [select_parameters(delta, a, b, total - a - b) for a, b in candidates]
    best = min(results, key=lambda p: (p.d, p.t_int))
    if best.d > MAX_DEGREE:
        raise ValueError(f"filter degree d = {best.d} exceeds the cap {MAX_DEGREE}; "
                         f"a larger delta or eps gives a smaller d")
    return best


def build_fourier(params: ApproxParams) -> FourierSeries:
    """Fourier coefficients from scaled Bessel values.

    |F_{2j+1}| = sqrt(beta/2pi) (ive_j + ive_{j+1}) / (2j+1) for j < d,
    with the single-Bessel form at j = d.
    """
    beta, d = params.beta, params.d
    iv = specfun.bessel_i_scaled_sequence(d, beta)
    odd_abs = np.empty(d + 1)
    np.add(iv[:d], iv[1:d + 1], out=odd_abs[:d])
    odd_abs[d] = iv[d]
    del iv  # at most two arrays of length d + 1 are alive at a time
    k = np.arange(d + 1, dtype=float)
    k *= 2.0
    k += 1.0
    odd_abs *= math.sqrt(beta / (2.0 * math.pi))
    odd_abs /= k
    return FourierSeries(beta=beta, d=d, odd_abs=odd_abs, params=params)


_EVAL_BLOCK = 1 << 18  # x-by-frequency elements per eval_fourier block, ~56 B each


def eval_fourier(series: FourierSeries, x):
    """Evaluate F(x); ArithmeticError if the sum's imaginary residue tops 1e-10."""
    xs = np.asarray(x, dtype=float).ravel()
    k = 2.0 * np.arange(series.d + 1) + 1.0
    coeff = -1j * series.odd_abs
    total = np.empty(xs.size, dtype=complex)
    rows = max(1, _EVAL_BLOCK // k.size)
    for lo in range(0, xs.size, rows):
        kx = np.outer(xs[lo:lo + rows], k)
        total[lo:lo + rows] = 0.5 + (np.exp(1j * kx) - np.exp(-1j * kx)) @ coeff
    if float(np.abs(total.imag).max()) > 1e-10:
        raise ArithmeticError("imaginary residue too large")
    out = total.real
    return float(out[0]) if np.isscalar(x) else out


def band_grid(delta: float, n: int = 2000) -> np.ndarray:
    """Symmetric grid on [-pi+delta, -delta] U [delta, pi-delta], endpoints included."""
    half = np.linspace(delta, math.pi - delta, n // 2)
    return np.concatenate([-half[::-1], half])


def certification_report(series: FourierSeries, n_band: int = 2000, n_range: int = 2001) -> dict:
    """Grid check of the band error, range bound, and coefficient-weight bound."""
    params = series.params
    if params is None:
        raise ValueError("series carries no construction parameters")
    xs = band_grid(params.delta, n_band)
    vals = eval_fourier(series, xs)
    step = (xs > 0).astype(float)
    band_err = float(np.abs(step - vals).max())
    xr = np.linspace(-math.pi, math.pi, n_range)
    vr = eval_fourier(series, xr)
    odd_sum = float(series.odd_abs.sum())
    weight_bound = 0.5 * specfun.harmonic_half(series.d) + math.log(2.0)
    return {
        "delta": params.delta,
        "eps_total": params.eps_total,
        "d": series.d,
        "beta": series.beta,
        "band_error": band_err,
        "band_ok": band_err <= params.eps_total,
        "range_min": float(vr.min()),
        "range_max": float(vr.max()),
        "range_ok": (vr.min() >= -params.eps_total) and (vr.max() <= 1.0 + params.eps_total),
        "odd_weight": odd_sum,
        "odd_weight_bound": weight_bound,
        "weight_ok": odd_sum <= weight_bound,
    }
