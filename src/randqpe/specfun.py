"""Numerically stable special functions for the filter construction.

All modified-Bessel work is done in scaled form e^-beta * I_n(beta); the
unscaled I_n overflows for the beta values reached by tight thresholds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

# scipy's Amos-based ive is reliable well past 1e8 but returns NaN for
# beta around 2e9 and above; beyond the cutoff Olver's uniform expansion is used
_IVE_DIRECT_MAX = 1.0e8

# orders per block of the closed form in bessel_i_scaled_sequence: each
# order is computed alone, so blocks change no bit, and the dozen or so
# block-sized temporaries of _ive_uniform stay near 1 MiB whatever nmax is
_UNIFORM_BLOCK = 1 << 13

_INV_E = math.exp(-1.0)


def bessel_i_scaled(n, beta: float):
    """Scaled modified Bessel function of the first kind, e^-beta * I_n(beta).

    scipy's ive up to beta = _IVE_DIRECT_MAX; above it, the closed form of
    bessel_i_scaled_sequence at the requested orders only.

    Args:
        n: order (non-negative integer, scalar or array).
        beta: positive argument.

    Returns:
        float or ndarray matching the shape of n.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("order must be non-negative")
    out = _sp.ive(n_arr, beta) if beta <= _IVE_DIRECT_MAX else _ive_uniform(n_arr, beta)
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out


def bessel_i_scaled_sequence(nmax: int, beta: float) -> np.ndarray:
    """All orders 0..nmax of e^-beta * I_n(beta) as one array.

    For beta above the scipy cutoff every order comes from Olver's uniform
    expansion (DLMF 10.41.3) with two correction terms.  With
    rho = sqrt(n^2 + beta^2) and p = n / rho,

        e^-beta I_n(beta) = exp(n^2/(rho + beta) - n asinh(n/beta)) / sqrt(2 pi rho)
                            * (1 + (3 - 5p^2)/(24 rho) + (81 - 462p^2 + 385p^4)/(1152 rho^2)),

    whose truncation error is O(rho^-3), below 1e-24 for beta > 1e8.
    The orders run in blocks of _UNIFORM_BLOCK, so the call allocates the
    result and a bounded scratch beside it.
    Against quadrature in mpmath the relative error is below 1e-13 at every
    order up to 8 sqrt(beta), where the values are ~1e-14 of the peak
    (tests/test_specfun.py, beta = 1.0001e8, 1.5e8 and 1.6e11).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    if beta <= _IVE_DIRECT_MAX:
        return _sp.ive(np.arange(nmax + 1), beta)
    out = np.empty(nmax + 1)
    for lo in range(0, nmax + 1, _UNIFORM_BLOCK):
        hi = min(lo + _UNIFORM_BLOCK, nmax + 1)
        out[lo:hi] = _ive_uniform(np.arange(lo, hi), beta)
    return out


def _ive_uniform(n, beta: float) -> np.ndarray:
    # in x = n/beta and q = rho/beta = hypot(x, 1), so that no intermediate
    # overflows at orders below 1e300: n^2/(rho + beta) = n x/(q + 1); far
    # orders underflow to 0
    nu = np.array(n, dtype=float, ndmin=1)
    x = nu / beta
    q = np.hypot(x, 1.0)
    p2 = x / q
    p2 *= p2
    inv = 1.0 / (beta * q)
    corr = 1.0 + inv * ((3.0 - 5.0 * p2) / 24.0
                        + inv * (81.0 - 462.0 * p2 + 385.0 * p2 * p2) / 1152.0)
    q += 1.0
    expo = np.divide(x, q, out=q)
    expo -= np.arcsinh(x, out=x)
    expo *= nu
    out = np.exp(expo, out=expo)
    out *= corr
    out *= np.sqrt(inv / (2.0 * math.pi), out=inv)
    return out.reshape(np.shape(n))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert-W function, w * e^w = x for x >= -1/e.

    Halley iteration from a branch-aware initial guess, with the
    branch-point series taking over near x = -1/e.  Stops at relative
    residual 1e-12.
    """
    if x < -_INV_E:
        if x > -_INV_E - 1e-15:
            x = -_INV_E
        else:
            raise ValueError("lambert_w0 requires x >= -1/e")
    if x == 0.0:
        return 0.0
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 < 0.0:
        p2 = 0.0
    if p2 < 1e-5:
        # series around the branch point w(-1/e) = -1
        p = math.sqrt(p2)
        return -1.0 + p - p2 / 3.0 + (11.0 / 72.0) * p * p2 - (43.0 / 540.0) * p2 * p2
    if x < -0.2:
        w = -1.0 + math.sqrt(p2) - p2 / 3.0
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * abs(x):
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


def f_threshold(beta: float, eps: float) -> float:
    """Solution t > beta of (e*beta/t)^t * e^-beta = eps.

    Closed form (ln(1/eps) - beta) / W((1/e)((1/beta) ln(1/eps) - 1)).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1); for eps >= 1 use t = beta")
    log_inv = -math.log(eps)
    u = log_inv / beta - 1.0
    if abs(u) < 1e-13:
        return math.e * beta
    return (log_inv - beta) / lambert_w0(u / math.e)


def harmonic_half(d: int) -> float:
    """Harmonic number at half-integer order, H_{d + 1/2}.

    Forward recurrence from H_{1/2} = 2 - 2 ln 2.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return 2.0 - 2.0 * math.log(2.0)
    ks = np.arange(1, d + 1, dtype=float)
    return 2.0 - 2.0 * math.log(2.0) + math.fsum(1.0 / (ks + 0.5))
