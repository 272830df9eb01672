"""Runtime-vector selection and complexity accounting.

All operations work on parallel arrays over the sampled Fourier indices
(zero-time indices excluded by the caller): `weights` holds |F_j| and
`times` holds t_j.  The relaxed real-valued problem uses the analytic
weight bound u_j = exp(t_j^2 / r_j); results are rounded to integers and
reported with exact truncated weights on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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


def _r_of_s(t2: np.ndarray, s: float) -> np.ndarray:
    return 0.5 * t2 * (1.0 + np.sqrt(1.0 + 4.0 * s / t2))


def weight_and_gates(weights, mu, r) -> tuple[float, float]:
    """A = sum w mu and c_gate = sum w mu r / A, with no validation and one pass
    each: the runtime optimizers call this hundreds of times over ~1e6 indices."""
    wmu = weights * mu
    a = float(wmu.sum())
    return a, float((wmu * r).sum() / a)


def _S(weights, t2, r) -> float:
    return weight_and_gates(weights, np.exp(t2 / r), r)[1]


def minimize_total(weights, times) -> np.ndarray:
    """Minimize 2 * c_sample * c_gate via the one-dimensional fixed point.

    Stationarity gives r_j = (t_j^2/2)(1 + sqrt(1 + 4 s / t_j^2)) where the
    scalar s solves s = S(R(s)); s is bracketed in (0, 2 t_max^2].
    """
    t = np.asarray(times, dtype=float)  # solve_fixed_point validates
    r_real = _r_of_s(t * t, solve_fixed_point(weights, times))
    return np.maximum(np.round(r_real), 1.0).astype(np.int64)


def fixed_point_residual(weights, times, s: float) -> float:
    """|s - S(R(s))| / s, for tests of the fixed-point solve."""
    w, t = _validate(weights, times)
    t2 = t * t
    return abs(_S(w, t2, _r_of_s(t2, s)) - s) / abs(s)


def solve_fixed_point(weights, times) -> float:
    """The scalar s* behind minimize_total (pre-rounding)."""
    w, t = _validate(weights, times)
    t2 = t * t
    tmax2 = float(t2.max())
    lo = 0.5 * min(float(t2.min()), tmax2 * 1e-12)
    hi = 2.0 * tmax2 * (1.0 + 1e-9)

    def gap(s):
        return _S(w, t2, _r_of_s(t2, s)) - s

    if gap(hi) > 0.0:
        return hi
    return brentq(gap, lo, hi, rtol=1e-14, maxiter=200)


def gate_floor(weights, times) -> float:
    """Smallest expected gate count reachable by the constrained family."""
    w, t = _validate(weights, times)
    t2 = t * t
    lb = np.maximum(1.0, np.abs(t))
    s_min = -0.25 * float(t2.min())
    r = np.maximum(_r_of_s(t2, s_min * (1.0 - 1e-15)), lb)
    return _S(w, t2, r)


def minimize_samples(weights, times, g: float, slack: float = 0.01) -> np.ndarray:
    """Minimize the sample count subject to expected gate count S(r) = g.

    The Lagrange condition yields the same one-parameter family as the
    total-complexity problem, with the multiplier entering through
    s = 1/lambda - g; S(R(s)) = g is solved by brentq in ln(s - s_min), in
    which S is close to linear.  Entries are clamped to max(1, |t_j|) so
    truncation bounds stay applicable, and rounded with a relative slack on
    g, retrying at 2% lower targets; a failed retry at s_min is final.
    """
    w, t = _validate(weights, times)
    if g < 1.0:
        raise FeasibilityError("gate budget below one rotation per circuit")
    t2 = t * t
    lb = np.maximum(1.0, np.abs(t))
    s_min = -0.25 * float(t2.min()) * (1.0 - 1e-15)

    def r_clamped(s):
        return np.maximum(_r_of_s(t2, s), lb)

    floor = _S(w, t2, r_clamped(s_min))
    if g < floor * (1.0 - 1e-12):
        raise FeasibilityError(f"gate budget {g:.6g} below feasibility floor {floor:.6g}")
    target = g
    for _ in range(8):
        if floor >= target:
            s_star = s_min
        else:
            hi = max(2.0 * float(t2.max()), 4.0 * target)
            for _ in range(200):
                if _S(w, t2, r_clamped(hi)) >= target:
                    break
                hi *= 2.0
            # in y = ln(s - s_min); at the lower end s_min + e^y rounds to s_min
            s_star = s_min + math.exp(brentq(
                lambda y: _S(w, t2, r_clamped(s_min + math.exp(y))) - target,
                math.log(-s_min) - 40.0, math.log(hi - s_min),
                xtol=1e-15, rtol=1e-15, maxiter=200))
        r = np.maximum(np.round(r_clamped(s_star)), np.ceil(lb - 1e-9)).astype(np.int64)
        feasible = _S(w, t2, r.astype(float)) <= g * (1.0 + slack)
        if feasible or floor >= target:  # past the floor every retry repeats s_min
            break
        target *= 0.98
    if not feasible:
        raise FeasibilityError("rounding could not satisfy the gate budget")
    if r.size <= 256:
        r = _polish(w, t2, lb, r, g * (1.0 + slack))
    return r


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
