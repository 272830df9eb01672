"""Classical resource estimation: sample/gate trade-off curves and the
Toffoli compilation cost model.

Curve points report theta-free quantities: c_sample / ln(1/theta) =
(2A / (eta/2 - eps))^2 and its total-cost counterpart.  The per-index
weights use the analytic bound u_j = exp(t_j^2 / r_j); at curve scales
the exact truncated weights agree with u_j to well below plotting
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import runtime
from .heaviside import build_fourier, optimize_split

HWP_DEFAULT_WIDTHS = (40, 100)


@dataclass(frozen=True)
class ResourcePoint:
    """One (gate budget, sample cost) point of a trade-off curve."""

    eps: float
    b: float
    g_target: float
    c_gate: float
    c_sample_over_ln: float
    c_total_over_ln: float
    flag_optimal: bool
    toffoli_per_sample_estimates: dict = field(default_factory=dict)
    feasible: bool = True
    note: str = ""


def hwp_toffoli(w: int) -> float:
    """Toffoli cost of a Hamming-weight-phased block of w equal rotations.

    C_{w-Rot} = w (2w + 25 log2(2w)): 2w Toffolis per bit of the weight
    register plus 25 per synthesized rotation on log2(2w) qubits.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    return w * (2.0 * w + 25.0 * math.log2(2.0 * w))


def hwp_toffoli_per_gate(w: int) -> float:
    """Per-rotation Toffoli cost C_{w-Rot} / w^2; approaches 2 for large w."""
    return hwp_toffoli(w) / (w * w)


def toffoli_per_sample(c_gate: float, regime: str) -> float:
    """Non-Clifford count per circuit under a compilation regime.

    asymptotic2x: 2 c_gate Toffoli (long commuting runs, many ancillae);
    modest6x: 6 c_gate Toffoli (about 40 ancillae); synthesis: 100 c_gate
    T gates from per-rotation synthesis without batching.
    """
    if c_gate <= 0:
        raise ValueError("c_gate must be positive")
    factors = {"asymptotic2x": 2.0, "modest6x": 6.0, "synthesis": 100.0}
    if regime not in factors:
        raise ValueError(f"unknown regime {regime!r}")
    return factors[regime] * c_gate


def ground_search_multiplier(xi: float, tau_lambda: float, delta: float) -> float:
    """ln(1/theta) with theta = xi/s for the bisection search.

    At the heavy-molecule benchmark parameters, xi = 0.1 gives roughly 6.
    """
    s = math.ceil(math.log2((2.0 * tau_lambda + 4.0 * delta) / (2.0 * delta)))
    return math.log(s / xi)


def _curve_for_eps(lam: float, Delta: float, eta: float, eps: float, b: float,
                   g_grid, n_grid: int):
    tau = math.pi / (2.0 * lam / b + Delta)
    delta = tau * Delta
    params = optimize_split(delta, eps)
    series = build_fourier(params)
    js = 2 * np.arange(series.d + 1, dtype=np.int64) + 1
    times = -js * tau * lam
    weights = 2.0 * series.odd_abs
    margin = eta / 2.0 - eps

    def point(rvec, g_target, optimal):
        u = np.exp(times ** 2 / rvec)
        wu = weights * u
        a = float(wu.sum())
        c_gate = float((wu * rvec).sum() / a)
        cs = (2.0 * a / margin) ** 2
        tof = {w: c_gate * hwp_toffoli_per_gate(w) for w in HWP_DEFAULT_WIDTHS}
        return ResourcePoint(eps=eps, b=b, g_target=g_target, c_gate=c_gate,
                             c_sample_over_ln=cs, c_total_over_ln=2.0 * cs * c_gate,
                             flag_optimal=optimal,
                             toffoli_per_sample_estimates=tof)

    r_opt = runtime.minimize_total(weights, times)
    opt = point(r_opt, g_target=float("nan"), optimal=True)
    points = [opt]
    if g_grid is None:
        floor = runtime.gate_floor(weights, times)
        g_grid = np.geomspace(1.05 * opt.c_gate, floor * (1.0 + 1e-6), n_grid)
    for g in g_grid:
        try:
            rv = runtime.minimize_samples(weights, times, float(g))
        except runtime.FeasibilityError as exc:
            points.append(ResourcePoint(eps=eps, b=b, g_target=float(g),
                                        c_gate=float("nan"),
                                        c_sample_over_ln=float("nan"),
                                        c_total_over_ln=float("nan"),
                                        flag_optimal=False, feasible=False,
                                        note=str(exc)))
            continue
        points.append(point(rv, g_target=float(g), optimal=False))
    return points


def tradeoff_curve(lam: float, Delta: float, eta: float, eps_list, b: float = 1.0,
                   g_grid=None, n_grid: int = 40):
    """Trade-off points for each eps: one total-complexity optimum plus a
    gate-constrained sweep from 1.05x the optimal budget down to the
    feasibility floor.  Infeasible budgets become warning records.
    """
    if lam <= 0 or Delta <= 0:
        raise ValueError("lambda and Delta must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    eps_list = list(eps_list)
    for eps in eps_list:
        if not 0.0 < eps < eta / 2.0:
            raise ValueError("each eps must lie in (0, eta/2)")
    return [p for eps in eps_list
            for p in _curve_for_eps(lam, Delta, eta, eps, b, g_grid, n_grid)]


CSV_HEADER = "eps,b,g_target,c_gate,c_sample_over_ln,c_total_over_ln,flag_optimal"


def curve_csv_lines(points, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(CSV_HEADER)
    for p in points:
        if not p.feasible:
            lines.append(f"# skipped infeasible g={p.g_target:.9e}: {p.note}")
            continue
        lines.append(f"{p.eps:.9g},{p.b:.9g},{p.g_target:.9e},{p.c_gate:.9e},"
                     f"{p.c_sample_over_ln:.9e},{p.c_total_over_ln:.9e},"
                     f"{int(p.flag_optimal)}")
    return lines
