"""Eigenvalue thresholding and ground-state energy search.

A Plan fixes the spectral window tau, the certified Fourier filter, the
per-index runtime vector, the truncation order, and the sample budget.
One SampleSet of Hadamard-test records is x-independent: the estimate at
any threshold x re-phases the same records, so a full bisection reuses a
single quantum data set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import runtime
from .backend import StateVector, exact_spectrum
from .heaviside import FourierSeries, build_fourier, eval_fourier, optimize_split
from .lcu import segment_distribution, truncation_order
from .pauli import Hamiltonian, index_action

# collect_samples holds one block of records at a time.  Per amplitude the
# state (complex), index (int64), phase and gather (complex) buffers cost
# _BYTES_PER_AMP bytes; a block's buffers stay within _BLOCK_BYTES.
_BYTES_PER_AMP = 56
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class Plan:
    """Everything the threshold sampler needs, fixed before data collection."""

    h: Hamiltonian
    tau: float
    delta: float
    eta: float
    eps: float
    theta: float
    b: float
    gamma: float
    M: int
    rmode: str
    fourier: FourierSeries
    js: np.ndarray          # positive odd indices 1, 3, ..., 2d+1
    times: np.ndarray       # t_j = -j tau lambda  (negative for these js)
    weights: np.ndarray     # 2 |F_j| (both signs of each index)
    rvec: np.ndarray
    mu: np.ndarray          # exact truncated LCU weights per index
    complexities: runtime.Complexities
    eps_total: float

    def __post_init__(self):
        for arr in (self.js, self.times, self.weights, self.rvec, self.mu):
            arr.flags.writeable = False

    @property
    def x_max(self) -> float:
        """Certified query window: |x| <= (pi - delta) / 2."""
        return 0.5 * (math.pi - self.delta)

    def runtime_map(self) -> dict:
        """Mapping view of the runtime vector, {j: r_j} over both signs."""
        out = {}
        for j, r in zip(self.js, self.rvec):
            out[int(j)] = int(r)
            out[-int(j)] = int(r)
        return out


def _window(lam: float, Delta: float, b: float, eps: float, delta_scale: float = 1.0):
    """tau, delta, the certified filter and its odd-index grid (js, times, weights)."""
    tau = math.pi / (2.0 * lam / b + Delta)
    delta = delta_scale * tau * Delta
    series = build_fourier(optimize_split(delta, eps))
    js = 2 * np.arange(series.d + 1, dtype=np.int64) + 1
    return tau, delta, series, js, -js * tau * lam, 2.0 * series.odd_abs


@dataclass(frozen=True)
class SampleSet:
    """x-independent Hadamard records (j_i, m_i) tied to their Plan."""

    js: np.ndarray          # signed sampled indices
    m: np.ndarray           # complex outcomes, real and imag parts in {-1, +1}
    plan: Plan

    def __post_init__(self):
        self.js.flags.writeable = False
        self.m.flags.writeable = False


def _check_plan_args(lam: float, Delta: float, eta: float, eps: float, b: float):
    if Delta <= 0:
        raise ValueError("Delta must be positive")
    if b < 1.0:
        raise ValueError("b must be >= 1")
    if Delta > 2.0 * lam / b:
        raise ValueError("need Delta <= 2 lambda / b to keep delta below pi/2")
    if not 0.0 < eps < eta / 2.0 <= 0.5:
        raise ValueError("need 0 < eps < eta/2 <= 1/2")


def build_plan(h: Hamiltonian, Delta: float, eta: float, eps: float, theta: float,
               b: float = 1.0, rmode: str = "total", g: float | None = None,
               delta_scale: float = 1.0) -> Plan:
    """Assemble tau, filter, runtime vector, truncation order, and budgets.

    rmode selects the runtime vector: 'constant' (r_j = ceil(2 t_j^2)),
    'total' (minimize 2 c_sample c_gate), or 'gated' (minimize c_sample
    subject to expected gates <= g).  delta_scale 0.5 is the ground-state
    search setting; 1.0 the plain thresholding one.
    """
    _check_plan_args(h.lam, Delta, eta, eps, b)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be a probability")
    if not 0.0 < delta_scale <= 1.0:
        raise ValueError("delta_scale must lie in (0, 1]")
    return _assemble(h, _window(h.lam, Delta, b, eps, delta_scale), eta, eps, theta,
                     b, rmode, g)


def _assemble(h: Hamiltonian, window, eta: float, eps: float, theta: float, b: float,
              rmode: str, g: float | None) -> Plan:
    tau, delta, series, js, times, weights = window
    if rmode == "constant":
        rvec = runtime.constant_weight(times)
    elif rmode == "total":
        rvec = runtime.minimize_total(weights, times)
    elif rmode == "gated":
        if g is None:
            raise ValueError("rmode 'gated' needs a gate budget g")
        rvec = runtime.minimize_samples(weights, times, g)
    else:
        raise ValueError(f"unknown rmode {rmode!r}")
    gamma = 0.01 * (eta / 2.0 - eps)
    a_u, cg_u = runtime.weight_and_gates(weights, np.exp(times ** 2 / rvec), rvec)
    M = truncation_order(gamma, a_u, cg_u)
    complexities, mu = runtime._report(weights, times, rvec, eta, eps, theta,
                                       exact_mu=True, M=M, bias=gamma)
    return Plan(h=h, tau=tau, delta=delta, eta=eta, eps=eps, theta=theta, b=b,
                gamma=gamma, M=M, rmode=rmode, fourier=series, js=js, times=times,
                weights=weights, rvec=rvec, mu=mu, complexities=complexities,
                eps_total=series.params.eps_total)


def collect_samples(plan: Plan, state: StateVector, rng: np.random.Generator) -> SampleSet:
    """Draw c_sample Hadamard records: index j with prob ~ |F_j| mu_j, then a
    randomly compiled unitary for exp(i H t_j / lambda), then the test outcome.

    The segment draws follow the LCU sampler's distribution exactly
    (truncated even orders, i.i.d. Pauli indices), evaluated in batches.
    Records are sorted by descending r_i and cut into consecutive blocks of
    max(1, _BLOCK_BYTES // (56 * 2^n)) records, which run one after another
    on state and work buffers allocated once at block size, so the state
    memory of a call is bounded whatever c_sample is.  Within a block all
    live records advance one segment per step, so the live records form a
    prefix whose width m is constant over runs of steps, one run per
    distinct r_i.  A step draws 2m uniforms (orders, then rotation terms),
    applies the order-0 rotation to the whole prefix in place and redoes the
    rare higher-order rows from pre-step copies.

    For a fixed seed the record stream is byte-identical across runs and
    releases (tests pin its digest); a change to it must be stated.  A call
    with c_sample * 2^n * 56 B <= _BLOCK_BYTES is one block and draws the
    stream of the unblocked loop; a larger one draws block by block.
    """
    if plan.h.width != state.width:
        raise ValueError("plan and state widths differ")
    n_rec = plan.complexities.c_sample
    dim = 1 << state.width
    psi0 = state.amplitudes

    pj = plan.weights * plan.mu
    pj = pj / pj.sum()
    gid = rng.choice(len(pj), size=n_rec, p=pj)
    neg = rng.random(n_rec) < 0.5  # True: index -j (time +j tau lambda)

    # per-term index action tables
    dist = plan.h.normalized_distribution()
    cum_term = np.cumsum([p for p, _ in dist])
    cum_term[-1] = 1.0
    g_tab = np.empty((len(dist), dim), dtype=np.int64)
    f_tab = np.empty((len(dist), dim), dtype=complex)
    for i, (_, op) in enumerate(dist):
        g_tab[i], f_tab[i] = index_action(op)

    # per-group segment tables (orders share the truncation M)
    segs = [segment_distribution(float(t), int(r), plan.M)
            for t, r in zip(plan.times, plan.rvec)]
    n_orders = len(segs[0].orders)
    q_cum, thetas = np.empty((2, len(segs), n_orders))
    for i, s in enumerate(segs):
        q_cum[i] = np.cumsum(s.probs)
        thetas[i] = s.thetas
    q_cum[:, -1] = 1.0
    orders = segs[0].orders

    # records sorted by descending segment count; active prefix shrinks
    r_rec = plan.rvec[gid]
    order_idx = np.argsort(-r_rec, kind="stable")
    inv_order = np.empty_like(order_idx)
    inv_order[order_idx] = np.arange(n_rec)
    gid_s = gid[order_idx]
    r_s = r_rec[order_idx]
    # rotation sign = sgn(t); t = -j tau lam for +j records, +j tau lam for -j
    rot_sign = np.where(neg[order_idx], 1.0, -1.0)

    # state and work buffers for one block of records, reused by every block
    blk = min(n_rec, max(1, _BLOCK_BYTES // (dim * _BYTES_PER_AMP)))
    psi = np.empty((blk, dim), dtype=complex)
    cos0 = np.cos(thetas[gid_s, 0])
    isin0 = 1j * np.sin(thetas[gid_s, 0]) * rot_sign
    q0 = q_cum[gid_s, 0]  # u <= q0: order 0 (cumulative columns are sorted)
    flat, row_base = psi.reshape(-1), (np.arange(blk) * dim)[:, None]
    idx_buf = np.empty((blk, dim), dtype=np.int64)
    phase_buf, gath_buf = np.empty((2, blk, dim), dtype=complex)
    z = np.empty(n_rec, dtype=complex)
    for start in range(0, n_rec, blk):
        b = slice(start, min(start + blk, n_rec))
        gid_b, r_b, sign_b, cos_b, isin_b, q0_b = (
            a[b] for a in (gid_s, r_s, rot_sign, cos0, isin0, q0))
        psi[:r_b.size] = psi0
        done = 0
        for r_end in np.unique(r_b):  # ascending; the live prefix shrinks after each
            m = int(np.searchsorted(-r_b, -r_end, side="right"))
            live, idx, phase, gath = psi[:m], idx_buf[:m], phase_buf[:m], gath_buf[:m]
            cos_m, isin_m, q0_m, base = cos_b[:m, None], isin_b[:m, None], q0_b[:m], row_base[:m]
            for _ in range(done, r_end):
                u = rng.random(2 * m)
                ells = np.searchsorted(cum_term, u[m:], side="right")
                hi = np.flatnonzero(u[:m] > q0_m)
                old = [live[row].copy() for row in hi]
                np.take(g_tab, ells, axis=0, out=idx, mode="clip")
                idx += base
                np.take(flat, idx, out=gath, mode="clip")
                np.take(f_tab, ells, axis=0, out=phase, mode="clip")
                np.multiply(phase, gath, out=gath)
                np.multiply(isin_m, gath, out=gath)
                np.multiply(cos_m, live, out=live)
                np.add(live, gath, out=live)
                for row, prev in zip(hi, old):
                    ni = n_orders - 1 - int((u[row] <= q_cum[gid_b[row], :-1]).sum())
                    n = int(orders[ni])
                    th = float(thetas[gid_b[row], ni]) * sign_b[row]
                    el0 = int(ells[row])
                    vec = (math.cos(th) * prev
                           + (1j * math.sin(th)) * (f_tab[el0] * prev[g_tab[el0]]))
                    extra = np.searchsorted(cum_term, rng.random(n), side="right")
                    for el in extra:
                        vec = f_tab[el] * vec[g_tab[el]]
                    if n % 4 != 0:
                        vec = -vec
                    live[row] = vec
            done = r_end
        z[b] = psi[:r_b.size] @ psi0.conj()
    p_re = np.clip(0.5 * (1.0 + z.real), 0.0, 1.0)
    p_im = np.clip(0.5 * (1.0 + z.imag), 0.0, 1.0)
    m_re = np.where(rng.random(n_rec) < p_re, 1.0, -1.0)
    m_im = np.where(rng.random(n_rec) < p_im, 1.0, -1.0)
    m = (m_re + 1j * m_im)[inv_order]
    js_signed = plan.js[gid] * np.where(neg, -1, 1)
    return SampleSet(js=js_signed, m=m, plan=plan)


def _check_x(plan: Plan, x: float):
    if abs(x) > plan.x_max + 1e-12:
        raise ValueError(f"threshold x={x} outside certified window +-{plan.x_max:.6g}")


def acdf_estimate(samples: SampleSet, x: float) -> complex:
    """Re-phase the records into the ACDF estimate at threshold x."""
    plan = samples.plan
    _check_x(plan, x)
    if samples.js.size == 0:
        raise ValueError("empty sample set")
    sgn = np.sign(samples.js)
    phase = (-1j * sgn) * np.exp(1j * samples.js * x)
    a = plan.complexities.weight_A
    return complex(0.5 + a * np.mean(phase * samples.m))


def acdf_exact(plan: Plan, h: Hamiltonian, state: StateVector, x) -> float:
    """Exact approximate-CDF via the spectral oracle: sum_k w_k F(x - tau E_k)."""
    spec = exact_spectrum(h, state)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    args = xs[:, None] - plan.tau * spec.eigenvalues[None, :]
    vals = eval_fourier(plan.fourier, args.ravel()).reshape(args.shape)
    out = vals @ spec.overlaps
    return float(out[0]) if np.isscalar(x) else out


def threshold_query(samples: SampleSet, plan: Plan, x: float) -> int:
    """0 certifies C(x - delta) < eta, 1 certifies C(x + delta) > 0."""
    zbar = acdf_estimate(samples, x)
    return 0 if zbar.real < plan.eta / 2.0 else 1


@dataclass(frozen=True)
class GroundEnergyResult:
    estimate: float
    interval_lo: float
    interval_hi: float
    s_queries: int
    queries_used: int
    theta: float
    c_sample: int
    c_gate_expected: float
    plan: Plan = field(compare=False, repr=False)
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "interval_lo": self.interval_lo,
            "interval_hi": self.interval_hi,
            "s_queries": self.s_queries,
            "theta": self.theta,
            "c_sample": self.c_sample,
            "c_gate_expected": self.c_gate_expected,
            "seed": self.seed,
        }


def plan_queries(tau: float, lam: float, delta: float) -> int:
    """Conservative bisection query count for the ground-state search."""
    return math.ceil(math.log2((2.0 * tau * lam + 4.0 * delta) / (2.0 * delta)))


def ground_energy(h: Hamiltonian, state: StateVector, Delta: float, eta: float,
                  xi: float, rng: np.random.Generator, b: float = 1.0,
                  rmode: str = "total", g: float | None = None,
                  eps: float | None = None, seed: int | None = None) -> GroundEnergyResult:
    """Estimate the lowest eigenvalue to within Delta with probability 1 - xi.

    Requires the promise tr[rho P_ground] >= eta (not detected if violated).
    One SampleSet is collected and reused across all bisection queries;
    each query errs with probability <= theta = xi / s, so the union bound
    over the s planned queries gives the overall guarantee.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    if eps is None:
        eps = eta / 4.0
    _check_plan_args(h.lam, Delta, eta, eps, b)
    window = _window(h.lam, Delta, b, eps, delta_scale=0.5)
    tau, delta = window[:2]
    s = plan_queries(tau, h.lam / b, delta)
    plan = _assemble(h, window, eta, eps, xi / s, b, rmode, g)
    samples = collect_samples(plan, state, rng)
    tl = plan.tau * h.lam / b     # the promise is ||H|| <= lambda / b
    # lo - delta = -tau lam/b - 2 delta < tau E_min, so lo acts as a virtual
    # answer 0; with the loop condition every midpoint stays above lo + delta
    # = -tau lam/b, inside the legal query window.
    lo = -tl - plan.delta
    hi = tl                       # virtual answer 1: tau E_min <= hi + delta
    used = 0
    while hi - lo > 2.0 * plan.delta:
        mid = 0.5 * (lo + hi)
        if threshold_query(samples, plan, mid) == 0:
            lo = mid
        else:
            hi = mid
        used += 1
        if used > s:
            raise RuntimeError("bisection exceeded planned query count")
    mid = 0.5 * (lo + hi)
    return GroundEnergyResult(
        estimate=mid / plan.tau,
        interval_lo=(lo - plan.delta) / plan.tau,
        interval_hi=(hi + plan.delta) / plan.tau,
        s_queries=s,
        queries_used=used,
        theta=plan.theta,
        c_sample=plan.complexities.c_sample,
        c_gate_expected=plan.complexities.c_gate,
        plan=plan,
        seed=seed,
    )
