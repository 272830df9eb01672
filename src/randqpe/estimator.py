"""Eigenvalue thresholding and ground-state energy search.

A Plan fixes the spectral window tau, the certified Fourier filter, the
per-index runtime vector, the truncation order, and the sample budget.
One SampleSet of Hadamard-test records is x-independent: the estimate at
any threshold x re-phases the same records, so a full bisection reuses a
single quantum data set.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.resources
import math
import os
import shutil
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import runtime
from .backend import StateVector, _hadamard_outcomes, check_widths, exact_spectrum
from .heaviside import FourierSeries, build_fourier, eval_fourier, optimize_split
from .lcu import segment_distribution, truncation_order
from .pauli import Hamiltonian, phase_rows
from .runtime import _usable_cpus

# Per amplitude a record's state (complex), index (int64), phase and gather
# (complex) buffers cost _BYTES_PER_AMP bytes; the blocks collect_samples
# holds at one time keep their buffers within _BLOCK_BYTES.
_BYTES_PER_AMP = 56
_BLOCK_BYTES = 8 << 20

# run_block of _steps.c, compiled at the first collect_samples call of the
# process; None where no C compiler built it, and the numpy loop runs instead.
_UNBUILT = object()
_steps = _UNBUILT
_steps_lock = threading.Lock()
# -fno-builtin keeps sin and cos the libm calls math.sin and math.cos make
# (gcc would merge them into one sincos); no fast-math, no fused products
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")


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
    js = np.arange(series.d + 1, dtype=np.int64)
    js *= 2
    js += 1
    times = np.multiply(np.negative(js), tau)
    times *= lam
    return tau, delta, series, js, times, 2.0 * series.odd_abs


@dataclass(frozen=True)
class SampleSet:
    """x-independent Hadamard records (j_i, m_i) tied to their Plan."""

    js: np.ndarray          # signed sampled indices
    m: np.ndarray           # complex outcomes, real and imag parts in {-1, +1}
    plan: Plan

    def __post_init__(self):
        self.js.flags.writeable = False
        self.m.flags.writeable = False

    @functools.cached_property
    def _index_groups(self):
        """(distinct signed indices, each record's position among them)."""
        return np.unique(self.js, return_inverse=True)


def _check_window_args(lam: float, Delta: float, b: float):
    """Reject (lambda, Delta, b) that _window cannot turn into a filter; NaN fails."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not Delta > 0:
        raise ValueError("Delta must be positive")
    if not b >= 1.0:
        raise ValueError("b must be >= 1")
    if not Delta <= 2.0 * lam / b:
        raise ValueError("need Delta <= 2 lambda / b to keep delta below pi/2")


def _check_plan_args(lam: float, Delta: float, eta: float, eps: float | None, b: float,
                     rmode: str, g: float | None) -> float:
    """Reject plan inputs before the filter is built; returns eps, eta/4 if None."""
    _check_window_args(lam, Delta, b)
    if eps is None:
        eps = eta / 4.0
    if not 0.0 < eps < eta / 2.0 <= 0.5:
        raise ValueError("need 0 < eps < eta/2 <= 1/2")
    if g is not None and rmode != "gated":
        raise ValueError(f"a gate budget g applies to rmode 'gated' only, not {rmode!r}")
    if rmode not in ("constant", "total", "gated"):
        raise ValueError(f"unknown rmode {rmode!r}")
    if rmode == "gated" and g is None:
        raise ValueError("rmode 'gated' needs a gate budget g")
    return eps


def build_plan(h: Hamiltonian, Delta: float, eta: float, eps: float | None, theta: float,
               b: float = 1.0, rmode: str = "total", g: float | None = None) -> Plan:
    """Assemble tau, filter, runtime vector, truncation order, and budgets.

    rmode selects the runtime vector: 'constant' (r_j = ceil(2 t_j^2)),
    'total' (minimize 2 c_sample c_gate), or 'gated' (minimize c_sample
    subject to expected gates <= g).  delta is tau Delta, the plain
    thresholding setting; `ground_energy` halves it.  eps=None is eta/4.
    """
    eps = _check_plan_args(h.lam, Delta, eta, eps, b, rmode, g)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be a probability")
    return _assemble(h, _window(h.lam, Delta, b, eps), eta, eps, theta, b, rmode, g)


def _assemble(h: Hamiltonian, window, eta: float, eps: float, theta: float, b: float,
              rmode: str, g: float | None) -> Plan:
    tau, delta, series, js, times, weights = window
    problem = runtime.Problem(weights, times)
    if rmode == "constant":
        rvec = runtime.constant_weight(times)
    elif rmode == "total":
        rvec = runtime.minimize_total(weights, times, problem=problem)
    else:  # 'gated', with g, as _check_plan_args ensured
        rvec = runtime.minimize_samples(weights, times, g, problem=problem)
    gamma = 0.01 * (eta / 2.0 - eps)
    a_u, cg_u = problem.cost(rvec)
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
    Records are sorted by descending r_i and cut into consecutive blocks,
    each of which allocates its own state and work buffers (at most 56 B
    per amplitude per record), so the state memory of a call is bounded
    whatever c_sample is.  Within a block all live records advance one
    segment per step, so the live records form a prefix whose width m is
    constant over runs of steps, one run per distinct r_i.  A step draws 2m
    uniforms (orders, then rotation terms), applies the order-0 rotation to
    the prefix and redoes the rare higher-order rows from pre-step copies,
    each with its extra term draws in row order.  Every factor is one kind,
    c I + i s P: a row's rotation at (cos th, sin th), then each of its n
    extra terms as i P at (0, 1), whose n factors of i are the segment's
    phase i^n.

    The steps of a block run in the C kernel _steps.c, which the first call
    of a process compiles with `cc` from PATH and loads with ctypes.  It
    draws from the generator's own next_double in the numpy loop's order and
    applies each factor to each pair of amplitudes (a, a ^ x) in place,
    keeping only the products of its phase's nonzero part, +-1 or +-i.  Every
    nonzero value it computes has the numpy loop's bits and only the sign
    of an exact zero may differ, which no later sum, product or Hadamard
    test can see; so both give the same records and leave the generator in
    the same state.  Where no compiler is found or the build fails, the
    numpy loop in _run_block runs instead.

    A call with c_sample * 2^n * 56 B <= _BLOCK_BYTES is one block, run
    inline on rng: it draws the stream of the unblocked loop.  A larger call
    is cut into blocks of _BLOCK_BYTES / 2, one task per block submitted in
    block order to an executor of up to two threads: an idle worker takes
    the next block, so at most two are in flight and their buffers stay
    within the same budget.  Each block draws its segments from its own
    generator, spawned in block order from one draw of rng, so the records
    do not depend on the CPU count or on thread timing.  For a fixed seed
    the record stream is byte-identical across runs and releases (tests pin
    its digest); a change to it must be stated.
    """
    check_widths(plan.h, state)
    n_rec = plan.complexities.c_sample
    dim = 1 << state.width
    psi0 = state.amplitudes

    pj = plan.weights * plan.mu
    pj = pj / pj.sum()
    gid = rng.choice(len(pj), size=n_rec, p=pj)
    neg = rng.random(n_rec) < 0.5  # True: index -j (time +j tau lambda)

    # per-term x masks and phase rows, built for this call and dropped with it
    dist = plan.h.normalized_distribution()
    cum_term = np.cumsum([p for p, _ in dist])
    cum_term[-1] = 1.0
    x_tab, f_tab = phase_rows([op for _, op in dist])

    # per-group segment tables (orders share the truncation M)
    segs = [segment_distribution(float(t), int(r), plan.M)
            for t, r in zip(plan.times, plan.rvec)]
    q_cum = np.array([s.cum_probs for s in segs])
    thetas = np.array([s.thetas for s in segs])

    # records sorted by descending segment count; active prefix shrinks
    r_rec = plan.rvec[gid]
    order_idx = np.argsort(-r_rec, kind="stable")
    inv_order = np.empty_like(order_idx)
    inv_order[order_idx] = np.arange(n_rec)
    gid_s, r_s = gid[order_idx], r_rec[order_idx]
    # rotation sign = sgn(t); t = -j tau lam for +j records, +j tau lam for -j
    rot_sign = np.where(neg[order_idx], 1.0, -1.0)
    recs = (gid_s, r_s, rot_sign, np.cos(thetas[gid_s, 0]),
            1j * np.sin(thetas[gid_s, 0]) * rot_sign,
            q_cum[gid_s, 0])  # u <= q0: order 0 (cumulative columns are sorted)
    tables = (psi0, psi0.conj(), cum_term, x_tab, f_tab, q_cum, thetas, segs[0].orders)

    z = np.empty(n_rec, dtype=complex)
    steps = _kernel()
    rows = max(1, _BLOCK_BYTES // (dim * _BYTES_PER_AMP))
    if n_rec <= rows:
        _run_block(slice(0, n_rec), rng, recs, tables, z, steps)
    else:
        rows = max(1, rows // 2)
        blocks = [slice(a, min(a + rows, n_rec)) for a in range(0, n_rec, rows)]
        with ThreadPoolExecutor(min(2, _usable_cpus())) as pool:
            futures = [pool.submit(_run_block, b, gen, recs, tables, z, steps)
                       for b, gen in zip(blocks, _block_rngs(rng, len(blocks)))]
            for f in futures:
                f.result()
    m = _hadamard_outcomes(z, rng)[inv_order]
    js_signed = plan.js[gid] * np.where(neg, -1, 1)
    return SampleSet(js=js_signed, m=m, plan=plan)


def _block_rngs(rng: np.random.Generator, n: int) -> list:
    """n independent generators, one per block in block order, from one draw of rng."""
    root = np.random.SeedSequence(int(rng.integers(1 << 63)))
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(n)]


def _kernel():
    """The compiled run_block of _steps.c, built once per process; None
    where `cc` is not on PATH or the build fails."""
    global _steps
    with _steps_lock:
        if _steps is _UNBUILT:
            _steps = _build_kernel()
        return _steps


def _build_kernel():
    cc = shutil.which("cc")
    if cc is None:
        return None
    source = importlib.resources.files(__package__) / "_steps.c"
    with tempfile.TemporaryDirectory() as tmp, importlib.resources.as_file(source) as src:
        lib = os.path.join(tmp, "_steps.so")
        try:
            subprocess.run([cc, *_CFLAGS, "-o", lib, str(src), "-lm"],
                           check=True, capture_output=True, timeout=120)
            run_block = ctypes.CDLL(lib).run_block
        except (OSError, subprocess.SubprocessError):
            return None
    i64, f64, c128 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                      for t in (np.int64, np.float64, np.complex128))
    run_block.argtypes = ([ctypes.c_int64] * 4
                          + [i64, i64, f64, f64, c128, f64, f64, i64, c128, f64, f64, i64,
                             c128, f64,
                             ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p),
                             ctypes.c_void_p])
    run_block.restype = None
    return run_block


def _run_block(b, rng, recs, tables, z, steps):
    """Run the step loop on the block slice b of the sorted records, drawing
    from rng, and write each record's overlap <psi0|psi> into z[b].

    The state and work buffers are allocated here at the block's size, so
    concurrent calls share only read-only inputs and write disjoint rows of
    z; a worker that finishes its block takes the next one not yet started.
    With the kernel `steps` the buffers are psi (16 B per amplitude), which
    it updates in place, and the 2m uniforms of a step; the call releases
    the GIL while it runs, holding the generator's lock.  With steps None
    the numpy loop below runs, the reference the kernel is tested against.
    """
    gid_b, r_b, sign_b, cos_b, isin_b, q0_b = (a[b] for a in recs)
    psi0, psi0_conj, cum_term, x_tab, f_tab, q_cum, thetas, orders = tables
    n_orders, dim, blk = len(orders), psi0.size, r_b.size
    psi = np.empty((blk, dim), dtype=complex)
    psi[:] = psi0
    if steps is not None:
        bitgen = rng.bit_generator
        with bitgen.lock:
            steps(blk, dim, cum_term.size, n_orders, r_b, gid_b, sign_b, cos_b, isin_b,
                  q0_b, cum_term, x_tab, f_tab, q_cum, thetas, orders, psi, np.empty(2 * blk),
                  bitgen.ctypes.next_double, bitgen.ctypes.state_address)
        z[b] = psi @ psi0_conj
        return
    ks, flat, row_base = np.arange(dim), psi.reshape(-1), (np.arange(blk) * dim)[:, None]
    idx_buf = np.empty((blk, dim), dtype=np.int64)
    phase_buf, gath_buf = np.empty((2, blk, dim), dtype=complex)
    done = 0
    for r_end in np.unique(r_b):  # ascending; the live prefix shrinks after each
        m = int(np.searchsorted(-r_b, -r_end, side="right"))
        live, idx, phase, gath = psi[:m], idx_buf[:m], phase_buf[:m], gath_buf[:m]
        cos_m, isin_m, q0_m, base = cos_b[:m, None], isin_b[:m, None], q0_b[:m], row_base[:m]
        for _ in range(done, r_end):
            u = rng.random(2 * m)
            ells = np.searchsorted(cum_term, u[m:], side="right")
            hi = np.flatnonzero(u[:m] > q0_m)
            np.bitwise_xor(ks, x_tab[ells][:, None], out=idx)  # idx[i][k] = k ^ x_ells[i]
            idx += base
            np.take(flat, idx, out=gath, mode="clip")
            np.take(f_tab, ells, axis=0, out=phase, mode="clip")
            np.multiply(phase, gath, out=gath)
            for k, row in enumerate(hi):  # phase is free now: keep pre-step rows there
                phase[k] = live[row]
            np.multiply(isin_m, gath, out=gath)
            np.multiply(cos_m, live, out=live)
            np.add(live, gath, out=live)
            for row, prev in zip(hi, phase):
                ni = n_orders - 1 - int((u[row] <= q_cum[gid_b[row], :-1]).sum())
                n = int(orders[ni])
                th = float(thetas[gid_b[row], ni]) * sign_b[row]
                el, vec = int(ells[row]), live[row]
                # vec = cos(th) prev + i sin(th) P prev, then n factors i P
                np.add(math.cos(th) * prev,
                       1j * math.sin(th) * (f_tab[el] * prev[ks ^ x_tab[el]]), out=vec)
                for el in np.searchsorted(cum_term, rng.random(n), side="right"):
                    np.multiply(1j, f_tab[el] * vec[ks ^ x_tab[el]], out=vec)
        done = r_end
    z[b] = psi @ psi0_conj


def _check_x(plan: Plan, x: float):
    if not abs(x) <= plan.x_max + 1e-12:
        raise ValueError(f"threshold x={x} outside certified window +-{plan.x_max:.6g}")


def acdf_estimate(samples: SampleSet, x: float) -> complex:
    """Re-phase the records into the ACDF estimate at threshold x."""
    plan = samples.plan
    _check_x(plan, x)
    if samples.js.size == 0:
        raise ValueError("empty sample set")
    # each distinct index's phase, gathered per record: the same bits as the
    # per-record (-1j sgn j) exp(1j j x), for O(distinct j) exponentials
    js, inv = samples._index_groups
    phase = ((-1j * np.sign(js)) * np.exp(1j * js * x))[inv]
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

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "interval_lo": self.interval_lo,
            "interval_hi": self.interval_hi,
            "s_queries": self.s_queries,
            "theta": self.theta,
            "c_sample": self.c_sample,
            "c_gate_expected": self.c_gate_expected,
        }


def plan_queries(tau: float, lam: float, delta: float) -> int:
    """Conservative bisection query count for the ground-state search."""
    return math.ceil(math.log2((2.0 * tau * lam + 4.0 * delta) / (2.0 * delta)))


def ground_energy(h: Hamiltonian, state: StateVector, Delta: float, eta: float,
                  xi: float, rng: np.random.Generator, b: float = 1.0,
                  rmode: str = "total", g: float | None = None,
                  eps: float | None = None) -> GroundEnergyResult:
    """Estimate the lowest eigenvalue to within Delta with probability 1 - xi.

    Requires the promise tr[rho P_ground] >= eta (not detected if violated).
    One SampleSet is collected and reused across all bisection queries;
    each query errs with probability <= theta = xi / s, so the union bound
    over the s planned queries gives the overall guarantee.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    check_widths(h, state)
    eps = _check_plan_args(h.lam, Delta, eta, eps, b, rmode, g)
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
    )
