"""Desk-scale exact quantum backend.

Pure states only; expectation values of sampled LCU unitaries are
computed by applying factors to a working copy of the state, and
Hadamard-test outcomes are Bernoulli draws from the exact expectation
(statistically identical to simulating the ancilla circuit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .lcu import LcuUnitary, PauliOp, PauliRotation, Phase
from .pauli import Hamiltonian, _check_width, index_action, phase_rows

# fixed stream for the deterministic pseudo-random orthogonal component
_GROUNDMIX_SEED = 0x5EED_CAFE_F00D
# groundmix solves H from this width up by deflated Lanczos on its sparse form, from
# its own start stream (40 terms, one BLAS thread: 14-15 ms dense against 23-25 ms
# Lanczos at 8 qubits, 75-85 ms against 38-46 ms at 9)
_LANCZOS_WIDTH = 9
_LANCZOS_SEED = 0x1A2C_205D_57A7
# ground vectors sought before the full dense solve takes over
_MAX_GROUND = 8
# largest |Hv - Ev| / lambda accepted from a Lanczos run; eigsh(tol=1e-14) leaves
# about 1e-15
_MAX_RESIDUAL = 1e-13


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes; index bit q is qubit q (little-endian)."""

    amplitudes: np.ndarray
    width: int

    def __post_init__(self):
        self.amplitudes.flags.writeable = False
        if self.amplitudes.shape != (1 << self.width,):
            raise ValueError("amplitude length must be 2^width")
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state norm {norm} not 1 within 1e-10")


@dataclass(frozen=True)
class SpectralData:
    """Grouped eigenvalues of a Hamiltonian and ansatz overlaps per group."""

    eigenvalues: np.ndarray
    overlaps: np.ndarray

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.overlaps.flags.writeable = False


def prepare_state(spec: str, h: Hamiltonian | None = None) -> StateVector:
    """Build an ansatz from 'basis:<bits>', 'file:<path>', or 'groundmix:<eta>'.

    groundmix takes a fixed pseudo-random vector w and the projector P onto
    the ground space (eigenvalues within 1e-9 * lambda of the lowest) and
    returns sqrt(eta) Pw/|Pw| + sqrt(1-eta) (w-Pw)/|w-Pw|, which does not
    depend on the eigenbasis the solver returns.  A diagonal H reads P off
    its diagonal.  Otherwise, below 9 qubits, a dense LAPACK solve finds the
    8 lowest eigenpairs (all of them if those 8 are degenerate); from 9
    qubits deflated Lanczos on H.sparse() finds the ground vectors one per
    run, with no dense matrix (12 qubits, 40 terms: under a second and about
    10 MiB).  It hands over to one dense solve of the whole spectrum once it
    has found 8, or when a run fails to converge or leaves a residual above
    1e-13 lambda.  All three descriptors are capped at 12 qubits
    (`pauli.DENSE_QUBIT_CAP`).
    """
    kind, _, arg = spec.partition(":")
    if kind == "basis":
        if not arg or any(c not in "01" for c in arg):
            raise ValueError(f"bad basis descriptor {spec!r}")
        width = len(arg)
        _check_width(width)
        index = sum(int(c) << q for q, c in enumerate(arg))
        amps = np.zeros(1 << width, dtype=complex)
        amps[index] = 1.0
        return StateVector(amps, width)
    if kind == "file":
        rows = []
        for raw in Path(arg).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"amplitude line {line!r}: expected 're im'")
            rows.append(complex(float(parts[0]), float(parts[1])))
        if not rows:
            raise ValueError(f"no amplitudes in {arg!r}")
        width = len(rows).bit_length() - 1
        if 1 << width != len(rows):
            raise ValueError("amplitude count must be a power of two")
        _check_width(width)
        parts = np.array(rows, dtype=complex).view(float)
        peak = np.abs(parts).max()
        if not 0 < peak < math.inf:
            raise ValueError(f"largest amplitude part {peak} is not finite and positive")
        # an exact power-of-two rescale keeps the norm from overflowing or
        # underflowing and leaves amps / norm as it was for ordinary values
        amps = np.ldexp(parts, -math.frexp(peak)[1]).view(complex)
        return StateVector(amps / np.linalg.norm(amps), width)
    if kind == "groundmix":
        if h is None:
            raise ValueError("groundmix requires a Hamiltonian")
        eta = float(arg)
        if not 0.0 < eta <= 1.0:
            raise ValueError("groundmix overlap must lie in (0, 1]")
        _check_width(h.width)
        dim, tol = 1 << h.width, 1e-9 * h.lam
        if all(op.pauli.x_bits == 0 for _, op in h.terms):
            # I/Z terms only: H is diagonal, and the basis states of its
            # smallest entries span the ground space
            _, rows = phase_rows([op for _, op in h.terms])
            diag = sum(c * row.real for (c, _), row in zip(h.terms, rows))
            ground = diag <= diag.min() + tol
            n_ground = int(ground.sum())
        else:
            gspace = _lanczos_ground_space(h, tol) if h.width >= _LANCZOS_WIDTH else None
            if gspace is None:
                # H^T = conj(H) is Fortran-ordered, so LAPACK solves it in place
                # without a copy; conjugating its eigenvectors gives those of H.
                # at 8 vectors or a failed run, Lanczos hands over the whole spectrum
                subset = None if h.width >= _LANCZOS_WIDTH else [0, min(_MAX_GROUND, dim) - 1]
                evals, evecs = scipy.linalg.eigh(h.matrix().T, overwrite_a=True,
                                                 driver="evr", subset_by_index=subset)
                if len(evals) < dim and evals[-1] <= evals[0] + tol:
                    evals, evecs = scipy.linalg.eigh(h.matrix().T, overwrite_a=True,
                                                     driver="evr")
                gspace = evecs[:, evals <= evals[0] + tol].conj()
            ground, n_ground = None, gspace.shape[1]
        if eta < 1.0 and n_ground == dim:
            raise ValueError("groundmix overlap below 1 needs a spectrum above the ground space")
        rng = np.random.Generator(np.random.PCG64(_GROUNDMIX_SEED))
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pw = gspace @ (gspace.conj().T @ w) if ground is None else np.where(ground, w, 0.0)
        g = pw / np.linalg.norm(pw)
        if eta == 1.0:
            return StateVector(g, h.width)
        v = (w - pw) / np.linalg.norm(w - pw)
        return StateVector(math.sqrt(eta) * g + math.sqrt(1.0 - eta) * v, h.width)
    raise ValueError(f"unknown state descriptor {spec!r}")


def _lanczos_ground_space(h: Hamiltonian, tol: float) -> np.ndarray | None:
    """Orthonormal ground-space basis by deflated Lanczos, or None for a dense solve.

    Each run finds the lowest eigenvector of H + 2 lambda Q Q^dagger, which
    lifts the ground vectors Q found so far above the spectrum, and the runs
    stop at the first eigenvalue above E0 + tol.  Every run draws a fresh start
    vector: Lanczos from v0 stays in the Krylov space of v0, whose only ground
    vector is P v0, so a reused start, projected off the vector found from
    it, keeps no ground component to find.  None comes at 8 vectors, and when
    a run fails to converge or its vector's residual exceeds _MAX_RESIDUAL:
    the error of an eigenvector grows as residual / gap.
    """
    a = h.sparse()
    if not a.count_nonzero():  # H = 0, whose ground space is everything
        return None
    dim = a.shape[0]
    rng = np.random.Generator(np.random.PCG64(_LANCZOS_SEED))
    q = np.empty((dim, 0), dtype=complex)
    op = a
    e0 = math.inf
    while q.shape[1] < _MAX_GROUND:
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v0 -= q @ (q.conj().T @ v0)
        try:
            (e,), vec = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=1e-14, v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence:
            return None
        if e > e0 + tol:
            return q
        e0 = min(e0, e)
        vec = vec[:, 0] - q @ (q.conj().T @ vec[:, 0])
        vec /= np.linalg.norm(vec)
        if np.linalg.norm(a @ vec - e * vec) > _MAX_RESIDUAL * h.lam:
            return None
        q = np.column_stack([q, vec])
        lift, qh = 2.0 * h.lam * q, q.conj().T
        op = scipy.sparse.linalg.LinearOperator(
            a.shape, dtype=complex, matvec=lambda x, lift=lift, qh=qh: a @ x + lift @ (qh @ x))
    return None


def apply_unitary(psi: np.ndarray, u: LcuUnitary) -> np.ndarray:
    """Apply factors in order (factors[0] first) to a copy of psi.

    psi is a state vector of length 2^n or a (2^n, k) stack of columns, each
    column transformed as a state vector; `LcuUnitary.matrix` passes the
    identity.
    """
    stack = psi.ndim == 2
    out = psi.copy()
    for f in u.factors:
        if isinstance(f, (PauliRotation, PauliOp)):
            perm, phase = index_action(f.op)
            pm = (phase[:, None] if stack else phase) * out[perm]
            if isinstance(f, PauliOp):
                out = pm
            else:
                out = math.cos(f.angle) * out + (1j * math.sin(f.angle)) * pm
        elif isinstance(f, Phase):
            out = (1j ** (f.quarter_turns % 4)) * out
        else:
            raise TypeError(f"unknown factor {f!r}")
    return out


def expectation(state: StateVector, u: LcuUnitary) -> complex:
    """<psi| U |psi> with factors applied term by term in O(2^n) each."""
    if state.width != u.width:
        raise ValueError("state and unitary widths differ")
    _check_width(state.width)
    return complex(np.vdot(state.amplitudes, apply_unitary(state.amplitudes, u)))


def hadamard_sample(state: StateVector, u: LcuUnitary,
                    rng: np.random.Generator) -> complex:
    """One +-1 +-1i Hadamard-test outcome pair; E[m] equals <U> exactly."""
    return complex(_hadamard_outcomes(np.array([expectation(state, u)]), rng)[0])


def _hadamard_outcomes(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """+-1 +-1i outcomes with E[m_k] = z_k for |z_k| <= 1.

    Draws every real part first, then every imaginary part: rng.random(n)
    yields the doubles of n rng.random() calls, so one overlap gives the
    stream of the scalar rule.  A uniform u in [0, 1) meets u < p exactly
    when it meets u < clip(p, 0, 1), so the probabilities need no clip.
    """
    m_re = np.where(rng.random(z.size) < 0.5 * (1.0 + z.real), 1.0, -1.0)
    m_im = np.where(rng.random(z.size) < 0.5 * (1.0 + z.imag), 1.0, -1.0)
    return m_re + 1j * m_im


def check_widths(h: Hamiltonian, state: StateVector):
    """Reject a state whose width differs from the Hamiltonian's."""
    if h.width != state.width:
        raise ValueError(f"Hamiltonian and state widths differ ({h.width} and "
                         f"{state.width} qubits)")


def exact_spectrum(h: Hamiltonian, state: StateVector) -> SpectralData:
    """Dense eigendecomposition with degenerate groups merged at 1e-9 * lambda."""
    check_widths(h, state)
    _check_width(h.width)
    evals, evecs = np.linalg.eigh(h.matrix())
    w = np.abs(evecs.conj().T @ state.amplitudes) ** 2
    tol = 1e-9 * h.lam
    grouped_e, grouped_w = [], []
    for e, wk in zip(evals, w):
        if grouped_e and e - grouped_e[-1] <= tol:
            grouped_w[-1] += wk
        else:
            grouped_e.append(float(e))
            grouped_w.append(float(wk))
    return SpectralData(np.array(grouped_e), np.array(grouped_w))


def exact_cdf(spec: SpectralData, tau: float, x):
    """C(x) = sum of overlaps with tau * E_k <= x (right-continuous step)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    top = tau * float(np.abs(spec.eigenvalues).max())
    if top >= math.pi / 2:
        raise ValueError("tau * max|E| must stay below pi/2")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scaled = tau * spec.eigenvalues
    out = (scaled[None, :] <= xs[:, None]) @ spec.overlaps
    return float(out[0]) if np.isscalar(x) else out
