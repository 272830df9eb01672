"""Randomized LCU decomposition of exp(i H t / lambda) and its sampler.

Each of r segments draws an even Taylor order n, one rotation axis and n
extra Pauli factors from the Hamiltonian distribution.  The sampled
unitary is a product of segments; its weighted average reproduces the
exact evolution up to a truncation bias that decays superexponentially
in the truncation order M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import specfun
from .pauli import SignedPauli, _check_width


@dataclass(frozen=True)
class PauliRotation:
    """exp(i * angle * P) for a signed Pauli P; |angle| < pi/2."""

    angle: float
    op: SignedPauli


@dataclass(frozen=True)
class PauliOp:
    """A bare signed Pauli factor."""

    op: SignedPauli


@dataclass(frozen=True)
class Phase:
    """Scalar factor i^quarter_turns."""

    quarter_turns: int


@dataclass(frozen=True)
class SegmentDistribution:
    """Truncated even-order distribution for one segment of length x = t/r."""

    x: float
    M: int
    orders: np.ndarray
    probs: np.ndarray
    thetas: np.ndarray
    mu_segment: float
    cum_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        object.__setattr__(self, "cum_probs", cum)
        for arr in (self.orders, self.probs, self.thetas, self.cum_probs):
            arr.flags.writeable = False


class LcuUnitary:
    """Ordered factor list; factors[0] is applied to the state first.

    Built from a factor tuple (by hand or by `parse_lcu`), or by
    `sample_unitary`, which keeps its draw as arrays and builds `factors`
    only when they are read.
    """

    __slots__ = ("width", "_factors", "_draw")

    def __init__(self, factors: tuple, width: int):
        self.width = width
        self._factors = tuple(factors)
        self._draw = None
        for f in self._factors:
            if not isinstance(f, Phase) and f.op.width != width:
                raise ValueError(f"factor {f!r} has width {f.op.width}, not {width}")

    @classmethod
    def _drawn(cls, width: int, draw: _Draw) -> LcuUnitary:
        u = cls.__new__(cls)
        u.width, u._factors, u._draw = width, None, draw
        return u

    @property
    def factors(self) -> tuple:
        if self._factors is None:
            self._factors = self._draw.factors()
        return self._factors

    def matrix(self) -> np.ndarray:
        _check_width(self.width)
        if self._draw is not None:
            table = _term_tables(self._draw.ops, self._draw.dist.x, self._draw.dist.M)
            if table is not None:
                return self._draw.matrix(table)
        from .backend import apply_unitary  # backend imports this module
        return apply_unitary(np.eye(1 << self.width, dtype=complex), self)

    def serialize(self) -> str:
        lines = []
        for f in self.factors:
            if isinstance(f, PauliRotation):
                lines.append(f"ROT {f.angle:+.12f} {f.op.word()}")
            elif isinstance(f, PauliOp):
                lines.append(f"PAULI {f.op.word()}")
            else:
                lines.append(f"PHASE {f.quarter_turns % 4}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, LcuUnitary) and self.width == other.width
                and self.factors == other.factors)

    def __hash__(self):
        return hash((self.factors, self.width))

    def __repr__(self):
        return f"LcuUnitary({self.factors!r}, width={self.width})"


class _Draw(NamedTuple):
    """One sampled unitary as arrays, one entry per factor in application
    order: the drawn term terms[k] and its row rows[k] of _term_tables.  A
    segment of order 2 i is its rotation, row i, then its 2 i extra
    factors i P, each at the last row; every angle carries sgn."""

    ops: tuple
    dist: SegmentDistribution
    sgn: float
    rows: np.ndarray
    terms: np.ndarray

    def factors(self) -> tuple:
        """The ROT / PAULI / PHASE list: the i's of a segment's extra factors
        become one Phase(n % 4) after them, as (i sgn(t))^n = i^n for even n."""
        ops, thetas, orders = self.ops, self.dist.thetas.tolist(), self.dist.orders.tolist()
        factors, n, left = [], 0, 0
        for i, a in zip(self.rows.tolist(), self.terms.tolist()):
            if i < len(orders):
                factors.append(PauliRotation(self.sgn * thetas[i], ops[a]))
                n = left = orders[i]
                continue
            factors.append(PauliOp(ops[a]))
            left -= 1
            if left == 0 and n % 4 != 0:
                factors.append(Phase(n % 4))
        return tuple(factors)

    def matrix(self, table: np.ndarray) -> np.ndarray:
        """The factors' matrices from the term table, multiplied as a pairwise tree."""
        mats = table[self.rows, self.terms]
        while len(mats) > 1:
            prod = np.matmul(mats[1::2], mats[:-1:2])
            if len(mats) % 2:
                prod[-1] = mats[-1] @ prod[-1]
            mats = prod
        return mats[0]


def parse_lcu(text: str, width: int | None = None) -> LcuUnitary:
    """Inverse of LcuUnitary.serialize for a single unitary."""
    factors = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        kind, rest = line.split(None, 1)
        if kind == "ROT":
            angle, word = rest.split()
            factors.append(PauliRotation(float(angle), SignedPauli.from_word(word)))
        elif kind == "PAULI":
            factors.append(PauliOp(SignedPauli.from_word(rest.strip())))
        elif kind == "PHASE":
            factors.append(Phase(int(rest)))
        else:
            raise ValueError(f"unknown factor line {raw!r}")
    if width is None:
        widths = [f.op.width for f in factors if not isinstance(f, Phase)]
        if not widths:
            raise ValueError("cannot infer width from phase-only unitary")
        width = widths[0]
    return LcuUnitary(tuple(factors), width)


_TABLE_BYTES = 1 << 20
# the last (ops, x, M) _term_tables was asked for, and its table
_table_slot: tuple = ((), None, None, None)


def _term_tables(ops: tuple, x: float, M: int):
    """Dense per-term factor matrices for segments of length x.

    table[i, l] is cos(a) I + i sin(a) ops[l] at the signed angle
    a = sgn(x) theta_i of order 2 i, for i <= M / 2, and the last row
    table[M / 2 + 1, l] is i ops[l], the same form at (cos, i sin) =
    (0, i): the extra factors of a segment.  Returns None when the table
    would pass _TABLE_BYTES (1 MiB).  One slot keeps the last table, so
    at most 1 MiB is held at any width, and a stream of draws from one
    (ops, x, M) builds it once; ops compares as in _check_term_widths.
    """
    global _table_slot
    slot = _table_slot
    if slot[:3] == (ops, x, M):
        return slot[3]
    table = None
    dim, n_terms = 1 << ops[0].width, len(ops)
    if (M // 2 + 2) * n_terms * dim * dim * 16 <= _TABLE_BYTES:
        paulis = np.array([op.matrix() for op in ops])
        sgn = 1.0 if x >= 0 else -1.0
        angles = [sgn * th for th in _rotation_angles(x, M).tolist()]
        cos = np.array([math.cos(a) for a in angles] + [0.0])[:, None, None, None]
        isin = np.array([1j * math.sin(a) for a in angles] + [1j])[:, None, None, None]
        table = cos * np.eye(dim) + isin * paulis
        table.flags.writeable = False
    _table_slot = (ops, x, M, table)
    return table


def _segment_terms(x, M: int):
    """Unnormalized weights |x|^n/n! sqrt(1+(x/(n+1))^2) for even n <= M.

    x may be a scalar or an array; the n axis is appended last.
    """
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    orders = np.arange(0, M + 1, 2)
    logfact = np.array([math.lgamma(n + 1) for n in orders])
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.where(xs > 0, np.log(xs), -np.inf)
        lg = np.where(orders == 0, 0.0, orders * logx[..., None])
    w = np.exp(lg - logfact) * np.sqrt(1.0 + (xs[..., None] / (orders + 1.0)) ** 2)
    return orders, w


def segment_weight(x, M: int):
    """mu for one segment: sum of the truncated even-order weights."""
    _, w = _segment_terms(x, M)
    out = w.sum(axis=-1)
    return float(out[0]) if np.isscalar(x) else out


@functools.lru_cache(maxsize=16384)
def segment_distribution(t: float, r: int, M: int) -> SegmentDistribution:
    """Normalized order distribution, angles, and weight for segments of t/r."""
    if not math.isfinite(t):
        raise ValueError(f"t = {t!r} is not finite")
    if r < 1:
        raise ValueError("r must be >= 1")
    if M < 0 or M % 2 != 0:
        raise ValueError("M must be even and non-negative")
    x = t / r
    with np.errstate(over="ignore"):  # an overflow shows as mu == inf below
        orders, w = _segment_terms(x, M)
    w = w[0]
    mu = float(w.sum())
    if mu == math.inf:
        raise ValueError(f"segment weight at t/r = {x!r} overflows")
    return SegmentDistribution(x=x, M=M, orders=orders, probs=w / mu,
                               thetas=_rotation_angles(x, M), mu_segment=mu)


def _rotation_angles(x: float, M: int) -> np.ndarray:
    """theta_n = arccos(1/sqrt(1 + (x/(n+1))^2)) for even n <= M."""
    orders = np.arange(0, M + 1, 2)
    return np.arccos(1.0 / np.sqrt(1.0 + (x / (orders + 1.0)) ** 2))


def weight_mu(t: float, r: int, M: int) -> float:
    """Total LCU weight mu = mu_segment^r; bounded by exp(t^2/r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return segment_weight(t / r, M) ** r


def truncation_order(gamma: float, weight_A: float, cgate: float) -> int:
    """Smallest even M with bias |B| <= gamma (requires r_j >= |t_j|).

    M >= ln(1/gamma') / W(ln(1/gamma')/e) with gamma' = 2 gamma / (A * cgate);
    gamma' >= 1 means no truncation control is needed at this budget.
    """
    if min(gamma, weight_A, cgate) <= 0:
        raise ValueError("gamma, weight_A, cgate must be positive")
    gamma_p = 2.0 * gamma / (weight_A * cgate)
    if gamma_p >= 1.0:
        return 0
    log_inv = -math.log(gamma_p)
    bound = log_inv / specfun.lambert_w0(log_inv / math.e)
    return 2 * math.ceil(bound / 2.0)


def truncation_bias_bound(t: float, r: int, M: int) -> float:
    """Operator-norm bound on ||truncated LCU - exp(i H t/lambda)||.

    r * mu_segment_full^(r-1) * (full - truncated segment weight), with the
    full weight summed to order M + 160.
    """
    x = t / r
    big = max(M + 160, 40)
    full = segment_weight(x, big)
    tail = full - segment_weight(x, M)
    return r * full ** (r - 1) * max(tail, 0.0)


# the last operator tuple whose widths _check_term_widths accepted
_width_checked: tuple = ()


def _check_term_widths(ops: tuple) -> None:
    """Raise ValueError unless every operator in ops has the same width.

    A repeat of the last accepted tuple costs one tuple comparison, which
    compares identical items by identity, so a stream of draws from one
    hhat checks its widths once.
    """
    global _width_checked
    if ops == _width_checked:
        return
    for i, op in enumerate(ops):
        if op.width != ops[0].width:
            raise ValueError(f"hhat terms must share one width: term 0 has width "
                             f"{ops[0].width}, term {i} has width {op.width}")
    _width_checked = ops


def sample_unitary(hhat, t: float, r: int, M: int, rng: np.random.Generator) -> LcuUnitary:
    """Draw one unitary whose weighted mean reproduces exp(i H t / lambda).

    Args:
        hhat: normalized distribution [(p_l, SignedPauli)] with sum p_l = 1.
        t: evolution time for the lambda-normalized Hamiltonian.
        r: number of segments (controlled-rotation count of the output).
        M: even truncation order of the per-segment Taylor distribution.
        rng: seeded generator; identical seeds give identical factor lists.
    """
    probs = [p for p, _ in hhat]
    if not abs(math.fsum(probs) - 1.0) <= 1e-9 or min(probs) < 0:
        raise ValueError("hhat must be a normalized distribution")
    ops = tuple([op for _, op in hhat])
    _check_term_widths(ops)
    dist = segment_distribution(float(t), int(r), int(M))
    sgn = 1.0 if t >= 0 else -1.0
    # the ndarray method skips np.searchsorted's dispatch, a third of its cost
    n_idx = dist.cum_probs.searchsorted(rng.random(r), "right")
    n_extra = 2 * sum(n_idx.tolist())
    # accumulate adds left to right, as np.cumsum does
    cum_p = list(accumulate(probs))
    cum_p[-1] = 1.0
    # each segment draws its rotation term, then its 2 n_idx extra terms
    terms = np.array(cum_p).searchsorted(rng.random(n_extra + r), "right")
    rows = n_idx
    if n_extra:
        seg_len = 2 * n_idx + 1
        rows = np.full(n_extra + r, len(dist.orders))
        rows[np.cumsum(seg_len) - seg_len] = n_idx
    return LcuUnitary._drawn(ops[0].width, _Draw(ops, dist, sgn, rows, terms))
