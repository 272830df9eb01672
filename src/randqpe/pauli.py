"""Pauli-string Hamiltonians: parsing, algebra, and dense and sparse matrices.

Conventions
-----------
A Pauli string is stored in symplectic form (x_bits, z_bits): bit q of
x_bits is set if qubit q carries X or Y, bit q of z_bits if it carries
Z or Y.  The leftmost letter of a Pauli word acts on qubit 0, and qubit
0 indexes the least-significant bit of the state vector (little-endian).

Products are tracked with exact quarter-turn phases (powers of i), never
floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

DENSE_QUBIT_CAP = 12

# quarter-turn phase table: P1 * P2 = i^k * P3, indexed by letter
_PHASE_POWER = {
    ("X", "Y"): 1, ("Y", "X"): 3,
    ("Y", "Z"): 1, ("Z", "Y"): 3,
    ("Z", "X"): 1, ("X", "Z"): 3,
}

_QUARTER = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_width(width: int):
    if width > DENSE_QUBIT_CAP:
        raise ValueError(f"width {width} exceeds cap {DENSE_QUBIT_CAP}")


class PauliString:
    """Tensor product of single-qubit operators from {I, X, Y, Z}."""

    __slots__ = ("x_bits", "z_bits", "width")

    def __init__(self, x_bits: int, z_bits: int, width: int):
        if width < 1:
            raise ValueError("width must be >= 1")
        if x_bits >> width or z_bits >> width:
            raise ValueError("bit masks exceed width")
        self.x_bits = x_bits
        self.z_bits = z_bits
        self.width = width

    @classmethod
    def from_axes(cls, word: str) -> "PauliString":
        """Build from a word like 'XIZ' (leftmost letter = qubit 0)."""
        word = word.upper()
        x = z = 0
        for q, letter in enumerate(word):
            if letter in ("X", "Y"):
                x |= 1 << q
            if letter in ("Z", "Y"):
                z |= 1 << q
            if letter not in "IXYZ":
                raise ValueError(f"invalid Pauli letter {letter!r}")
        return cls(x, z, len(word))

    @property
    def axes(self) -> str:
        return "".join(self.letter(q) for q in range(self.width))

    def letter(self, q: int) -> str:
        xb = (self.x_bits >> q) & 1
        zb = (self.z_bits >> q) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 = least significant index bit)."""
        _check_width(self.width)
        dim = 1 << self.width
        perm, phase = _index_action(self.x_bits, self.z_bits, self.width, 1)
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(dim), perm] = phase
        return m

    def __eq__(self, other):
        return (isinstance(other, PauliString)
                and self.x_bits == other.x_bits
                and self.z_bits == other.z_bits
                and self.width == other.width)

    def __hash__(self):
        return hash((self.x_bits, self.z_bits, self.width))

    def __repr__(self):
        return f"PauliString({self.axes!r})"


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli string with a real sign, Hermitian and unitary."""

    pauli: PauliString
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def width(self) -> int:
        return self.pauli.width

    def matrix(self) -> np.ndarray:
        return self.sign * self.pauli.matrix()

    def word(self) -> str:
        return ("-" if self.sign < 0 else "") + self.pauli.axes

    @classmethod
    def from_word(cls, word: str) -> "SignedPauli":
        sign = 1
        if word.startswith(("-", "+")):
            sign = -1 if word[0] == "-" else 1
            word = word[1:]
        return cls(PauliString.from_axes(word), sign)


def pauli_multiply(a: SignedPauli, b: SignedPauli):
    """Product a*b as (phase, PauliString) with phase in {1, i, -1, -i}."""
    pa, pb = a.pauli, b.pauli
    if pa.width != pb.width:
        raise ValueError("width mismatch in Pauli product")
    power = 0
    for q in range(pa.width):
        la, lb = pa.letter(q), pb.letter(q)
        power += _PHASE_POWER.get((la, lb), 0)
    if a.sign * b.sign < 0:
        power += 2
    prod = PauliString(pa.x_bits ^ pb.x_bits, pa.z_bits ^ pb.z_bits, pa.width)
    return _QUARTER[power % 4], prod


_SIGNS = np.array([1.0, -1.0])


def phase_rows(ops):
    """x masks and phase rows of signed Paulis of one width, in one numpy pass.

    Returns (x, rows), x an int64 array of the x_bits and rows an (L, 2^n)
    complex array, such that (P_l psi)[k] = rows[l, k] * psi[k ^ x[l]].  Row l
    is sign_l i^(popcount(x_l & z_l) mod 4) (-1)^parity((k ^ x_l) & z_l), with
    the parity folded by XOR shifts.  Nothing is kept: each caller builds the
    tables of its own terms and drops them with its call.
    """
    width = ops[0].width
    if any(op.width != width for op in ops):
        raise ValueError("inconsistent term widths")
    x = np.array([op.pauli.x_bits for op in ops], dtype=np.int64)
    c = np.array([op.sign * (1j ** (bin(op.pauli.x_bits & op.pauli.z_bits).count("1") % 4))
                  for op in ops], dtype=complex)
    dtype = np.min_scalar_type((1 << width) - 1)
    par = np.arange(1 << width, dtype=dtype) ^ x.astype(dtype)[:, None]
    par &= np.array([op.pauli.z_bits for op in ops], dtype=dtype)[:, None]
    shift = 1 << (width - 1).bit_length()
    while shift > 1:
        shift >>= 1
        par ^= par >> shift
    par &= 1
    return x, c[:, None] * _SIGNS[par]


# perm and phase take 24 B per amplitude: at most 64 MiB of 12-qubit tables.
# Only apply_unitary (through index_action) and PauliString.matrix use the
# cache; the Hamiltonian and sampler tables are built per call by phase_rows.
@functools.lru_cache(maxsize=(64 << 20) // (24 << DENSE_QUBIT_CAP))
def _index_action(x_bits: int, z_bits: int, width: int, sign: int):
    """Index-space action of a signed Pauli: P|i> = phase(i) |i XOR x_bits>.

    Returns (perm, row_phase) such that (P psi)[k] = row_phase[k] * psi[perm[k]],
    i.e. row_phase[k] = phase(k XOR x_bits) and perm[k] = k XOR x_bits.
    """
    perm = np.arange(1 << width) ^ x_bits
    _, (phase,) = phase_rows([SignedPauli(PauliString(x_bits, z_bits, width), sign)])
    perm.flags.writeable = False
    phase.flags.writeable = False
    return perm, phase


def index_action(op: SignedPauli):
    """Cached (perm, row_phase) pair for applying `op` to state vectors."""
    p = op.pauli
    return _index_action(p.x_bits, p.z_bits, p.width, op.sign)


class Hamiltonian:
    """Linear combination of signed Pauli strings with positive weights."""

    __slots__ = ("terms", "lam", "width")

    def __init__(self, terms):
        terms = tuple((float(w), op) for w, op in terms)
        if not terms:
            raise ValueError("Hamiltonian needs at least one term")
        width = terms[0][1].width
        seen = set()
        for w, op in terms:
            if not 0 < w < math.inf:
                raise ValueError("term weights must be positive and finite")
            if op.width != width:
                raise ValueError("inconsistent term widths")
            key = (op.pauli.x_bits, op.pauli.z_bits, op.sign)
            if key in seen:
                raise ValueError(f"duplicate term {op.word()}")
            seen.add(key)
        self.terms = terms
        self.lam = float(sum(w for w, _ in terms))
        if self.lam == math.inf:
            raise ValueError("lambda overflows")
        self.width = width

    def normalized_distribution(self):
        """Probabilities p_l = weight_l / lambda paired with the operators."""
        return [(w / self.lam, op) for w, op in self.terms]

    def matrix(self) -> np.ndarray:
        # toarray adds each stored entry onto +0, as a scatter into zeros would
        return self.sparse().toarray()

    def sparse(self) -> scipy.sparse.csr_array:
        """The matrix in CSR form, built from phase_rows tables made for this call.

        Terms with the same x_bits share one permutation, so their entries are
        summed in term order: each row stores one entry per distinct x_bits.
        """
        _check_width(self.width)
        dim = 1 << self.width
        x_tab, rows = phase_rows([op for _, op in self.terms])
        vals = {}
        for (w, _), x, row in zip(self.terms, x_tab.tolist(), rows):
            vals[x] = vals[x] + w * row if x in vals else w * row
        n = len(vals)
        cols = np.arange(dim)[:, None] ^ np.array(list(vals), dtype=np.int64)
        return scipy.sparse.csr_array(
            (np.column_stack(list(vals.values())).ravel(), cols.ravel(),
             np.arange(0, n * dim + 1, n)), shape=(dim, dim))

    def serialize(self) -> str:
        lines = [f"{w * op.sign:.17g} {op.pauli.axes}" for w, op in self.terms]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Hamiltonian({len(self.terms)} terms, lambda={self.lam:.6g}, width={self.width})"


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse lines '<coefficient> <pauli word>'; '#' comments, blanks ignored.

    Negative coefficients are stored as positive weights on sign-flipped
    operators; duplicate (pauli, sign) lines are merged by summing weights.
    """
    merged: dict = {}
    order = []
    width = None
    n_lines = 0
    total = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        n_lines += 1
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coefficient> <word>', got {raw!r}")
        try:
            coeff = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        if coeff == 0.0:
            raise ValueError(f"line {lineno}: zero coefficient")
        if not math.isfinite(coeff):
            raise ValueError(f"line {lineno}: non-finite coefficient {parts[0]!r}")
        total += abs(coeff)
        if not math.isfinite(total):
            raise ValueError(f"line {lineno}: lambda overflows")
        try:
            pauli = PauliString.from_axes(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if width is None:
            width = pauli.width
        elif pauli.width != width:
            raise ValueError(f"line {lineno}: width {pauli.width} != {width}")
        sign = 1 if coeff > 0 else -1
        key = (pauli.x_bits, pauli.z_bits, sign)
        if key not in merged:
            merged[key] = [0.0, SignedPauli(pauli, sign)]
            order.append(key)
        merged[key][0] += abs(coeff)
    if n_lines == 0:
        raise ValueError("empty Hamiltonian file")
    return Hamiltonian([(merged[k][0], merged[k][1]) for k in order])
