import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from conftest import random_hamiltonian
from randqpe import backend, estimator
from randqpe._rng import derive_rng
from randqpe.pauli import (DENSE_QUBIT_CAP, Hamiltonian, PauliString, SignedPauli,
                           _index_action, index_action, parse_hamiltonian, pauli_multiply,
                           phase_rows)

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def kron_oracle(word: str) -> np.ndarray:
    # qubit 0 (leftmost letter) is the least-significant index bit
    return functools.reduce(np.kron, [_MATS[c] for c in reversed(word)])


class TestParse:
    def test_single_term(self):
        h = parse_hamiltonian("1.0 Z")
        assert len(h.terms) == 1
        assert h.lam == 1.0
        assert h.width == 1

    def test_sign_absorption(self):
        h = parse_hamiltonian("-0.5 XX\n0.5 ZI")
        assert h.lam == pytest.approx(1.0, rel=1e-15)
        by_word = {op.pauli.axes: (w, op.sign) for w, op in h.terms}
        assert by_word["XX"] == (0.5, -1)
        assert by_word["ZI"] == (0.5, 1)

    def test_merge_duplicates(self):
        h = parse_hamiltonian("0.3 XYZ\n0.3 XYZ")
        assert len(h.terms) == 1
        assert h.terms[0][0] == pytest.approx(0.6)
        assert h.lam == pytest.approx(0.6)

    def test_comments_blank_case(self):
        h = parse_hamiltonian("# header\n\n 1.0 xz  # inline\n")
        assert h.terms[0][1].pauli.axes == "XZ"

    @pytest.mark.parametrize("text,frag", [
        ("1.0", "line 1"),
        ("1.0 X\n0.5 QQ", "line 2"),
        ("1.0 X\n0.5 XX", "width"),
        ("0.0 Z", "zero"),
        ("# only a comment\n", "empty"),
    ])
    def test_errors(self, text, frag):
        with pytest.raises(ValueError, match=frag):
            parse_hamiltonian(text)

    @pytest.mark.parametrize("text,frag", [
        ("nan X", "line 1: non-finite"),
        ("1.0 Z\n-inf X", "line 2: non-finite"),
        ("1e308 X\n1e308 Z", "line 2: lambda overflows"),
        ("1e308 X\n1e308 X", "line 2: lambda overflows"),
    ])
    def test_non_finite_rejected(self, text, frag):
        with pytest.raises(ValueError, match=frag):
            parse_hamiltonian(text)

    def test_roundtrip_up_to_order(self):
        h = random_hamiltonian(4, 7, seed=3)
        h2 = parse_hamiltonian(h.serialize())
        k = lambda t: (t[1].pauli.axes, t[1].sign)
        assert sorted(h.terms, key=k) == [
            (pytest.approx(w), op) for w, op in sorted(h2.terms, key=k)]


class TestDistribution:
    def test_two_equal(self):
        h = parse_hamiltonian("0.5 X\n0.5 Z")
        probs = [p for p, _ in h.normalized_distribution()]
        assert probs == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_single(self):
        h = parse_hamiltonian("2.5 Y")
        assert h.normalized_distribution()[0][0] == pytest.approx(1.0)

    def test_three_one(self):
        h = parse_hamiltonian("3 X\n1 Z")
        probs = [p for p, _ in h.normalized_distribution()]
        assert probs == [pytest.approx(0.75), pytest.approx(0.25)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestMultiply:
    def test_involution(self):
        x = SignedPauli(PauliString.from_axes("X"))
        phase, prod = pauli_multiply(x, x)
        assert phase == 1 and prod.axes == "I"

    def test_xy(self):
        phase, prod = pauli_multiply(SignedPauli(PauliString.from_axes("X")),
                                     SignedPauli(PauliString.from_axes("Y")))
        assert phase == 1j and prod.axes == "Z"

    def test_minus_z_times_x(self):
        phase, prod = pauli_multiply(SignedPauli(PauliString.from_axes("Z"), -1),
                                     SignedPauli(PauliString.from_axes("X")))
        assert phase == -1j and prod.axes == "Y"

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            pauli_multiply(SignedPauli(PauliString.from_axes("X")),
                           SignedPauli(PauliString.from_axes("XX")))

    def test_against_dense_oracle(self, rng):
        for _ in range(40):
            wa = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            wb = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            sa, sb = int(rng.choice([1, -1])), int(rng.choice([1, -1]))
            a = SignedPauli(PauliString.from_axes(wa), sa)
            b = SignedPauli(PauliString.from_axes(wb), sb)
            phase, prod = pauli_multiply(a, b)
            lhs = (sa * kron_oracle(wa)) @ (sb * kron_oracle(wb))
            np.testing.assert_allclose(lhs, phase * kron_oracle(prod.axes),
                                       atol=1e-14)


class TestMatrix:
    def test_z(self):
        np.testing.assert_allclose(parse_hamiltonian("1.0 Z").matrix(),
                                   np.diag([1.0, -1.0]))

    def test_x(self):
        np.testing.assert_allclose(parse_hamiltonian("1.0 X").matrix(),
                                   np.array([[0, 1], [1, 0]]))

    def test_random_against_kron_oracle(self):
        h = random_hamiltonian(3, 6, seed=11)
        ref = np.zeros((8, 8), dtype=complex)
        for w, op in h.terms:
            ref += w * op.sign * kron_oracle(op.pauli.axes)
        np.testing.assert_allclose(h.matrix(), ref, atol=1e-13)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_bit_equal_to_term_matrix_sum(self, width):
        # the scatter must reproduce sum_l w_l * P_l.matrix() in term order,
        # down to the sign bits of zeros
        h = random_hamiltonian(width, min(3, 2 * width) + width, seed=70 + width)
        assert any(op.sign < 0 for _, op in h.terms)
        assert any(op.pauli.x_bits & op.pauli.z_bits for _, op in h.terms)  # a Y factor
        ref = np.zeros((1 << width, 1 << width), dtype=complex)
        for w, op in h.terms:
            ref += w * op.matrix()
        m = h.matrix()
        assert np.array_equal(m, ref)
        assert np.array_equal(np.signbit(m.real), np.signbit(ref.real))
        assert np.array_equal(np.signbit(m.imag), np.signbit(ref.imag))

    def test_peak_memory_one_dense_matrix(self):
        h = random_hamiltonian(10, 40, seed=11)
        tracemalloc.start()
        try:
            h.matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 20) * 16

    @pytest.mark.parametrize("text", [
        "0.5 XZ\n-0.3 XI\n0.2 YY\n0.7 ZZ\n0.1 IZ",  # XZ and XI share a permutation
        "1.0 XII\n-1.0 XII\n0.4 ZZI",               # the X terms cancel to stored zeros
        "1.0 ZIZ",
    ])
    def test_sparse_one_entry_per_permutation(self, text):
        h = parse_hamiltonian(text)
        a = h.sparse()
        assert a.nnz == len({op.pauli.x_bits for _, op in h.terms}) << h.width
        assert np.array_equal(a.toarray(), sum(w * op.matrix() for w, op in h.terms))

    def test_width_cap_sparse_and_dense(self):
        h = parse_hamiltonian("1.0 " + "X" * 13 + "\n0.5 " + "Z" * 13)
        for build in (h.sparse, h.matrix):
            with pytest.raises(ValueError, match="width 13 exceeds cap 12"):
                build()

    def test_hermitian(self):
        m = random_hamiltonian(4, 8, seed=2).matrix()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_width_cap(self):
        op = SignedPauli.from_word("Z" * 13)
        for build in (op.pauli.matrix, op.matrix):
            with pytest.raises(ValueError, match="width 13 exceeds cap 12"):
                build()

    def test_spectral_norm_below_lambda(self):
        for seed in range(5):
            h = random_hamiltonian(5, 9, seed=seed)
            v = np.random.default_rng(seed).standard_normal(32) + 0j
            m = h.matrix()
            for _ in range(200):
                v = m @ v
                v /= np.linalg.norm(v)
            norm = float(np.linalg.norm(m @ v))
            assert norm <= h.lam * (1 + 1e-9)


class TestIndexActionCache:
    def test_full_cache_bytes_bounded_at_qubit_cap(self):
        perm, phase = _index_action(1, 3, DENSE_QUBIT_CAP, 1)
        entry = perm.nbytes + phase.nbytes
        assert _index_action.cache_info().maxsize * entry <= 64 << 20

    def test_tasks_keep_no_tables(self):
        # estimate-cdf-sized tasks on distinct Hamiltonians: the sparse operator
        # for the state, then the sampler's tables.  Each task builds its
        # tables and drops them; a cache of 40 terms' (perm, phase) tables per
        # task would keep about 0.94 MiB more after every task.
        def task(seed):
            h = random_hamiltonian(10, 40, seed=seed)
            state = backend.prepare_state("groundmix:0.6", h)
            plan = estimator.build_plan(h, 0.25 * h.lam, 0.6, 0.2, 0.05)
            estimator.collect_samples(plan, state, derive_rng(3))

        _index_action.cache_clear()
        tracemalloc.start()
        try:
            task(700)
            after_one = tracemalloc.get_traced_memory()[0]
            for seed in range(701, 705):
                task(seed)
            grown = tracemalloc.get_traced_memory()[0] - after_one
        finally:
            tracemalloc.stop()
        assert grown < 0.5 * (1 << 20), grown


def loop_phase_row(x_bits, z_bits, width, sign):
    """The phase row by a per-qubit parity loop, the reference for phase_rows."""
    perm = np.arange(1 << width) ^ x_bits
    par = np.zeros(1 << width, dtype=np.int64)
    for q in range(width):
        if (z_bits >> q) & 1:
            par += (perm >> q) & 1
    n_y = bin(x_bits & z_bits).count("1")
    return (sign * (1j ** (n_y % 4)) * np.where(par % 2 == 0, 1.0, -1.0)).astype(complex)


def assert_rows_same_bits(masks, width):
    """phase_rows over all masks at once: every row, signed zeros included, is
    the loop's row and _index_action's row, compared as uint64."""
    ops = [SignedPauli(PauliString(x, z, width), sign) for x, z, sign in masks]
    x_tab, rows = phase_rows(ops)
    assert x_tab.dtype == np.int64 and x_tab.tolist() == [x for x, _, _ in masks]
    assert rows.dtype == complex and rows.shape == (len(ops), 1 << width)
    for (x, z, sign), row in zip(masks, rows):
        expected = loop_phase_row(x, z, width, sign).view(np.uint64)
        assert np.array_equal(row.view(np.uint64), expected)
        assert np.array_equal(_index_action(x, z, width, sign)[1].view(np.uint64), expected)


class TestPhaseRows:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_every_signed_pauli_same_bits(self, width):
        assert_rows_same_bits([(x, z, sign) for x in range(1 << width)
                               for z in range(1 << width) for sign in (1, -1)], width)

    def test_random_paulis_up_to_the_cap_same_bits(self):
        gen = np.random.default_rng(1729)
        for width in range(5, DENSE_QUBIT_CAP + 1):
            masks = [(*(int(v) for v in gen.integers(1 << width, size=2)),
                      int(gen.choice((1, -1)))) for _ in range(20)]
            assert_rows_same_bits(masks, width)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="inconsistent term widths"):
            phase_rows([SignedPauli.from_word("XZ"), SignedPauli.from_word("XZY")])

    @pytest.mark.parametrize("h", [
        parse_hamiltonian("0.5 XZ\n-0.3 XI\n0.2 YY\n0.7 ZZ\n0.1 IZ"),
        parse_hamiltonian("1.0 XII\n-1.0 XII\n0.4 ZZI"),
        random_hamiltonian(6, 30, seed=8),
        random_hamiltonian(10, 40, seed=9, idle=3),
    ], ids=["shared-x", "cancelling", "6q", "10q-idle"])
    def test_sparse_same_bytes_as_index_action_reference(self, h):
        dim = 1 << h.width
        cols, vals = {}, {}
        for w, op in h.terms:
            perm, phase = index_action(op)
            x = op.pauli.x_bits
            cols[x] = perm
            vals[x] = vals[x] + w * phase if x in vals else w * phase
        n = len(cols)
        ref = scipy.sparse.csr_array(
            (np.column_stack(list(vals.values())).ravel(),
             np.column_stack(list(cols.values())).ravel(),
             np.arange(0, n * dim + 1, n)), shape=(dim, dim))
        a = h.sparse()
        for name in ("data", "indices", "indptr"):
            got, want = getattr(a, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_signed_pauli_form(x_bits, z_bits, width, sign):
    """perm[k] = k ^ x, and the phase is +-1 at every amplitude or +-i at every one."""
    perm, phase = _index_action(x_bits, z_bits, width, sign)
    assert np.array_equal(perm, np.arange(1 << width) ^ perm[0])
    for part in (phase.real, phase.imag):
        assert np.isin(part, (0.0, 1.0, -1.0)).all()
    real, imag = np.abs(phase.real) == 1, np.abs(phase.imag) == 1
    assert (real.all() and (phase.imag == 0).all()) or (imag.all() and (phase.real == 0).all())


class TestIndexActionForm:
    """The step kernel _steps.c keeps only the nonzero part of each phase."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_every_signed_pauli(self, width):
        for x_bits in range(1 << width):
            for z_bits in range(1 << width):
                for sign in (1, -1):
                    assert_signed_pauli_form(x_bits, z_bits, width, sign)

    def test_random_paulis_up_to_the_cap(self):
        gen = np.random.default_rng(2021)
        for width in range(5, DENSE_QUBIT_CAP + 1):
            for _ in range(4):
                x_bits, z_bits = (int(v) for v in gen.integers(1 << width, size=2))
                assert_signed_pauli_form(x_bits, z_bits, width, int(gen.choice((1, -1))))

    def test_collect_samples_rotation_phase_is_imaginary(self, monkeypatch):
        seen, run_block = [], estimator._run_block

        def recording(b, rng, recs, *args):
            seen.append(recs[4][b])
            return run_block(b, rng, recs, *args)

        monkeypatch.setattr(estimator, "_run_block", recording)
        h = random_hamiltonian(3, 6, seed=5)
        plan = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 0.05)
        estimator.collect_samples(plan, backend.prepare_state("groundmix:0.6", h),
                                  derive_rng(5))
        isin0 = np.concatenate(seen)
        assert isin0.size == plan.complexities.c_sample
        assert (isin0.real == 0).all() and (isin0.imag != 0).all()
