import math
import tracemalloc

import numpy as np
import pytest

import randqpe as rq
from conftest import random_hamiltonian
from randqpe import backend, lcu
from randqpe._rng import derive_rng


class TestPrepareState:
    def test_basis_single_qubit(self):
        s = backend.prepare_state("basis:0")
        np.testing.assert_allclose(s.amplitudes, [1.0, 0.0])

    def test_basis_little_endian(self):
        # bits '01': qubit0=0, qubit1=1 -> index 2
        s = backend.prepare_state("basis:01")
        assert s.amplitudes[2] == 1.0

    def test_groundmix_full_overlap(self):
        h = rq.parse_hamiltonian("1.0 Z")
        s = backend.prepare_state("groundmix:1.0", h)
        np.testing.assert_allclose(np.abs(s.amplitudes), [0.0, 1.0], atol=1e-12)

    def test_groundmix_half_overlap(self):
        h = rq.parse_hamiltonian("1.0 Z")
        s = backend.prepare_state("groundmix:0.5", h)
        assert abs(s.amplitudes[1]) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_groundmix_overlap_property(self):
        h = random_hamiltonian(4, 8, seed=21)
        eta = 0.37
        s = backend.prepare_state(f"groundmix:{eta}", h)
        evals, evecs = np.linalg.eigh(h.matrix())
        mask = evals <= evals[0] + 1e-9 * h.lam
        proj = evecs[:, mask]
        overlap = float(np.linalg.norm(proj.conj().T @ s.amplitudes) ** 2)
        assert overlap == pytest.approx(eta, abs=1e-10)

    def test_file_round_trip(self, tmp_path):
        h = random_hamiltonian(3, 4, seed=5)
        s = backend.prepare_state("groundmix:0.8", h)
        p = tmp_path / "amps.txt"
        p.write_text("".join(f"{a.real:.17g} {a.imag:.17g}\n" for a in s.amplitudes))
        s2 = backend.prepare_state(f"file:{p}", None)
        np.testing.assert_allclose(s2.amplitudes, s.amplitudes, atol=1e-12)

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError):
            backend.prepare_state("groundmix:0.5")
        h = rq.parse_hamiltonian("1.0 Z")
        with pytest.raises(ValueError):
            backend.prepare_state("groundmix:1.5", h)
        bad = tmp_path / "zero.txt"
        bad.write_text("0 0\n0 0\n")
        with pytest.raises(ValueError):
            backend.prepare_state(f"file:{bad}")


def _ground_energy_zero(h):
    # an identity term moves E0 to about 0, where ARPACK's relative stopping
    # test |r| <= tol * max(eps^(2/3), |E|) is at its tightest
    e0 = float(np.linalg.eigvalsh(h.matrix())[0])
    return rq.parse_hamiltonian(h.serialize() + f"{-e0!r} {'I' * h.width}\n")


def _split_levels(h, gap):
    # Z on the idle qubit 0 splits every level into two, gap * lambda apart
    return rq.parse_hamiltonian(h.serialize() + f"{gap * h.lam / 2!r} Z{'I' * (h.width - 1)}\n")


class TestGroundmix:
    @staticmethod
    def reference(h, eta):
        """The state from a full eigh, its ground space, and the gap above it.

        The state is sqrt(eta) Pw/|Pw| + sqrt(1-eta) (w-Pw)/|w-Pw|.
        """
        evals, evecs = np.linalg.eigh(h.matrix())
        mask = evals <= evals[0] + 1e-9 * h.lam
        gspace = evecs[:, mask]
        gap = evals[~mask][0] - evals[0] if not mask.all() else math.inf
        rng = np.random.Generator(np.random.PCG64(backend._GROUNDMIX_SEED))
        w = rng.standard_normal(len(evals)) + 1j * rng.standard_normal(len(evals))
        pw = gspace @ (gspace.conj().T @ w)
        g, v = pw / np.linalg.norm(pw), (w - pw) / np.linalg.norm(w - pw)
        return math.sqrt(eta) * g + math.sqrt(1.0 - eta) * v, gspace, gap

    @pytest.mark.parametrize("make_h, fold, solves", [
        (lambda: random_hamiltonian(3, 5, seed=41), 2, 1),
        # a diagonal H (I/Z terms only) is read off its diagonal, with no solve
        (lambda: rq.parse_hamiltonian("1.0 ZIII"), 8, 0),
        (lambda: rq.parse_hamiltonian("1.0 Z"), 1, 0),
        (lambda: random_hamiltonian(8, 16, seed=42), 1, 1),
        # k = 8 cannot confirm an 8-fold ground space, so the full solve runs
        (lambda: rq.parse_hamiltonian("1.0 XIII"), 8, 2),
        (lambda: rq.parse_hamiltonian("1.0 ZIIIIIIIII\n-0.3 IZZIIIIIII\n0.2 IIIIIIIIZI"),
         128, 0),
        (lambda: rq.parse_hamiltonian("1.0 ZIIIIIIIII"), 512, 0),
        # from 9 qubits deflated Lanczos finds the ground space without eigh;
        # idle qubits make every level 2^idle-fold
        (lambda: random_hamiltonian(10, 40, seed=7), 1, 0),
        (lambda: random_hamiltonian(9, 40, seed=43, idle=1), 2, 0),
        (lambda: random_hamiltonian(9, 40, seed=44, idle=2), 4, 0),
        # 8 ground vectors found: the whole spectrum is solved once instead
        (lambda: random_hamiltonian(9, 40, seed=45, idle=3), 8, 1),
        (lambda: _ground_energy_zero(random_hamiltonian(10, 40, seed=7)), 1, 0),
        (lambda: _split_levels(random_hamiltonian(10, 40, seed=43, idle=1), 1e-7), 1, 0),
    ], ids=["2-fold", "8-fold", "below-8-dims", "8-qubits", "8-fold-solved",
            "diagonal-128-fold", "diagonal-512-fold", "lanczos-10-qubits",
            "lanczos-2-fold", "lanczos-4-fold", "lanczos-8-fold-solved",
            "lanczos-ground-energy-0", "lanczos-gap-1e-7"])
    @pytest.mark.parametrize("eta", [0.37, 1.0])
    def test_matches_projector_formula(self, monkeypatch, make_h, fold, solves, eta):
        h = make_h()
        calls = []
        eigh = backend.scipy.linalg.eigh
        monkeypatch.setattr(backend.scipy.linalg, "eigh",
                            lambda *a, **k: calls.append(k) or eigh(*a, **k))
        s = backend.prepare_state(f"groundmix:{eta}", h)
        assert len(calls) == solves
        if h.width >= backend._LANCZOS_WIDTH and solves:
            assert calls[0].get("subset_by_index") is None
        ref, gspace, gap = self.reference(h, eta)
        assert gspace.shape[1] == fold
        # Lanczos leaves residuals near 1e-15 lambda, and an eigenvector's
        # error grows as residual / gap: 1e-8 at a gap of 1e-7 lambda
        atol = max(1e-12, 1e-15 * h.lam / gap)
        np.testing.assert_allclose(s.amplitudes, ref, rtol=0, atol=atol)
        overlap = float(np.linalg.norm(gspace.conj().T @ s.amplitudes) ** 2)
        assert overlap == pytest.approx(eta, abs=1e-10)

    @pytest.mark.parametrize("fault", ["no-convergence", "loose-vector"])
    def test_failed_lanczos_run_falls_back_to_dense(self, monkeypatch, fault):
        h = random_hamiltonian(10, 40, seed=7)
        eigsh, eigh, calls = backend.scipy.sparse.linalg.eigsh, backend.scipy.linalg.eigh, []

        def faulty_eigsh(*a, **k):
            e, vec = eigsh(*a, **k)
            if fault == "no-convergence":
                raise backend.scipy.sparse.linalg.ArpackNoConvergence("no convergence", e, vec)
            return e, vec + 1e-9  # a residual of about 1e-8 lambda

        monkeypatch.setattr(backend.scipy.sparse.linalg, "eigsh", faulty_eigsh)
        monkeypatch.setattr(backend.scipy.linalg, "eigh",
                            lambda *a, **k: calls.append(k) or eigh(*a, **k))
        s = backend.prepare_state("groundmix:0.37", h)
        assert [k.get("subset_by_index") for k in calls] == [None]
        np.testing.assert_allclose(s.amplitudes, self.reference(h, 0.37)[0], rtol=0, atol=1e-12)

    def test_lanczos_is_deterministic(self):
        h = random_hamiltonian(10, 40, seed=46, idle=1)
        a = backend.prepare_state("groundmix:0.6", h).amplitudes
        b = backend.prepare_state("groundmix:0.6", h).amplitudes
        assert np.array_equal(a, b)

    def test_12_qubits_in_bounded_memory(self, monkeypatch):
        # the dense matrix alone would take 256 MB
        h = random_hamiltonian(12, 40, seed=47)
        monkeypatch.setattr(rq.Hamiltonian, "matrix",
                            lambda *a: pytest.fail("dense matrix built"))
        tracemalloc.start()
        try:
            g = backend.prepare_state("groundmix:1.0", h).amplitudes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20
        hg = h.sparse() @ g
        energy = np.vdot(g, hg).real
        assert np.linalg.norm(hg - energy * g) <= 1e-10 * h.lam

    @pytest.mark.parametrize("text", ["1.0 XIIIIIIII\n-1.0 XIIIIIIII",
                                      "1.0 XIIIIIIII\n-1.0 XIIIIIIII\n1.0 IIIIIIIII"])
    def test_lanczos_whole_space_ground(self, text):
        # H = 0 and H = I: every state is a ground state
        h = rq.parse_hamiltonian(text)
        assert backend.prepare_state("groundmix:1", h).width == 9
        with pytest.raises(ValueError, match="above the ground space"):
            backend.prepare_state("groundmix:0.5", h)

    def test_whole_space_ground_rejected_below_one(self):
        h = rq.parse_hamiltonian("1.0 Z\n-1.0 Z")  # H = 0
        assert backend.prepare_state("groundmix:1", h).width == 1
        with pytest.raises(ValueError, match="above the ground space"):
            backend.prepare_state("groundmix:0.5", h)


class TestDescriptorLimits:
    def test_basis_width_checked_before_allocating(self):
        with pytest.raises(ValueError, match="width 13 exceeds cap 12"):
            backend.prepare_state("basis:" + "0" * 13)

    def test_file_width_checked(self, tmp_path):
        p = tmp_path / "wide.txt"
        p.write_text("1 0\n" * (1 << 13))
        with pytest.raises(ValueError, match="width 13 exceeds cap 12"):
            backend.prepare_state(f"file:{p}")

    @pytest.mark.parametrize("text, frag", [
        ("", "no amplitudes"),
        ("# comment only\n", "no amplitudes"),
        ("1 0\nnan 0\n", "not finite"),
        ("1 0\ninf 0\n", "not finite"),
        ("1 0 0\n0 0\n", "expected 're im'"),
    ])
    def test_file_plain_errors(self, tmp_path, text, frag):
        p = tmp_path / "amps.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=frag):
            backend.prepare_state(f"file:{p}")


class TestExpectation:
    def test_identity(self):
        s = backend.prepare_state("basis:0")
        u = lcu.LcuUnitary((), width=1)
        assert backend.expectation(s, u) == pytest.approx(1.0)

    def test_off_diagonal_pauli(self):
        s = backend.prepare_state("basis:0")
        u = lcu.LcuUnitary((lcu.PauliOp(rq.SignedPauli(rq.PauliString.from_axes("X"))),),
                           width=1)
        assert backend.expectation(s, u) == pytest.approx(0.0)

    def test_against_dense_matrix(self):
        h = random_hamiltonian(3, 6, seed=7)
        s = backend.prepare_state("groundmix:0.6", h)
        for seed in range(6):
            u = lcu.sample_unitary(h.normalized_distribution(), -1.7, 4, 8,
                                   derive_rng(seed))
            direct = backend.expectation(s, u)
            dense = complex(np.vdot(s.amplitudes, u.matrix() @ s.amplitudes))
            assert direct == pytest.approx(dense, abs=1e-10)
            assert abs(direct) <= 1 + 1e-10

    def test_stack_of_columns_matches_one_at_a_time(self):
        # three columns of length 8: a phase broadcast along the wrong axis
        # fails to broadcast or mixes columns
        h = random_hamiltonian(3, 6, seed=8)
        u = lcu.parse_lcu(lcu.sample_unitary(h.normalized_distribution(), 2.3, 3, 8,
                                             derive_rng(4)).serialize() + "PHASE 1\n", 3)
        cols = derive_rng(5).standard_normal((8, 3)) + 1j * derive_rng(6).standard_normal((8, 3))
        assert {type(f) for f in u.factors} == {lcu.PauliRotation, lcu.PauliOp, lcu.Phase}
        out = backend.apply_unitary(cols, u)
        assert out.shape == (8, 3)
        for k in range(3):
            np.testing.assert_array_equal(out[:, k], backend.apply_unitary(cols[:, k], u))

    def test_width_mismatch(self):
        s = backend.prepare_state("basis:00")
        u = lcu.LcuUnitary((), width=1)
        with pytest.raises(ValueError):
            backend.expectation(s, u)


class TestHadamard:
    def test_identity_always_plus(self):
        s = backend.prepare_state("basis:0")
        u = lcu.LcuUnitary((), width=1)
        rng = derive_rng(3)
        for _ in range(50):
            m = backend.hadamard_sample(s, u, rng)
            assert m.real == 1.0
            assert m.imag in (-1.0, 1.0)

    def test_zero_expectation_is_fair_coin(self):
        s = backend.prepare_state("basis:0")
        u = lcu.LcuUnitary((lcu.PauliOp(rq.SignedPauli(rq.PauliString.from_axes("X"))),),
                           width=1)
        rng = derive_rng(11)
        n = 20000
        tot = sum(backend.hadamard_sample(s, u, rng).real for _ in range(n))
        assert abs(tot / n) <= 4 / math.sqrt(n)

    def test_unbiased_on_random_instance(self):
        h = random_hamiltonian(2, 3, seed=13)
        s = backend.prepare_state("groundmix:0.9", h)
        u = lcu.sample_unitary(h.normalized_distribution(), 1.1, 3, 8, derive_rng(2))
        exact = backend.expectation(s, u)
        rng = derive_rng(4)
        n = 20000
        acc = sum(backend.hadamard_sample(s, u, rng) for _ in range(n))
        est = acc / n
        assert abs(est.real - exact.real) <= 4 / math.sqrt(n)
        assert abs(est.imag - exact.imag) <= 4 / math.sqrt(n)


class TestSpectrum:
    def test_z_basis0(self):
        h = rq.parse_hamiltonian("1.0 Z")
        spec = backend.exact_spectrum(h, backend.prepare_state("basis:0"))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(spec.overlaps, [0.0, 1.0], atol=1e-12)

    def test_x_symmetric(self):
        h = rq.parse_hamiltonian("1.0 X")
        spec = backend.exact_spectrum(h, backend.prepare_state("basis:0"))
        np.testing.assert_allclose(spec.overlaps, [0.5, 0.5], atol=1e-12)

    def test_residual_and_total_weight(self):
        h = random_hamiltonian(4, 8, seed=17)
        s = backend.prepare_state("groundmix:0.5", h)
        spec = backend.exact_spectrum(h, s)
        assert spec.overlaps.sum() == pytest.approx(1.0, abs=1e-10)
        evals, evecs = np.linalg.eigh(h.matrix())
        m = h.matrix()
        for e, v in zip(evals, evecs.T):
            assert np.linalg.norm(m @ v - e * v) <= 1e-9 * h.lam
        assert np.abs(spec.eigenvalues).max() <= h.lam * (1 + 1e-12)

    def test_degenerate_grouping(self):
        h = rq.parse_hamiltonian("1.0 ZI")
        s = backend.prepare_state("basis:00")
        spec = backend.exact_spectrum(h, s)
        assert len(spec.eigenvalues) == 2
        np.testing.assert_allclose(spec.overlaps, [0.0, 1.0], atol=1e-12)


class TestExactCdf:
    def test_step_limits(self):
        h = random_hamiltonian(3, 5, seed=19)
        s = backend.prepare_state("groundmix:0.7", h)
        spec = backend.exact_spectrum(h, s)
        tau = 1.2 / h.lam
        assert backend.exact_cdf(spec, tau, tau * spec.eigenvalues[0] - 1e-9) == 0.0
        assert backend.exact_cdf(spec, tau, tau * spec.eigenvalues[-1]) == pytest.approx(1.0)

    def test_single_jump(self):
        h = rq.parse_hamiltonian("1.0 Z")
        spec = backend.exact_spectrum(h, backend.prepare_state("basis:0"))
        assert backend.exact_cdf(spec, 1.0, 0.5) == 0.0
        assert backend.exact_cdf(spec, 1.0, 1.0) == pytest.approx(1.0)

    def test_monotone_step(self):
        h = random_hamiltonian(3, 6, seed=23)
        s = backend.prepare_state("groundmix:0.4", h)
        spec = backend.exact_spectrum(h, s)
        tau = 1.0 / h.lam
        xs = np.linspace(-1.5, 1.5, 400)
        vals = backend.exact_cdf(spec, tau, xs)
        assert np.all(np.diff(vals) >= 0)
        assert set(np.round(np.unique(vals), 12)) <= set(
            np.round(np.unique(np.cumsum(np.concatenate([[0], spec.overlaps]))), 12))

    def test_tau_too_large(self):
        h = rq.parse_hamiltonian("1.0 Z")
        spec = backend.exact_spectrum(h, backend.prepare_state("basis:0"))
        with pytest.raises(ValueError):
            backend.exact_cdf(spec, 2.0, 0.0)
