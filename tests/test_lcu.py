import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import randqpe as rq
from conftest import random_hamiltonian
from randqpe import backend, cli, lcu
from randqpe._rng import derive_rng


def rotation_count(u):
    return sum(1 for f in u.factors if isinstance(f, lcu.PauliRotation))


class TestSegmentDistribution:
    def test_time_zero(self):
        d = lcu.segment_distribution(0.0, 3, 8)
        assert d.probs[0] == pytest.approx(1.0)
        assert d.thetas[0] == 0.0
        assert d.mu_segment == pytest.approx(1.0)

    def test_unit_ratio_frozen(self):
        # direct evaluation: weights sqrt(2), sqrt(10)/6, sqrt(26)/120
        d = lcu.segment_distribution(1.0, 1, 4)
        np.testing.assert_allclose(
            d.probs, [0.712898486709766, 0.26568157955662786, 0.021419933733606202],
            rtol=1e-12)
        assert d.mu_segment == pytest.approx(1.983751668347765, rel=1e-12)

    def test_theta_zero_order(self):
        d = lcu.segment_distribution(2.0, 2, 4)
        assert d.thetas[0] == pytest.approx(math.pi / 4, rel=1e-12)

    def test_angles_formula(self):
        d = lcu.segment_distribution(-1.7, 3, 10)
        x = -1.7 / 3
        for n, th in zip(d.orders, d.thetas):
            assert th == pytest.approx(
                math.acos(1.0 / math.sqrt(1 + (x / (n + 1)) ** 2)), rel=1e-12)
            assert 0 <= th < math.pi / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            lcu.segment_distribution(1.0, 0, 4)
        with pytest.raises(ValueError):
            lcu.segment_distribution(1.0, 1, 3)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not finite"):
                lcu.segment_distribution(t, 1, 4)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            lcu.segment_distribution(1e300, 1, 8)

    def test_overflow_exits_2_with_no_numpy_warning(self, tmp_path, capsys):
        ham = tmp_path / "h.txt"
        ham.write_text("0.6 XZ\n-0.4 ZI\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["sample-lcu", f"--ham={ham}", "--t", "1e200", "--r", "1",
                            "--M", "4", "--seed", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: segment weight at t/r = 1e+200 overflows\n")


class TestTruncationOrder:
    def test_frozen_examples(self):
        # gamma' = e^-e: bound e / W(1) = 4.7926...; smallest even is 6
        assert lcu.truncation_order(0.5 * math.exp(-math.e), 1.0, 1.0) == 6
        # gamma' = 1e-10: bound ln(1e10)/W(ln(1e10)/e) = 23.02585/1.641176
        # = 14.0303, so the smallest even order is 16 (14 fails the bound:
        # (e/14)^14 = 1.08e-10 > 1e-10)
        assert lcu.truncation_order(0.5e-10, 1.0, 1.0) == 16

    def test_bound_satisfied(self):
        for gp in (0.5, 1e-2, 1e-6, 1e-14):
            m = lcu.truncation_order(gp / 2, 1.0, 1.0)
            if m:
                assert (math.e / m) ** m <= gp

    def test_monotone_in_gamma(self):
        gammas = np.geomspace(1e-14, 0.4, 25)
        ms = [lcu.truncation_order(g, 1.0, 1.0) for g in gammas]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_loose_budget_returns_zero(self):
        assert lcu.truncation_order(10.0, 1.0, 1.0) == 0


class TestWeightMu:
    def test_time_zero(self):
        assert lcu.weight_mu(0.0, 3, 8) == pytest.approx(1.0)

    def test_frozen_series_value(self):
        # direct series: sum_{even n<=8} (1/n!) sqrt(1+1/(n+1)^2) = 1.9851796122068712
        assert lcu.weight_mu(1.0, 1, 8) == pytest.approx(1.9851796122068712, rel=1e-12)

    def test_bounded_by_exponential(self):
        for t in np.linspace(-3, 3, 20):
            for r in (1, 2, 5, 9):
                assert lcu.weight_mu(float(t), r, 40) <= math.exp(t * t / r) * (1 + 1e-12)

    def test_lemma_bound_example(self):
        assert lcu.weight_mu(2.0, 4, 40) <= math.e * (1 + 1e-12)


def test_even_series_bounded_by_gaussian():
    # sum_{even n<=40} |x|^n/n! sqrt(1+(x/(n+1))^2) <= e^{x^2}
    xs = np.linspace(-3, 3, 200)
    vals = lcu.segment_weight(xs, 40)
    assert np.all(vals <= np.exp(xs * xs) * (1 + 1e-12))


class TestSampleUnitary:
    def test_seed_determinism(self):
        h = random_hamiltonian(3, 5, seed=2)
        hhat = h.normalized_distribution()
        u1 = lcu.sample_unitary(hhat, -1.5, 5, 8, derive_rng(99))
        u2 = lcu.sample_unitary(hhat, -1.5, 5, 8, derive_rng(99))
        assert u1.serialize() == u2.serialize()

    def test_rotation_count_and_angles(self):
        h = random_hamiltonian(2, 3, seed=4)
        hhat = h.normalized_distribution()
        dist = lcu.segment_distribution(2.2, 6, 8)
        u = lcu.sample_unitary(hhat, 2.2, 6, 8, derive_rng(1))
        assert rotation_count(u) == 6
        allowed = set(np.round(dist.thetas, 12))
        for f in u.factors:
            if isinstance(f, lcu.PauliRotation):
                assert round(abs(f.angle), 12) in allowed

    def test_time_zero_gives_identity(self):
        h = random_hamiltonian(2, 3, seed=4)
        u = lcu.sample_unitary(h.normalized_distribution(), 0.0, 4, 8, derive_rng(5))
        assert rotation_count(u) == 4
        assert all(isinstance(f, lcu.PauliRotation) and f.angle == 0.0
                   for f in u.factors)
        np.testing.assert_allclose(u.matrix(), np.eye(4), atol=1e-12)

    def test_unitarity(self):
        h = random_hamiltonian(3, 6, seed=9)
        hhat = h.normalized_distribution()
        for seed in range(5):
            u = lcu.sample_unitary(hhat, 1.3, 4, 8, derive_rng(seed))
            m = u.matrix()
            np.testing.assert_allclose(m @ m.conj().T, np.eye(8), atol=1e-10)

    def test_single_term_unbiasedness(self):
        h = rq.parse_hamiltonian("1.0 Z")
        hhat = h.normalized_distribution()
        t, r, M, n = 1.0, 2, 8, 40_000
        rng = derive_rng(17)
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            acc += lcu.sample_unitary(hhat, t, r, M, rng).matrix()
        mu = lcu.weight_mu(t, r, M)
        est = mu * acc / n
        exact = np.diag([np.exp(1j * t), np.exp(-1j * t)])
        se = mu / math.sqrt(n)
        bias = lcu.truncation_bias_bound(t, r, M)
        assert np.linalg.norm(est - exact, 2) <= 4 * se + bias

    def test_negative_time_conjugates(self):
        # E[U(-t)] must track exp(-i H t / lambda); checks the rotation sign fix
        h = rq.parse_hamiltonian("0.6 X\n0.4 Z")
        hhat = h.normalized_distribution()
        t, r, M, n = -1.2, 3, 8, 60_000
        rng = derive_rng(23)
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            acc += lcu.sample_unitary(hhat, t, r, M, rng).matrix()
        mu = lcu.weight_mu(t, r, M)
        exact = expm(1j * t * h.matrix() / h.lam)
        se = mu / math.sqrt(n)
        bias = lcu.truncation_bias_bound(t, r, M)
        assert np.linalg.norm(mu * acc / n - exact, 2) <= 4 * se + bias


def _dense_product(u):
    """Reference: the factors' dense matrices multiplied one at a time."""
    eye = np.eye(1 << u.width, dtype=complex)
    m = eye
    for f in u.factors:
        if isinstance(f, lcu.Phase):
            m = 1j ** f.quarter_turns * m
        elif isinstance(f, lcu.PauliOp):
            m = f.op.matrix() @ m
        else:
            m = (math.cos(f.angle) * eye + 1j * math.sin(f.angle) * f.op.matrix()) @ m
    return m


class TestDrawnUnitary:
    def test_seeded_stream_golden(self):
        # digest of the serialized draws, taken before the sampler kept its
        # draw as arrays; a change to it is a change to the seeded stream
        digest, higher = hashlib.sha256(), 0
        for width in (1, 2, 3):
            h = random_hamiltonian(width, min(3 * width, 6), seed=70 + width)
            hhat = h.normalized_distribution()
            for t in (-2.0, 1.3):
                rng = derive_rng(0x5A, 10 * width + (t > 0))
                for _ in range(200):
                    text = lcu.sample_unitary(hhat, t, math.ceil(2 * t * t), 8, rng).serialize()
                    higher += "PAULI" in text
                    digest.update(text.encode())
        assert higher > 100
        assert digest.hexdigest() == (
            "27f378a9dfeb6e2aa8ba6179f63d4e262b38a26a227ee1cef67648132b992d2d")

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matrix_matches_factor_product(self, width):
        h = random_hamiltonian(width, min(3 * width, 6), seed=80 + width)
        hhat = h.normalized_distribution()
        eye = np.eye(1 << width, dtype=complex)
        higher = quarter = 0
        # odd r leaves one segment over at some level of the product tree;
        # t/r = 3 draws orders 4 and 8, whose extra factors' i's make +1
        for t, r in ((-2.0, 8), (1.3, 4), (-1.5, 5), (0.7, 3), (3.0, 1)):
            rng = derive_rng(0x5B, 10 * width + r)
            for _ in range(40):
                u = lcu.sample_unitary(hhat, t, r, 8, rng)
                m = u.matrix()
                higher += any(isinstance(f, lcu.PauliOp) for f in u.factors)
                runs = [len(list(g)) for extra, g in itertools.groupby(
                    u.factors, lambda f: isinstance(f, lcu.PauliOp)) if extra]
                quarter += sum(n % 4 == 0 for n in runs)
                np.testing.assert_allclose(m, _dense_product(u), rtol=0, atol=1e-12)
                applied = np.column_stack([backend.apply_unitary(e, u) for e in eye])
                np.testing.assert_allclose(m, applied, rtol=0, atol=1e-12)
        assert higher >= 5 and quarter >= 5

    def test_matrix_past_table_bound(self):
        # 6 qubits, 4 terms, M = 8: the per-term tables would take 1.5 MiB,
        # over their 1 MiB bound, so matrix() multiplies factor by factor
        h = random_hamiltonian(6, 4, seed=90)
        u = lcu.sample_unitary(h.normalized_distribution(), -2.0, 8, 8, derive_rng(7))
        assert lcu._term_tables(tuple(op for _, op in h.normalized_distribution()),
                                -0.25, 8) is None
        np.testing.assert_allclose(u.matrix(), _dense_product(u), rtol=0, atol=1e-12)

    def test_unnormalized_distribution_rejected(self):
        ops = [rq.SignedPauli(rq.PauliString.from_axes(w)) for w in ("X", "Z")]
        for probs in ((0.5, 0.6), (1.2, -0.2), (float("nan"), 0.5)):
            with pytest.raises(ValueError, match="normalized"):
                lcu.sample_unitary(list(zip(probs, ops)), 1.0, 2, 4, derive_rng(0))

    def test_term_widths_must_match(self):
        hhat = [(0.5, rq.SignedPauli.from_word("XZ")), (0.5, rq.SignedPauli.from_word("XZZ"))]
        # the check remembers the last tuple it accepted: a failed one is checked again
        for one_width in (False, False, True, False):
            if one_width:
                lcu.sample_unitary([(1.0, hhat[0][1])], 1.0, 2, 4, derive_rng(0))
                continue
            with pytest.raises(ValueError, match="term 0 has width 2, term 1 has width 3"):
                lcu.sample_unitary(hhat, 1.0, 2, 4, derive_rng(0))


class TestSerialization:
    def test_format(self):
        h = rq.parse_hamiltonian("1.0 Z")
        u = lcu.sample_unitary(h.normalized_distribution(), 1.0, 1, 0, derive_rng(0))
        text = u.serialize()
        assert text.startswith("ROT +0.785398")
        assert text.rstrip().endswith("Z")

    def test_round_trip(self):
        h = random_hamiltonian(3, 5, seed=6)
        u = lcu.sample_unitary(h.normalized_distribution(), -2.0, 8, 8, derive_rng(3))
        v = lcu.parse_lcu(u.serialize())
        assert v.serialize() == u.serialize()
        np.testing.assert_allclose(v.matrix(), u.matrix(), atol=1e-10)

    def test_factor_width_must_match(self):
        with pytest.raises(ValueError, match="width 3, not 2"):
            lcu.parse_lcu("ROT +0.1 XZ\nPAULI XZZ\n")

    def test_phase_line(self):
        u = lcu.LcuUnitary((lcu.Phase(2),), width=1)
        assert u.serialize().strip() == "PHASE 2"
        np.testing.assert_allclose(u.matrix(), -np.eye(2), atol=0)
