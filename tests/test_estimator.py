import copy
import dataclasses
import hashlib
import math
import shutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import randqpe as rq
from conftest import random_hamiltonian
from randqpe import backend, estimator, runtime
from randqpe._rng import derive_rng


def small_plan(h, eta=0.8, eps=0.2, theta=0.05, Delta_frac=0.3, rmode="total"):
    return estimator.build_plan(h, Delta_frac * h.lam, eta, eps, theta, rmode=rmode)


def record_means(plan, h, state):
    """Exact E[m] per signed index group: plan.js in order for +j, then for -j.

    A segment of length x = t/r averages to T(i x H / lambda) / mu_segment,
    with T the Taylor polynomial of exp through order M + 1, so a record's
    unitary averages to T^r / mu_j.  That is diagonal in H's eigenbasis and
    E[m] = <psi|E[U]|psi> = sum_k w_k T(i x E_k / lambda)^r / mu_j.
    """
    spec = backend.exact_spectrum(h, state)
    t = np.concatenate([plan.times, -plan.times])
    r = np.concatenate([plan.rvec, plan.rvec])
    y = 1j * (t / r)[:, None] * spec.eigenvalues[None, :] / h.lam
    term, taylor = np.ones_like(y), np.ones_like(y)
    for n in range(1, plan.M + 2):
        term = term * y / n
        taylor = taylor + term
    return (taylor ** r[:, None]) @ spec.overlaps / np.concatenate([plan.mu, plan.mu])


def block_count(plan, state):
    rows = max(1, estimator._BLOCK_BYTES // ((1 << state.width) * estimator._BYTES_PER_AMP))
    return -(-plan.complexities.c_sample // rows)


MULTI_BLOCK_DIGEST = "aba433ab204d63520dce023ac8058dfa7e9e44fe746d5d7e9fae1665bf55f7fd"


def record_digest(rec):
    return hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest()


def multi_block_case(monkeypatch):
    """The 3-qubit 'total' golden case with a budget of five blocks."""
    h = random_hamiltonian(3, 5, seed=41)
    s = backend.prepare_state("groundmix:0.8", h)
    plan = small_plan(h)
    budget_for_fifths(monkeypatch, plan, s)
    assert block_count(plan, s) >= 5
    return plan, s


@pytest.fixture
def numpy_loop(monkeypatch):
    """Run collect_samples on the numpy loop, as where no C compiler is found."""
    monkeypatch.setattr(estimator, "_steps", None)


def records_and_state(plan, state, seed):
    rng = derive_rng(seed)
    rec = estimator.collect_samples(plan, state, rng)
    return rec.js.tobytes() + rec.m.tobytes(), rng.bit_generator.state


EDGE_TERMS = "0.3 III\n-0.5 ZIZ\n0.4 XYI\n-0.6 YYZ\n0.2 IZI\n0.7 XIX\n-0.45 IYI"


def block_same_bits_on_both_paths(monkeypatch, plan, state, seed):
    """Run the one block of collect_samples(plan, state) on both step paths
    from one generator state: the generator states match, and so does every
    nonzero part of z bit for bit; then so do the whole calls' records."""
    calls, run_block = [], estimator._run_block

    def recording(b, rng, *args):
        calls.append((b, copy.deepcopy(rng), *args))
        return run_block(b, rng, *args)

    monkeypatch.setattr(estimator, "_run_block", recording)
    kernel = records_and_state(plan, state, seed)
    (b, rng, recs, tables, z, steps), = calls
    out = []
    for path in (steps, None):
        gen, z_path = copy.deepcopy(rng), np.empty_like(z)
        run_block(b, gen, recs, tables, z_path, path)
        out.append((z_path, gen.bit_generator.state))
    (z_kernel, state_kernel), (z_numpy, state_numpy) = out
    assert state_kernel == state_numpy
    assert np.array_equal(z_kernel, z_numpy)  # elementwise: +0 == -0
    for part_kernel, part_numpy in ((z_kernel.real, z_numpy.real),
                                    (z_kernel.imag, z_numpy.imag)):
        nonzero = part_numpy != 0
        assert part_kernel[nonzero].tobytes() == part_numpy[nonzero].tobytes()
    monkeypatch.setattr(estimator, "_steps", None)
    assert records_and_state(plan, state, seed) == kernel


def budget_for_fifths(monkeypatch, plan, state):
    """Shrink the block budget so that a block holds a fifth of the records."""
    rows = plan.complexities.c_sample // 5
    monkeypatch.setattr(estimator, "_BLOCK_BYTES",
                        rows * (1 << state.width) * estimator._BYTES_PER_AMP)


class TestBuildPlan:
    def test_tau_heavy_molecule_values(self):
        h = rq.Hamiltonian([(1511.0, rq.SignedPauli(rq.PauliString.from_axes("Z")))])
        p1 = estimator.build_plan(h, 0.0016, 1.0, 0.2, 0.1, b=1.0, rmode="constant")
        assert p1.tau == pytest.approx(math.pi / 3022.0016, rel=1e-14)
        p10 = estimator.build_plan(h, 0.0016, 1.0, 0.2, 0.1, b=10.0, rmode="constant")
        assert p10.tau == pytest.approx(math.pi / 302.2016, rel=1e-14)

    def test_constant_mode_bounds(self):
        h = random_hamiltonian(3, 5, seed=31)
        p = small_plan(h, rmode="constant")
        np.testing.assert_array_equal(p.rvec,
                                      np.maximum(np.ceil(2 * p.times ** 2), 1))
        u = np.exp(p.times ** 2 / p.rvec)
        a_u = float((p.weights * u).sum())
        assert a_u <= math.sqrt(math.e) * (p.fourier.weight - 0.5) * (1 + 1e-12)

    def test_times_and_delta(self):
        h = random_hamiltonian(2, 3, seed=33)
        p = small_plan(h)
        np.testing.assert_allclose(p.times, -p.js * p.tau * h.lam, rtol=1e-15)
        assert p.delta == pytest.approx(p.tau * 0.3 * h.lam, rel=1e-12)
        # the ground-state search halves delta through the shared window
        tau, delta = estimator._window(h.lam, 0.3 * h.lam, 1.0, 0.2, delta_scale=0.5)[:2]
        assert tau == p.tau
        assert delta == pytest.approx(0.5 * p.delta, rel=1e-12)

    def test_margin_accounting(self):
        h = random_hamiltonian(2, 3, seed=35)
        p = small_plan(h, eta=0.8, eps=0.2, theta=0.05)
        assert p.gamma == pytest.approx(0.01 * (0.4 - 0.2), rel=1e-12)
        margin = 0.4 - 0.2 - p.gamma
        expect = math.ceil((2 * p.complexities.weight_A / margin) ** 2
                           * math.log(1 / 0.05))
        assert p.complexities.c_sample == expect

    def test_validation(self):
        h = rq.parse_hamiltonian("1.0 Z")
        with pytest.raises(ValueError):
            estimator.build_plan(h, 3.0, 1.0, 0.2, 0.1)  # Delta > 2 lambda
        with pytest.raises(ValueError):
            estimator.build_plan(h, 0.1, 1.0, 0.6, 0.1)  # eps >= eta/2
        with pytest.raises(ValueError):
            estimator.build_plan(h, 0.1, 1.0, 0.2, 0.1, rmode="gated")  # missing g

    @pytest.mark.parametrize("rmode, g, frag", [
        ("fast", None, "unknown rmode 'fast'"),
        ("gated", None, "rmode 'gated' needs a gate budget g"),
        ("total", 60.0, "a gate budget g applies to rmode 'gated' only, not 'total'"),
    ])
    def test_rmode_and_g_errors_come_before_the_filter(self, monkeypatch, rmode, g, frag):
        h = rq.parse_hamiltonian("1.0 Z\n0.3 X\n")
        calls, window = [], estimator._window

        def recording(*args, **kwargs):
            calls.append(args)
            return window(*args, **kwargs)

        monkeypatch.setattr(estimator, "_window", recording)
        with pytest.raises(ValueError, match=frag):
            estimator.build_plan(h, 0.1, 1.0, 0.2, 0.1, rmode=rmode, g=g)
        with pytest.raises(ValueError, match=frag):
            estimator.ground_energy(h, backend.prepare_state("basis:0", h), 0.1, 1.0, 0.1,
                                    derive_rng(1), rmode=rmode, g=g)
        assert calls == []

    @pytest.mark.parametrize("rmode, g", [("constant", None), ("total", None),
                                          ("gated", 60.0)])
    def test_mu_computed_once(self, monkeypatch, rmode, g):
        calls = []
        orig = runtime.mu_vector

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(runtime, "mu_vector", counting)
        h = random_hamiltonian(2, 3, seed=37)
        p = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 0.05, rmode=rmode, g=g)
        assert len(calls) == 1
        np.testing.assert_array_equal(p.mu, orig(p.times, p.rvec, p.M, exact=True))


class TestCollectSamples:
    def test_record_count_and_determinism(self):
        h = random_hamiltonian(3, 5, seed=41)
        s = backend.prepare_state("groundmix:0.8", h)
        plan = small_plan(h)
        a = estimator.collect_samples(plan, s, derive_rng(5))
        b = estimator.collect_samples(plan, s, derive_rng(5))
        assert len(a.js) == plan.complexities.c_sample
        assert np.array_equal(a.js, b.js) and np.array_equal(a.m, b.m)
        assert set(np.unique(np.abs(a.js))) <= set(plan.js.tolist())
        assert np.all(np.abs(a.m.real) == 1.0) and np.all(np.abs(a.m.imag) == 1.0)

    def test_index_frequencies_multinomial(self):
        h = random_hamiltonian(3, 5, seed=43)
        s = backend.prepare_state("groundmix:0.8", h)
        plan = small_plan(h, theta=1e-9)  # large c_sample for tight frequencies
        rec = estimator.collect_samples(plan, s, derive_rng(8))
        n = len(rec.js)
        p = plan.weights * plan.mu
        p = p / p.sum()
        for j, pj in zip(plan.js, p):
            if n * pj < 20:
                continue
            count = int((np.abs(rec.js) == j).sum())
            sigma = math.sqrt(n * pj * (1 - pj))
            assert abs(count - n * pj) <= 5 * sigma

    @pytest.mark.parametrize("case, digest", [
        ("total", "6ec0976b8aaea959561f6fffb627831abc7812083a5a7d78b9a6c21c07b63425"),
        ("constant", "5c45b0257bf75c5e1c6f14b08041d39a5ed8f335592dd6164e24a07d386555f6"),
        ("gated", "55337d2892286e56cae4816d73ec2fd9e768c769457e84a705b627ce9fac99ef"),
        ("M0", "171318f0edf8a9b0dd786b498a77c15285fcedc07c6255fa96e67ca63d8154b0"),
    ])
    def test_seeded_stream_golden(self, case, digest):
        # Pins the record stream for fixed seeds, so a rewrite of the step
        # loop that changes a single draw or rounding shows up here.
        # 'gated' sits near the gate floor (|t_j|/r_j up to 0.68, ~3% of
        # segments of higher order); 'M0' has one order column only.
        if case == "total":
            h = random_hamiltonian(3, 5, seed=41)
            s = backend.prepare_state("groundmix:0.8", h)
            plan, seed = small_plan(h), 5
        elif case == "constant":
            h = random_hamiltonian(2, 4, seed=61)
            s = backend.prepare_state("groundmix:0.7", h)
            plan, seed = small_plan(h, rmode="constant"), 6
        else:
            h = random_hamiltonian(3, 6, seed=63)
            s = backend.prepare_state("groundmix:0.6", h)
            plan = small_plan(h)
            if case == "gated":
                g = 1.5 * rq.runtime.gate_floor(plan.weights, plan.times)
                plan, seed = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 0.05,
                                                  rmode="gated", g=g), 7
            else:
                mu0 = rq.runtime.mu_vector(plan.times, plan.rvec, 0, exact=True)
                plan, seed = dataclasses.replace(plan, M=0, mu=mu0), 8
        rec = estimator.collect_samples(plan, s, derive_rng(seed))
        assert hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest() == digest

    def test_multi_block_stream_golden(self, monkeypatch):
        # Pins a stream drawn in 11 half-budget blocks; the unblocked goldens
        # above stay one block at the default budget.
        plan, s = multi_block_case(monkeypatch)
        rec = estimator.collect_samples(plan, s, derive_rng(5))
        assert record_digest(rec) == MULTI_BLOCK_DIGEST

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_multi_block_stream_independent_of_cpu_count(self, monkeypatch, cpus):
        # a short switch interval interleaves the worker threads finely, so
        # a block that wrote outside its own rows would change the digest
        plan, s = multi_block_case(monkeypatch)
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rec = estimator.collect_samples(plan, s, derive_rng(5))
        finally:
            sys.setswitchinterval(interval)
        assert record_digest(rec) == MULTI_BLOCK_DIGEST

    def test_multi_block_error_reaches_caller_and_joins_workers(self, monkeypatch):
        plan, s = multi_block_case(monkeypatch)
        monkeypatch.setattr(estimator, "_usable_cpus", lambda: 2)

        class BlockFailed(Exception):
            pass

        class FailingGenerator:  # fails on the numpy loop's draw and the kernel's
            def random(self, size=None):
                raise BlockFailed

            @property
            def bit_generator(self):
                raise BlockFailed

        spawn = estimator._block_rngs
        monkeypatch.setattr(estimator, "_block_rngs", lambda rng, n: [
            FailingGenerator() if k == 3 else g for k, g in enumerate(spawn(rng, n))])
        threads = threading.active_count()
        # the traceback held in info keeps the call's locals, the pool
        # included, alive: only a joined pool has no threads left here
        with pytest.raises(BlockFailed) as info:
            estimator.collect_samples(plan, s, derive_rng(5))
        assert threading.active_count() == threads, info

    def test_multi_block_group_means_match_oracle(self, monkeypatch):
        # Five or six blocks per run: per signed group, the means of Re m and
        # Im m against the exact record mean, chi-squared over every group
        # with at least 30 records (8 runs, about 33,000 records).
        h = random_hamiltonian(3, 6, seed=71)
        s = backend.prepare_state("groundmix:0.6", h)
        plan = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 1e-12, rmode="total")
        budget_for_fifths(monkeypatch, plan, s)
        assert block_count(plan, s) >= 5
        exact = record_means(plan, h, s)
        d = len(plan.js)
        sums, counts = np.zeros(2 * d, dtype=complex), np.zeros(2 * d)
        for i in range(8):
            rec = estimator.collect_samples(plan, s, derive_rng(71, i))
            group = (np.abs(rec.js) - 1) // 2 + np.where(rec.js < 0, d, 0)
            sums += np.bincount(group, weights=rec.m.real, minlength=2 * d)
            sums += 1j * np.bincount(group, weights=rec.m.imag, minlength=2 * d)
            counts += np.bincount(group, minlength=2 * d)
        keep = counts >= 30
        assert keep.sum() >= 10
        mean, n, mu = sums[keep] / counts[keep], counts[keep], exact[keep]
        z = np.concatenate([(mean.real - mu.real) / np.sqrt((1 - mu.real ** 2) / n),
                            (mean.imag - mu.imag) / np.sqrt((1 - mu.imag ** 2) / n)])
        assert chi2.sf(float(z @ z), z.size) > 1e-6, z

    def test_peak_memory_bounded_in_c_sample(self):
        # At 10 qubits one record's state and work buffers take 56 KiB; the
        # peak must stay within the block budget plus the term tables (the
        # call's tables and the temporaries that build them) plus O(n_rec),
        # and must not grow with c_sample.
        h = random_hamiltonian(10, 40, seed=1010)
        s = backend.prepare_state("basis:0110100101")
        plans = [estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, theta)
                 for theta in (0.05, 1e-4)]
        n_small, n_large = (p.complexities.c_sample for p in plans)
        assert n_large >= 3 * n_small and block_count(plans[0], s) >= 2
        tables = 2 * len(h.terms) * (1 << h.width) * 24
        peaks = []
        for plan in plans:
            tracemalloc.start()
            try:
                estimator.collect_samples(plan, s, derive_rng(2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_record = 1024  # index, sign, order and outcome arrays take ~250 B
        assert peaks[0] <= estimator._BLOCK_BYTES + tables + per_record * n_small
        assert peaks[1] <= peaks[0] + per_record * (n_large - n_small)

    def test_sign_symmetry(self):
        h = random_hamiltonian(2, 3, seed=45)
        s = backend.prepare_state("groundmix:0.9", h)
        plan = small_plan(h, theta=1e-6)
        rec = estimator.collect_samples(plan, s, derive_rng(9))
        n = len(rec.js)
        pos = int((rec.js > 0).sum())
        assert abs(pos - n / 2) <= 5 * math.sqrt(n / 4)


@pytest.mark.usefixtures("numpy_loop")
class TestNumpyLoopGoldens:
    """The golden streams again, unedited, on the numpy loop."""

    test_seeded_stream_golden = TestCollectSamples.test_seeded_stream_golden
    test_multi_block_stream_golden = TestCollectSamples.test_multi_block_stream_golden
    test_multi_block_stream_independent_of_cpu_count = \
        TestCollectSamples.test_multi_block_stream_independent_of_cpu_count


class TestStepKernel:
    def test_kernel_built_exactly_when_cc_is_on_path(self):
        # a broken build fails here rather than falling back silently
        assert (estimator._kernel() is not None) == (shutil.which("cc") is not None)

    @pytest.mark.parametrize("cc", [None, "exit 1"])
    def test_no_kernel_without_a_working_compiler(self, monkeypatch, tmp_path, cc):
        if cc is not None:
            fake = tmp_path / "cc"
            fake.write_text(f"#!/bin/sh\n{cc}\n")
            fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert estimator._build_kernel() is None

    def test_gated_plan_same_records_and_generator_state_on_both_paths(self, monkeypatch):
        h = random_hamiltonian(3, 6, seed=63)
        s = backend.prepare_state("groundmix:0.6", h)
        total = small_plan(h)
        g = 1.5 * rq.runtime.gate_floor(total.weights, total.times)
        plan = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 0.05, rmode="gated", g=g)
        # expected higher-order segments over the call: hundreds of rows
        p = plan.weights * plan.mu
        q0 = np.array([rq.segment_distribution(float(t), int(r), plan.M).cum_probs[0]
                       for t, r in zip(plan.times, plan.rvec)])
        higher = plan.complexities.c_sample * float(p @ (plan.rvec * (1 - q0)) / p.sum())
        assert higher > 200, higher
        kernel = records_and_state(plan, s, 17)
        monkeypatch.setattr(estimator, "_steps", None)
        assert records_and_state(plan, s, 17) == kernel

    def test_ten_qubit_multi_block_plan_same_records_and_generator_state_on_both_paths(
            self, monkeypatch):
        h = random_hamiltonian(10, 40, seed=1010)
        s = backend.prepare_state("basis:0110100101")
        plan = estimator.build_plan(h, 0.3 * h.lam, 0.8, 0.2, 0.05)
        assert block_count(plan, s) >= 2
        kernel = records_and_state(plan, s, 19)
        monkeypatch.setattr(estimator, "_steps", None)
        assert records_and_state(plan, s, 19) == kernel

    @pytest.mark.parametrize("basis", ["000", "101", "110"])
    def test_edge_operators_on_basis_states_same_bits_on_both_paths(self, monkeypatch, basis):
        # identity and pure-Z terms (x = 0), Y-bearing terms (phase +-i) and
        # negative signs, on a state with exact zeros
        h = rq.parse_hamiltonian(EDGE_TERMS)
        s = backend.prepare_state("basis:" + basis)
        block_same_bits_on_both_paths(monkeypatch, small_plan(h), s, 23)

    def test_orders_4_and_8_same_bits_on_both_paths(self, monkeypatch):
        # at t/r near 3 orders 4 and 8 are common: their extra factors' i's
        # multiply to +1, where orders 2 and 6 end with a factor -1
        h = rq.parse_hamiltonian(EDGE_TERMS)
        plan = small_plan(h)
        rvec = np.maximum(1, np.rint(np.abs(plan.times) / 3)).astype(np.int64)
        plan = dataclasses.replace(plan, rvec=rvec, mu=rq.runtime.mu_vector(
            plan.times, rvec, plan.M, exact=True))
        p = plan.weights * plan.mu
        probs = np.array([rq.segment_distribution(float(t), int(r), plan.M).probs
                          for t, r in zip(plan.times, plan.rvec)])
        segments = plan.complexities.c_sample * (p * plan.rvec) @ probs / p.sum()
        assert segments[2] > 100 and segments[4] > 10, segments  # orders 4 and 8
        block_same_bits_on_both_paths(monkeypatch, plan, backend.prepare_state("basis:101"), 29)


class TestAcdf:
    def test_reuse_without_new_samples(self):
        h = random_hamiltonian(2, 3, seed=47)
        s = backend.prepare_state("groundmix:0.9", h)
        plan = small_plan(h)
        rec = estimator.collect_samples(plan, s, derive_rng(12))
        digest = hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest()
        z1 = estimator.acdf_estimate(rec, 0.1)
        z2 = estimator.acdf_estimate(rec, -0.2)
        z1b = estimator.acdf_estimate(rec, 0.1)
        assert z1 == z1b and z1 != z2
        assert hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest() == digest

    def test_unbiased_against_exact_oracle(self):
        h = random_hamiltonian(3, 6, seed=49)
        s = backend.prepare_state("groundmix:0.7", h)
        plan = estimator.build_plan(h, 0.3 * h.lam, 0.7, 0.2, 0.02, rmode="total")
        reps = 30
        xs = np.linspace(-0.8 * plan.x_max, 0.8 * plan.x_max, 5)
        acc = np.zeros(len(xs))
        for i in range(reps):
            rec = estimator.collect_samples(plan, s, derive_rng(100, i))
            acc += [estimator.acdf_estimate(rec, float(x)).real for x in xs]
        acc /= reps
        n_tot = reps * plan.complexities.c_sample
        se = math.sqrt(2.0) * plan.complexities.weight_A / math.sqrt(n_tot)
        for mc, x in zip(acc, xs):
            exact = estimator.acdf_exact(plan, h, s, float(x))
            assert abs(mc - exact) <= 4 * se + plan.gamma

    def test_rephasing_same_bits_as_per_record_formula(self, monkeypatch):
        def per_record(samples, x):
            phase = (-1j * np.sign(samples.js)) * np.exp(1j * samples.js * x)
            a = samples.plan.complexities.weight_A
            return complex(0.5 + a * np.mean(phase * samples.m))

        queries, acdf_estimate = [], estimator.acdf_estimate

        def checked(samples, x):
            z = acdf_estimate(samples, x)
            assert np.array(z).tobytes() == np.array(per_record(samples, x)).tobytes(), x
            queries.append(x)
            return z

        for seed, width, terms, rmode in ((57, 2, 3, "total"), (59, 3, 6, "constant"),
                                          (61, 4, 8, "total")):
            h = random_hamiltonian(width, terms, seed=seed)
            s = backend.prepare_state("groundmix:0.6", h)
            plan = small_plan(h, eta=0.6, rmode=rmode)
            rec = estimator.collect_samples(plan, s, derive_rng(seed))
            for x in np.linspace(-plan.x_max, plan.x_max, 61):
                checked(rec, float(x))
        monkeypatch.setattr(estimator, "acdf_estimate", checked)
        h = random_hamiltonian(3, 5, seed=63)
        before = len(queries)
        res = estimator.ground_energy(h, backend.prepare_state("groundmix:0.6", h),
                                      0.1 * h.lam, 0.6, 0.1, derive_rng(63))
        assert len(queries) - before == res.queries_used > 0

    def test_exact_symmetric_midpoint(self):
        # symmetric spectrum + symmetric ansatz: exact ACDF at 0 is 1/2
        h = rq.parse_hamiltonian("1.0 X")
        s = backend.prepare_state("basis:0")
        plan = small_plan(h, eta=1.0, eps=0.2)
        assert estimator.acdf_exact(plan, h, s, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_eigenvalue_at_zero_sharp(self):
        # 0.5 ZI + 0.5 ZZ has eigenvalue 0; basis:01 is its eigenvector
        h = rq.parse_hamiltonian("0.5 ZI\n0.5 ZZ")
        s = backend.prepare_state("basis:01")
        plan = small_plan(h, eta=1.0, eps=0.15)
        d = plan.delta
        assert estimator.acdf_exact(plan, h, s, d) >= 1 - plan.eps_total
        assert estimator.acdf_exact(plan, h, s, -d) <= plan.eps_total

    def test_sandwich_property(self):
        for seed in (51, 53):
            h = random_hamiltonian(3, 6, seed=seed)
            s = backend.prepare_state("groundmix:0.6", h)
            plan = small_plan(h, eta=0.6, eps=0.2)
            spec = backend.exact_spectrum(h, s)
            xs = np.linspace(-plan.tau * h.lam, plan.tau * h.lam, 60)
            acdf = estimator.acdf_exact(plan, h, s, xs)
            lo = backend.exact_cdf(spec, plan.tau, xs - plan.delta)
            hi = backend.exact_cdf(spec, plan.tau, xs + plan.delta)
            assert np.all(acdf >= lo - plan.eps_total - 1e-12)
            assert np.all(acdf <= hi + plan.eps_total + 1e-12)

    def test_monotone_up_to_ripple(self):
        # the exact ACDF is nondecreasing up to twice the certified band error
        h = random_hamiltonian(3, 5, seed=55)
        s = backend.prepare_state("groundmix:0.5", h)
        plan = small_plan(h, eta=1.0, eps=0.1)
        xs = np.linspace(-plan.x_max, plan.x_max, 800)
        vals = estimator.acdf_exact(plan, h, s, xs)
        assert np.diff(vals).min() >= -2 * plan.eps_total

    def test_x_window_enforced(self):
        h = rq.parse_hamiltonian("1.0 Z")
        s = backend.prepare_state("basis:1")
        plan = small_plan(h)
        rec = estimator.collect_samples(plan, s, derive_rng(1))
        with pytest.raises(ValueError):
            estimator.acdf_estimate(rec, plan.x_max * 1.2)


class TestThresholdQuery:
    def test_forced_sides(self):
        # eigenvalue 0 for basis:01 puts the jump mid-window
        h = rq.parse_hamiltonian("0.5 ZI\n0.5 ZZ")
        s = backend.prepare_state("basis:01")
        plan = small_plan(h, eta=1.0, eps=0.2, Delta_frac=0.2)
        rec = estimator.collect_samples(plan, s, derive_rng(2))
        assert estimator.threshold_query(rec, plan, -3 * plan.delta) == 0
        assert estimator.threshold_query(rec, plan, +3 * plan.delta) == 1


class TestGroundEnergy:
    def test_single_qubit_z(self):
        h = rq.parse_hamiltonian("1.0 Z")
        s = backend.prepare_state("basis:1")
        res = estimator.ground_energy(h, s, 0.1, 1.0, 0.1, derive_rng(7))
        assert -1.1 <= res.estimate <= -0.9
        assert res.interval_lo <= -1.0 <= res.interval_hi
        assert res.queries_used <= res.s_queries

    def test_edge_spectrum_sentinel(self):
        # E_min = -lambda sits at the very edge of the window
        h = rq.parse_hamiltonian("1.0 Z")
        s = backend.prepare_state("basis:1")
        res = estimator.ground_energy(h, s, 0.05, 1.0, 0.1, derive_rng(3))
        assert abs(res.estimate - (-1.0)) <= 0.05

    def test_sample_reuse_and_interval_width(self):
        h = random_hamiltonian(3, 6, seed=57)
        s = backend.prepare_state("groundmix:0.7", h)
        captured = {}
        orig = estimator.collect_samples

        def spy(plan, state, rng):
            rec = orig(plan, state, rng)
            captured["digest"] = hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest()
            captured["rec"] = rec
            captured["count"] = captured.get("count", 0) + 1
            return rec

        estimator.collect_samples, spy_backup = spy, estimator.collect_samples
        try:
            res = estimator.ground_energy(h, s, 0.1 * h.lam, 0.7, 0.1, derive_rng(11))
        finally:
            estimator.collect_samples = spy_backup
        assert captured["count"] == 1
        rec = captured["rec"]
        post = hashlib.sha256(rec.js.tobytes() + rec.m.tobytes()).hexdigest()
        assert post == captured["digest"]
        assert res.interval_hi - res.interval_lo <= 4 * 0.1 * h.lam / 2 + 1e-9

    def test_mid_eta_failure_is_rare(self):
        fails = 0
        for i in range(20):
            h = random_hamiltonian(3, 6, seed=200 + i)
            s = backend.prepare_state("groundmix:0.6", h)
            res = estimator.ground_energy(h, s, 0.08 * h.lam, 0.6, 0.1,
                                          derive_rng(300, i))
            e_min = float(np.linalg.eigvalsh(h.matrix())[0])
            fails += abs(res.estimate - e_min) > 0.08 * h.lam
        assert fails <= 4
