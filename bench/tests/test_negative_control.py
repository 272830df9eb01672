"""Negative controls for the benchmark's accounting, on every workload.

A corrupted output must count as an error (it feeds ``error_rate``) and a
task that raises or exits non-zero must count as failed (``failed_share``).
Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import randqpe.backend  # noqa: E402
import randqpe.cli  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _shift_estimate(text):
    out = json.loads(text)
    out["estimate"] += 100.0
    return json.dumps(out)


def _inflate_optimum(text):
    lines = []
    for ln in text.splitlines():
        f = ln.split(",")
        if not ln.startswith("#") and f[-1] == "1":
            f[3] = repr(float(f[3]) * 1e3)
        lines.append(",".join(f))
    return "\n".join(lines) + "\n"


def _shift_cdf(text):
    lines = []
    for ln in text.splitlines():
        f = ln.split(",")
        if not ln.startswith("#") and ln != "x,re,im":
            f[1] = repr(float(f[1]) + 0.5)
        lines.append(",".join(f))
    return "\n".join(lines) + "\n"


CORRUPT_STDOUT = {
    "ground-energy": _shift_estimate,
    "resource-curve": _inflate_optimum,
    "cdf-wide": _shift_cdf,
}


def _one_task(name, workdir):
    return bench.run_pass(workloads.WORKLOADS[name], SEED, workdir, count=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_raises_error_rate(name, tmp_path, monkeypatch):
    if name == "lcu-stream":
        # every Hadamard outcome reads +1+1i, whatever the unitary
        monkeypatch.setattr(randqpe.backend, "hadamard_sample", lambda *a: complex(1, 1))
    else:
        real_run = randqpe.cli.run

        def corrupted_run(argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = real_run(argv)
            sys.stdout.write(CORRUPT_STDOUT[name](buf.getvalue()))
            return code

        monkeypatch.setattr(randqpe.cli, "run", corrupted_run)
    p = _one_task(name, tmp_path)
    assert (p.attempted, p.errors, p.failed) == (1, 1, 0), p.notes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("behaviour", ["raise", "exit"])
def test_failing_task_raises_failed_share(name, behaviour, tmp_path, monkeypatch):
    def failing_run(argv):
        if behaviour == "raise":
            raise RuntimeError("injected failure")
        return 3

    monkeypatch.setattr(randqpe.cli, "run", failing_run)
    p = _one_task(name, tmp_path)
    assert (p.attempted, p.errors, p.failed) == (1, 0, 1), p.notes


def test_tracing_keeps_outputs_and_restores_names(tmp_path):
    wl = workloads.WORKLOADS["lcu-stream"]
    plain = bench.run_pass(wl, SEED, tmp_path, count=2)
    originals = (randqpe.cli.run, randqpe.backend.hadamard_sample,
                 randqpe.backend.index_action)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert randqpe.cli.run is not originals[0]
        traced = bench.run_pass(wl, SEED, tmp_path, count=2, tracer=tracer)
    finally:
        tracer.uninstall()
    restored = (randqpe.cli.run, randqpe.backend.hadamard_sample,
                randqpe.backend.index_action)
    assert restored == originals
    assert traced.payloads == plain.payloads
    metrics = tracer.metrics()
    assert metrics["lcu.sample_unitary.calls"]["value"] == wl.count
    assert metrics["backend.hadamard_sample.calls"]["value"] == wl.count


def test_acdf_reference_matches_spectral_oracle():
    rnd = workloads.random.Random(3)
    terms = workloads.random_terms(rnd, 4, 10)
    h = randqpe.parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in terms))
    plan = randqpe.build_plan(h, 0.25 * h.lam, 0.6, 0.2, 0.05)
    state = randqpe.prepare_state("groundmix:0.6", h)
    xs = workloads.np.linspace(-plan.x_max, plan.x_max, 41)
    ref = workloads.acdf_reference(terms, state.amplitudes, plan.tau, plan.fourier.odd_abs, xs)
    assert abs(ref - randqpe.acdf_exact(plan, h, state, xs)).max() < 1e-12
