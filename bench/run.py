"""End-to-end and per-layer benchmark of the randqpe pipeline.

    python3 bench/run.py --workload ground-energy --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; ``src/randqpe`` is imported from
there.  ``--trace 0`` times tasks with nothing installed and reports the
end-to-end metrics.  ``--trace 1`` runs the same tasks twice, untraced and
then with the wrappers of ``tracing.py`` installed, checks that the two
passes wrote byte-identical outputs, and reports the per-layer metrics.
The last line of stdout is the result object; the line before it records
the environment and the raw samples.  README.md documents the workloads
and metrics.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads so every run uses the same BLAS/OpenMP width
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import ctypes  # noqa: E402

# glibc's default thresholds hand large freed arrays back to the kernel and
# fault them in again on the next allocation.  How often that happens depends
# on heap layout: between identical resource-curve tasks the minor faults
# ranged from 0.08 M to 0.85 M and the task time by 30 %.  Freed memory is
# kept in the heap instead, so a task's time measures its work, not the
# heap's history; peak_rss_mb still shows the memory.
MALLOC_PINS = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 1 << 30)}


def _pin_allocator() -> bool:
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: the allocator stays as it is
        return False
    return all([mallopt(param, value) == 1 for param, value in MALLOC_PINS.values()])


ALLOCATOR_PINNED = _pin_allocator()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# setup_s is the median of this run's own set-up and SETUP_PROBES fresh processes
SETUP_PROBES = 1
# a seed kept out of tuning, for confirming a claimed gain on unseen inputs
HELD_OUT_SEED = 20211023


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "malloc": {name: value for name, (_, value) in MALLOC_PINS.items()}
        if ALLOCATOR_PINNED else "default",
        "held_out_seed": HELD_OUT_SEED,
    }


class Pass:
    """Timed tasks of one pass: durations, outputs, failure counts."""

    def __init__(self):
        self.durations = []
        self.payloads = []
        self.errors = 0
        self.failed = 0
        self.notes = []

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run_task(wl, task, pass_, tracer=None):
    """Time one task, then check its output outside the timed region.

    A task that raises or exits non-zero counts as failed; one whose output
    fails the workload's check counts as an error.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        out = tracer.run_task(task.index, wl.run, task) if tracer else wl.run(task)
    except Exception:  # the benchmark keeps going and reports the failure
        pass_.durations.append(time.perf_counter() - start)
        pass_.payloads.append(None)
        pass_.failed += 1
        pass_.notes.append(f"task {task.index} raised:\n{traceback.format_exc()}")
        return
    pass_.durations.append(time.perf_counter() - start)
    pass_.payloads.append(out.payload())
    if tracer:
        tracer.count(task.index, "cli.bytes_written", len(out.stdout.encode()))
    verify(wl, task, out, pass_)


def verify(wl, task, out, pass_):
    """Count a non-zero exit as failed and an output failing its check as an error."""
    if out.code != 0:
        pass_.failed += 1
        pass_.notes.append(f"task {task.index} exit {out.code}: {out.stderr.strip()}")
        return
    try:
        ok = wl.check(task, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        ok = False
        pass_.notes.append(f"task {task.index} output unreadable: {exc!r}")
    if not ok:
        pass_.errors += 1
        pass_.notes.append(f"task {task.index} failed its check")


def run_pass(wl, seed, workdir, budget=None, count=None, tracer=None):
    """Run tasks 0, 1, ... until `count` ran or their timed seconds reach `budget`."""
    p = Pass()
    while p.attempted < count if count is not None else sum(p.durations) < budget:
        run_task(wl, wl.make_task(seed, p.attempted, workdir), p, tracer)
    return p


def _setup_probe(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _result(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}


def _end_to_end(args, wl, workdir, setup_main):
    setup = [setup_main] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
    p = run_pass(wl, args.seed, workdir, budget=args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = p.attempted
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "task_s.p50": {"value": statistics.median(p.durations), "unit": "s"},
        "tasks_per_s": {"value": n / sum(p.durations), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "error_free_share": {"value": 1.0 - p.errors / n, "unit": "ratio"},
        "completed_share": {"value": 1.0 - p.failed / n, "unit": "ratio"},
    }
    report = {"tasks": n, "error_rate": p.errors / n, "failed_share": p.failed / n,
              "task_s": p.durations, "setup_s": setup, "notes": p.notes}
    correct = p.errors == 0 and p.failed == 0
    return _result(correct, n, p.failed, metrics), report, None


def _traced(args, wl, workdir):
    import tracing
    plain = run_pass(wl, args.seed, workdir, budget=args.seconds / 2.0)
    # the traced pass repeats the untraced tasks, so it starts from the same
    # cache state: emptied, then filled by the untimed warm-up task only
    tracing.clear_caches()
    wl.run(wl.make_task(args.seed, -1, workdir))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, args.seed, workdir, count=plain.attempted,
                          tracer=tracer)
    finally:
        tracer.uninstall()
    identical = plain.payloads == traced.payloads
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced.durations) / statistics.median(plain.durations),
        "unit": "ratio"}
    errors, failed = plain.errors + traced.errors, plain.failed + traced.failed
    report = {"tasks": plain.attempted, "outputs_identical": identical,
              "task_s_untraced": plain.durations, "task_s_traced": traced.durations,
              "notes": plain.notes + traced.notes
              + ([] if identical else ["traced outputs differ from untraced outputs"])}
    correct = identical and errors == 0 and failed == 0
    result = _result(correct, plain.attempted + traced.attempted, failed, metrics)
    return result, report, tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "randqpe" / "__init__.py").is_file():
        print(f"error: no randqpe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # set-up: the imports above, then one untimed cold task on its own input
        warm_task = wl.make_task(args.seed, -1, workdir)
        warm_out = wl.run(warm_task)
        setup_main = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        warm = Pass()
        verify(wl, warm_task, warm_out, warm)
        if warm.failed or warm.errors:
            print("\n".join(warm.notes), file=sys.stderr)
            return 1
        if args.trace:
            result, report, spans = _traced(args, wl, workdir)
        else:
            result, report, spans = _end_to_end(args, wl, workdir, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), **report}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"report": report, "result": result, "spans": spans}) + "\n")
    for note in report["notes"]:
        print(note, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
