"""Per-layer tracing installed from outside the program, for the traced run.

``Tracer.install`` wraps every public function of each ``randqpe`` module
and puts the wrapper under every name the function is reachable through:
its defining module, each module that imported it, and the package.  A
wrapper records a span (layer, name, start, end, parent span, task id);
functions in ``HOT`` are called per factor or per draw, so their calls are
summed into the nearest enclosing span instead of kept one by one.
Counters are computed at the same boundaries from arguments and return
values.  Nothing inside the library is timed: S(r) evaluations and the
time per step inside ``collect_samples`` are not visible from here.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
from collections import defaultdict

import numpy as np

import randqpe
from randqpe import (backend, cli, estimator, heaviside, lcu, pauli, resources,
                     runtime, specfun)

LAYERS = (pauli, specfun, heaviside, lcu, runtime, backend, estimator, resources, cli)

# called once per factor, segment, draw, query or scalar special-function value
HOT = frozenset({
    "pauli.index_action", "pauli.pauli_multiply",
    "specfun.bessel_i_scaled", "specfun.lambert_w0", "specfun.f_threshold",
    "specfun.harmonic_half", "specfun.erf",
    "heaviside.select_parameters",
    "lcu.segment_distribution", "lcu.segment_weight", "lcu.weight_mu",
    "lcu.sample_unitary", "lcu.parse_lcu",
    "backend.hadamard_sample", "backend.expectation", "backend.apply_unitary",
    "estimator.acdf_estimate", "estimator.threshold_query",
})

# one segment update of collect_samples, per amplitude: read psi[k], psi[perm[k]]
# and phase[k] (complex128), read perm[k] (int64), write psi[k]; two complex
# multiplies, one real-by-complex multiply and one complex add
BYTES_PER_AMP_UPDATE = 3 * 16 + 8 + 16
FLOPS_PER_AMP_UPDATE = 6 + 6 + 2 + 2

_SPECFUN_DIRECT_MAX = getattr(specfun, "_IVE_DIRECT_MAX", 1.0e8)


def clear_caches():
    """Empty every functools cache in the library, as in a fresh process."""
    for mod in LAYERS:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_collect_samples(args, kwargs, result, exc, c):
    if exc is not None:
        return
    plan = result.plan
    r = plan.rvec[(np.abs(result.js) - 1) // 2]
    updates = int(r.sum())
    amp_updates = updates * (1 << plan.h.width)
    c["estimator.records"] += int(result.js.size)
    c["estimator.sv_updates"] += updates
    c["estimator.sv_steps"] += int(r.max()) if r.size else 0
    c["estimator.amp_bytes"] += amp_updates * BYTES_PER_AMP_UPDATE
    c["estimator.flops"] += amp_updates * FLOPS_PER_AMP_UPDATE


def _count_runtime_solve(args, kwargs, result, exc, c):
    c["runtime.index_solves"] += len(_arg(args, kwargs, 0, "weights"))


def _count_minimize_samples(args, kwargs, result, exc, c):
    _count_runtime_solve(args, kwargs, result, exc, c)
    if exc is None:
        c["runtime.minimize_samples.feasible"] += 1


def _count_bessel_sequence(args, kwargs, result, exc, c):
    orders = _arg(args, kwargs, 0, "nmax") + 1
    beta = _arg(args, kwargs, 1, "beta")
    c["specfun.bessel_orders.direct" if beta <= _SPECFUN_DIRECT_MAX
      else "specfun.bessel_orders.recurrence"] += orders


def _count_build_fourier(args, kwargs, result, exc, c):
    if exc is None:
        c["heaviside.coeffs"] += result.d + 1


def _count_sample_unitary(args, kwargs, result, exc, c):
    c["lcu.segments"] += _arg(args, kwargs, 2, "r")
    if exc is None:
        c["lcu.factors"] += len(result.factors)


def _count_hadamard_sample(args, kwargs, result, exc, c):
    c["backend.factor_applications"] += len(_arg(args, kwargs, 1, "u").factors)


def _count_tradeoff_curve(args, kwargs, result, exc, c):
    if exc is None:
        c["resources.points"] += len(result)
        c["resources.infeasible_points"] += sum(1 for p in result if not p.feasible)


COUNTERS = {
    "estimator.collect_samples": _count_collect_samples,
    "runtime.minimize_total": _count_runtime_solve,
    "runtime.minimize_samples": _count_minimize_samples,
    "specfun.bessel_i_scaled_sequence": _count_bessel_sequence,
    "heaviside.build_fourier": _count_build_fourier,
    "lcu.sample_unitary": _count_sample_unitary,
    "backend.hadamard_sample": _count_hadamard_sample,
    "resources.tradeoff_curve": _count_tradeoff_curve,
}


class _TaskStats:
    __slots__ = ("time", "calls", "self_s", "counters")

    def __init__(self):
        self.time = defaultdict(float)      # qualified name -> seconds
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)    # layer -> seconds not covered by children
        self.counters = defaultdict(float)


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id", "agg", "owner")

    def __init__(self, name, layer, start, span_id, owner):
        self.name, self.layer, self.start = name, layer, start
        self.child = 0.0
        self.span_id = span_id        # -1 for an aggregated hot call
        self.agg = {} if span_id >= 0 else None
        self.owner = owner            # nearest enclosing frame that keeps a span


class Tracer:
    """Spans and counters of the traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans = []
        self.tasks = {}
        self._stack = []
        self._task = None
        self._task_id = None
        self._ids = itertools.count()
        self._installed = []

    # -- wrappers -----------------------------------------------------------

    def install(self):
        originals = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    originals[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for mod in (randqpe, *LAYERS):
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._installed.append((mod, name, obj))
                    setattr(mod, name, originals[id(obj)][1])

    def uninstall(self):
        for mod, name, obj in reversed(self._installed):
            setattr(mod, name, obj)
        self._installed.clear()

    def _wrap(self, fn, layer, qual):
        tracer = self
        hot = qual in HOT
        counter = COUNTERS.get(qual)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            stats = tracer._task
            if stats is None:
                return fn(*args, **kwargs)
            hits0 = cache_info().hits if cache_info else 0
            frame = tracer._push(qual, layer, hot)
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._pop(frame, stats)
                if cache_info:
                    stats.counters[f"{qual}.hits"] += cache_info().hits - hits0
                if counter:
                    counter(args, kwargs, result, exc, stats.counters)

        return functools.wraps(fn)(wrapper)

    def _push(self, name, layer, hot):
        parent = self._stack[-1] if self._stack else None
        owner = parent if parent is None or parent.span_id >= 0 else parent.owner
        span_id = -1 if hot else next(self._ids)
        frame = _Frame(name, layer, time.perf_counter(), span_id, owner)
        self._stack.append(frame)
        return frame

    def _pop(self, frame, stats):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child += dur
        own = dur - frame.child
        stats.time[frame.name] += dur
        stats.calls[frame.name] += 1
        stats.self_s[frame.layer] += own
        if frame.agg is None:
            agg = frame.owner.agg.setdefault(frame.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        else:
            self.spans.append({
                "id": frame.span_id,
                "parent": frame.owner.span_id if frame.owner else None,
                "task": self._task_id, "layer": frame.layer, "name": frame.name,
                "start": frame.start, "end": end, "self_s": own,
                "aggregated": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                               for k, v in frame.agg.items()},
            })

    # -- tasks --------------------------------------------------------------

    def run_task(self, task_id, fn, *args):
        """Call fn(*args) as task `task_id`, under a root span of layer 'bench'."""
        stats = self.tasks.setdefault(task_id, _TaskStats())
        self._task, self._task_id = stats, task_id
        frame = self._push("bench.task", "bench", False)
        try:
            return fn(*args)
        finally:
            self._pop(frame, stats)
            self._task = None

    def count(self, task_id, name, value):
        """Add a counter the harness measures at the task boundary."""
        self.tasks[task_id].counters[name] += value

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: per-task medians, ratios over all traced tasks."""
        tasks = list(self.tasks.values())

        def med(get):
            return float(statistics.median(get(t) for t in tasks)) if tasks else 0.0

        def tot(get):
            return float(sum(get(t) for t in tasks))

        def ratio(num, den):
            d = tot(den)
            return tot(num) / d if d else 0.0

        def t(name):
            return lambda s: s.time[name]

        def n(name):
            return lambda s: s.calls[name]

        def c(name):
            return lambda s: s.counters[name]

        def layer_self(layer):
            return lambda s: s.self_s[layer]

        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        cs = "estimator.collect_samples"
        put(f"{cs}.s", med(t(cs)), "s")
        put("estimator.records", med(c("estimator.records")), "count")
        put("estimator.sv_steps", med(c("estimator.sv_steps")), "count")
        put("estimator.sv_updates", med(c("estimator.sv_updates")), "count")
        put("estimator.s_per_step", ratio(t(cs), c("estimator.sv_steps")), "s")
        put("estimator.s_per_sv_update", ratio(t(cs), c("estimator.sv_updates")), "s")
        put("estimator.amp_bytes_computed", med(c("estimator.amp_bytes")), "B")
        put("estimator.flop_per_byte_computed",
            ratio(c("estimator.flops"), c("estimator.amp_bytes")), "flop/B")
        put("estimator.build_plan.s", med(t("estimator.build_plan")), "s")
        put("estimator.acdf_queries", med(n("estimator.acdf_estimate")), "count")
        put("estimator.s_per_query",
            ratio(t("estimator.acdf_estimate"), n("estimator.acdf_estimate")), "s")
        put("estimator.self_s", med(layer_self("estimator")), "s")

        put("runtime.minimize_total.s", med(t("runtime.minimize_total")), "s")
        put("runtime.minimize_samples.calls", med(n("runtime.minimize_samples")), "count")
        put("runtime.minimize_samples.s", med(t("runtime.minimize_samples")), "s")
        put("runtime.minimize_samples.feasible_ratio",
            ratio(c("runtime.minimize_samples.feasible"), n("runtime.minimize_samples")),
            "ratio")
        put("runtime.gate_floor.s", med(t("runtime.gate_floor")), "s")
        put("runtime.index_solves", med(c("runtime.index_solves")), "count")
        put("runtime.s_per_index_solve",
            ratio(lambda s: s.time["runtime.minimize_total"] + s.time["runtime.minimize_samples"],
                  c("runtime.index_solves")), "s")
        put("runtime.self_s", med(layer_self("runtime")), "s")

        seq = "specfun.bessel_i_scaled_sequence"
        put("specfun.bessel_orders.direct", med(c("specfun.bessel_orders.direct")), "count")
        put("specfun.bessel_orders.recurrence",
            med(c("specfun.bessel_orders.recurrence")), "count")
        put(f"{seq}.s", med(t(seq)), "s")
        put("specfun.s_per_order",
            ratio(t(seq), lambda s: (s.counters["specfun.bessel_orders.direct"]
                                     + s.counters["specfun.bessel_orders.recurrence"])), "s")

        put("heaviside.optimize_split.s", med(t("heaviside.optimize_split")), "s")
        put("heaviside.optimize_split.cache_hit_ratio",
            ratio(c("heaviside.optimize_split.hits"), n("heaviside.optimize_split")), "ratio")
        put("heaviside.build_fourier.s", med(t("heaviside.build_fourier")), "s")
        put("heaviside.coeffs", med(c("heaviside.coeffs")), "count")
        put("heaviside.s_per_coeff",
            ratio(t("heaviside.build_fourier"), c("heaviside.coeffs")), "s")
        put("heaviside.self_s", med(layer_self("heaviside")), "s")

        put("lcu.sample_unitary.calls", med(n("lcu.sample_unitary")), "count")
        put("lcu.segments", med(c("lcu.segments")), "count")
        put("lcu.factors", med(c("lcu.factors")), "count")
        put("lcu.s_per_segment", ratio(t("lcu.sample_unitary"), c("lcu.segments")), "s")
        put("lcu.parse_lcu.s", med(t("lcu.parse_lcu")), "s")
        put("lcu.segment_distribution.calls", med(n("lcu.segment_distribution")), "count")
        put("lcu.segment_distribution.cache_hit_ratio",
            ratio(c("lcu.segment_distribution.hits"), n("lcu.segment_distribution")), "ratio")
        put("lcu.self_s", med(layer_self("lcu")), "s")

        put("backend.prepare_state.s", med(t("backend.prepare_state")), "s")
        put("backend.hadamard_sample.calls", med(n("backend.hadamard_sample")), "count")
        put("backend.factor_applications", med(c("backend.factor_applications")), "count")
        put("backend.s_per_factor",
            ratio(t("backend.apply_unitary"), c("backend.factor_applications")), "s")
        put("backend.self_s", med(layer_self("backend")), "s")

        put("pauli.parse_hamiltonian.s", med(t("pauli.parse_hamiltonian")), "s")
        put("pauli.index_action.calls", med(n("pauli.index_action")), "count")
        put("pauli.index_action.s", med(t("pauli.index_action")), "s")
        put("pauli.self_s", med(layer_self("pauli")), "s")

        put("resources.points", med(c("resources.points")), "count")
        put("resources.infeasible_points", med(c("resources.infeasible_points")), "count")
        put("resources.s_per_point",
            ratio(t("resources.tradeoff_curve"), c("resources.points")), "s")
        put("resources.self_s", med(layer_self("resources")), "s")

        put("cli.run.s", med(t("cli.run")), "s")
        put("cli.self_s", med(layer_self("cli")), "s")
        put("cli.bytes_written", med(c("cli.bytes_written")), "B")
        return out
