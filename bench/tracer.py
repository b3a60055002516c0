"""Outside-in span tracer for the traced benchmark run.

The tracer wraps named sepscope functions by rebinding every name that refers
to them across the ``sepscope.*`` namespaces; ``criteria`` imports
``trace_norm`` by name, for example, so patching ``matlin`` alone would miss
those calls.  Each call records a span (layer, start, end, parent) kept in
memory until the run ends; self times and per-op figures are computed from
the spans afterwards.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, function, layer).  Several functions share one layer where the
# benchmark reports them together: the three oracles and the four state
# constructors.
TARGETS = (
    ("matlin", "trace_norm", "matlin.trace_norm"),
    ("matlin", "partial_trace", "matlin.partial_trace"),
    ("matlin", "hermitian_eigenvalues", "matlin.hermitian_eigenvalues"),
    ("matlin", "validate_density", "matlin.validate_density"),
    ("gptops", "gpt_transform", "gptops.gpt_transform"),
    ("gptops", "realign", "gptops.realign"),
    ("gptops", "partial_transpose", "gptops.partial_transpose"),
    ("criteria", "generalized_reduction_map", "criteria.generalized_reduction_map"),
    ("criteria", "evaluate", "criteria.evaluate"),
    ("criteria", "ppt_check", "criteria.oracles"),
    ("criteria", "reduction_check", "criteria.oracles"),
    ("criteria", "realignment_check", "criteria.oracles"),
    ("states", "werner", "states.construct"),
    ("states", "horodecki_3x3", "states.construct"),
    ("states", "random_separable", "states.construct"),
    ("states", "random_density", "states.construct"),
    ("states", "load_state", "states.load_state"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "emit", "sweep.emit"),
    ("sweep", "find_threshold", "sweep.find_threshold"),
    ("cli", "main", "cli.main"),
)

# (metric, unit) in report order; counts, times and bytes are per workload op.
LAYER_METRICS = (
    ("criteria.generalized_reduction_map.calls", "count/op"),
    ("criteria.generalized_reduction_map.self_ms", "ms/op"),
    ("criteria.evaluate.calls", "count/op"),
    ("criteria.evaluate.self_ms", "ms/op"),
    ("criteria.evaluate.distinct_ratio", "ratio"),
    ("criteria.oracles.self_ms", "ms/op"),
    ("matlin.trace_norm.calls", "count/op"),
    ("matlin.trace_norm.self_ms", "ms/op"),
    ("matlin.trace_norm.bytes", "B/op"),
    ("matlin.partial_trace.calls", "count/op"),
    ("matlin.partial_trace.self_ms", "ms/op"),
    ("matlin.hermitian_eigenvalues.self_ms", "ms/op"),
    ("matlin.validate_density.calls", "count/op"),
    ("matlin.validate_density.self_ms", "ms/op"),
    ("gptops.gpt_transform.calls", "count/op"),
    ("gptops.gpt_transform.self_ms", "ms/op"),
    ("gptops.realign.self_ms", "ms/op"),
    ("gptops.partial_transpose.self_ms", "ms/op"),
    ("states.construct.calls", "count/op"),
    ("states.construct.self_ms", "ms/op"),
    ("states.load_state.self_ms", "ms/op"),
    ("states.load_state.bytes", "B/op"),
    ("sweep.emit.self_ms", "ms/op"),
    ("sweep.emit.bytes", "B/op"),
    ("sweep.run_sweep.self_ms", "ms/op"),
    ("sweep.find_threshold.self_ms", "ms/op"),
    ("sweep.find_threshold.steps", "count/op"),
    ("cli.main.self_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_share", "ratio"),
)


def _trace_norm_bytes(args, kwargs, result) -> int:
    mat = args[0] if args else kwargs["mat"]
    return 16 * int(getattr(mat, "size", 0))


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _load_state_bytes(args, kwargs, result) -> int:
    return _file_bytes(args[0] if args else kwargs["path"])


def _emit_bytes(args, kwargs, result) -> int:
    return _file_bytes(args[2] if len(args) > 2 else kwargs["path"])


BYTES = {
    "matlin.trace_norm": _trace_norm_bytes,
    "states.load_state": _load_state_bytes,
    "sweep.emit": _emit_bytes,
}


class Tracer:
    """Records nested spans for the functions in TARGETS while installed.

    A span is a list [layer, start, end, parent, bytes]; parent is the index
    of the enclosing span or -1.  The benchmark drives sepscope from one
    thread, so spans nest strictly.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._plan = self._patch_plan()
        # (state object, a, b) -> rounded statistics, for distinct_ratio; the
        # state is held so its id cannot be reused within one unit.
        self._stats: dict[tuple, tuple[object, set]] = {}
        self.distinct = 0

    def _wrap(self, layer: str, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter
        measure = BYTES.get(layer)
        is_evaluate = layer == "criteria.evaluate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            if is_evaluate:
                self._record_statistic(args, kwargs, result)
            return result

        return traced

    def _record_statistic(self, args, kwargs, verdict) -> None:
        rho = args[0] if args else kwargs["rho"]
        params = args[1] if len(args) > 1 else kwargs["p"]
        key = (id(rho), params.a, params.b)
        entry = self._stats.setdefault(key, (rho, set()))
        entry[1].add(float(f"{verdict.statistic:.12g}"))

    def end_unit(self) -> None:
        """Fold the distinct statistics of the finished unit into the total."""
        self.distinct += sum(len(values) for _, values in self._stats.values())
        self._stats.clear()

    def _patch_plan(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every name bound to a target."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "sepscope" or name.startswith("sepscope."))]
        plan = []
        for module_name, fn_name, layer in TARGETS:
            original = getattr(sys.modules[f"sepscope.{module_name}"], fn_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, original, wrapper))
        return plan

    def install(self) -> None:
        for mod, attr, _, wrapper in self._plan:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._plan:
            setattr(mod, attr, original)

    def layer_metrics(self, ops: int, traced_seconds: float, overhead: float) -> dict[str, float]:
        """Per-op calls, self times and bytes for every metric in LAYER_METRICS."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        nbytes: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        steps = 0
        for index, (layer, start, end, parent, size) in enumerate(self.spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[index]
            nbytes[layer] = nbytes.get(layer, 0) + size
            if (layer == "states.construct" and parent >= 0
                    and self.spans[parent][0] == "sweep.find_threshold"):
                steps += 1
        total_self = sum(self_s.values())
        per_op = 1.0 / max(ops, 1)
        evaluate_calls = calls.get("criteria.evaluate", 0)
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            layer, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(layer, 0) * per_op
            elif stat == "self_ms":
                out[metric] = self_s.get(layer, 0.0) * 1e3 * per_op
            elif stat == "bytes":
                out[metric] = nbytes.get(layer, 0) * per_op
        out["criteria.evaluate.distinct_ratio"] = (
            self.distinct / evaluate_calls if evaluate_calls else 0.0)
        out["sweep.find_threshold.steps"] = steps * per_op
        out["trace.overhead_ratio"] = overhead
        out["trace.self_share"] = total_self / traced_seconds if traced_seconds > 0 else 0.0
        return out
