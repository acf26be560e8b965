"""Outside-in span tracer for the randbc library.

`install()` wraps every public function of the traced randbc modules and
rebinds each wrapper under every name, in every `randbc.*` namespace, that
held the original function, so calls between modules go through the wrappers
too.  A wrapper opens a span, calls straight through and closes the span; any
counting it does (file sizes, solve statistics) happens after the span closes.

Spans live in memory as plain lists.  Each thread keeps its own stack of open
spans.  The thread pool `success_curve` creates is replaced by a subclass
whose tasks open a `<parent>.worker` span whose parent is the span that was
open on the submitting thread, so work done in pool threads is attributed to
the open `experiments.success_curve` span.  `layer_metrics()` turns the spans
into the per-layer metrics once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Library layers whose public functions are wrapped.  `randbc.cli` and
# `randbc.expressions` are left alone: their work counts as CLI self time.
TRACED_MODULES = ("grid", "solver", "boundary", "streams", "constraints",
                  "runge", "experiments", "inverse")

COMMANDS = ("solve", "qpat", "conductivity", "runge", "constraint-experiment",
            "variance-check", "tail-check")

# Span fields, stored as lists: [name, start, end, parent id, counter dict].
NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent=None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = [name, 0.0, 0.0, parent, {}]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span[START] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        self.spans[sid][END] = end
        self._stack().pop()

    def count(self, sid: int, **values) -> None:
        self.spans[sid][COUNTS].update(values)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(sid, args, kwargs, result)
        return result
    return traced


def _file_bytes(path_arg: int):
    def after(tracer, sid, args, kwargs, result):
        tracer.count(sid, bytes=os.path.getsize(args[path_arg]))
    return after


def _solve_dirichlet_wrapper(tracer: Tracer, fn):
    """Asks for SolveInfo and records method, iterations, size and residual.

    The residual is scaled by its target rtol * ||rhs||_inf, computed after
    the span closes; a ratio <= 1 means the solve met its contract.
    """
    import numpy as np

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        want_info = bound.arguments["want_info"]
        bound.arguments["want_info"] = True
        sid = tracer.open("solver.solve_dirichlet")
        try:
            u, info = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.close(sid)
        op = bound.arguments["op"]
        rhs = op.boundary_coupling @ np.asarray(bound.arguments["g"], dtype=float)
        forcing = bound.arguments["forcing"]
        if forcing is not None:
            rhs = rhs + np.asarray(forcing, dtype=float)[1:-1, 1:-1].reshape(-1)
        target = bound.arguments["rtol"] * float(np.abs(rhs).max())
        tracer.count(sid, method=info.method, iterations=int(info.iterations),
                     unknowns=int(op.matrix.shape[0]),
                     residual_ratio=(info.residual_inf / target if target > 0 else 0.0))
        return (u, info) if want_info else u
    return traced


def _tracing_executor(tracer: Tracer):
    class TracingThreadPoolExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            name = (tracer.spans[parent][NAME] if parent is not None else "pool") + ".worker"

            def task():
                sid = tracer.open(name, parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
            return super().submit(task)
    return TracingThreadPoolExecutor


def install(tracer: Tracer) -> None:
    """Wrap the traced randbc modules' public functions (call once per process)."""
    import randbc.cli  # noqa: F401  (its namespace holds names to rebind)

    afters = {
        "solver.save_field_csv": _file_bytes(2),
        "constraints.save_cover_csv": _file_bytes(3),
        "boundary.sample_coeffs":
            lambda t, sid, a, k, r: t.count(sid, rows=int(r.shape[0])),
        "runge.build_dictionary":
            lambda t, sid, a, k, r: t.count(sid, modes=int(r.K)),
        "experiments.success_curve":
            lambda t, sid, a, k, r: t.count(
                sid, draws=int(r.M * max(r.N_values) * a[0].cmap.arity)),
    }
    replacements = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"randbc.{short}"]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            if name == "solver.solve_dirichlet":
                wrapper = _solve_dirichlet_wrapper(tracer, obj)
            else:
                after = afters.get(name)
                hook = None if after is None else functools.partial(after, tracer)
                wrapper = _wrap(tracer, name, obj, hook)
            replacements[id(obj)] = (obj, wrapper)
    randbc_modules = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "randbc" or key.startswith("randbc."))]
    for module in randbc_modules:
        for attr, obj in list(vars(module).items()):
            original, wrapper = replacements.get(id(obj), (None, None))
            if original is obj:
                setattr(module, attr, wrapper)
    sys.modules["randbc.experiments"].ThreadPoolExecutor = _tracing_executor(tracer)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        covered = _union_length([(s, e) for s, e in clipped if e > s])
        out.append((end - start) - covered)
    return out


# Per-layer metrics: name -> unit.  Spans are named "<layer>.<function>";
# `.calls` counts spans, `.s` sums inclusive durations, `.self_s` sums self
# times, and other suffixes sum the counter of that name.
def layer_metric_units() -> dict[str, str]:
    units = {f"cli.{c}.s": "s" for c in COMMANDS}
    units.update({"cli.self_s": "s", "cli.output_bytes": "bytes",
                  "grid.build_grid.calls": "count"})
    spec = {
        "solver.assemble": ("calls", "s"),
        "solver.solve_dirichlet": ("calls", "s", "cg_calls", "lu_calls", "iterations",
                                   "unknowns", "residual_ratio_max"),
        "solver.solve_poisson": ("calls", "s"),
        "solver.gradient": ("calls", "s"),
        "solver.save_field_csv": ("calls", "s", "bytes"),
        "boundary.sample_coeffs": ("calls", "s", "rows"),
        "streams.derive_rng": ("calls", "s"),
        "constraints.values_from_parts": ("calls", "s"),
        "constraints.extract_cover": ("calls", "s"),
        "constraints.save_cover_csv": ("s", "bytes"),
        "runge.build_dictionary": ("calls", "s", "modes"),
        "runge.make_target": ("s",),
        "runge.tradeoff_curve": ("s",),
        "experiments.success_curve": ("calls", "s", "self_s", "draws", "worker_busy_s"),
        "experiments.trial_fields": ("s",),
        "experiments.variance_identity_check": ("s",),
        "experiments.tail_check": ("s",),
        "inverse.qpat_forward": ("calls", "s"),
        "inverse.qpat_reconstruct_multi": ("s",),
        "inverse.conductivity_forward": ("s",),
        "inverse.conductivity_reconstruct": ("s", "self_s"),
    }
    unit_of = {"s": "s", "self_s": "s", "worker_busy_s": "s", "bytes": "bytes",
               "residual_ratio_max": "ratio"}
    for span_name, suffixes in spec.items():
        for suffix in suffixes:
            units[f"{span_name}.{suffix}"] = unit_of.get(suffix, "count")
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into every metric of layer_metric_units() but the overhead."""
    selfs = self_times(spans)
    values = {name: 0.0 for name in layer_metric_units()}
    del values["trace.overhead_s"]

    def add(key, amount):
        if key in values:
            values[key] += amount

    for sid, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        counts = span[COUNTS]
        if name.startswith("cli."):
            values["cli.self_s"] += selfs[sid]
            values["cli.output_bytes"] += counts.get("output_bytes", 0)
        if name == "experiments.success_curve.worker":
            values["experiments.success_curve.worker_busy_s"] += duration
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.s", duration)
        add(f"{name}.self_s", selfs[sid])
        for key, amount in counts.items():
            if key == "method":
                add(f"{name}.cg_calls", amount.startswith("cg"))
                add(f"{name}.lu_calls", amount == "lu")
            elif key == "residual_ratio":
                key = f"{name}.residual_ratio_max"
                if key in values:
                    values[key] = max(values[key], amount)
            else:
                add(f"{name}.{key}", amount)
    return values
