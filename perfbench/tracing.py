"""Spans around chemobound's public functions, installed from outside.

The package has no tracing code of its own.  ``install`` replaces module
attributes with wrappers that record (name, start, end, parent) and
``restore`` puts the originals back.  A function is wrapped under the name
its caller looks it up by: ``pde.run`` calls ``step`` and the diagnostics as
``pde`` globals, and ``odi.optimize_bound`` calls ``check_condition_C``
through ``odi``'s own import of it.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def _count_run(counts, args, kwargs, result):
    counts["pde.steps"] += getattr(result, "steps", 0)
    counts["pde.samples"] += len(getattr(result, "t", ()))


def _count_profiles(counts, args, kwargs, result):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "n_samples"):
            counts["verify.gn.profiles"] += value.n_samples + value.ascent_steps
            return


# (module, attribute, span name, hook on the result).  The spatial helpers
# face_gradients and cell_gradients stay unwrapped: they run ~9 times per
# step inside step and the private dt limiter, so wrapping them would add
# overhead and split the limiter's time away from pde.run.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "cmd_bound", "cli.cmd_bound", None),
    ("cli", "cmd_optimize_bound", "cli.cmd_optimize_bound", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "simulate_from_config", "cli.simulate_from_config", None),
    ("cli", "bound_from_config", "cli.bound_from_config", None),
    ("cli", "resolve_gn_constant", "cli.resolve_gn_constant", None),
    ("cli", "resolve_indices", "cli.resolve_indices", None),
    ("config", "parse_config_text", "config.parse_config_text", None),
    ("config", "apply_overrides", "config.apply_overrides", None),
    ("config", "config_hash", "config.config_hash", None),
    ("config", "build_model", "config.build_model", None),
    ("config", "build_grid", "config.build_grid", None),
    ("config", "build_profile", "config.build_profile", None),
    ("config", "build_solver", "config.build_solver", None),
    ("config", "build_quad", "config.build_quad", None),
    ("config", "build_opt", "config.build_opt", None),
    ("config", "build_sampler", "config.build_sampler", None),
    ("pde", "run", "pde.run", _count_run),
    ("pde", "step", "pde.step", None),
    ("pde", "energy", "pde.energy", None),
    ("pde", "norms", "pde.norms", None),
    ("pde", "mass", "pde.mass", None),
    ("pde", "init_state", "pde.init_state", None),
    ("odi", "optimize_bound", "odi.optimize_bound", None),
    ("odi", "odi_coefficients", "odi.odi_coefficients", None),
    ("odi", "lower_bound_integral", "odi.lower_bound_integral", None),
    ("odi", "check_condition_C", "exponents.check_condition_C", None),
    ("odi", "corollary1_parameters", "exponents.corollary1_parameters", None),
    ("exponents", "check_condition_C", "exponents.check_condition_C", None),
    ("exponents", "corollary1_parameters", "exponents.corollary1_parameters",
     None),
    ("exponents", "corollary2_parameters", "exponents.corollary2_parameters",
     None),
    ("verify", "estimate_gn_constant", "verify.estimate_gn_constant",
     _count_profiles),
)

LAYERS = ("pde", "odi", "exponents", "verify", "cli", "config", "bench")
DIAGNOSTICS = ("pde.energy", "pde.norms", "pde.mass")


class Tracer:
    """In-memory spans: [name, start, end, parent span or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # a worker thread's first span belongs to the span the main thread
        # is waiting in (run_sweep's thread pool)
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        stack = self._stack()
        span = [name, 0.0, 0.0, self._parent(stack)]
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return traced

    def write(self, path: Path) -> None:
        """Spans as [name index, start s, end s, parent index or -1]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        names = sorted({span[0] for span in self.spans})
        name_id = {name: i for i, name in enumerate(names)}
        t0 = min((span[1] for span in self.spans), default=0.0)
        rows = [[name_id[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9),
                 index[id(s[3])] if s[3] is not None else -1]
                for s in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows,
                                    "counts": dict(self.counts)}))


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every TRACED function present; returns what restore needs."""
    saved = []
    for module_name, attr, span_name, hook in TRACED:
        module = modules[module_name]
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span_name, fn, hook))
    return saved


def restore(saved: list) -> None:
    for module, attr, fn in reversed(saved):
        setattr(module, attr, fn)


def _self_intervals(span, kids) -> list[tuple[float, float]]:
    """The parts of span's interval that none of its children cover."""
    gaps, reach = [], span[1]
    for _, start, end, _ in sorted(kids, key=lambda s: s[1]):
        if start > reach:
            gaps.append((reach, min(start, span[2])))
        reach = max(reach, end)
    if reach < span[2]:
        gaps.append((reach, span[2]))
    return [(a, b) for a, b in gaps if b > a]


def _self_times(spans) -> tuple[dict[str, float], float]:
    """Self time per span name, each instant split evenly among the spans
    whose self intervals hold it, so the total equals the traced wall
    time even where the sweep's worker threads overlap; and the plain sum
    of the self intervals, which counts overlapping threads once each."""
    kids = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            kids[id(span[3])].append(span)
    events, plain = [], 0.0
    for span in spans:
        for a, b in _self_intervals(span, kids.get(id(span), ())):
            plain += b - a
            events.append((a, 1, span[0]))
            events.append((b, -1, span[0]))
    events.sort(key=lambda e: (e[0], e[1]))
    own = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    running, prev = 0, 0.0
    for t, delta, name in events:
        if running:
            share = (t - prev) / running
            for held, count in active.items():
                if count:
                    own[held] += share * count
        active[name] += delta
        running += delta
        prev = t
    return own, plain


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced operations, each (value, unit).

    Self time is a span's duration minus the part its child spans cover;
    see _self_times for instants where threads overlap.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    diag = 0.0
    for span in tracer.spans:
        name, dur = span[0], span[2] - span[1]
        calls[name] += 1
        total[name] += dur
        if name in DIAGNOSTICS and span[3] is not None and span[3][0] == "pde.run":
            diag += dur
    own, plain_self = _self_times(tracer.spans)
    counts = tracer.counts
    op_wall = total["bench.op"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(name):
        return (ratio(calls[name], ops), "count")

    def mean(name, scale, unit):
        return (scale * ratio(total[name], calls[name]), unit)

    steps = counts["pde.steps"]
    out = {
        "pde.step.calls": per_op("pde.step"),
        "pde.steps": (ratio(steps, ops), "count"),
        "pde.step.rejected": (ratio(calls["pde.step"] - steps, ops), "count"),
        "pde.step.us": mean("pde.step", 1e6, "us"),
        "pde.diag.us": (1e6 * ratio(diag, counts["pde.samples"]), "us"),
        "pde.run.self_us_per_step": (1e6 * ratio(own["pde.run"], steps), "us"),
        "pde.steps_per_s": (ratio(steps, total["pde.run"]), "1/s"),
        "odi.lower_bound_integral.calls": per_op("odi.lower_bound_integral"),
        "odi.lower_bound_integral.us": mean("odi.lower_bound_integral", 1e6,
                                            "us"),
        "odi.odi_coefficients.calls": per_op("odi.odi_coefficients"),
        "odi.odi_coefficients.us": mean("odi.odi_coefficients", 1e6, "us"),
        "odi.optimize_bound.self_ms": (
            1e3 * ratio(own["odi.optimize_bound"], calls["odi.optimize_bound"]),
            "ms"),
        "odi.eval.useful_ratio": (ratio(calls["odi.lower_bound_integral"],
                                        calls["odi.odi_coefficients"]), "ratio"),
        "exponents.check_condition_C.calls":
            per_op("exponents.check_condition_C"),
        "exponents.check_condition_C.us":
            mean("exponents.check_condition_C", 1e6, "us"),
        "verify.estimate_gn_constant.calls":
            per_op("verify.estimate_gn_constant"),
        "verify.estimate_gn_constant.ms":
            mean("verify.estimate_gn_constant", 1e3, "ms"),
        "verify.gn.us_per_profile": (
            1e6 * ratio(total["verify.estimate_gn_constant"],
                        counts["verify.gn.profiles"]), "us"),
        "cli.resolve_gn_constant.calls": per_op("cli.resolve_gn_constant"),
        "cli.simulate_from_config.ms": mean("cli.simulate_from_config", 1e3,
                                            "ms"),
        "cli.bound_from_config.ms": mean("cli.bound_from_config", 1e3, "ms"),
        "cli.sweep.self_ms": (1e3 * ratio(own["cli.run_sweep"],
                                          calls["cli.run_sweep"]), "ms"),
        "config.parse_config_text.us": mean("config.parse_config_text", 1e6,
                                            "us"),
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        out[f"share.{layer}"] = (ratio(layer_self, op_wall), "frac")
    # mean number of threads inside traced code (1 unless the sweep's
    # worker threads overlap)
    out["trace.concurrency"] = (ratio(plain_self, op_wall), "ratio")
    return out
