"""In-memory span tracing of gsgflow's layers, from outside the package.

Each public function is wrapped at the module attribute through which its
caller looks it up (cli.main is looked up by the benchmark client,
gsgflow.cli.velocity by the CLI, gsgflow.solution.cross_b1 by the field
assembly, ...). A span records its name, start, end, parent span and
request; self time is a span's duration minus that of its child spans. A
name missing from the package is reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter


def _auto_modes(args, kwargs, result):
    """Modes requested from AUTO at a fractional order: the base of the
    Laplace fallback ratio."""
    from gsgflow import SeriesControls, Strategy

    params, t = args[0], args[4]
    controls = args[5] if len(args) > 5 else kwargs.get("controls", SeriesControls())
    if params.beta < 1.0 and t > 0.0 and controls.strategy == Strategy.AUTO:
        return controls.n_modes
    return 0


def _fd_field(args, kwargs, result):
    """(time steps, bytes of the solver's history), computed from the
    returned field: the seed solver keeps the stored field omega[M+1, nr+2]
    and a Laplacian history of M+1 interior rows, both float64."""
    levels, nodes = result.omega.shape
    return levels - 1, 8 * levels * (2 * nodes - 2)


# (module, attribute, span name, optional extractor of per-call information)
TARGETS = (
    ("gsgflow.cli", "main", "cli.main", None),
    ("gsgflow.cli", "find_roots", "eigenvalues.find_roots", None),
    ("gsgflow.cli", "velocity", "solution.velocity", _auto_modes),
    ("gsgflow.cli", "shear_stress", "solution.shear_stress", _auto_modes),
    ("gsgflow.cli", "velocity_sg_closed", "solution.closed", None),
    ("gsgflow.solution", "shear_stress_sg_closed", "solution.closed", None),
    ("gsgflow.solution", "invert_mode_velocity_kernel", "laplace.velocity_kernel", None),
    ("gsgflow.solution", "invert_mode_stress_kernel", "laplace.stress_kernel", None),
    ("gsgflow.solution", "cross_b1", "special.cross_b1", None),
    ("gsgflow.solution", "cross_b", "special.cross_b", None),
    ("gsgflow", "solve", "fdsolver.solve", _fd_field),
)

NAME, START, END, PARENT, REQUEST, INFO = range(6)

# Which end-to-end metric, on which workload, each layer metric should move.
MOVES = {
    "cli.self_s": "request_s_p50 on profile once kernels are cheap: argument parsing "
                  "and the 17-digit CSV writer",
    "eigenvalues.find_roots.calls": "setup_s; request_s_p50 on profile after field blocks",
    "eigenvalues.find_roots.busy_s": "setup_s; request_s_p50 on profile after field blocks",
    "laplace.velocity_kernel.calls": "points_per_s on history most, and on profile; "
                                     "zero on fd_oracle",
    "laplace.velocity_kernel.us": "points_per_s on history most, and on profile",
    "laplace.stress_kernel.calls": "points_per_s on history; zero on profile and fd_oracle",
    "laplace.stress_kernel.us": "points_per_s on history",
    "solution.velocity.calls": "points_per_s on profile and history",
    "solution.shear_stress.calls": "points_per_s on history",
    "solution.closed.calls": "points_per_s on profile and history",
    "solution.calls_per_point": "points_per_s: field blocks take it far below 1 on "
                                "profile, to about 1/3 on history",
    "solution.self_s": "points_per_s on profile and history: series kernels and the "
                       "Python assembly loop",
    "solution.fallback_ratio": "request_s_p50 on history: Laplace kernel calls per mode "
                               "requested from AUTO, base solution.auto_modes",
    "solution.auto_modes": "base of solution.fallback_ratio",
    "special.cross_b1.calls": "points_per_s on profile: r x mode assembly",
    "special.cross_b.calls": "points_per_s on history (stress): r x mode assembly",
    "special.busy_s": "points_per_s on profile",
    "fdsolver.solve.busy_s": "points_per_s on fd_oracle only",
    "fdsolver.step_us": "points_per_s on fd_oracle only",
    "fdsolver.history_bytes": "peak_rss_mb on fd_oracle only; computed from array sizes",
    "trace.overhead": "none: untraced over traced points_per_s in this run",
}


class Tracer:
    """Installs the wrappers, records spans and removes the wrappers again."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self.request = -1
        self._stack = []
        self._installed = []

    def install(self) -> None:
        for module_name, attr, name, extract in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, extract))

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span[INFO] = extract(args, kwargs, result)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "request": s[REQUEST], "info": s[INFO]}) + "\n")


def layer_metrics(spans: list, requests: int, points: int) -> dict:
    """Per-layer counts and times from the spans of `requests` requests that
    produced `points` output values. Counts and times are per request."""
    busy, own, calls, info = {}, {}, {}, {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        busy[name] = busy.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        info.setdefault(name, []).append(s[INFO])

    def per_req(table, name):
        return table.get(name, 0) / requests

    def per_call_us(name):
        return 1e6 * busy[name] / calls[name] if calls.get(name) else 0.0

    solution = ("solution.velocity", "solution.shear_stress", "solution.closed")
    solution_calls = sum(calls.get(n, 0) for n in solution)
    auto_modes = sum(m for n in ("solution.velocity", "solution.shear_stress")
                     for m in info.get(n, []) if m)
    laplace_calls = calls.get("laplace.velocity_kernel", 0) + calls.get("laplace.stress_kernel", 0)
    fd = [i for i in info.get("fdsolver.solve", []) if i]
    steps = sum(i[0] for i in fd)
    return {
        "cli.self_s": per_req(own, "cli.main"),
        "eigenvalues.find_roots.calls": per_req(calls, "eigenvalues.find_roots"),
        "eigenvalues.find_roots.busy_s": per_req(busy, "eigenvalues.find_roots"),
        "laplace.velocity_kernel.calls": per_req(calls, "laplace.velocity_kernel"),
        "laplace.velocity_kernel.us": per_call_us("laplace.velocity_kernel"),
        "laplace.stress_kernel.calls": per_req(calls, "laplace.stress_kernel"),
        "laplace.stress_kernel.us": per_call_us("laplace.stress_kernel"),
        "solution.velocity.calls": per_req(calls, "solution.velocity"),
        "solution.shear_stress.calls": per_req(calls, "solution.shear_stress"),
        "solution.closed.calls": per_req(calls, "solution.closed"),
        "solution.calls_per_point": solution_calls / points if points else 0.0,
        "solution.self_s": sum(own.get(n, 0.0) for n in solution) / requests,
        "solution.fallback_ratio": laplace_calls / auto_modes if auto_modes else 0.0,
        "solution.auto_modes": auto_modes / requests,
        "special.cross_b1.calls": per_req(calls, "special.cross_b1"),
        "special.cross_b.calls": per_req(calls, "special.cross_b"),
        "special.busy_s": per_req(busy, "special.cross_b1") + per_req(busy, "special.cross_b"),
        "fdsolver.solve.busy_s": per_req(busy, "fdsolver.solve"),
        "fdsolver.step_us": 1e6 * busy["fdsolver.solve"] / steps if steps else 0.0,
        "fdsolver.history_bytes": float(max((i[1] for i in fd), default=0)),
    }
