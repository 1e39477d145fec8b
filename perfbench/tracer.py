"""Span tracer installed from outside the program.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers, in every loaded ``laglab`` module that holds a reference to them
(modules import each other's functions by name) and on the classes for
methods.  While ``Tracer.enabled`` is set, each call records a span
``[name, start, end, parent, info]`` in memory; the spans of one job are
reduced to per-layer metrics by ``layer_metrics``.

Spans opened on a scan worker thread whose own stack is empty take the span
open on the main thread as parent, so a parent's self time is its duration
minus the union of its children's intervals, overlapping or not.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time

import numpy as np

# layer -> (module, wrapped public functions); metric names derive from these.
LAYERS = {
    "torus": ("laglab.torus", ("partial_values", "gradient_values", "hessian_values")),
    "ambient": ("laglab.ambient", ("AlmostCYModel.rho", "AlmostCYModel.holomorphic_density")),
    "lagrangian": ("laglab.lagrangian", (
        "GraphLagrangian.__init__", "GraphLagrangian.grad_inner_values",
        "GraphLagrangian.normalize_values", "GraphLagrangian.covariant_hessian",
        "GraphLagrangian.laplace_beltrami")),
    "connection": ("laglab.connection", (
        "w_field_values", "cov_deriv_pair_values", "geodesic_shoot")),
    "curvature": ("laglab.curvature", (
        "riemann_field_values", "riemann_quad_values", "sectional", "flat_family_check")),
    "hermitian": ("laglab.hermitian", (
        "herm_fd_riemann", "herm_curvature_quad", "herm_sectional", "herm_inner",
        "HermPoint.inverses")),
    "validation": ("laglab.validation", (
        "run_suite", "check_r3_r4_pairing", "check_r3_vs_fd", "check_dtheta",
        "check_metric_compat", "check_torsion_free", "check_dijk_zero_section")),
    "cli": ("laglab.cli", ("main", "load_config", "write_report")),
}

# Derived metrics: name -> (unit, better).
DERIVED = {
    "torus.fft_pairs": ("count", "lower"),
    "torus.fft_bytes": ("bytes", "lower"),
    "torus.distinct_input_ratio": ("ratio", "higher"),
    "connection.step_s": ("s", "lower"),
    "connection.builds_per_step": ("builds/step", "lower"),
    "hermitian.inverse_reuse_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

FIELDS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in output order."""
    out = {}
    for name in span_names():
        for field, unit in FIELDS:
            out[f"{name}.{field}"] = (unit, "lower")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _digest(values: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(values), digest_size=16).digest()


# Per-function argument probes, run before the span starts (outside its time).
def _probe_partial(args, kwargs):
    values, axis = args[1], args[2] if len(args) > 2 else kwargs["axis"]
    return (_digest(values), int(axis), int(values.size))


def _probe_geodesic(args, kwargs):
    return int(args[3] if len(args) > 3 else kwargs["steps"])


def _probe_inverses(args, kwargs):
    return _digest(args[0].matrices)


PROBES = {
    "torus.partial_values": _probe_partial,
    "connection.geodesic_shoot": _probe_geodesic,
    "hermitian.HermPoint.inverses": _probe_inverses,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every function named in LAYERS; modules must be imported."""
        for layer, (module_name, fns) in LAYERS.items():
            module = sys.modules[module_name]
            for fn in fns:
                owner_name, _, attr = fn.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapped = self._wrap(f"{layer}.{fn}", original)
                if owner_name:
                    self._set(owner, attr, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "laglab" or mod_name.startswith("laglab."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            info = probe(args, kwargs) if probe else None
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            record = [name, 0.0, 0.0, parent, info]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def take(self) -> list[list]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one job's spans (every name in ``metric_units``)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))

    out = {name: 0.0 for name in metric_units()}
    for name in span_names():
        out[f"{name}.calls"] = 0
    for i, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        self_time = duration - _union_length(children.get(i, []), start, end)
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += duration
        out[f"{name}.self_s"] += self_time
        out[f"{layer}.self_s"] += self_time

    partial = [s[4] for s in spans if s[0] == "torus.partial_values"]
    out["torus.fft_pairs"] = len(partial)
    out["torus.fft_bytes"] = sum(size * 32 for _, _, size in partial)
    out["torus.distinct_input_ratio"] = (
        len({(digest, axis) for digest, axis, _ in partial}) / len(partial) if partial else 0.0)

    shoots = [i for i, s in enumerate(spans) if s[0] == "connection.geodesic_shoot"]
    steps = sum(spans[i][4] for i in shoots)
    if steps:
        shoot_set = set(shoots)

        def under_shoot(index: int) -> bool:
            parent = spans[index][3]
            while parent is not None:
                if parent in shoot_set:
                    return True
                parent = spans[parent][3]
            return False

        builds = sum(1 for i, s in enumerate(spans)
                     if s[0] == "lagrangian.GraphLagrangian.__init__" and under_shoot(i))
        out["connection.step_s"] = sum(spans[i][2] - spans[i][1] for i in shoots) / steps
        out["connection.builds_per_step"] = builds / steps

    inverses = [s[4] for s in spans if s[0] == "hermitian.HermPoint.inverses"]
    if inverses:
        out["hermitian.inverse_reuse_ratio"] = len(set(inverses)) / len(inverses)
    return out
