"""Outside-in tracing of mcskit: a span for every call of a public function.

`Tracer.install` replaces each public function of every mcskit module, in
every module namespace that binds it (`mcskit.wigner.fock_wavefunction`
as well as `mcskit.decomposition.fock_wavefunction`), and each public
method and property of the classes the modules define, with a wrapper
that records a span: name, start, end, thread and parent span. Nothing
under src/ changes; `uninstall` puts the originals back.

Self time. A span's self time is the part of its duration in which it was
the innermost running span. Spans opened on pool threads are children of
the span that was innermost on the main thread when they started
(`parallel.pmap`). When spans on n threads run at once, each gets 1/n of
that instant, so the self times of a run add up to the wall time the
spans cover, with or without the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable

MODULES = ("states", "fock", "decomposition", "wigner", "completeness", "verify", "cli",
           "parallel")

# self-time groups reported under one name; the members are qualified names
GROUPS = {
    "verify.run_suite": ("verify.run_suite", "verify.suite_algebra", "verify.suite_states",
                         "verify.suite_wigner", "verify.suite_completeness"),
    "wigner.integrals": ("wigner.WignerField.total", "wigner.WignerField.purity",
                         "wigner.purity", "wigner.negativity_volume"),
    "decomposition.ring": ("decomposition.mcs_as_scs", "decomposition.coherent_from_classes",
                           "decomposition.component_norm"),
    "fock.ladder": ("fock.apply_k_ladder", "fock.apply_lowering", "fock.apply_raising",
                    "fock.lowering_power", "fock.raising_power"),
}


def _grid_points(bound, default) -> tuple[int, int]:
    grid = bound.arguments.get("grid") or default
    return grid.n_q, grid.n_p


def _work_specs(package) -> dict[str, Callable]:
    """Work units per call, from the bound arguments and the result."""
    default_grid = package.PhaseGrid()

    def closed(b, _r):
        n_q, n_p = _grid_points(b, default_grid)
        return {"pair_point": b.arguments["k"] ** 2 * n_q * n_p}

    def numeric(b, _r):
        n_q, n_p = _grid_points(b, default_grid)
        return {"point": n_q * n_p}

    def synthesis(b, _r):
        return {"basis_point": b.arguments["state"].n_max * len(b.arguments["x"])}

    def movie(_b, r):
        return {"frames": len(r)}

    def pool(b, _r):
        items = b.arguments["items"]
        return {"items": len(items)} if hasattr(items, "__len__") else {}

    def table(b, _r):
        a = b.arguments
        cells = len(a["config"]) + sum(len(col) for _, col in a["columns"])
        size = os.path.getsize(a["out"]) if a["out"] != "-" else 0
        return {"cells": cells, "bytes": size}

    return {
        "wigner.wigner_closed": closed,
        "wigner.wigner_numeric": numeric,
        "decomposition.fock_wavefunction": synthesis,
        "decomposition.density_movie": movie,
        "parallel.pmap": pool,
        "cli.write_table": table,
    }


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []  # [name, start, end, thread, parent index]
        self.work: dict[tuple[str, str], float] = defaultdict(float)
        self._open: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._specs = _work_specs(package)

    # ----------------------------------------------------------- recording

    def record(self, name: str, start: float, end: float) -> None:
        """A root span on the main thread, for the benchmark's own work."""
        with self._lock:
            self.spans.append([name, start, end, self._main, None])

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spec = self._specs.get(name)
        sig = inspect.signature(fn) if spec else None
        spans, open_by_thread, lock, main = self.spans, self._open, self._lock, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = open_by_thread[tid]
            if stack:
                parent = stack[-1]
            else:
                outer = open_by_thread[main]
                parent = outer[-1] if tid != main and outer else None
            span = [name, 0.0, 0.0, tid, parent]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if spec is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = spec(bound, result)
                with lock:
                    for unit, amount in counts.items():
                        self.work[(name, unit)] += amount
            return result

        return traced

    # ------------------------------------------------------------- install

    def install(self) -> None:
        package = self.package
        prefix = package.__name__ + "."
        modules = [importlib.import_module(prefix + m) for m in MODULES]
        wrappers: dict[Callable, Callable] = {}
        for ns in [package] + modules:
            for attr, val in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__.startswith(prefix):
                    if val not in wrappers:
                        wrappers[val] = self._wrap(_qualified(val), val)
                    self._replace(ns, attr, wrappers[val])
                elif inspect.isclass(val) and val.__module__ == ns.__name__:
                    self._wrap_class(val)

    def _wrap_class(self, cls: type) -> None:
        short = cls.__module__.rsplit(".", 1)[-1]
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(val):
                self._replace(cls, attr, self._wrap(name, val))
            elif isinstance(val, property) and val.fget is not None:
                self._replace(cls, attr, property(self._wrap(name, val.fget), doc=val.__doc__))
            elif isinstance(val, (classmethod, staticmethod)):
                self._replace(cls, attr, type(val)(self._wrap(name, val.__func__)))

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # ------------------------------------------------------------- summary

    def self_times(self) -> list[float]:
        """Self time of every span, sharing instants between threads."""
        spans = self.spans
        events = []
        for i, span in enumerate(spans):
            events.append((span[1], 1, i))
            events.append((span[2], 0, i))
        events.sort()  # at equal times ends come first
        own = [0.0] * len(spans)
        open_by_thread: dict[int, list[int]] = defaultdict(list)
        prev = None
        for t, starts, i in events:
            if prev is not None and t > prev:
                leaves = [s[-1] for s in open_by_thread.values() if s]
                if len(leaves) > 1:
                    leaves = [a for a in leaves
                              if not any(_is_ancestor(a, b, spans) for b in leaves if b != a)]
                if leaves:
                    share = (t - prev) / len(leaves)
                    for a in leaves:
                        own[a] += share
            prev = t
            stack = open_by_thread[spans[i][3]]
            if starts:
                stack.append(i)
            else:
                stack.remove(i)
        return own


def _qualified(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _is_ancestor(a: int, b: int, spans: list[list]) -> bool:
    p = spans[b][4]
    while p is not None:
        if p == a:
            return True
        p = spans[p][4]
    return False


# ------------------------------------------------------------------ metrics

# (metric, unit): the per-layer metrics of a traced run, in BENCHMARK.json order

def _self(*names):
    return [(f"{n}.self_s", "s") for n in names]


def _calls(*names):
    return [(f"{n}.calls", "count") for n in names]


LAYER_METRICS = (
    _self("cli.write_table") + [("cli.write_table.bytes", "B"), ("cli.write_table.cells", "count")]
    + _self("cli.main", "verify.run_suite") + _calls("verify.run_suite")
    + _self("wigner.wigner_closed") + _calls("wigner.wigner_closed")
    + [("wigner.wigner_closed.ns_per_pair_point", "ns")]
    + _self("wigner.wigner_numeric") + _calls("wigner.wigner_numeric")
    + [("wigner.wigner_numeric.ns_per_point", "ns")]
    + _self("wigner.marginals", "wigner.integrals")
    + _self("decomposition.fock_wavefunction") + _calls("decomposition.fock_wavefunction")
    + [("decomposition.fock_wavefunction.ns_per_basis_point", "ns")]
    + _self("decomposition.mcs_wavefunction") + _calls("decomposition.mcs_wavefunction")
    + _self("decomposition.density_movie") + [("decomposition.density_movie.frames", "count")]
    + _self("decomposition.ring")
    + _self("parallel.pmap") + [("parallel.pmap.items", "count")]
    + _self("fock.time_evolve") + _calls("fock.time_evolve") + _self("fock.ladder")
    + _self("states.norm_sum") + _calls("states.norm_sum")
    + _self("states.build_mcs") + _calls("states.build_mcs")
    + _self("states.moments", "states.numeric_moments", "states.a_norm_series",
            "states.geometric_phase")
    + _self("completeness.moment_check") + _calls("completeness.moment_check")
    + _calls("completeness.assemble_identity_block") + _self("completeness.identity_block")
    + _self(*MODULES)
    + [("bench.check.self_s", "s"), ("trace.accounted_share", "ratio"), ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.overhead_share", "ratio")]
)

_COUNTED = ("bytes", "cells", "frames", "items")  # work units summed per pass


def layer_metrics(tracer: Tracer, pass_walls: list[float], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-pass self times, calls and work ratios of every traced layer.

    pass_walls are the traced passes whole (calls and checks);
    traced_walls and untraced_walls are the summed call times of each
    traced and untraced pass, as wall_s counts them.
    """
    passes = len(pass_walls)
    own = tracer.self_times()
    self_by: dict[str, float] = defaultdict(float)
    calls_by: dict[str, int] = defaultdict(int)
    for span, t in zip(tracer.spans, own):
        self_by[span[0]] += t
        calls_by[span[0]] += 1
        module = span[0].split(".", 1)[0]
        if module in MODULES:
            self_by[module] += t
    for group, members in GROUPS.items():
        self_by[group] = sum(self_by[m] for m in members)

    out: dict[str, tuple[float, str]] = {}
    for metric, unit in LAYER_METRICS:
        layer, _, what = metric.rpartition(".")
        if what.startswith("ns_per_"):
            units = tracer.work[(layer, what[len("ns_per_"):])]
            value = 1e9 * self_by[layer] / units if units else 0.0
        elif what in _COUNTED:
            value = tracer.work[(layer, what)] / passes
        elif what == "calls":
            value = calls_by[layer] / passes
        elif metric == "trace.wall_s":
            value = statistics.median(traced_walls)
        elif metric == "trace.untraced_wall_s":
            value = statistics.median(untraced_walls)
        elif metric == "trace.overhead_share":
            value = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        elif metric == "trace.accounted_share":
            value = (sum(v for k, v in self_by.items() if k in MODULES) + self_by["bench.check"]) \
                / sum(pass_walls)
        else:
            value = self_by[layer] / passes
        out[metric] = (value, unit)
    return out
