"""Layer spans for the traced run, installed from outside the program.

Each wrapper opens a ``repro.obs`` span named ``pb.<layer>`` around one
entry point of a ``src/repro`` module.  A wrapper replaces the name
where calling modules look it up: every ``repro.*`` module attribute
bound to the original function, or the method on its class.  Spans
opened in forked engine workers travel back through the engine's own
trace shipping.

Self time is computed over ``pb.*`` spans only, so spans the program
adds later do not change what a layer is charged.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Iterable

from repro.obs import add_counter, span

PREFIX = "pb."

#: (module, function, span name) wrapped wherever a repro module binds it.
FUNCTIONS = (
    ("repro.engine.cache", "runner_fingerprint", "pb.engine.fingerprint"),
    ("repro.optim.cvs", "assign_cvs", "pb.optim"),
    ("repro.optim.dual_vth", "assign_dual_vth", "pb.optim"),
    ("repro.optim.sizing", "downsize_netlist", "pb.optim"),
    ("repro.optim.upsize", "fix_timing", "pb.optim"),
    ("repro.optim.combined", "combined_flow", "pb.optim"),
    ("repro.netlist.sta", "compute_sta", "pb.netlist.sta"),
    ("repro.netlist.generate", "random_netlist", "pb.netlist.generate"),
    ("repro.pdn.transim", "simulate", "pb.pdn.transim"),
    ("repro.thermal.dtm", "simulate_dtm", "pb.thermal.dtm"),
    ("repro.pdn.grid", "solve_power_grid_2d", "pb.pdn.grid"),
    ("repro.reliability.guard", "guarded_linear_solve",
     "pb.reliability.solve"),
)

#: (module, class, method, span name) wrapped on the class itself.
METHODS = (
    ("repro.cosim.loop", "ElectrothermalSimulator", "run", "pb.cosim"),
    ("repro.reliability.precond", "PreconditionerCache", "get_or_build",
     "pb.reliability.setup"),
    ("repro.service.client", "ServiceClient", "submit",
     "pb.service.submit"),
)

#: Counters bumped per call instead of a span (hot, tiny calls).
COUNTED = (
    ("repro.optim.incremental", "IncrementalTimer", "try_change",
     "pb.optim.probes"),
    ("repro.service.client", "ServiceClient", "job", "pb.service.polls"),
)

#: Engine worker bodies; their wrappers time each registry runner
#: inside the worker only, so the parent's source fingerprint of the
#: runner (and with it every cache key) stays unchanged.
WORKER_ENTRIES = ("_worker_entry", "_worker_chunk_entry")


#: Span name -> attributes read off the wrapped call's result.
DESCRIBE: dict[str, Callable[[Any], dict[str, Any]]] = {
    "pb.reliability.solve": lambda result: {
        "iterations": result.diagnostics.iterations,
        "fallback": result.diagnostics.fallback},
    "pb.pdn.grid": lambda result: {
        "n_nodes": result.n_nodes, "setup_reused": result.setup_reused},
    "pb.reliability.setup": lambda result: {"reused": bool(result[1])},
}


def _spanning(original: Callable, name: str) -> Callable:
    describe = DESCRIBE.get(name)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name, fn=original.__name__) as live:
            result = original(*args, **kwargs)
            if describe is not None:
                live.set(**describe(result))
            return result
    return wrapper


def _counting(original: Callable, counter: str) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        add_counter(counter)
        return original(*args, **kwargs)
    return wrapper


def _refusal_counting(original: Callable) -> Callable:
    from repro.service.client import BackpressureError

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return original(*args, **kwargs)
        except BackpressureError:
            add_counter("pb.service.refused")
            raise
    return wrapper


def _runner_spans(entry: Callable) -> Callable:
    @functools.wraps(entry)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        from repro.analysis.experiments import EXPERIMENTS

        for key, experiment in list(EXPERIMENTS.items()):
            EXPERIMENTS[key] = dataclasses.replace(
                experiment, runner=_runner(key, experiment.runner))
        return entry(*args, **kwargs)
    return wrapper


def _runner(experiment_id: str, runner: Callable) -> Callable:
    def timed() -> Any:
        with span("pb.analysis.runner", experiment=experiment_id):
            return runner()
    return timed


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Installs the layer wrappers and takes every one of them out again."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, Any] = {}

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self) -> "Instrumentation":
        if self.installed:
            raise RuntimeError("layer wrappers are already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise
        return self

    def _install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(original, _spanning(original, name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            method = cls.__dict__[attr]
            wrapped = _spanning(method, name)
            if attr == "submit":
                wrapped = _refusal_counting(wrapped)
            self._set(cls, attr, wrapped, method)
        for module_name, cls_name, attr, counter in COUNTED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            method = cls.__dict__[attr]
            self._set(cls, attr, _counting(method, counter), method)
        scheduler = importlib.import_module("repro.engine.scheduler")
        for attr in WORKER_ENTRIES:
            entry = getattr(scheduler, attr)
            self._set(scheduler, attr, _runner_spans(entry), entry)

    def remove(self) -> None:
        """Restore every original, including copies bound after install."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._undo.clear()
        self._originals.clear()

    def leftovers(self, wrappers: Iterable[Any]) -> list[str]:
        """Names still bound to any of ``wrappers`` (empty after remove)."""
        ids = {id(wrapper) for wrapper in wrappers}
        found = []
        for module in _repro_modules():
            for attr, value in vars(module).items():
                if id(value) in ids:
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    found += [f"{module.__name__}.{attr}.{name}"
                              for name, member in vars(value).items()
                              if id(member) in ids]
        return found

    def wrappers(self) -> list[Any]:
        return [getattr(owner, attr) for owner, attr, _ in self._undo]

    def _rebind(self, original: Any, wrapper: Any) -> None:
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, original)

    def _set(self, owner: Any, attr: str, wrapper: Any,
             original: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        self._originals[id(wrapper)] = original


def self_times(spans: Iterable[Any]) -> list[tuple[Any, float]]:
    """``(span, self seconds)`` for every ``pb.*`` span.

    A span's children are the ``pb.*`` spans nested inside it on the
    same process and thread; its self time is its duration minus theirs.
    """
    lanes: dict[tuple[int, int], list[Any]] = defaultdict(list)
    for record in spans:
        if record.name.startswith(PREFIX):
            lanes[(record.pid, record.tid)].append(record)
    out: list[tuple[Any, float]] = []
    for lane in lanes.values():
        lane.sort(key=lambda s: (s.start_s, -s.duration_s))
        child_s: dict[int, float] = defaultdict(float)
        stack: list[Any] = []
        for record in lane:
            while stack and stack[-1].end_s <= record.start_s:
                stack.pop()
            if stack:
                child_s[id(stack[-1])] += record.duration_s
            stack.append(record)
        out += [(record, record.duration_s - child_s[id(record)])
                for record in lane]
    return out


def busy_by_layer(spans: Iterable[Any]) -> dict[str, tuple[float, int]]:
    """Layer span name -> (total self seconds, span count)."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for record, self_s in self_times(spans):
        totals[record.name][0] += self_s
        totals[record.name][1] += 1
    return {name: (value[0], int(value[1]))
            for name, value in totals.items()}


#: Every per-layer metric and its unit; a workload that bypasses a
#: layer reports 0 for it (no work was done there).
PER_LAYER = {
    "engine.tasks": "count",
    "engine.cache_hit_ratio": "fraction",
    "engine.lookup_ms": "ms",
    "engine.store_ms": "ms",
    "engine.queue_wait_ms": "ms",
    "engine.fingerprint_ms": "ms",
    "engine.fingerprint_calls": "count",
    "engine.dispatch_ms": "ms",
    "engine.result_bytes": "bytes",
    "analysis.compute_s": "s",
    "analysis.critical_path_s": "s",
    "optim.busy_s": "s",
    "optim.probes": "count",
    "optim.us_per_probe": "us",
    "netlist.sta_busy_s": "s",
    "netlist.sta_calls": "count",
    "netlist.generate_busy_s": "s",
    "cosim.busy_s": "s",
    "pdn.transim_busy_s": "s",
    "thermal.dtm_busy_s": "s",
    "pdn.assemble_ms": "ms",
    "pdn.unknowns": "count",
    "reliability.setup_ms": "ms",
    "reliability.setup_reuse_ratio": "fraction",
    "reliability.solve_ms": "ms",
    "reliability.cg_iterations": "count",
    "reliability.fallbacks": "count",
    "service.submit_ms": "ms",
    "service.polls_per_job": "count",
    "service.refused": "count",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.notify_lag_ms": "ms",
    "trace.unattributed_share": "fraction",
    "trace.overhead_cold": "fraction",
    "trace.overhead_warm": "fraction",
}


def span_metrics(spans: Iterable[Any], counters: dict[str, float],
                 cold_sweeps: int = 0, sweeps: int = 0) -> dict[str, float]:
    """Per-layer figures that come straight from ``pb.*`` spans.

    Busy times and call counts of the experiment layers are per cold
    sweep, fingerprint calls per sweep; solver figures are per call.
    Workloads without sweeps pass 0 and get 0 for the sweep figures.
    """
    spans = list(spans)
    busy = busy_by_layer(spans)
    per_cold = 1.0 / cold_sweeps if cold_sweeps else 0.0

    def self_s(name: str) -> float:
        return busy.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return busy.get(name, (0.0, 0))[1]

    def mean_ms(name: str) -> float:
        total, count = busy.get(name, (0.0, 0))
        return 1000.0 * total / count if count else 0.0

    def attrs(name: str, key: str) -> list[Any]:
        return [record.attributes.get(key) for record in spans
                if record.name == name]

    probes = counters.get("pb.optim.probes", 0)
    reused = attrs("pb.reliability.setup", "reused")
    iterations = attrs("pb.reliability.solve", "iterations")
    return {
        "engine.fingerprint_ms": mean_ms("pb.engine.fingerprint"),
        "engine.fingerprint_calls": (calls("pb.engine.fingerprint")
                                     / sweeps if sweeps else 0.0),
        "optim.busy_s": self_s("pb.optim") * per_cold,
        "optim.probes": probes * per_cold,
        "optim.us_per_probe": (1e6 * self_s("pb.optim") / probes
                               if probes else 0.0),
        "netlist.sta_busy_s": self_s("pb.netlist.sta") * per_cold,
        "netlist.sta_calls": calls("pb.netlist.sta") * per_cold,
        "netlist.generate_busy_s": (self_s("pb.netlist.generate")
                                    * per_cold),
        "cosim.busy_s": self_s("pb.cosim") * per_cold,
        "pdn.transim_busy_s": self_s("pb.pdn.transim") * per_cold,
        "thermal.dtm_busy_s": self_s("pb.thermal.dtm") * per_cold,
        "pdn.assemble_ms": mean_ms("pb.pdn.grid"),
        "pdn.unknowns": float(sum(attrs("pb.pdn.grid", "n_nodes"))),
        "reliability.setup_ms": mean_ms("pb.reliability.setup"),
        "reliability.setup_reuse_ratio": (sum(reused) / len(reused)
                                          if reused else 0.0),
        "reliability.solve_ms": mean_ms("pb.reliability.solve"),
        "reliability.cg_iterations": (sum(iterations) / len(iterations)
                                      if iterations else 0.0),
        "reliability.fallbacks": float(sum(
            1 for value in attrs("pb.reliability.solve", "fallback")
            if value is not None)),
        "service.submit_ms": mean_ms("pb.service.submit"),
        "service.refused": float(counters.get("pb.service.refused", 0)),
    }


def layer_payload(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric with its unit (0 where nothing ran)."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}
