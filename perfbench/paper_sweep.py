"""paper-sweep: the registry sweep a user runs with ``repro run-all``.

One caller runs cold and warm sweeps back to back (a closed loop).  A
cold sweep computes the 25 registry experiments other than the
million-unknown solver tiers (E-S3, E-S4) into a fresh result store; the
warm sweeps that follow only fingerprint, look up and read them.  The
registry takes no inputs, so the seed only permutes submission order,
drawn anew for every iteration.
"""

from __future__ import annotations

import pickle
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from common import (BENCH_DIR, Phase, interval_union, mean, median, metric,
                    nproc, peak_rss_mb, same)

#: Left out: E-S3 alone takes ~6 s and ~0.5 GB, E-S4 ~3 s, and the
#: grid-signoff workload already covers their solver path.
SKIPPED = ("E-S3", "E-S4")

#: Warm sweeps per cold sweep.  A warm sweep is ~8x cheaper and about
#: as noisy, so it gets more samples per run.
WARM_SWEEPS = 3

#: Engine spans (emitted by the program) that count as attributed time
#: next to the ``pb.*`` layer spans.
ENGINE_SPANS = ("engine.lookup", "engine.store")


def experiment_ids() -> list[str]:
    from repro.analysis.experiments import EXPERIMENTS

    return [key for key in EXPERIMENTS if key not in SKIPPED]


def write_reference(path: Path) -> None:
    """Run every experiment inline, once, and pickle the results.

    Runs in its own process: executing the runners in the measuring
    process would warm module-level caches that forked workers inherit.
    """
    from repro.engine import run_experiments

    sweep = run_experiments(experiment_ids(), executor="inline",
                            cache_enabled=False, handle_signals=False)
    if not sweep.all_ok:
        failed = [r.experiment_id for r in sweep.records
                  if r.status != "ok"]
        raise SystemExit(f"reference sweep failed: {failed}")
    path.write_bytes(pickle.dumps(sweep.results))


def check_sweep(sweep: Any, reference: dict[str, Any],
                warm: bool) -> list[str]:
    """Problems with one sweep: failed, mis-cached or wrong results."""
    label = "warm" if warm else "cold"
    problems = []
    for record in sweep.records:
        key = record.experiment_id
        if record.status != "ok":
            problems.append(f"{label} {key}: {record.status} "
                            f"({record.error})")
        elif record.cache_hit != warm:
            problems.append(f"{label} {key}: cache_hit={record.cache_hit}")
    for key, expected in reference.items():
        if key not in sweep.results:
            problems.append(f"{label} {key}: no result")
        elif not same(sweep.results[key], expected):
            problems.append(f"{label} {key}: result differs from the "
                            "inline reference")
    return problems


class PaperSweep:
    name = "paper-sweep"

    def __init__(self, work_dir: Path, seed: int) -> None:
        from repro.analysis.experiments import EXPERIMENTS
        from repro.engine import run_experiments, runner_fingerprint

        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.jobs = min(2, nproc())
        self.ids = experiment_ids()
        self.iteration = 0
        self.reference: dict[str, Any] = {}
        # Warm-up: the fork/pipe path, and one source scan of every
        # runner, so the process's one-time scan shows in set-up rather
        # than in the first cold sweep.  No runner executes here.
        warm_up = run_experiments(["E-T1"], jobs=self.jobs,
                                  cache_dir=work_dir / "warm-up")
        if not warm_up.all_ok:
            raise SystemExit("paper-sweep warm-up failed")
        shutil.rmtree(work_dir / "warm-up")
        for key in self.ids:
            runner_fingerprint(key, EXPERIMENTS[key].runner)

    def prepare(self) -> None:
        path = self.work_dir / "reference.pkl"
        subprocess.run([sys.executable, str(BENCH_DIR / "child.py"),
                        "--reference-out", str(path)],
                       check=True, timeout=120)
        self.reference = pickle.loads(path.read_bytes())

    def close(self) -> None:
        pass

    def _sweep(self, order: list[str], store: Path, traced: bool):
        from repro.engine import run_experiments
        from repro.obs import Trace, tracing

        trace = Trace("perfbench") if traced else None
        with tracing(trace) if trace is not None else nullcontext():
            start = time.monotonic()
            sweep = run_experiments(order, jobs=self.jobs,
                                    cache_dir=store)
            end = time.monotonic()
        return sweep, start, end, trace

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        deadline = time.monotonic() + seconds
        cold_s: list[float] = []
        warm_s: list[float] = []
        tasks = 0
        layer = _LayerTally()
        while not cold_s or time.monotonic() < deadline:
            order = self.rng.sample(self.ids, len(self.ids))
            store = self.work_dir / f"store-{self.iteration}"
            self.iteration += 1
            for warm in (False,) + (True,) * WARM_SWEEPS:
                sweep, start, end, trace = self._sweep(order, store, traced)
                (warm_s if warm else cold_s).append(end - start)
                tasks += len(sweep.records)
                phase.attempted += len(sweep.records)
                phase.failed += sum(1 for r in sweep.records
                                    if r.status != "ok")
                phase.problems += check_sweep(sweep, self.reference, warm)
                if trace is not None:
                    layer.add(sweep, trace, start, end, warm)
            shutil.rmtree(store)
        wall = sum(cold_s) + sum(warm_s)
        phase.e2e = {
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "cold_ms": metric(1000 * median(cold_s), "ms"),
            "warm_ms": metric(1000 * median(warm_s), "ms"),
            "throughput_per_s": metric(tasks / wall, "1/s"),
        }
        phase.report = {
            "sweep_cold_s": metric(median(cold_s), "s"),
            "sweep_warm_s": metric(median(warm_s), "s"),
            "cold_sweeps": metric(len(cold_s), "count"),
            "error_rate": metric(phase.failed / phase.attempted,
                                 "fraction"),
        }
        if traced:
            phase.layers = layer.metrics()
        return phase


class _LayerTally:
    """Accumulates the traced sweeps into the per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.records: list[Any] = []
        self.cold_records: list[Any] = []
        self.dispatch_s: list[float] = []
        self.result_bytes: list[int] = []
        self.compute_s: list[float] = []
        self.critical_s: list[float] = []
        self.wall_s = 0.0
        self.covered_s = 0.0
        self.sweeps = 0
        self.cold_sweeps = 0

    def add(self, sweep: Any, trace: Any, start: float, end: float,
            warm: bool) -> None:
        spans = trace.spans
        self.spans += spans
        for name, value in trace.counters.as_dict().items():
            self.counters[name] += value
        self.records += sweep.records
        self.sweeps += 1
        self.wall_s += end - start
        self.covered_s += interval_union(_attributed(spans), start, end)
        if warm:
            return
        self.cold_sweeps += 1
        self.cold_records += sweep.records
        runner = {s.attributes.get("experiment"): s.duration_s
                  for s in spans if s.name == "pb.analysis.runner"}
        self.compute_s.append(sum(runner.values()))
        self.critical_s.append(max(runner.values(), default=0.0))
        for record in sweep.records:
            if record.experiment_id in runner and "run" in record.phases:
                self.dispatch_s.append(record.phases["run"]
                                       - runner[record.experiment_id])
        self.result_bytes += [len(pickle.dumps(result))
                              for result in sweep.results.values()]

    def metrics(self) -> dict[str, float]:
        from layers import span_metrics

        def phase_ms(records: list[Any], name: str) -> float:
            return 1000 * mean(r.phases.get(name, 0.0) for r in records)

        values = span_metrics(self.spans, self.counters,
                              cold_sweeps=self.cold_sweeps,
                              sweeps=self.sweeps)
        values.update({
            "engine.tasks": len(self.records) / self.sweeps,
            "engine.cache_hit_ratio": (sum(r.cache_hit for r in self.records)
                                       / len(self.records)),
            "engine.lookup_ms": phase_ms(self.records, "lookup"),
            "engine.store_ms": phase_ms(self.cold_records, "store"),
            "engine.queue_wait_ms": phase_ms(self.cold_records, "queue"),
            "engine.dispatch_ms": 1000 * mean(self.dispatch_s),
            "engine.result_bytes": mean(self.result_bytes),
            "analysis.compute_s": mean(self.compute_s),
            "analysis.critical_path_s": mean(self.critical_s),
            "trace.unattributed_share": 1 - self.covered_s / self.wall_s,
        })
        return values


def _attributed(spans: Any) -> list[tuple[float, float]]:
    """Intervals in which a layer or an engine phase was at work.

    ``engine.run`` spans of one chunked worker launch all start at the
    launch, so a chunk counts from its launch for the sum of its tasks'
    run times.
    """
    intervals = [(s.start_s, s.end_s) for s in spans
                 if s.name.startswith("pb.") or s.name in ENGINE_SPANS]
    launches: dict[tuple[Any, float], float] = defaultdict(float)
    for s in spans:
        if s.name == "engine.run":
            key = (s.attributes.get("worker_pid"), s.start_s)
            launches[key] += s.duration_s
    intervals += [(start, start + run) for (_, start), run
                  in launches.items()]
    return intervals
