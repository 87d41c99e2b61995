"""Perf-regression benchmark harness behind ``repro bench``.

A benchmark run executes a subset of the experiment registry through
the engine's process executor (one worker, cache disabled, fresh
:class:`~repro.obs.Trace` per repeat), so every repeat is a cold
execution in its own forked child: no repeat inherits another's warm
caches (the multilevel preconditioner's setup cache, for one) or its
RSS high-water mark.  It takes the **median of N repeats** per
experiment and serialises the result as a schema-versioned snapshot::

    BENCH_<UTC timestamp>.json

Each snapshot records, per benchmark, the repeat wall times (the
child's ``worker.run`` span, so fork and pipe costs stay out of the
figure) and their median, the peak RSS of the repeats' children, the
solver-iteration total pulled from the ``solver.iterations_per_solve``
histogram, and the span count -- plus a host fingerprint so a
comparison across machines is visibly a comparison across machines,
and the provenance of the measured code: its git revision, whether the
checkout had uncommitted changes, and the ``REPRO_*`` settings in
effect.

Comparison (:func:`compare_snapshots`) is **noise-aware**: a benchmark
only counts as a regression when the new median exceeds the baseline by
*both* a relative factor (:data:`REL_TOL`) *and* an absolute floor
(:data:`ABS_FLOOR_S`).  Median-of-3 plus the double threshold keeps
scheduler jitter on sub-100 ms benchmarks from paging anyone, while a
genuine 2x slowdown on anything measurable still trips the gate.

``slowdown_s`` adds a synthetic per-repeat pad to the *measured* wall
time (no actual sleeping).  It exists purely so the comparator can be
exercised end-to-end: inject a pad bigger than both thresholds and the
comparison must fail.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.engine import EngineConfig, run_experiments
from repro.engine.records import experiment_family
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    Trace,
    get_logger,
    logging_configured,
    round_metric,
    span,
    tracing,
    wall_now,
)

#: Schema tag written into (and required from) every snapshot.
BENCH_SCHEMA = "repro-bench/1"

#: Fast-but-representative subset for CI: one experiment per artifact
#: family, all sub-second, still crossing the device/power/delay/
#: sizing/solver model stack.
QUICK_IDS = ("E-T2", "E-F1", "E-F3", "E-C5", "E-V1")

#: Regression gate: the new median must exceed the baseline by BOTH the
#: relative factor and the absolute floor.  50% relative absorbs
#: scheduler jitter on fast benchmarks; the 50 ms floor keeps a 2 ms ->
#: 4 ms blip from counting as a "100% regression".
REL_TOL = 0.5
ABS_FLOOR_S = 0.05

DEFAULT_REPEATS = 3

#: Where ``repro bench`` reads/writes snapshots unless told otherwise.
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

#: Environment override for the synthetic slowdown pad (seconds) --
#: lets CI prove the comparator trips without patching any code.
SLOWDOWN_ENV = "REPRO_BENCH_SLOWDOWN_S"


def host_fingerprint() -> dict:
    """Enough machine identity to flag cross-host comparisons."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


#: Bound on each provenance ``git`` call: a slow or hung repository
#: must not hold up a benchmark run.
GIT_TIMEOUT_S = 5.0


def source_revision(directory: Path | str) -> dict:
    """Git revision and dirty flag of the checkout holding ``directory``.

    Both are ``None`` outside a checkout, without git, or when git does
    not answer within :data:`GIT_TIMEOUT_S`.
    """
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=directory,
                                  capture_output=True, text=True,
                                  timeout=GIT_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    if revision is None:
        return {"git_revision": None, "git_dirty": None}
    status = git("status", "--porcelain")
    return {"git_revision": revision.strip(),
            "git_dirty": None if status is None else bool(status.strip())}


def provenance() -> dict:
    """What code and ``REPRO_*`` settings a snapshot measured."""
    return {
        **source_revision(Path(__file__).resolve().parent),
        "env": {name: value for name, value in sorted(os.environ.items())
                if name.startswith("REPRO_")},
    }


def env_slowdown_s() -> float:
    """The synthetic pad requested via :data:`SLOWDOWN_ENV` (0 unset)."""
    raw = os.environ.get(SLOWDOWN_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError as exc:
        raise ReproError(
            f"{SLOWDOWN_ENV}={raw!r} is not a number") from exc
    if value < 0:
        raise ReproError(f"{SLOWDOWN_ENV} must be >= 0, got {value}")
    return value


def measure_telemetry_overhead(iterations: int = 1000) -> dict:
    """Measured per-span and per-log-record cost on this host.

    Recorded into every snapshot so the comparator can tell a code
    regression from a telemetry-configuration difference: a baseline
    captured with structured logging off is not an apples-to-apples
    baseline for a run with it on.  ``span_overhead_s`` times a
    no-child span under an active trace (the bench harness always
    traces its repeats); ``log_overhead_s`` times an info-level emit
    through the current logging configuration (the cheap no-op path
    when no sink is configured).
    """
    if iterations < 1:
        raise ReproError(
            f"iterations must be >= 1, got {iterations}")
    probe = Trace("bench-telemetry-probe")
    start = time.perf_counter()
    with tracing(probe):
        for _ in range(iterations):
            with span("bench.telemetry_probe"):
                pass
    span_overhead_s = (time.perf_counter() - start) / iterations
    logger = get_logger("bench.telemetry_probe")
    start = time.perf_counter()
    for _ in range(iterations):
        logger.info("bench.telemetry_probe")
    log_overhead_s = (time.perf_counter() - start) / iterations
    return {
        "tracing": True,
        "logging": logging_configured(),
        "span_overhead_s": round_metric(span_overhead_s),
        "log_overhead_s": round_metric(log_overhead_s),
    }


def _histogram_sum(metrics: MetricsRegistry, name: str) -> float:
    """Summed ``sum`` over every labelled series of one histogram."""
    total = 0.0
    for series_name, _labels, histogram in metrics.histograms():
        if series_name == name:
            total += histogram.sum
    return total


def run_benchmarks(experiment_ids: Sequence[str] | None = None, *,
                   repeats: int = DEFAULT_REPEATS,
                   slowdown_s: float = 0.0) -> dict:
    """Run the benchmarks and return a schema-versioned snapshot dict.

    Every repeat is a cold execution in a freshly forked engine worker
    under a fresh trace; a failing repeat raises
    :class:`~repro.errors.ReproError` immediately (a benchmark of a
    broken experiment measures nothing).
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    if slowdown_s < 0:
        raise ReproError(f"slowdown_s must be >= 0, got {slowdown_s}")
    ids = list(experiment_ids) if experiment_ids else None
    if ids is None:
        from repro.analysis.experiments import EXPERIMENTS
        ids = list(EXPERIMENTS)

    config = EngineConfig(jobs=1, cache_enabled=False)
    benchmarks = []
    for experiment_id in ids:
        wall_times: list[float] = []
        solver_iterations = 0.0
        span_count = 0
        peak_rss_kb = 0.0
        for _ in range(repeats):
            trace = Trace(f"bench-{experiment_id}")
            with tracing(trace):
                sweep = run_experiments([experiment_id], config=config)
            record = sweep.records[0]
            if not record.ok:
                raise ReproError(
                    f"benchmark {experiment_id} failed "
                    f"({record.status}): {record.error}")
            run_s = next(worker.duration_s for worker in trace.spans
                         if worker.name == "worker.run")
            wall_times.append(run_s + slowdown_s)
            solver_iterations += _histogram_sum(
                trace.metrics, "solver.iterations_per_solve")
            span_count += len(trace)
            peak_rss_kb = max(peak_rss_kb,
                              trace.metrics.gauge("resource.rss_peak_kb"))
        benchmarks.append({
            "id": experiment_id,
            "family": experiment_family(experiment_id),
            "wall_times_s": [round_metric(t) for t in wall_times],
            "median_s": round_metric(statistics.median(wall_times)),
            "best_s": round_metric(min(wall_times)),
            "peak_rss_kb": round_metric(peak_rss_kb),
            "solver_iterations": round_metric(solver_iterations),
            "spans": span_count,
        })

    return {
        "schema": BENCH_SCHEMA,
        "created_at": round_metric(wall_now()),
        "host": host_fingerprint(),
        "provenance": provenance(),
        "config": {"repeats": repeats,
                   "slowdown_s": round_metric(slowdown_s)},
        "telemetry": measure_telemetry_overhead(),
        "benchmarks": benchmarks,
    }


def validate_snapshot(payload: Any) -> list[str]:
    """Problems with a benchmark snapshot (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"snapshot is {type(payload).__name__}, expected object"]
    if payload.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema is {payload.get('schema')!r}, "
                      f"expected {BENCH_SCHEMA!r}")
    if not isinstance(payload.get("created_at"), (int, float)):
        errors.append("created_at is not a number")
    host = payload.get("host")
    if not isinstance(host, dict) or not host.get("platform"):
        errors.append("host fingerprint missing or lacks a platform")
    config = payload.get("config")
    if not isinstance(config, dict) \
            or not isinstance(config.get("repeats"), int) \
            or config["repeats"] < 1:
        errors.append("config.repeats missing or < 1")
    telemetry = payload.get("telemetry")
    if telemetry is not None:  # optional: pre-telemetry snapshots
        if not isinstance(telemetry, dict):
            errors.append("telemetry is not an object")
        else:
            for key in ("tracing", "logging"):
                if not isinstance(telemetry.get(key), bool):
                    errors.append(f"telemetry.{key} is not a boolean")
            for key in ("span_overhead_s", "log_overhead_s"):
                value = telemetry.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"telemetry.{key} missing or "
                                  f"negative")
    source = payload.get("provenance")
    if source is not None:  # optional: pre-provenance snapshots
        if not isinstance(source, dict):
            errors.append("provenance is not an object")
        else:
            if not isinstance(source.get("git_revision"), (str, type(None))):
                errors.append("provenance.git_revision is not a string "
                              "or null")
            if not isinstance(source.get("git_dirty"), (bool, type(None))):
                errors.append("provenance.git_dirty is not a boolean "
                              "or null")
            env = source.get("env")
            if not isinstance(env, dict) or any(
                    not isinstance(value, str) for value in env.values()):
                errors.append("provenance.env is not an object of "
                              "strings")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append("benchmarks missing or empty")
        return errors
    seen: set[str] = set()
    for index, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            errors.append(f"benchmark {index} is not an object")
            continue
        bench_id = entry.get("id")
        label = bench_id if isinstance(bench_id, str) else f"#{index}"
        if not isinstance(bench_id, str) or not bench_id:
            errors.append(f"benchmark {label}: missing id")
        elif bench_id in seen:
            errors.append(f"benchmark {label}: duplicate id")
        else:
            seen.add(bench_id)
        times = entry.get("wall_times_s")
        if not isinstance(times, list) or not times or any(
                not isinstance(t, (int, float)) or t < 0 for t in times):
            errors.append(f"benchmark {label}: wall_times_s must be "
                          f"a non-empty list of non-negative numbers")
        median = entry.get("median_s")
        if not isinstance(median, (int, float)) or median < 0:
            errors.append(f"benchmark {label}: bad median_s "
                          f"{median!r}")
        for key in ("peak_rss_kb", "solver_iterations"):
            if not isinstance(entry.get(key), (int, float)):
                errors.append(f"benchmark {label}: missing {key}")
    return errors


def snapshot_filename(snapshot: Mapping[str, Any]) -> str:
    """``BENCH_<UTC timestamp>.json`` for one snapshot."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ",
                          time.gmtime(float(snapshot["created_at"])))
    return f"BENCH_{stamp}.json"


def write_snapshot(snapshot: Mapping[str, Any],
                   out_dir: Path | str) -> Path:
    """Validate and write a snapshot; returns the file path.

    Same-second snapshots get a ``-1``, ``-2`` ... suffix rather than
    silently overwriting the earlier file.
    """
    errors = validate_snapshot(snapshot)
    if errors:
        raise ReproError("refusing to write invalid snapshot: "
                         + "; ".join(errors))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = snapshot_filename(snapshot)
    path = out_dir / base
    suffix = 0
    while path.exists():
        suffix += 1
        path = out_dir / base.replace(".json", f"-{suffix}.json")
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True),
                    "utf-8")
    return path


def list_snapshots(directory: Path | str) -> list[Path]:
    """``BENCH_*.json`` files in a directory, oldest first.

    The timestamped filenames sort chronologically, so lexicographic
    order is creation order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("BENCH_*.json"))


def latest_baseline(directory: Path | str) -> Path | None:
    """The newest committed snapshot in a baseline directory, if any."""
    snapshots = list_snapshots(directory)
    return snapshots[-1] if snapshots else None


def load_snapshot(path: Path | str) -> dict:
    """Load and validate a snapshot file; raises on problems."""
    payload = json.loads(Path(path).read_text("utf-8"))
    errors = validate_snapshot(payload)
    if errors:
        raise ReproError(f"{path}: invalid benchmark snapshot: "
                         + "; ".join(errors))
    return payload


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of comparing a snapshot against a baseline."""

    rel_tol: float
    abs_floor_s: float
    rows: list[dict] = field(default_factory=list)
    cross_host: bool = False
    #: The two snapshots ran with different telemetry switches
    #: (tracing/logging on vs off) -- deltas may measure the
    #: instrumentation, not the code.  Only set when both sides
    #: recorded a telemetry block.
    telemetry_mismatch: bool = False

    @property
    def regressions(self) -> list[dict]:
        return [row for row in self.rows
                if row["status"] == "regression"]

    @property
    def exit_code(self) -> int:
        """0 when no benchmark regressed, 1 otherwise."""
        return 1 if self.regressions else 0

    def render(self) -> str:
        """Per-benchmark delta table plus the verdict line."""
        from repro.analysis.report import render_table

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:.4f}"

        table_rows = []
        for row in self.rows:
            ratio = row["ratio"]
            table_rows.append([
                row["id"], fmt(row["old_s"]), fmt(row["new_s"]),
                fmt(row["delta_s"]),
                "-" if ratio is None else f"{ratio:+.1%}",
                row["status"],
            ])
        lines = [render_table(
            ["id", "old [s]", "new [s]", "delta [s]", "ratio", "status"],
            table_rows)]
        if self.cross_host:
            lines.append("warning: baseline was recorded on a "
                         "different host; deltas may reflect the "
                         "machine, not the code")
        if self.telemetry_mismatch:
            lines.append("warning: baseline was recorded with "
                         "different telemetry switches (tracing/"
                         "logging); deltas may reflect the "
                         "instrumentation, not the code")
        regressed = self.regressions
        if regressed:
            lines.append(
                f"REGRESSION: {len(regressed)} benchmark(s) slower "
                f"than baseline by >{self.rel_tol:.0%} and "
                f">{self.abs_floor_s:g}s: "
                + ", ".join(row["id"] for row in regressed))
        else:
            lines.append(f"no regressions ({len(self.rows)} "
                         f"benchmark(s) within rel {self.rel_tol:.0%} "
                         f"/ abs {self.abs_floor_s:g}s)")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_floor_s": self.abs_floor_s,
            "cross_host": self.cross_host,
            "telemetry_mismatch": self.telemetry_mismatch,
            "rows": self.rows,
            "regressions": [row["id"] for row in self.regressions],
        }


def compare_snapshots(baseline: Mapping[str, Any],
                      current: Mapping[str, Any], *,
                      rel_tol: float = REL_TOL,
                      abs_floor_s: float = ABS_FLOOR_S
                      ) -> BenchComparison:
    """Noise-aware comparison of ``current`` against ``baseline``.

    A benchmark regresses only when its new median exceeds the old by
    *both* gates: ``new > old * (1 + rel_tol)`` **and**
    ``new > old + abs_floor_s``.  Benchmarks present on only one side
    are reported (``new`` / ``removed``) but never gate.
    """
    old_medians = {entry["id"]: float(entry["median_s"])
                   for entry in baseline["benchmarks"]}
    rows: list[dict] = []
    for entry in current["benchmarks"]:
        bench_id = entry["id"]
        new_s = float(entry["median_s"])
        old_s = old_medians.pop(bench_id, None)
        if old_s is None:
            rows.append({"id": bench_id, "old_s": None, "new_s": new_s,
                         "delta_s": None, "ratio": None,
                         "status": "new"})
            continue
        delta = new_s - old_s
        ratio = (delta / old_s) if old_s > 0 else None
        if new_s > old_s * (1.0 + rel_tol) \
                and new_s > old_s + abs_floor_s:
            status = "regression"
        elif old_s > new_s * (1.0 + rel_tol) \
                and old_s > new_s + abs_floor_s:
            status = "improved"
        else:
            status = "ok"
        rows.append({"id": bench_id,
                     "old_s": round_metric(old_s),
                     "new_s": round_metric(new_s),
                     "delta_s": round_metric(delta),
                     "ratio": None if ratio is None
                     else round_metric(ratio),
                     "status": status})
    for bench_id, old_s in sorted(old_medians.items()):
        rows.append({"id": bench_id, "old_s": round_metric(old_s),
                     "new_s": None, "delta_s": None, "ratio": None,
                     "status": "removed"})
    cross_host = (baseline.get("host", {}).get("platform")
                  != current.get("host", {}).get("platform"))
    old_telemetry = baseline.get("telemetry")
    new_telemetry = current.get("telemetry")
    telemetry_mismatch = (
        isinstance(old_telemetry, dict)
        and isinstance(new_telemetry, dict)
        and any(old_telemetry.get(key) != new_telemetry.get(key)
                for key in ("tracing", "logging")))
    return BenchComparison(rel_tol=rel_tol, abs_floor_s=abs_floor_s,
                           rows=rows, cross_host=cross_host,
                           telemetry_mismatch=telemetry_mismatch)


__all__ = [
    "ABS_FLOOR_S",
    "BENCH_SCHEMA",
    "BenchComparison",
    "DEFAULT_BASELINE_DIR",
    "DEFAULT_REPEATS",
    "QUICK_IDS",
    "REL_TOL",
    "SLOWDOWN_ENV",
    "compare_snapshots",
    "env_slowdown_s",
    "host_fingerprint",
    "latest_baseline",
    "list_snapshots",
    "load_snapshot",
    "measure_telemetry_overhead",
    "provenance",
    "run_benchmarks",
    "snapshot_filename",
    "source_revision",
    "validate_snapshot",
    "write_snapshot",
]
