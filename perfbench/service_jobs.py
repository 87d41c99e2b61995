"""service-jobs: ``jobs submit`` to a result in hand, on a live daemon.

One ``repro serve`` daemon (process executor, default dispatchers, a
fresh state directory) serves two closed-loop client threads.  Each
thread submits one cheap registry experiment, then waits for it with
the client's default poll.  Jobs alternate between the hit path
(``use_cache=True`` against a store warmed before measuring) and the
compute path (``use_cache=False``: fork plus compute).  Compute is at
most a few milliseconds, so HTTP, the write-ahead log, admission,
dispatch and the poll floor make up the latency.
"""

from __future__ import annotations

import json
import pickle
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import Phase, mean, median, metric, percentile, same

#: Experiments with about 2 ms of compute or less.
EXPERIMENT_IDS = ("E-T1", "E-T2", "E-F1", "E-F2", "E-F3", "E-F4", "E-F5",
                  "E-C2", "E-C6", "E-V1", "E-X1", "E-X3", "E-X4", "E-ET4")
CLIENTS = 2
#: Daemon start-ups per run; set-up time is their median.
SETUP_SAMPLES = 5
#: Admission bounds far above the two jobs ever in flight.
QUEUE_DEPTH = 64
#: The four latency parts (submit, queue wait, run, notify lag) must sum
#: to the client-observed latency within this share of it.  They overlap
#: by the time between the daemon stamping ``submitted_at`` and the
#: submit response reaching the client (a few ms of a ~110 ms job).
DECOMPOSITION_TOLERANCE = 0.10
START_TIMEOUT_S = 60.0


@dataclass
class JobSample:
    experiment: str
    use_cache: bool
    latency_s: float
    submit_s: float
    queue_s: float
    run_s: float
    notify_s: float
    records: list[dict] = field(default_factory=list)


def check_job(experiment: str, use_cache: bool, final: dict,
              result: dict, reference: Any) -> list[str]:
    """A job must end ``done`` with the inline reference as its result.

    A hit-path job must also be served from the warmed store.
    """
    if final.get("state") != "done":
        return [f"{experiment}: job ended {final.get('state')} "
                f"({final.get('error')})"]
    problems = []
    if use_cache and not all(r.get("cache_hit")
                             for r in final.get("records", ())):
        problems.append(f"{experiment}: hit-path job was recomputed")
    got = (result.get("results") or {}).get(experiment)
    if not same(got, reference):
        problems.append(f"{experiment}: job result differs from the "
                        "inline reference")
    return problems


class Daemon:
    """One ``python -m repro serve`` process with its own state dir."""

    def __init__(self, state_dir: Path) -> None:
        from repro.service import ServiceClient

        state_dir.mkdir(parents=True, exist_ok=True)
        log_path = state_dir / "serve.log"
        self.client: ServiceClient | None = None
        started = time.monotonic()
        with log_path.open("w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(state_dir / "store"),
                 "--queue-depth", str(QUEUE_DEPTH),
                 "--tenant-depth", str(QUEUE_DEPTH)],
                stdout=log, stderr=subprocess.STDOUT, cwd=state_dir)
        try:
            self.url = self._wait_for_url(log_path, started)
            self.client = ServiceClient(self.url)
            self._wait_for_health(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _wait_for_url(self, log_path: Path, started: float) -> str:
        while time.monotonic() - started < START_TIMEOUT_S:
            for token in log_path.read_text(encoding="utf-8").split():
                if token.startswith("http://"):
                    return token
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise SystemExit("daemon did not announce its URL:\n"
                         + log_path.read_text(encoding="utf-8"))

    def _wait_for_health(self, started: float) -> None:
        from repro.service import ServiceError

        while time.monotonic() - started < START_TIMEOUT_S:
            try:
                if self.client.health().get("ok"):
                    return
            except ServiceError:
                pass
            time.sleep(0.005)
        raise SystemExit("daemon never answered /healthz")

    def peak_rss_mb(self) -> float:
        samples = self.client.history().get("samples", [])
        return max(s["rss_peak_kb"] for s in samples) / 1024.0

    def stop(self) -> None:
        from repro.service import ServiceError

        if self.process.poll() is None:
            try:
                if self.client is None:
                    raise ServiceError("no client yet")
                self.client.shutdown()
            except ServiceError:
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


class ServiceJobs:
    name = "service-jobs"

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed
        self.setup_samples: list[float] = []
        for sample in range(SETUP_SAMPLES - 1):
            probe = Daemon(work_dir / f"probe-{sample}")
            self.setup_samples.append(probe.setup_s)
            probe.stop()
        self.daemon = Daemon(work_dir / "daemon")
        self.setup_samples.append(self.daemon.setup_s)
        self.reference: dict[str, Any] = {}
        self.compute_s: dict[str, float] = {}
        self.result_bytes = 0.0
        self.phases = 0

    def prepare(self) -> None:
        """Inline reference results, then warm the daemon's store."""
        from repro.analysis.experiments import EXPERIMENTS
        from repro.service import json_safe

        sizes = []
        for key in EXPERIMENT_IDS:
            start = time.monotonic()
            value = EXPERIMENTS[key].runner()
            self.compute_s[key] = time.monotonic() - start
            self.reference[key] = json.loads(json.dumps(json_safe(value)))
            sizes.append(len(pickle.dumps(value)))
        self.result_bytes = mean(sizes)
        client = self.daemon.client
        job = client.submit(list(EXPERIMENT_IDS), tenant="warm-up")
        final = client.wait(job["id"])
        if final["state"] != "done":
            raise SystemExit(f"store warm-up job ended {final['state']}")

    def close(self) -> None:
        self.daemon.stop()

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        from repro.obs import Trace, tracing

        phase = Phase()
        trace = Trace("perfbench") if traced else None
        samples: list[JobSample] = []
        lock = threading.Lock()
        deadline = time.monotonic() + seconds
        self.phases += 1
        start = time.monotonic()
        with tracing(trace) if trace is not None else nullcontext():
            threads = [threading.Thread(
                target=self._client_loop,
                args=(index, deadline, phase, samples, lock))
                for index in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        end = time.monotonic()

        hits = [s for s in samples if s.use_cache]
        misses = [s for s in samples if not s.use_cache]
        latencies = [s.latency_s for s in samples]
        p95 = percentile(latencies, 0.95) if latencies else 0.0
        phase.e2e = {
            "peak_rss_mb": metric(self.daemon.peak_rss_mb(), "MB"),
            "cold_ms": metric(1000 * median(s.latency_s for s in misses),
                              "ms"),
            "warm_ms": metric(1000 * median(s.latency_s for s in hits),
                              "ms"),
            "throughput_per_s": metric(len(samples) / (end - start), "1/s"),
        }
        phase.report = {
            "jobs_per_s": phase.e2e["throughput_per_s"],
            "job_p50_ms": metric(1000 * median(latencies), "ms"),
            "job_p95_ms": metric(1000 * p95, "ms"),
            "jobs": metric(len(samples), "count"),
            "jobs_beyond_p95": metric(sum(1 for v in latencies if v > p95),
                                      "count"),
            "error_rate": metric(phase.failed / max(1, phase.attempted),
                                 "fraction"),
        }
        if trace is not None:
            phase.layers = self._layers(trace, samples, phase)
        return phase

    def _client_loop(self, index: int, deadline: float, phase: Phase,
                     samples: list[JobSample], lock: threading.Lock) -> None:
        from repro.obs.clock import wall_now
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(self.daemon.url)
        rng = random.Random(f"{self.seed}:{self.phases}:{index}")
        count = 0
        while time.monotonic() < deadline:
            experiment = rng.choice(EXPERIMENT_IDS)
            use_cache = (count + index) % 2 == 0
            count += 1
            problems: list[str] = []
            try:
                submitted = wall_now()
                job = client.submit([experiment], use_cache=use_cache,
                                    tenant=f"client-{index}")
                accepted = wall_now()
                final = client.wait(job["id"])
                done = wall_now()
                problems = check_job(experiment, use_cache, final,
                                     client.result(job["id"]),
                                     self.reference[experiment])
            except ServiceError as exc:
                problems = [f"{experiment}: {type(exc).__name__}: {exc}"]
            except Exception as exc:  # a failed job, not a dead client
                problems = [f"{experiment}: {exc!r}"]
            with lock:
                phase.attempted += 1
                if problems:
                    phase.failed += 1
                    phase.problems += problems
                    continue
                samples.append(JobSample(
                    experiment, use_cache, done - submitted,
                    accepted - submitted,
                    final["started_at"] - final["submitted_at"],
                    final["finished_at"] - final["started_at"],
                    done - final["finished_at"], final.get("records", [])))

    def _layers(self, trace: Any, samples: list[JobSample],
                phase: Phase) -> dict[str, float]:
        from layers import span_metrics

        counters = trace.counters.as_dict()
        values = span_metrics(trace.spans, counters)
        if not samples:
            return values
        records = [r for s in samples for r in s.records]
        computed = [(r, s.experiment) for s in samples for r in s.records
                    if not r.get("cache_hit")]

        def phase_ms(rows: list[dict], name: str) -> float:
            return 1000 * mean(r.get("phases", {}).get(name, 0.0)
                               for r in rows)

        latency = sum(s.latency_s for s in samples)
        parts = sum(s.submit_s + s.queue_s + s.run_s + s.notify_s
                    for s in samples)
        residual = (latency - parts) / latency
        if abs(residual) > DECOMPOSITION_TOLERANCE:
            phase.problems.append(
                f"latency parts miss the observed latency by "
                f"{100 * residual:.1f}% (tolerance "
                f"{100 * DECOMPOSITION_TOLERANCE:.0f}%)")
        values.update({
            "engine.tasks": len(records) / len(samples),
            "engine.cache_hit_ratio": mean(bool(r.get("cache_hit"))
                                           for r in records),
            "engine.lookup_ms": phase_ms(records, "lookup"),
            "engine.store_ms": phase_ms(records, "store"),
            "engine.queue_wait_ms": phase_ms(records, "queue"),
            # The daemon's runner time is not visible from outside; the
            # inline compute time measured before the run stands in.
            "engine.dispatch_ms": 1000 * mean(
                r.get("phases", {}).get("run", 0.0) - self.compute_s[key]
                for r, key in computed),
            "engine.result_bytes": self.result_bytes,
            "service.polls_per_job": (counters.get("pb.service.polls", 0)
                                      / len(samples)),
            "service.queue_wait_ms": 1000 * mean(s.queue_s for s in samples),
            "service.run_ms": 1000 * mean(s.run_s for s in samples),
            "service.notify_lag_ms": 1000 * mean(s.notify_s
                                                 for s in samples),
            "trace.unattributed_share": residual,
        })
        return values

