"""The experiment service daemon: async HTTP/JSON job API.

``repro serve`` turns the one-shot sweep engine into a long-running
multi-tenant service.  Architecture, front to back:

* **HTTP front end** -- an asyncio-streams HTTP/1.1 server (stdlib
  only, no web framework).  Handlers parse a request, call into
  :class:`ExperimentService`, and encode a JSON response; the events
  route streams JSONL and can *follow* a running job.  A request that
  waits on a job (``?wait=S``, ``?follow=1``) parks on the loop and is
  woken by the job's change notification
  (:meth:`~repro.service.jobs.Job.watch`), which dispatcher threads
  hand over with ``loop.call_soon_threadsafe``: no polling.
* **Admission** -- submissions pass through the bounded multi-tenant
  :class:`~repro.service.queue.AdmissionQueue`; a full queue answers
  ``429`` with a ``Retry-After`` hint instead of buffering without
  bound.
* **Dispatch** -- worker threads pop jobs in priority order and run
  each through a fresh :class:`~repro.engine.scheduler.ExecutionEngine`
  against the **shared result store**, so a job resubmitted by any
  tenant is served from cache and two jobs racing on one key settle it
  via claim files, not duplicate computation.  Engines run with
  ``handle_signals=False``: the daemon owns signal policy.
* **Bounded memory** -- terminal jobs beyond ``wal_keep_terminal``
  are forgotten (the set WAL compaction keeps, so a restart changes
  nothing), and the service trace keeps its newest
  :data:`MAX_TRACE_SPANS` spans.
* **Shutdown** -- SIGINT/SIGTERM (or ``POST /v1/shutdown``) stops
  admission (503), cancels queued jobs, drains in-flight ones, prunes
  the store to its configured bounds, writes the service trace
  artifact, and reports whether the stop came from a signal so the CLI
  can exit with the distinct interrupted code.

Routes::

    GET  /healthz                   liveness + population counts
    POST /v1/jobs                   submit a sweep      -> 202 | 429
    GET  /v1/jobs[?tenant=]         list jobs
    GET  /v1/jobs/<id>[?wait=S]     one job, records included; with
                                    wait, answer once it is terminal
                                    or after S s (capped at
                                    MAX_WAIT_S)
    GET  /v1/jobs/<id>/events       JSONL event stream [?follow=1]
    GET  /v1/jobs/<id>/result       results payload of a done job
    POST /v1/jobs/<id>/cancel       cancel while queued -> 200 | 409
    GET  /v1/stats[?format=prom]    service metrics registry
    GET  /v1/store                  shared store stats
    POST /v1/store/prune            apply the configured store bounds
    POST /v1/shutdown               graceful remote stop
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.scheduler import EXECUTOR_INLINE, EXECUTOR_PROCESS
from repro.errors import ReproError
from repro.reliability.backoff import BackoffPolicy
from repro.obs import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    FORMAT_JSON,
    HistorySampler,
    SamplingProfiler,
    TimeSeriesBuffer,
    Trace,
    activate,
    add_counter,
    configure_logging,
    deactivate,
    get_logger,
    new_trace_id,
    observe,
    registry_summary,
    sample_resources,
    span,
    to_prometheus,
    trace_context,
    wall_now,
    write_trace,
)
from repro.obs.log import LEVELS
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    REASON_DEADLINE,
    REASON_RECOVERED,
    REASON_RECOVERY_EXHAUSTED,
    REASON_STALL,
    Job,
    JobEventLog,
    JobSpec,
    json_safe,
    next_job_id,
)
from repro.service.queue import AdmissionQueue, QueueConfig, QueueFullError
from repro.service.store import StoreManager
from repro.service.wal import WAL_FILENAME, JobWAL, WalEntry

#: Bytes of request body the server is willing to buffer.
MAX_BODY_BYTES = 1 << 20

#: Longest a ``GET /v1/jobs/<id>?wait=S`` request stays parked; larger
#: ``S`` is clamped to it.
MAX_WAIT_S = 30.0

#: Spans the service trace keeps (the newest); older ones are counted
#: as ``trace.spans_dropped``.
MAX_TRACE_SPANS = 2048

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral, announced on start
    cache_dir: Path = field(default_factory=lambda: Path(".repro_cache"))
    queue: QueueConfig = field(default_factory=QueueConfig)
    dispatchers: int = 1              # concurrent jobs (worker threads)
    executor: str = EXECUTOR_PROCESS  # engine executor for job sweeps
    trace_out: Path | None = None     # service trace artifact on stop
    #: Store bounds applied after every job and on demand; ``None``
    #: disables that bound.
    store_max_bytes: int | None = None
    store_max_entries: int | None = None
    store_max_age_s: float | None = None
    #: Watchdog: a running job whose engine reports no progress for
    #: this long is treated as stalled, aborted, and requeued.
    stall_timeout_s: float = 300.0
    #: How often the watchdog scans running jobs.
    watchdog_poll_s: float = 0.25
    #: Times an orphaned (crash) or stalled run may be requeued before
    #: the job fails with reason ``recovery_exhausted``.
    max_recovery_attempts: int = 3
    #: Jittered exponential backoff between recovery requeues.
    recovery_backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base_s=0.5, max_s=30.0))
    #: Terminal job stubs retained in the WAL across compactions.
    wal_keep_terminal: int = 256
    #: Structured-log sink; ``None`` defaults to
    #: ``<cache_dir>/service/service.log.jsonl``.
    log_path: Path | None = None
    #: Log level (``debug``/``info``/``warning``/``error``); ``None``
    #: defers to ``REPRO_LOG_LEVEL`` (else ``info``).
    log_level: str | None = None
    #: Metrics-history sampling cadence and window.
    history_interval_s: float = 1.0
    history_capacity: int = 600
    #: Sampling interval for per-job profilers (``submit --profile``).
    profile_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.dispatchers < 1:
            raise ValueError(
                f"dispatchers must be >= 1, got {self.dispatchers}")
        if self.executor not in (EXECUTOR_PROCESS, EXECUTOR_INLINE):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be > 0, got {self.stall_timeout_s}")
        if self.watchdog_poll_s <= 0:
            raise ValueError(
                f"watchdog_poll_s must be > 0, got {self.watchdog_poll_s}")
        if self.max_recovery_attempts < 0:
            raise ValueError(
                f"max_recovery_attempts must be >= 0, "
                f"got {self.max_recovery_attempts}")
        if self.log_level is not None and self.log_level not in LEVELS:
            raise ValueError(
                f"log_level must be one of {sorted(LEVELS)}, "
                f"got {self.log_level!r}")
        if self.history_interval_s <= 0:
            raise ValueError(
                f"history_interval_s must be > 0, "
                f"got {self.history_interval_s}")
        if self.history_capacity < 1:
            raise ValueError(
                f"history_capacity must be >= 1, "
                f"got {self.history_capacity}")
        if self.profile_interval_s <= 0:
            raise ValueError(
                f"profile_interval_s must be > 0, "
                f"got {self.profile_interval_s}")


@dataclass
class _RunningJob:
    """Watchdog bookkeeping for one in-flight job."""

    job: Job
    engine: ExecutionEngine
    started: float    # monotonic
    heartbeat: float  # monotonic, advanced by engine progress
    #: Set once by the watchdog (``stall`` / ``deadline``) so the
    #: dispatcher knows why its engine run came back dead.
    verdict: str | None = None

    def beat(self) -> None:
        self.heartbeat = time.monotonic()


class ExperimentService:
    """Daemon state: job table, queue, store, WAL, worker threads."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = AdmissionQueue(self.config.queue)
        self.store = StoreManager(self.config.cache_dir)
        self.trace = Trace("repro-service", max_spans=MAX_TRACE_SPANS)
        self.wal = JobWAL(Path(self.config.cache_dir) / "service"
                          / WAL_FILENAME)
        self.jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        #: idempotency key -> job id, rebuilt from the WAL on startup.
        self._idempotency: dict[str, str] = {}
        self._running: dict[str, _RunningJob] = {}
        self._running_lock = threading.Lock()
        self._work = threading.Event()
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []
        self.history = TimeSeriesBuffer(self.config.history_capacity)
        self._sampler: HistorySampler | None = None
        self._log = get_logger("service.daemon")
        #: Jobs re-admitted by the last startup recovery.
        self.recovered_jobs = 0
        #: Set when shutdown came from SIGINT/SIGTERM rather than the
        #: shutdown route; the CLI maps it to the interrupted exit code.
        self.signalled = False

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        log_path = (Path(self.config.log_path)
                    if self.config.log_path is not None
                    else Path(self.config.cache_dir) / "service"
                    / "service.log.jsonl")
        configure_logging(log_path, level=self.config.log_level)
        activate(self.trace)
        self._log.info("service.start",
                       dispatchers=self.config.dispatchers,
                       executor=self.config.executor,
                       log_path=str(log_path))
        self._recover()
        for index in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatch-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)
        watchdog = threading.Thread(target=self._watchdog_loop,
                                    name="repro-watchdog", daemon=True)
        watchdog.start()
        self._threads.append(watchdog)
        self._sampler = HistorySampler(
            self._history_sample, self.history,
            interval_s=self.config.history_interval_s)
        self._sampler.start()

    def stop(self, *, drain_timeout_s: float = 60.0) -> None:
        """Drain and shut down; idempotent."""
        if self._draining.is_set():
            return
        self._draining.set()
        self._log.info("service.stop", signalled=self.signalled)
        self._work.set()  # wake dispatchers so they observe the drain
        for job in self.queue.pending():
            self.queue.cancel(job.id)
        for thread in self._threads:
            thread.join(timeout=drain_timeout_s)
        if self._sampler is not None:
            self._sampler.stop()
        self.prune_store()
        self.wal.compact(self._wal_entries(),
                         keep_terminal=self.config.wal_keep_terminal)
        deactivate()
        if self.config.trace_out is not None:
            try:
                write_trace(self.trace, self.config.trace_out,
                            format=FORMAT_JSON)
            except OSError:
                pass

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- metrics history ----------------------------------------------

    def _history_sample(self) -> dict:
        """One cadence sample: load, latency quantiles, resources."""
        with self._running_lock:
            running = len(self._running)
        with self._jobs_lock:
            jobs = len(self.jobs)
        counters = self.trace.counters.as_dict()
        sample = {
            "queued": self.queue.depth(),
            "running": running,
            "jobs": jobs,
            "rss_peak_kb": sample_resources().rss_peak_kb,
            "jobs_done": counters.get("service.jobs_done", 0),
            "jobs_failed": counters.get("service.jobs_failed", 0),
            "requests": counters.get("service.requests", 0),
        }
        series = self.trace.metrics.histograms()
        for name in ("service.job_wall_s", "engine.run_s"):
            matching = [h for n, _, h in series if n == name and h.count]
            if not matching:
                continue
            # Quantiles over the label-merged series would need a
            # rebuild; sample the largest series instead (label splits
            # are usually singular in practice).
            biggest = max(matching, key=lambda h: h.count)
            for q_name, q in (("p50", 0.50), ("p99", 0.99)):
                value = biggest.quantile(q)
                if value is not None:
                    sample[f"{name}.{q_name}"] = round(value, 6)
        return sample

    # -- crash recovery -----------------------------------------------

    def _event_log_path(self, job_id: str) -> Path:
        return (Path(self.config.cache_dir) / "service"
                / f"{job_id}.events.jsonl")

    def _wal_entries(self) -> list[WalEntry]:
        """Current job table as WAL entries, in submission order."""
        with self._jobs_lock:
            jobs = sorted(self.jobs.values(),
                          key=lambda job: (job.submitted_at, job.id))
        return [WalEntry(job_id=job.id, spec=job.spec,
                         submitted_at=job.submitted_at,
                         state=job.state, reason=job.reason,
                         error=job.error,
                         recovery_attempts=job.recovery_attempts,
                         arrival=index)
                for index, job in enumerate(jobs)]

    def _recover(self) -> None:
        """Rebuild the job table from the WAL after a crash/restart.

        Queued jobs are re-admitted in original priority/arrival order
        (``force=True``: they were already acknowledged, backpressure
        does not apply to them twice).  Jobs that were ``running`` when
        the previous process died are orphans: requeued with a bounded
        ``recovery_attempts`` counter and jittered exponential backoff,
        or failed with reason ``recovery_exhausted`` once the bound is
        hit.  Terminal jobs come back as state-only stubs -- their
        results died with the old process, their outcome did not.
        """
        report = self.wal.replay()
        if report.skipped:
            add_counter("wal.skipped_lines", report.skipped)
        if report.dangling:
            add_counter("wal.dangling_records", report.dangling)
        if not report.entries:
            return
        now = time.monotonic()
        ordered = sorted(report.entries.values(),
                         key=lambda entry: entry.arrival)
        for entry in ordered:
            log = JobEventLog(self._event_log_path(entry.job_id))
            events, skipped = log.replay()
            if skipped:
                add_counter("service.events_skipped", skipped)
            job = Job(id=entry.job_id, spec=entry.spec,
                      state=entry.state,
                      submitted_at=entry.submitted_at,
                      error=entry.error,
                      recovery_attempts=entry.recovery_attempts,
                      reason=entry.reason,
                      events=events, event_log=log, wal=self.wal)
            with self._jobs_lock:
                self.jobs[job.id] = job
                if entry.spec.idempotency_key:
                    self._idempotency[entry.spec.idempotency_key] \
                        = job.id
            if entry.terminal:
                continue
            if entry.orphaned:
                attempts = entry.recovery_attempts + 1
                if attempts > self.config.max_recovery_attempts:
                    job.error = (
                        "orphaned run exceeded "
                        f"{self.config.max_recovery_attempts} recovery "
                        "attempt(s)")
                    add_counter("jobs.recovery_exhausted")
                    add_counter("service.jobs_failed")
                    self._log.warning(
                        "recovery.exhausted", job_id=job.id,
                        trace_id=job.spec.trace_id,
                        attempts=attempts - 1)
                    job.transition(JOB_FAILED,
                                   reason=REASON_RECOVERY_EXHAUSTED,
                                   error=job.error)
                    continue
                job.recovery_attempts = attempts
                delay = self.config.recovery_backoff.delay_s(
                    job.id, attempts)
                job.not_before = now + delay
                job.transition(JOB_QUEUED, reason=REASON_RECOVERED,
                               recovery_attempts=attempts,
                               backoff_s=round(delay, 3))
                add_counter("jobs.recovered")
                self.recovered_jobs += 1
                self._log.info("recovery.requeued", job_id=job.id,
                               trace_id=job.spec.trace_id,
                               attempt=attempts,
                               backoff_s=round(delay, 3))
            self.queue.submit(job, force=True)
        # leases the dead process held will never be released by it
        self.store.cache.sweep_stale_claims()
        self._reap_terminal()
        self.wal.compact(self._wal_entries(),
                         keep_terminal=self.config.wal_keep_terminal)
        if self.recovered_jobs or self.queue.depth():
            self._work.set()

    # -- watchdog -----------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Abort runs past their deadline or with stale heartbeats."""
        while not self._draining.is_set():
            now = time.monotonic()
            with self._running_lock:
                entries = list(self._running.values())
            for entry in entries:
                if entry.verdict is not None:
                    continue
                deadline_s = entry.job.spec.deadline_s
                if (deadline_s is not None
                        and now - entry.started > deadline_s):
                    entry.verdict = "deadline"
                    self._log.warning(
                        "watchdog.deadline", job_id=entry.job.id,
                        trace_id=entry.job.spec.trace_id,
                        deadline_s=deadline_s)
                    entry.engine.abort(
                        f"deadline_s={deadline_s:g} exceeded")
                    continue
                if now - entry.heartbeat > self.config.stall_timeout_s:
                    entry.verdict = "stall"
                    self._log.warning(
                        "watchdog.stall", job_id=entry.job.id,
                        trace_id=entry.job.spec.trace_id,
                        stall_timeout_s=self.config.stall_timeout_s)
                    entry.engine.abort(
                        "no progress for "
                        f"{self.config.stall_timeout_s:g} s")
            self._draining.wait(timeout=self.config.watchdog_poll_s)

    # -- job submission / lookup --------------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit a job; returns ``(job, created)``.

        ``created`` is False when ``spec.idempotency_key`` matched an
        existing job, which is returned instead of admitting a
        duplicate.  The submission is journalled to the WAL **before**
        this returns, so an acknowledged job survives a crash.  Raises
        QueueFullError / ReproError.
        """
        if self._draining.is_set():
            raise ReproError("service is shutting down")
        # Mint the correlation id before the WAL sees the spec, so a
        # recovered job keeps the same trace_id across a crash.  Direct
        # submissions (no client-minted id) get a daemon-side one.
        if spec.trace_id is None:
            spec = replace(spec, trace_id=new_trace_id())
        with self._jobs_lock:
            key = spec.idempotency_key
            if key is not None:
                existing_id = self._idempotency.get(key)
                existing = (self.jobs.get(existing_id)
                            if existing_id is not None else None)
                if existing is not None:
                    add_counter("service.idempotent_hits")
                    return existing, False
            job_id = next_job_id()
            job = Job(id=job_id, spec=spec,
                      event_log=JobEventLog(
                          self._event_log_path(job_id)),
                      wal=self.wal)
            self.jobs[job_id] = job
            if key is not None:
                self._idempotency[key] = job_id
        # Journal before admission: a dispatcher may transition the job
        # the instant it is queued, and a state record must never reach
        # the WAL ahead of its submit record.
        self.wal.log_submit(job_id, spec, job.submitted_at)
        # The queue wait starts at admission: the fsync above belongs to
        # the submit request, so ``submitted_at`` is stamped after it
        # (the WAL keeps the earlier stamp; replay ordering is by
        # journal position).
        job.submitted_at = wall_now()
        try:
            self.queue.submit(job)
        except QueueFullError:
            with self._jobs_lock:
                del self.jobs[job_id]
                if key is not None:
                    self._idempotency.pop(key, None)
            self.wal.log_state(job_id, JOB_CANCELLED,
                               reason="rejected: backpressure")
            raise
        job.add_event(JOB_QUEUED, tenant=spec.tenant,
                      priority=spec.priority,
                      experiments=list(spec.experiment_ids))
        self._log.info("job.submit", trace_id=spec.trace_id,
                       job_id=job_id, tenant=spec.tenant,
                       priority=spec.priority,
                       experiments=len(spec.experiment_ids),
                       profile=spec.profile)
        self._work.set()
        return job, True

    def job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def list_jobs(self, tenant: str | None = None) -> list[Job]:
        with self._jobs_lock:
            jobs = list(self.jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.spec.tenant == tenant]
        return sorted(jobs, key=lambda job: job.submitted_at)

    def cancel(self, job_id: str) -> tuple[bool, str]:
        """(ok, reason).  Only queued jobs are cancellable."""
        job = self.job(job_id)
        if job is None:
            return False, "unknown job"
        if self.queue.cancel(job_id) is not None:
            self._reap_terminal()
            return True, "cancelled"
        return False, f"job is {job.state}, not queued"

    def _reap_terminal(self) -> None:
        """Forget terminal jobs beyond ``config.wal_keep_terminal``.

        The newest-submitted ones stay: the set WAL compaction keeps,
        so a running daemon and a restarted one know the same jobs
        (a reaped one is a 404 either way).  A reaped job's
        idempotency key is released.  A negative bound keeps all.
        """
        keep = self.config.wal_keep_terminal
        if keep < 0:
            return
        with self._jobs_lock:
            terminal = [job for job in self.jobs.values() if job.terminal]
            excess = len(terminal) - keep
            if excess <= 0:
                return
            terminal.sort(key=lambda job: (job.submitted_at, job.id))
            for job in terminal[:excess]:
                del self.jobs[job.id]
                key = job.spec.idempotency_key
                if key is not None and self._idempotency.get(key) == job.id:
                    del self._idempotency[key]
        add_counter("service.jobs_reaped", excess)

    def prune_store(self):
        return self.store.prune(
            max_age_s=self.config.store_max_age_s,
            max_entries=self.config.store_max_entries,
            max_bytes=self.config.store_max_bytes)

    # -- dispatch -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                if self._draining.is_set():
                    return
                self._work.wait(timeout=0.2)
                self._work.clear()
                continue
            self._run_job(job)

    def _engine_config(self, job: Job,
                       progress=None) -> EngineConfig:
        spec = job.spec
        return EngineConfig(
            jobs=spec.workers,
            timeout_s=spec.timeout_s,
            retries=spec.retries,
            cache_enabled=spec.use_cache,
            cache_dir=Path(self.config.cache_dir),
            executor=self.config.executor,
            handle_signals=False,  # worker thread; daemon owns signals
            progress=progress,
            trace_context={"trace_id": spec.trace_id,
                           "job_id": job.id, "tenant": spec.tenant},
        )

    def _requeue_stalled(self, job: Job) -> None:
        """Requeue a watchdog-stalled job, bounded by recovery limits."""
        add_counter("jobs.stalled")
        attempts = job.recovery_attempts + 1
        if (attempts > self.config.max_recovery_attempts
                or self._draining.is_set()):
            job.error = ("stalled run exceeded "
                         f"{self.config.max_recovery_attempts} "
                         "recovery attempt(s)"
                         if not self._draining.is_set()
                         else "stalled while the service was draining")
            add_counter("service.jobs_failed")
            job.transition(JOB_FAILED,
                           reason=(REASON_RECOVERY_EXHAUSTED
                                   if not self._draining.is_set()
                                   else REASON_STALL),
                           error=job.error)
            return
        job.recovery_attempts = attempts
        delay = self.config.recovery_backoff.delay_s(job.id, attempts)
        job.not_before = time.monotonic() + delay
        job.transition(JOB_QUEUED, reason=REASON_STALL,
                       recovery_attempts=attempts,
                       backoff_s=round(delay, 3))
        self.queue.submit(job, force=True)
        self._work.set()

    def _profile_path(self, job_id: str) -> Path:
        return (Path(self.config.cache_dir) / "service"
                / f"{job_id}.profile.txt")

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        with trace_context(trace_id=spec.trace_id, job_id=job.id,
                           tenant=spec.tenant):
            self._run_job_in_context(job)
        self._reap_terminal()

    def _run_job_in_context(self, job: Job) -> None:
        """Run one job; every terminal transition comes last.

        A terminal transition wakes parked waiters at once, so the
        counters and log records describing the outcome are written
        before it: a woken client reading ``/v1/stats`` sees them.
        """
        spec = job.spec
        job.transition(JOB_RUNNING, tenant=spec.tenant)
        wait_s = job.queue_wait_s() or 0.0
        observe("service.queue_wait_s", wait_s, DURATION_BUCKETS,
                tenant=spec.tenant)
        add_counter("service.jobs_started")
        self._log.info("job.dispatch",
                       queue_wait_s=round(wait_s, 6),
                       priority=spec.priority)
        now = time.monotonic()
        entry = _RunningJob(job=job, engine=None, started=now,
                            heartbeat=now)
        engine = ExecutionEngine(
            self._engine_config(job, progress=entry.beat))
        entry.engine = engine
        with self._running_lock:
            self._running[job.id] = entry
        profiler = (SamplingProfiler(self.config.profile_interval_s)
                    if spec.profile else None)
        try:
            if profiler is not None:
                profiler.start()
            with span("service.job", job=job.id, tenant=spec.tenant,
                      priority=spec.priority):
                sweep = engine.run(spec.experiment_ids or None)
        except (ReproError, Exception) as exc:  # job must never kill us
            job.error = f"{type(exc).__name__}: {exc}"
            add_counter("service.jobs_failed")
            self._log.error("job.crashed", error=job.error)
            job.transition(JOB_FAILED, error=job.error)
            return
        finally:
            if profiler is not None:
                profiler.stop()
                self._store_profile(job, profiler)
            with self._running_lock:
                self._running.pop(job.id, None)
        job.records = [record.to_json_dict()
                       for record in sweep.records]
        job.metrics = sweep.metrics.to_json_dict()
        job.results = json_safe(sweep.results)
        job.interrupted = sweep.interrupted
        for record in sweep.records:
            job.add_event("record", experiment_id=record.experiment_id,
                          status=record.status,
                          cache_hit=record.cache_hit,
                          wall_time_s=record.wall_time_s)
        # Measured from dispatch, not job.wall_s(): finished_at is only
        # stamped by the terminal transition below, and a stalled job
        # requeues without one -- wall_s() here would always be None.
        wall_s = time.monotonic() - now
        observe("service.job_wall_s", wall_s, DURATION_BUCKETS,
                tenant=spec.tenant)
        if entry.verdict == "deadline":
            job.error = (f"deadline_s={spec.deadline_s:g} exceeded "
                         "(run aborted by the watchdog)")
            add_counter("jobs.deadline_exceeded")
            add_counter("service.jobs_failed")
            self._log.warning("job.deadline_exceeded",
                              deadline_s=spec.deadline_s)
            job.transition(JOB_FAILED, reason=REASON_DEADLINE,
                           error=job.error)
        elif entry.verdict == "stall":
            self._log.warning("job.stalled",
                              stall_timeout_s=
                              self.config.stall_timeout_s)
            self._requeue_stalled(job)
        elif sweep.metrics.all_ok:
            add_counter("service.jobs_done")
            add_counter(f"service.jobs_done.{spec.tenant}")
            self._log.info("job.done", ok=sweep.metrics.ok,
                           cache_hits=sweep.metrics.cache_hits,
                           wall_s=round(wall_s, 6))
            job.transition(JOB_DONE, ok=sweep.metrics.ok,
                           cache_hits=sweep.metrics.cache_hits)
        else:
            failed = [record.experiment_id for record in sweep.records
                      if not record.ok]
            job.error = f"{len(failed)} experiment(s) not ok: {failed}"
            add_counter("service.jobs_failed")
            self._log.warning("job.failed", error=job.error)
            job.transition(JOB_FAILED, error=job.error)
        self.prune_store()

    def _store_profile(self, job: Job,
                       profiler: SamplingProfiler) -> None:
        """Keep the collapsed profile on the job and next to the WAL."""
        text = profiler.to_collapsed_text()
        job.profile_text = text
        observe("service.profile_samples", profiler.samples,
                COUNT_BUCKETS)
        self._log.info("job.profiled", samples=profiler.samples,
                       stacks=len(profiler.collapsed()),
                       duration_s=round(profiler.duration_s, 6))
        try:
            path = self._profile_path(job.id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError:
            pass  # the in-memory copy still serves the route


# -- HTTP plumbing ----------------------------------------------------


class _BadRequest(Exception):
    pass


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, str]
    body: bytes
    #: Header names lowercased by the parser.
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None


def _parse_query(raw: str) -> dict[str, str]:
    query: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return query


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, raw_query = target.partition("?")
    return _Request(method=method.upper(), path=path,
                    query=_parse_query(raw_query), body=body,
                    headers=headers)


def _response(status: int, payload: Any, *,
              headers: dict[str, str] | None = None) -> bytes:
    body = (json.dumps(json_safe(payload), sort_keys=True) + "\n"
            ).encode("utf-8")
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _stream_head(status: int = 200) -> bytes:
    return (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/jsonl\r\n"
            "Connection: close\r\n\r\n").encode("latin-1")


def _wait_s(query: dict[str, str]) -> float:
    """The ``?wait=S`` of a job request: 0 when absent, capped."""
    raw = query.get("wait") or "0"
    try:
        wait_s = float(raw)
    except ValueError:
        raise _BadRequest(f"wait must be a number, got {raw!r}") from None
    if not math.isfinite(wait_s) or wait_s < 0:
        raise _BadRequest(f"wait must be >= 0 seconds, got {raw!r}")
    return min(wait_s, MAX_WAIT_S)


class _JobWatch:
    """A parked request's wake-up: set on every change of one job.

    Registered through :meth:`Job.watch`; the thread that records a
    job event hands the wake-up to the loop with
    ``call_soon_threadsafe``.  A pending read on the request stream
    doubles as hang-up detection: a client that disconnects mid-wait
    releases its watcher at once, not when the wait runs out.
    """

    def __init__(self, job: Job, reader: asyncio.StreamReader) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._unwatch = job.watch(self._notify)
        self._hangup = self._loop.create_task(reader.read(1))
        self._hangup.add_done_callback(self._hung_up)

    def _notify(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._wake.set)
        except RuntimeError:
            pass  # the loop is closed: nobody is parked any more

    def _hung_up(self, task: asyncio.Task) -> None:
        if not task.cancelled():
            task.exception()  # retrieved: a reset is just a hang-up
        self._wake.set()

    @property
    def hung_up(self) -> bool:
        return self._hangup.done()

    def wake(self) -> None:
        self._wake.set()

    async def changed(self, timeout_s: float) -> bool:
        """Wait for the next wake-up; False once ``timeout_s`` ran out."""
        try:
            await asyncio.wait_for(self._wake.wait(), timeout_s)
        except asyncio.TimeoutError:
            return False
        self._wake.clear()
        return True

    def close(self) -> None:
        self._unwatch()
        self._hangup.cancel()


class ServiceServer:
    """Binds the HTTP front end to an :class:`ExperimentService`."""

    def __init__(self, service: ExperimentService) -> None:
        self.service = service
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()
        #: ``?wait`` requests parked on a job; stopping releases them.
        self._parked: set[_JobWatch] = set()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        config = self.service.config
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, config.host, config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until a drain signal or shutdown request arrives."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self._initiate_stop, True)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        await self._stopping.wait()
        await self._shutdown()

    def _initiate_stop(self, signalled: bool = False) -> None:
        if signalled:
            self.service.signalled = True
            add_counter("service.drain_signals")
        self._stopping.set()
        for watch in self._parked:
            watch.wake()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain runs in a thread: in-flight jobs may take a while and
        # must not block the loop (follow-streams still read events).
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.stop)

    # -- request handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(_response(400, {"error": str(exc)}))
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            try:
                await self._route(request, reader, writer)
            except _BadRequest as exc:
                writer.write(_response(400, {"error": str(exc)}))
            except ReproError as exc:
                writer.write(_response(400, {"error": str(exc)}))
            except Exception as exc:
                writer.write(_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: _Request,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        service = self.service
        method, path = request.method, request.path
        add_counter("service.requests")

        if path == "/healthz" and method == "GET":
            with service._running_lock:
                running = len(service._running)
            writer.write(_response(200, {
                "ok": True,
                "draining": service.draining,
                "jobs": len(service.jobs),
                "queued": service.queue.depth(),
                "running": running,
                "recovered": service.recovered_jobs,
            }))
            return

        if path == "/v1/jobs" and method == "POST":
            if service.draining:
                writer.write(_response(
                    503, {"error": "service is shutting down"}))
                return
            payload = request.json()
            # A client-minted X-Repro-Trace-Id header wins over nothing
            # but never over an explicit spec field.
            header_trace = request.headers.get("x-repro-trace-id")
            if (header_trace and isinstance(payload, dict)
                    and not payload.get("trace_id")):
                payload["trace_id"] = header_trace
            spec = JobSpec.from_json_dict(payload)
            try:
                job, created = service.submit(spec)
            except QueueFullError as exc:
                writer.write(_response(
                    429, {"error": str(exc), "reason": exc.reason,
                          "retry_after_s": exc.retry_after_s},
                    headers={"Retry-After":
                             f"{max(1, round(exc.retry_after_s))}"}))
                return
            payload = job.to_json_dict(include_records=False)
            payload["deduplicated"] = not created
            writer.write(_response(202 if created else 200, payload))
            return

        if path == "/v1/jobs" and method == "GET":
            tenant = request.query.get("tenant") or None
            writer.write(_response(200, {
                "jobs": [job.to_json_dict(include_records=False)
                         for job in service.list_jobs(tenant)]}))
            return

        if path.startswith("/v1/jobs/"):
            await self._route_job(request, reader, writer)
            return

        if path == "/v1/stats" and method == "GET":
            if request.query.get("format") == "prom":
                body = to_prometheus(service.trace.metrics).encode()
                writer.write(
                    (f"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                     f"Content-Length: {len(body)}\r\n"
                     "Connection: close\r\n\r\n").encode("latin-1")
                    + body)
                return
            writer.write(_response(200, {
                "metrics": registry_summary(service.trace.metrics),
                "counters": service.trace.counters.as_dict(),
                "queue": {"depth": service.queue.depth(),
                          "admitted": service.queue.admitted,
                          "rejected": service.queue.rejected},
                "recovery": {
                    "recovered_jobs": service.recovered_jobs,
                    "wal_write_errors": service.wal.write_errors,
                    "max_recovery_attempts":
                        service.config.max_recovery_attempts,
                },
            }))
            return

        if path == "/metrics/history" and method == "GET":
            try:
                since = int(request.query.get("since", "0") or "0")
                raw_limit = request.query.get("limit")
                limit = int(raw_limit) if raw_limit else None
            except ValueError:
                raise _BadRequest(
                    "since/limit must be integers") from None
            writer.write(_response(200, {
                "samples": service.history.samples(
                    since_seq=since or None, limit=limit),
                "next_seq": service.history.next_seq(),
                "evicted": service.history.evicted,
                "interval_s": service.config.history_interval_s,
                "capacity": service.config.history_capacity,
            }))
            return

        if path == "/v1/store" and method == "GET":
            writer.write(_response(
                200, service.store.stats().to_json_dict()))
            return

        if path == "/v1/store/prune" and method == "POST":
            writer.write(_response(
                200, service.prune_store().to_json_dict()))
            return

        if path == "/v1/shutdown" and method == "POST":
            writer.write(_response(200, {"ok": True,
                                         "stopping": True}))
            await writer.drain()
            self._initiate_stop(False)
            return

        writer.write(_response(404, {
            "error": f"no route for {method} {path}"}))

    async def _route_job(self, request: _Request,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        service = self.service
        parts = request.path.split("/")  # '', 'v1', 'jobs', id[, sub]
        job_id = parts[3] if len(parts) > 3 else ""
        sub = parts[4] if len(parts) > 4 else None
        job = service.job(job_id)
        if job is None:
            writer.write(_response(
                404, {"error": f"unknown job {job_id!r}"}))
            return

        if sub is None and request.method == "GET":
            wait_s = _wait_s(request.query)
            if wait_s > 0 and not job.terminal:
                await self._await_terminal(job, reader, wait_s)
            writer.write(_response(200, job.to_json_dict()))
            return

        if sub == "events" and request.method == "GET":
            try:
                since = int(request.query.get("since", "0") or "0")
            except ValueError:
                raise _BadRequest("since must be an integer") from None
            await self._stream_events(
                job, reader, writer,
                follow=request.query.get("follow") in ("1", "true"),
                since=since)
            return

        if sub == "result" and request.method == "GET":
            if not job.terminal:
                writer.write(_response(409, {
                    "error": f"job is {job.state}; results are "
                             "available once it finishes"}))
                return
            writer.write(_response(200, {
                "id": job.id, "state": job.state, "error": job.error,
                "interrupted": job.interrupted,
                "results": job.results, "metrics": job.metrics}))
            return

        if sub == "cancel" and request.method == "POST":
            ok, reason = service.cancel(job.id)
            writer.write(_response(
                200 if ok else 409,
                {"id": job.id, "cancelled": ok, "reason": reason}))
            return

        if sub == "profile" and request.method == "GET":
            text = job.profile_text
            if text is None:
                try:
                    text = service._profile_path(job.id).read_text(
                        encoding="utf-8")
                except OSError:
                    text = None
            if text is None:
                writer.write(_response(404, {
                    "error": (f"job {job.id} has no profile; submit "
                              "with profile=true and wait for it to "
                              "finish")}))
                return
            body = text.encode("utf-8")
            writer.write(
                (f"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 "Connection: close\r\n\r\n").encode("latin-1")
                + body)
            return

        writer.write(_response(405, {
            "error": f"no route for {request.method} {request.path}"}))

    async def _await_terminal(self, job: Job,
                              reader: asyncio.StreamReader,
                              wait_s: float) -> None:
        """Park until the job is terminal, ``wait_s`` runs out, the
        client hangs up, or the server starts stopping."""
        watch = _JobWatch(job, reader)
        self._parked.add(watch)
        deadline = time.monotonic() + wait_s
        try:
            while not (job.terminal or watch.hung_up
                       or self._stopping.is_set()):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not await watch.changed(remaining):
                    return
        finally:
            self._parked.discard(watch)
            watch.close()

    async def _stream_events(self, job: Job,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             follow: bool, since: int = 0) -> None:
        """Stream events as JSONL, optionally skipping ``seq < since``.

        ``since`` is what lets a reconnecting follower resume where its
        dropped connection left off instead of re-reading (and
        re-yielding) the whole history.  A follower sleeps on the job's
        wake-up between batches, so each event goes out as it happens;
        the :data:`MAX_WAIT_S` timeout only re-checks the job.
        """
        writer.write(_stream_head())
        sent = max(0, since)
        watch = _JobWatch(job, reader) if follow else None
        try:
            while True:
                # State and events are read together: a terminal state
                # is only visible once its event is in the list.
                with job.lock:
                    terminal = job.terminal
                    fresh = [event for event in job.events
                             if event["seq"] >= sent]
                for event in fresh:
                    writer.write(
                        (json.dumps(json_safe(event), sort_keys=True)
                         + "\n").encode("utf-8"))
                if fresh:
                    sent = fresh[-1]["seq"] + 1
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                if watch is None or terminal or watch.hung_up:
                    return
                await watch.changed(MAX_WAIT_S)
        finally:
            if watch is not None:
                watch.close()


async def _serve(config: ServiceConfig,
                 announce=print) -> ExperimentService:
    service = ExperimentService(config)
    server = ServiceServer(service)
    await server.start()
    announce(f"repro service listening on "
             f"http://{config.host}:{server.port}")
    await server.serve_forever()
    return service


def run_service(config: ServiceConfig, announce=print) -> bool:
    """Run the daemon until shutdown; True when a signal stopped it."""
    service = asyncio.run(_serve(config, announce))
    return service.signalled
