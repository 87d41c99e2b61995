"""Service benchmarks: admission queue, store scans, job round trips.

Measures the daemon-side hot paths in isolation:

* admission-queue submit/pop throughput under the multi-tenant bounds;
* shared-store scan and LRU prune over a populated object directory;
* a full job round trip (submit -> dispatch -> sweep -> done) through
  :class:`repro.service.ExperimentService` with the inline executor,
  cold vs warm (every entry served from the shared store).

Run with ``pytest benchmarks/bench_service.py --benchmark-only``.
"""

import itertools
import time

from repro.engine import ResultCache
from repro.service import (
    AdmissionQueue,
    ExperimentService,
    Job,
    JobSpec,
    QueueConfig,
    ServiceConfig,
    StoreManager,
    next_job_id,
)

_fresh_dir = itertools.count()

#: Experiments small enough that the sweep itself stays cheap: the
#: round-trip benchmarks time service overhead, not solver work.
_JOB_IDS = ("E-T1", "E-T2")


def _jobs(count):
    return [Job(id=next_job_id(),
                spec=JobSpec(tenant=f"t{index % 4}"))
            for index in range(count)]


def test_queue_submit_pop_throughput(benchmark):
    """Admit and drain 256 jobs across 4 tenants, bounds enforced."""
    config = QueueConfig(max_depth=256, max_per_tenant=64)

    def churn():
        queue = AdmissionQueue(config)
        for job in _jobs(256):
            queue.submit(job)
        while queue.pop() is not None:
            pass
        return queue

    queue = benchmark.pedantic(churn, rounds=5, iterations=1)
    assert queue.admitted == 256
    assert queue.depth() == 0


def test_store_scan(benchmark, tmp_path):
    """Stat-order 64 entries, least recently used first."""
    cache = ResultCache(tmp_path)
    for index in range(64):
        cache.put(f"E-S{index:02d}", "f" * 64, {"value": index})
    manager = StoreManager(tmp_path)

    entries = benchmark.pedantic(manager.scan, rounds=5, iterations=1)
    assert len(entries) == 64


def test_store_prune_by_entries(benchmark, tmp_path):
    """Evict half of a 64-entry store, LRU first."""
    def prune():
        root = tmp_path / f"prune-{next(_fresh_dir)}"
        cache = ResultCache(root)
        for index in range(64):
            cache.put(f"E-S{index:02d}", "f" * 64, {"value": index})
        return StoreManager(root).prune(max_entries=32)

    report = benchmark.pedantic(prune, rounds=3, iterations=1)
    assert report.evicted == 32
    assert report.kept == 32


def _service(cache_dir):
    service = ExperimentService(ServiceConfig(
        cache_dir=cache_dir, executor="inline", dispatchers=1))
    service.start()
    return service


def _round_trip(service):
    job, _ = service.submit(JobSpec(experiment_ids=_JOB_IDS))
    deadline = time.monotonic() + 30.0
    while not job.terminal and time.monotonic() < deadline:
        time.sleep(0.002)
    assert job.state == "done"
    return job


def test_job_round_trip_cold(benchmark, tmp_path):
    """Submit -> dispatch -> sweep -> done against an empty store."""
    def cold():
        cache_dir = tmp_path / f"cold-{next(_fresh_dir)}"
        service = _service(cache_dir)
        try:
            return _round_trip(service)
        finally:
            service.stop()

    job = benchmark.pedantic(cold, rounds=3, iterations=1)
    assert job.metrics["cache_hits"] == 0


def test_job_round_trip_warm(benchmark, tmp_path):
    """Same sweep resubmitted: every record from the shared store."""
    cache_dir = tmp_path / "warm"
    service = _service(cache_dir)
    try:
        _round_trip(service)  # populate the shared store

        job = benchmark.pedantic(lambda: _round_trip(service),
                                 rounds=5, iterations=1)
    finally:
        service.stop()
    assert job.metrics["cache_hits"] == len(_JOB_IDS)
