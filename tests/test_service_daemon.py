"""The service daemon: HTTP job API, backpressure, shutdown."""

import asyncio
import socket
import threading
import time

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.errors import ReproError
from repro.service import (
    BackpressureError,
    ExperimentService,
    JobSpec,
    QueueConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)
from repro.service import daemon as daemon_module


class _DaemonHandle:
    def __init__(self, client, service, stop, server=None, loop=None):
        self.client = client
        self.service = service
        self.stop = stop
        self.server = server
        self.loop = loop


def _start_daemon(tmp_path, **overrides):
    """A live daemon on an ephemeral port, serving from a thread."""
    settings = dict(
        port=0, cache_dir=tmp_path / "store", executor="inline",
        queue=QueueConfig(max_depth=3, max_per_tenant=2),
        trace_out=tmp_path / "service-trace.json")
    settings.update(overrides)
    service = ExperimentService(ServiceConfig(**settings))
    server = ServiceServer(service)
    ready = threading.Event()
    loops = []

    async def _run():
        loops.append(asyncio.get_running_loop())
        await server.start()
        ready.set()
        await server.serve_forever()

    thread = threading.Thread(target=lambda: asyncio.run(_run()),
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "daemon failed to start"
    client = ServiceClient(f"http://127.0.0.1:{server.port}",
                           timeout_s=30.0)

    def stop():
        if thread.is_alive():
            try:
                client.shutdown()
            except ServiceError:
                pass
            thread.join(timeout=30.0)

    return _DaemonHandle(client, service, stop, server, loops[0])


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on an ephemeral port, torn down after the test.

    The inline executor keeps injected (monkeypatched) experiments
    visible to job sweeps: they run on the dispatcher thread in this
    process, no fork required.
    """
    handle = _start_daemon(tmp_path)
    yield handle
    handle.stop()


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def test_healthz(daemon):
    health = daemon.client.health()
    assert health["ok"] is True
    assert health["queued"] == 0


def test_submit_wait_result_round_trip(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: {"answer": 42})
    job = daemon.client.submit(["E-T1"], tenant="alice")
    assert job["state"] == "queued"
    final = daemon.client.wait(job["id"], timeout_s=30.0)
    assert final["state"] == "done"
    assert final["records"][0]["status"] == "ok"
    payload = daemon.client.result(job["id"])
    assert payload["results"]["E-T1"] == {"answer": 42}
    assert payload["metrics"]["ok"] == 1


def test_resubmission_served_from_shared_store(daemon, monkeypatch):
    calls = []

    def runner():
        calls.append(1)
        return {"value": 7}

    _inject(monkeypatch, "E-T1", runner)
    first = daemon.client.submit(["E-T1"], tenant="alice")
    daemon.client.wait(first["id"], timeout_s=30.0)
    second = daemon.client.submit(["E-T1"], tenant="bob")
    final = daemon.client.wait(second["id"], timeout_s=30.0)
    assert len(calls) == 1  # the second job never recomputed
    assert final["records"][0]["cache_hit"] is True
    store = daemon.client.store()
    assert store["journal_hits"] == 1


def test_event_stream_replays_job_lifecycle(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    events = list(daemon.client.events(job["id"]))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued"
    assert "running" in kinds
    assert "record" in kinds
    assert kinds[-1] == "done"
    assert [event["seq"] for event in events] \
        == list(range(len(events)))


def test_follow_streams_until_terminal(daemon, monkeypatch):
    release = threading.Event()

    def runner():
        release.wait(timeout=10.0)
        return 1

    _inject(monkeypatch, "E-T1", runner)
    job = daemon.client.submit(["E-T1"])
    collected = []

    def consume():
        collected.extend(
            daemon.client.events(job["id"], follow=True))

    consumer = threading.Thread(target=consume)
    consumer.start()
    release.set()
    consumer.join(timeout=30.0)
    assert not consumer.is_alive()
    assert [e["event"] for e in collected][-1] in ("done", "failed")


def test_backpressure_returns_429(daemon, monkeypatch):
    block = threading.Event()

    def slow_runner():
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    try:
        running = daemon.client.submit(["E-T1"], tenant="hog")
        # queue depth is 3: fill it while the dispatcher is blocked
        for index in range(3):
            daemon.client.submit(["E-T1"], tenant=f"t{index}")
        with pytest.raises(BackpressureError) as excinfo:
            daemon.client.submit(["E-T1"], tenant="late")
        assert excinfo.value.status == 429
        assert excinfo.value.payload["reason"] == "queue_depth"
        assert excinfo.value.retry_after_s > 0
    finally:
        block.set()
    daemon.client.wait(running["id"], timeout_s=30.0)


def test_per_tenant_backpressure(daemon, monkeypatch):
    block = threading.Event()
    _inject(monkeypatch, "E-T1",
            lambda: block.wait(timeout=30.0) and 1)
    try:
        daemon.client.submit(["E-T1"], tenant="noisy")  # running
        daemon.client.submit(["E-T1"], tenant="noisy")  # queued x2
        daemon.client.submit(["E-T1"], tenant="noisy")
        with pytest.raises(BackpressureError) as excinfo:
            daemon.client.submit(["E-T1"], tenant="noisy")
        assert excinfo.value.payload["reason"] == "tenant_depth"
    finally:
        block.set()


def test_cancel_queued_job_but_not_running(daemon, monkeypatch):
    started = threading.Event()
    block = threading.Event()

    def slow_runner():
        started.set()
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    try:
        running = daemon.client.submit(["E-T1"], tenant="a")
        queued = daemon.client.submit(["E-T1"], tenant="b")
        assert started.wait(timeout=10.0)
        cancelled = daemon.client.cancel(queued["id"])
        assert cancelled["cancelled"] is True
        with pytest.raises(ServiceError) as excinfo:
            daemon.client.cancel(running["id"])
        assert excinfo.value.status == 409
    finally:
        block.set()
    assert daemon.client.wait(queued["id"],
                              timeout_s=5.0)["state"] == "cancelled"


def test_job_priority_orders_dispatch(daemon, monkeypatch):
    order = []
    block = threading.Event()

    def make_runner(tag):
        def runner():
            if tag == "blocker":
                block.wait(timeout=30.0)
            else:
                order.append(tag)
            return tag
        return runner

    _inject(monkeypatch, "E-T1", make_runner("blocker"))
    _inject(monkeypatch, "E-T2", make_runner("low"))
    _inject(monkeypatch, "E-F1", make_runner("high"))
    try:
        blocker = daemon.client.submit(["E-T1"])
        low = daemon.client.submit(["E-T2"], priority="low",
                                   tenant="a")
        high = daemon.client.submit(["E-F1"], priority="high",
                                    tenant="b")
    finally:
        block.set()
    for job in (blocker, low, high):
        daemon.client.wait(job["id"], timeout_s=30.0)
    assert order == ["high", "low"]


def test_failed_experiment_marks_job_failed(daemon, monkeypatch):
    def exploding():
        raise RuntimeError("model blew up")

    _inject(monkeypatch, "E-T1", exploding)
    job = daemon.client.submit(["E-T1"], retries=0)
    final = daemon.client.wait(job["id"], timeout_s=30.0)
    assert final["state"] == "failed"
    assert "not ok" in final["error"]
    # results of a failed job are still readable (state included)
    payload = daemon.client.result(job["id"])
    assert payload["state"] == "failed"


def test_unknown_routes_and_jobs(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.client.job("j-nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("GET", "/v1/nothing-here")
    assert excinfo.value.status == 404


def test_malformed_spec_rejected_400(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("POST", "/v1/jobs",
                               {"priority": "urgent"})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        daemon.client._request("POST", "/v1/jobs",
                               {"bogus": True})
    assert excinfo.value.status == 400


def test_list_jobs_filters_by_tenant(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    a = daemon.client.submit(["E-T1"], tenant="alice")
    b = daemon.client.submit(["E-T1"], tenant="bob")
    for job in (a, b):
        daemon.client.wait(job["id"], timeout_s=30.0)
    assert {j["tenant"] for j in daemon.client.jobs()} \
        == {"alice", "bob"}
    only = daemon.client.jobs(tenant="alice")
    assert len(only) == 1 and only[0]["id"] == a["id"]


def test_stats_routes(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"], tenant="alice")
    daemon.client.wait(job["id"], timeout_s=30.0)
    stats = daemon.client.stats()
    assert stats["counters"]["service.jobs_done"] == 1
    assert stats["queue"]["admitted"] == 1
    exposition = daemon.client.stats_prometheus()
    assert "service_job_wall_s" in exposition or "service" in exposition
    store = daemon.client.store()
    assert store["entries"] == 1


def test_store_prune_route(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    report = daemon.client.prune_store()
    # the daemon has no store bounds configured: nothing to evict
    assert report["evicted"] == 0
    assert report["kept"] == 1


def test_shutdown_drains_and_writes_trace(daemon, tmp_path,
                                          monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    daemon.stop()
    assert daemon.service.draining
    assert not daemon.service.signalled  # HTTP stop, not a signal
    trace_path = daemon.service.config.trace_out
    assert trace_path.exists()
    # submissions after drain are refused
    with pytest.raises(ReproError):
        daemon.service.submit(JobSpec())


def test_queued_jobs_cancelled_on_shutdown(daemon, monkeypatch):
    block = threading.Event()

    def slow_runner():
        block.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", slow_runner)
    running = daemon.client.submit(["E-T1"], tenant="a")
    queued = daemon.client.submit(["E-T1"], tenant="b")
    stopper = threading.Thread(target=daemon.stop)
    stopper.start()
    block.set()
    stopper.join(timeout=30.0)
    assert daemon.service.job(queued["id"]).state == "cancelled"
    assert daemon.service.job(running["id"]).state == "done"


# -- long-poll wait: ``GET /v1/jobs/<id>?wait=S`` ----------------------


def _blocked_job(daemon, monkeypatch):
    """A running job that finishes only once the event is set."""
    release = threading.Event()
    started = threading.Event()

    def runner():
        started.set()
        release.wait(timeout=30.0)
        return 1

    _inject(monkeypatch, "E-T1", runner)
    job = daemon.client.submit(["E-T1"], use_cache=False)
    assert started.wait(timeout=10.0)
    return job, release


def _requests(daemon):
    return daemon.client.stats()["counters"]["service.requests"]


def _poll_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_wait_absent_or_zero_answers_at_once(daemon, monkeypatch):
    job, release = _blocked_job(daemon, monkeypatch)
    try:
        for wait_s in (None, 0.0):
            start = time.monotonic()
            payload = (daemon.client.job(job["id"]) if wait_s is None
                       else daemon.client.job(job["id"], wait_s=wait_s))
            assert time.monotonic() - start < 1.0
            assert payload["state"] == "running"
        raw = daemon.client._request("GET", f"/v1/jobs/{job['id']}?wait=0")
        assert raw["state"] == "running"
    finally:
        release.set()


@pytest.mark.parametrize("value", ["-1", "soon", "nan", "inf"])
def test_bad_wait_is_rejected_400(daemon, monkeypatch, value):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    with pytest.raises(ServiceError) as info:
        daemon.client._request("GET", f"/v1/jobs/{job['id']}?wait={value}")
    assert info.value.status == 400
    assert "wait" in info.value.payload["error"]


def test_wait_above_the_cap_is_clamped(daemon, monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_WAIT_S", 0.3)
    job, release = _blocked_job(daemon, monkeypatch)
    try:
        start = time.monotonic()
        payload = daemon.client.job(job["id"], wait_s=25.0)
        held = time.monotonic() - start
    finally:
        release.set()
    assert payload["state"] == "running"
    assert 0.25 <= held < 5.0


def test_wait_on_a_terminal_job_answers_at_once(daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    job = daemon.client.submit(["E-T1"])
    daemon.client.wait(job["id"], timeout_s=30.0)
    start = time.monotonic()
    payload = daemon.client.job(job["id"], wait_s=10.0)
    assert time.monotonic() - start < 1.0
    assert payload["state"] == "done"


def test_wait_answers_when_the_job_finishes(daemon, monkeypatch):
    job, release = _blocked_job(daemon, monkeypatch)
    threading.Timer(0.2, release.set).start()
    before = _requests(daemon)
    start = time.monotonic()
    final = daemon.client.wait(job["id"], timeout_s=20.0)
    assert time.monotonic() - start < 5.0
    assert final["state"] == "done"
    assert final["records"][0]["status"] == "ok"
    # one long-poll request (plus the stats read that counts it)
    assert _requests(daemon) - before == 2


def test_outcome_counters_are_visible_to_a_woken_waiter(
        daemon, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    for count in range(1, 6):
        job = daemon.client.submit(["E-T1"], use_cache=False)
        daemon.client.wait(job["id"], timeout_s=30.0)
        counters = daemon.client.stats()["counters"]
        assert counters["service.jobs_done"] == count


@pytest.mark.parametrize("signalled", [False, True])
def test_stopping_releases_parked_waiters(daemon, monkeypatch,
                                          signalled):
    job, release = _blocked_job(daemon, monkeypatch)
    answers = []
    waiter = threading.Thread(target=lambda: answers.append(
        daemon.client.job(job["id"], wait_s=20.0)))
    waiter.start()
    assert _poll_until(lambda: daemon.server._parked)
    start = time.monotonic()
    # SIGTERM's handler is _initiate_stop(True); the route passes False
    daemon.loop.call_soon_threadsafe(daemon.server._initiate_stop,
                                     signalled)
    waiter.join(timeout=5.0)
    released_s = time.monotonic() - start
    release.set()
    daemon.stop()
    assert not waiter.is_alive()
    assert released_s < 2.0
    assert answers and answers[0]["state"] == "running"
    assert not daemon.server._parked
    assert daemon.service.signalled is signalled
    assert daemon.service.job(job["id"]).state == "done"  # drained


def test_client_hangup_mid_wait_leaks_no_watcher(daemon, monkeypatch):
    job, release = _blocked_job(daemon, monkeypatch)
    live = daemon.service.job(job["id"])
    try:
        with socket.create_connection(
                ("127.0.0.1", daemon.server.port), timeout=5.0) as sock:
            sock.sendall(f"GET /v1/jobs/{job['id']}?wait=20 HTTP/1.1\r\n"
                         "Host: test\r\n\r\n".encode("latin-1"))
            assert _poll_until(lambda: live._watchers)
        assert _poll_until(lambda: not live._watchers, timeout_s=2.0)
        assert not daemon.server._parked
    finally:
        release.set()


# -- follow streams on the same wake-up --------------------------------


def test_follower_wakes_once_per_event_not_per_tick(daemon, monkeypatch):
    parks = []
    original = daemon_module._JobWatch.changed

    async def counting(self, timeout_s):
        parks.append(timeout_s)
        return await original(self, timeout_s)

    monkeypatch.setattr(daemon_module._JobWatch, "changed", counting)
    job, release = _blocked_job(daemon, monkeypatch)
    collected = []
    consumer = threading.Thread(target=lambda: collected.extend(
        daemon.client.events(job["id"], follow=True)))
    consumer.start()
    assert _poll_until(lambda: parks)
    time.sleep(0.5)  # idle: a 50 ms poll would have looped ~10 times
    idle_parks = len(parks)
    release.set()
    consumer.join(timeout=10.0)
    assert not consumer.is_alive()
    assert idle_parks == 1
    kinds = [event["event"] for event in collected]
    assert kinds[0] == "queued" and kinds[-1] == "done"
    # every later park was ended by at least one new event
    assert len(parks) <= len(kinds)


# -- bounded daemon memory ---------------------------------------------


def test_terminal_jobs_beyond_the_bound_are_reaped(tmp_path, monkeypatch):
    _inject(monkeypatch, "E-T1", lambda: 1)
    handle = _start_daemon(tmp_path, wal_keep_terminal=2)
    try:
        ids = []
        for index in range(4):
            job = handle.client.submit(["E-T1"],
                                       idempotency_key=f"key-{index}")
            handle.client.wait(job["id"], timeout_s=30.0)
            ids.append(job["id"])
        # the dispatcher reaps right after publishing the terminal state
        assert _poll_until(lambda: len(handle.service.jobs) == 2)
        assert sorted(handle.service.jobs) == sorted(ids[2:])
        live = [handle.client.job(job_id)["id"] for job_id in ids[2:]]
        gone = []
        for job_id in ids[:2]:
            with pytest.raises(ServiceError) as info:
                handle.client.job(job_id)
            gone.append((info.value.status, info.value.payload))
        # a reaped job's idempotency key is free again
        again = handle.client.submit(["E-T1"], idempotency_key="key-0")
        assert again["deduplicated"] is False
        handle.client.wait(again["id"], timeout_s=30.0)
        assert handle.client.submit(
            ["E-T1"], idempotency_key="key-3")["deduplicated"] is True
    finally:
        handle.stop()
    assert all(status == 404 for status, _ in gone)

    restarted = _start_daemon(tmp_path, wal_keep_terminal=2)
    try:
        assert sorted(restarted.service.jobs) \
            == sorted([ids[3], again["id"]])
        for job_id, (status, payload) in zip(ids[:2], gone):
            with pytest.raises(ServiceError) as info:
                restarted.client.job(job_id)
            assert (info.value.status, info.value.payload) \
                == (status, payload)
        assert live[1] == restarted.client.job(ids[3])["id"]
    finally:
        restarted.stop()


def test_service_trace_keeps_a_bounded_span_buffer(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon_module, "MAX_TRACE_SPANS", 8)
    _inject(monkeypatch, "E-T1", lambda: 1)
    handle = _start_daemon(tmp_path)
    try:
        for _ in range(4):
            job = handle.client.submit(["E-T1"], use_cache=False)
            handle.client.wait(job["id"], timeout_s=30.0)
        counters = handle.client.stats()["counters"]
    finally:
        handle.stop()
    spans = handle.service.trace.spans
    assert len(spans) == 8
    assert counters["trace.spans_dropped"] > 0
    dropped = handle.service.trace.counters.get("trace.spans_dropped")
    # every span ever recorded is either kept or counted as dropped
    assert dropped + len(spans) == sum(
        series.count for name, _, series
        in handle.service.trace.metrics.histograms()
        if name.startswith("span."))
