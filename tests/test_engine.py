"""The execution engine: scheduler, cache, records, metrics."""

import importlib
import importlib.util
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.engine import (
    EngineConfig,
    EngineMetrics,
    ExecutionEngine,
    ResultCache,
    RunJournal,
    RunRecord,
    run_experiments,
    runner_fingerprint,
)
from repro.engine.cache import SourceCache, ensure_dir
from repro.engine.scheduler import WAIT_PHASES
from repro.errors import ReproError
from repro.obs import Trace, current_trace, tracing
from repro.reliability import (
    BackoffPolicy,
    FaultPlan,
    FaultSpec,
    tear_cache_entry,
)


def _inject(monkeypatch, experiment_id, runner):
    monkeypatch.setitem(
        EXPERIMENTS, experiment_id,
        Experiment(experiment_id, "injected test experiment",
                   "(test)", runner))


def _config(tmp_path, **overrides):
    defaults = dict(jobs=2, cache_dir=tmp_path / "cache",
                    timeout_s=30.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


# -- records ----------------------------------------------------------


def test_run_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        RunRecord("E-T1", "exploded", 0.1, False, 1)


def test_journal_round_trip(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    records = [
        RunRecord("E-T1", "ok", 0.25, True, 0, started_at=123.0),
        RunRecord("E-T2", "failed", 1.5, False, 2,
                  error="ValueError('boom')"),
    ]
    journal.append_many(records)
    assert RunJournal.read(journal.path) == records
    # every line is standalone JSON
    lines = journal.path.read_text().splitlines()
    assert all(json.loads(line)["experiment_id"] for line in lines)


def test_journal_recovery_skips_truncated_tail(tmp_path):
    """A writer that died mid-append costs one line, not the journal."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    good = [RunRecord("E-T1", "ok", 0.1, False, 1),
            RunRecord("E-T2", "ok", 0.2, True, 0)]
    journal.append_many(good)
    with journal.path.open("a") as stream:
        stream.write('{"experiment_id": "E-F1", "status": "ok", "wal')
    records, skipped = RunJournal.recover(journal.path)
    assert records == good
    assert skipped == 1
    assert RunJournal.read(journal.path) == good  # tolerant by default
    with pytest.raises(json.JSONDecodeError):
        RunJournal.read(journal.path, strict=True)


def test_journal_recovery_skips_interleaved_writers(tmp_path):
    """Two writers whose bytes interleaved mangle only their own lines."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append(RunRecord("E-T1", "ok", 0.1, False, 1))
    with journal.path.open("a") as stream:
        # bytes of two concurrent appends shuffled together
        stream.write('{"experiment_id": "E-T2", "st{"experiment_id":'
                     ' "E-F1", "status": "ok"}\n')
    journal.append(RunRecord("E-C1", "ok", 0.3, False, 1))
    records, skipped = RunJournal.recover(journal.path)
    assert [r.experiment_id for r in records] == ["E-T1", "E-C1"]
    assert skipped == 1


def test_journal_appends_survive_further_sweeps(tmp_path):
    """New appends after a torn line still parse (append, not rewrite)."""
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.path.parent.mkdir(parents=True, exist_ok=True)
    journal.path.write_text('not json at all\n')
    journal.append(RunRecord("E-T1", "ok", 0.1, False, 1))
    records, skipped = RunJournal.recover(journal.path)
    assert [r.experiment_id for r in records] == ["E-T1"]
    assert skipped == 1


# -- cache ------------------------------------------------------------


def test_fingerprint_distinct_per_experiment():
    fp1 = runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)
    fp2 = runner_fingerprint("E-T2", EXPERIMENTS["E-T2"].runner)
    assert fp1 != fp2
    assert fp1 == runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)


def test_fingerprint_tracks_source_changes(tmp_path):
    module_path = tmp_path / "scratch_runner_mod.py"
    module_path.write_text("def runner():\n    return 1\n")
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "scratch_runner_mod", module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    before = runner_fingerprint("E-ZZ", module.runner)
    module_path.write_text("def runner():\n    return 2  # changed\n")
    after = runner_fingerprint("E-ZZ", module.runner)
    assert before != after


def test_fingerprint_covers_transitive_imports():
    # reproduce_table1 lives in repro.analysis.table1, which pulls in
    # repro.devices.*; the fingerprint must not be just the one file.
    fp = runner_fingerprint("E-T1", EXPERIMENTS["E-T1"].runner)
    assert len(fp) == 64
    from repro.engine.cache import _imported_names
    import inspect
    source = inspect.getsource(
        inspect.getmodule(EXPERIMENTS["E-T1"].runner))
    assert any(name.startswith("repro.devices")
               for name in _imported_names(source, "repro.analysis"))


def _fresh_walk(experiment_id, runner):
    return SourceCache().fingerprint(experiment_id, runner)[0]


def _traced_fingerprint(experiment_id, runner):
    """``(fingerprint, memo hit)`` as the trace counters report it."""
    with tracing(Trace("fingerprint")) as trace:
        digest = runner_fingerprint(experiment_id, runner)
    hits = trace.counters.get("cache.fingerprint_memo_hits")
    misses = trace.counters.get("cache.fingerprint_memo_misses")
    assert hits + misses == 1
    return digest, hits == 1


def _load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mtime_later(path):
    """Move ``path``'s mtime forward 1 µs, so an edit landing in the
    same filesystem timestamp tick as the previous state still shows."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))


def test_memoized_fingerprints_equal_a_fresh_walk():
    for experiment_id, experiment in sorted(EXPERIMENTS.items()):
        runner_fingerprint(experiment_id, experiment.runner)
        memoized, hit = _traced_fingerprint(experiment_id,
                                            experiment.runner)
        assert hit, experiment_id
        assert memoized == _fresh_walk(experiment_id, experiment.runner)


@pytest.fixture
def scratch_package(tmp_path, monkeypatch):
    """A ``repro.<name>`` subpackage living in ``tmp_path``.

    ``repro.__path__`` is extended the way a namespace plugin extends
    a package, so the fingerprint walk follows the scratch modules
    like any other ``repro.*`` module.  Returns ``(package dir,
    runner)``; the runner's closure is runner_mod -> mid -> leaf plus
    the package ``__init__``.
    """
    name = f"_fp_scratch_{tmp_path.name.replace('-', '_')}"
    root = tmp_path / "plugins"
    package = root / name
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("helper = 'an attribute'\n")
    (package / "leaf.py").write_text("VALUE = 1\n")
    (package / "mid.py").write_text(
        f"from repro.{name}.leaf import VALUE\n"
        f"from repro.{name} import helper\n")
    (package / "runner_mod.py").write_text(
        "def runner():\n"
        f"    from repro.{name}.mid import VALUE\n"
        "    return VALUE\n")
    monkeypatch.setattr(repro, "__path__", [*repro.__path__, str(root)])
    importlib.invalidate_caches()
    module = importlib.import_module(f"repro.{name}.runner_mod")
    yield package, module.runner
    for key in [key for key in sys.modules
                if key.startswith(f"repro.{name}")]:
        del sys.modules[key]
    if hasattr(repro, name):
        delattr(repro, name)


def _edit_runner(package, monkeypatch):
    with (package / "runner_mod.py").open("a") as handle:
        handle.write("# edited\n")


def _edit_transitive(package, monkeypatch):
    (package / "leaf.py").write_text("VALUE = 22\n")


def _edit_same_size(package, monkeypatch):
    leaf = package / "leaf.py"
    before = os.stat(leaf)
    leaf.write_text("VALUE = 2\n")
    assert os.stat(leaf).st_size == before.st_size
    os.utime(leaf, ns=(before.st_atime_ns, before.st_mtime_ns + 1))


def _add_shadowing_sibling(package, monkeypatch):
    # mid.py's ``from repro.<pkg> import helper`` now names a module.
    (package / "helper.py").write_text("HELPER = 1\n")
    _mtime_later(package)


def _delete_imported(package, monkeypatch):
    (package / "leaf.py").unlink()
    _mtime_later(package)


def _change_sys_path(package, monkeypatch):
    monkeypatch.syspath_prepend(str(package.parent.parent))


@pytest.mark.parametrize("edit, changes_fingerprint", [
    (_edit_runner, True),
    (_edit_transitive, True),
    (_edit_same_size, True),
    (_add_shadowing_sibling, True),
    (_delete_imported, True),
    (_change_sys_path, False),
], ids=lambda value: getattr(value, "__name__", None))
def test_fingerprint_memo_sees_every_edit(scratch_package, monkeypatch,
                                          edit, changes_fingerprint):
    package, runner = scratch_package
    before, _ = _traced_fingerprint("E-ZZ", runner)
    assert before == _fresh_walk("E-ZZ", runner)
    assert _traced_fingerprint("E-ZZ", runner) == (before, True)

    edit(package, monkeypatch)
    importlib.invalidate_caches()
    after, hit = _traced_fingerprint("E-ZZ", runner)
    assert not hit
    assert after == _fresh_walk("E-ZZ", runner)
    assert (after != before) is changes_fingerprint
    assert _traced_fingerprint("E-ZZ", runner) == (after, True)


def test_source_cache_keeps_one_entry_per_file(tmp_path):
    module_path = tmp_path / "scratch_edited_mod.py"
    module_path.write_text("def runner():\n    return 0\n")
    runner = _load_module(module_path, "scratch_edited_mod").runner
    cache = SourceCache()
    digests = set()
    for edit in range(50):
        # Each edit grows the file, so no two versions share a stamp.
        module_path.write_text(
            f"def runner():\n    return {'7' * (edit + 1)}\n")
        digests.add(cache.fingerprint("E-ZZ", runner)[0])
        assert len(cache._files) == 1
    assert len(digests) == 50


def test_concurrent_fingerprints_never_return_a_stale_digest(tmp_path):
    module_path = tmp_path / "scratch_threaded_mod.py"
    versions = [f"def runner():\n    return {'3' * (n + 1)}\n"
                for n in range(40)]
    module_path.write_text(versions[0])
    runner = _load_module(module_path, "scratch_threaded_mod").runner
    per_version = []
    for text in versions:
        module_path.write_text(text)
        per_version.append(_fresh_walk("E-ZZ", runner))
    valid = set(per_version)
    assert len(valid) == len(versions)
    module_path.write_text(versions[0])
    fresh = SourceCache()
    registry = {experiment_id: fresh.fingerprint(
        experiment_id, experiment.runner)[0]
        for experiment_id, experiment in EXPERIMENTS.items()}

    writing = threading.Event()
    writing.set()
    problems: list[str] = []

    def rewrite():
        scratch = tmp_path / "next.py.tmp"
        try:
            for text in versions[1:]:
                # Replace whole files, as editors and VCS checkouts do.
                scratch.write_text(text)
                os.replace(scratch, module_path)
                time.sleep(0.002)
        finally:
            writing.clear()

    def fingerprint_registry():
        while True:
            still_writing = writing.is_set()
            for experiment_id, expected in registry.items():
                digest = runner_fingerprint(
                    experiment_id, EXPERIMENTS[experiment_id].runner)
                if digest != expected:
                    problems.append(f"{experiment_id} moved")
            if runner_fingerprint("E-ZZ", runner) not in valid:
                problems.append("E-ZZ digest matches no version")
            if not still_writing:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fingerprint_registry)
                   for _ in range(8)]
        threads.append(threading.Thread(target=rewrite))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert module_path.read_text() == versions[-1]
    assert runner_fingerprint("E-ZZ", runner) == per_version[-1]


def test_edit_racing_a_read_never_pins_a_stale_digest(tmp_path,
                                                      monkeypatch):
    module_path = tmp_path / "scratch_raced_mod.py"
    module_path.write_text("def runner():\n    return 1\n")
    runner = _load_module(module_path, "scratch_raced_mod").runner
    read_text = Path.read_text
    raced = []

    def read_then_edit(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        if self == module_path and not raced:
            # The edit lands after the read, before anything else.
            raced.append(True)
            module_path.write_text("def runner():\n    return 22\n")
        return text

    monkeypatch.setattr(Path, "read_text", read_then_edit)
    runner_fingerprint("E-ZZ", runner)
    assert raced
    assert runner_fingerprint("E-ZZ", runner) == _fresh_walk("E-ZZ",
                                                              runner)


def test_warm_resweep_serves_fingerprints_from_the_memo(tmp_path):
    config = _config(tmp_path, executor="inline")
    assert run_experiments(["E-T1", "E-T2"], config=config).all_ok
    with tracing(Trace("warm")) as trace:
        sweep = run_experiments(["E-T1", "E-T2"], config=config)
    assert sweep.all_ok
    assert trace.counters.get("cache.fingerprint_memo_hits") == 2
    assert trace.counters.get("cache.fingerprint_memo_misses") == 0
    assert [record.attributes.get("memo") for record in trace.spans
            if record.name == "cache.fingerprint"] == ["hit", "hit"]


def test_cache_put_get_and_eviction(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("E-T1", "f" * 64) == (False, None)
    payload = {"summary": {"x": 1.5}, "pair": (1, 2)}
    assert cache.put("E-T1", "f" * 64, payload)
    hit, result = cache.get("E-T1", "f" * 64)
    assert hit and result == payload
    assert result["pair"] == (1, 2)  # exact round-trip, tuples intact
    assert len(cache) == 1

    # corrupt entries are evicted as misses
    cache.path_for("E-T1", "f" * 64).write_bytes(b"not a pickle")
    assert cache.get("E-T1", "f" * 64) == (False, None)
    assert len(cache) == 0


def test_cache_unpicklable_result_is_skipped(tmp_path):
    cache = ResultCache(tmp_path)
    assert not cache.put("E-T1", "a" * 64, lambda: None)
    assert len(cache) == 0


def test_cache_torn_write_is_quarantined_not_wrong(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "b" * 64, {"value": 1})
    path = cache.path_for("E-T1", "b" * 64)
    assert tear_cache_entry(path)  # truncate mid-payload
    assert cache.get("E-T1", "b" * 64) == (False, None)
    assert not path.exists()
    assert list(cache.quarantine_dir.iterdir())  # kept for autopsy
    assert cache.stats.quarantined == 1
    # a fresh store over the quarantined key works normally
    cache.put("E-T1", "b" * 64, {"value": 2})
    assert cache.get("E-T1", "b" * 64) == (True, {"value": 2})


def test_cache_checksum_catches_bit_rot(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "c" * 64, {"value": 1})
    path = cache.path_for("E-T1", "c" * 64)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload bit
    path.write_bytes(bytes(blob))
    assert cache.get("E-T1", "c" * 64) == (False, None)
    assert cache.stats.quarantined == 1


def test_cache_ignores_foreign_and_unreadable_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("E-T1", "d" * 64, {"value": 1})
    ensure_dir(cache.objects_dir)
    (cache.objects_dir / "README.txt").write_text("not a cache entry")
    (cache.objects_dir / ".tmp-stale-123-456").write_bytes(b"abandoned")
    assert len(cache) == 1  # only .rpc entries counted
    assert cache.get("E-T1", "d" * 64) == (True, {"value": 1})


def test_ensure_dir_rejects_file_squatting_on_path(tmp_path):
    squatter = tmp_path / "cache"
    squatter.write_text("surprise, a file")
    with pytest.raises(ReproError, match="not a directory"):
        ensure_dir(squatter)
    with pytest.raises(ReproError, match="regular file"):
        ensure_dir(squatter / "objects")


# -- metrics ----------------------------------------------------------


def test_metrics_aggregation():
    records = [
        RunRecord("E-T1", "ok", 0.5, True, 0),
        RunRecord("E-T2", "ok", 1.0, False, 1),
        RunRecord("E-F1", "failed", 2.0, False, 3,
                  error="RuntimeError('x')"),
        RunRecord("E-F2", "timeout", 4.0, False, 1, error="timeout"),
    ]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=3.75)
    assert (metrics.total, metrics.ok, metrics.failed,
            metrics.timed_out) == (4, 2, 1, 1)
    assert (metrics.cache_hits, metrics.cache_misses) == (1, 3)
    assert metrics.attempts == 5
    assert metrics.runner_wall_s == pytest.approx(7.5)
    assert metrics.speedup == pytest.approx(2.0)
    assert metrics.slowest_id == "E-F2"
    assert not metrics.all_ok
    text = metrics.render()
    assert "1 failed" in text and "1 hits" in text


# -- scheduler: caching -----------------------------------------------


def test_warm_sweep_hits_cache_without_rerunning(tmp_path, monkeypatch):
    """Second sweep: all cache hits, sentinel runner never re-executes."""
    sentinel = tmp_path / "executions.log"

    def counting_runner():
        with sentinel.open("a") as stream:
            stream.write("ran\n")
        return {"summary": {"value": 42.0}}

    _inject(monkeypatch, "E-SENTINEL", counting_runner)
    ids = list(EXPERIMENTS)
    config = _config(tmp_path)

    cold = run_experiments(ids, config=config)
    assert cold.metrics.ok == len(ids)
    assert cold.metrics.cache_hits == 0
    assert sentinel.read_text().count("ran") == 1

    warm = run_experiments(ids, config=config)
    assert warm.metrics.ok == len(ids)
    assert warm.metrics.cache_hits == len(ids)
    assert warm.metrics.attempts == 0
    # the sentinel runner was not executed again
    assert sentinel.read_text().count("ran") == 1
    assert warm.results["E-SENTINEL"] == {"summary": {"value": 42.0}}
    assert all(record.cache_hit for record in warm.records)


def test_no_cache_always_executes(tmp_path, monkeypatch):
    sentinel = tmp_path / "executions.log"

    def counting_runner():
        with sentinel.open("a") as stream:
            stream.write("ran\n")
        return {"value": 1}

    _inject(monkeypatch, "E-SENTINEL", counting_runner)
    config = _config(tmp_path, cache_enabled=False)
    for _ in range(2):
        sweep = run_experiments(["E-SENTINEL"], config=config)
        assert sweep.metrics.ok == 1
    assert sentinel.read_text().count("ran") == 2


# -- scheduler: failure isolation -------------------------------------


def test_failing_experiment_is_isolated(tmp_path, monkeypatch):
    def bad_runner():
        raise ValueError("deliberate failure")

    _inject(monkeypatch, "E-BAD", bad_runner)
    ids = ["E-T1", "E-BAD", "E-T2", "E-F1"]
    sweep = run_experiments(ids, config=_config(tmp_path))

    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-BAD"].status == "failed"
    assert "deliberate failure" in by_id["E-BAD"].error
    assert "E-BAD" not in sweep.results
    for ok_id in ("E-T1", "E-T2", "E-F1"):
        assert by_id[ok_id].status == "ok"
        assert ok_id in sweep.results
    assert not sweep.all_ok
    assert sweep.metrics.failed == 1 and sweep.metrics.ok == 3


def test_dead_worker_is_isolated(tmp_path, monkeypatch):
    def dying_runner():
        os._exit(7)

    _inject(monkeypatch, "E-DEAD", dying_runner)
    sweep = run_experiments(["E-DEAD", "E-T1"],
                            config=_config(tmp_path))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-DEAD"].status == "failed"
    assert "exit code" in by_id["E-DEAD"].error
    assert by_id["E-T1"].status == "ok"


def test_timeout_kills_runner(tmp_path, monkeypatch):
    def sleepy_runner():
        time.sleep(60)

    _inject(monkeypatch, "E-SLOW", sleepy_runner)
    start = time.monotonic()
    sweep = run_experiments(
        ["E-SLOW", "E-T1"],
        config=_config(tmp_path, timeout_s=0.5))
    assert time.monotonic() - start < 30
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-SLOW"].status == "timeout"
    assert "timeout" in by_id["E-SLOW"].error
    assert by_id["E-T1"].status == "ok"
    assert sweep.metrics.timed_out == 1


def test_bounded_retries_recover_flaky_runner(tmp_path, monkeypatch):
    flag = tmp_path / "attempts.log"

    def flaky_runner():
        with flag.open("a") as stream:
            stream.write("x")
        if len(flag.read_text()) < 2:
            raise RuntimeError("first attempt fails")
        return {"value": "recovered"}

    _inject(monkeypatch, "E-FLAKY", flaky_runner)
    sweep = run_experiments(["E-FLAKY"],
                            config=_config(tmp_path, retries=1))
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.attempts == 2
    assert sweep.results["E-FLAKY"] == {"value": "recovered"}


# -- scheduler: worker configuration and chunking ---------------------


def test_default_jobs_honours_repro_workers(monkeypatch):
    from repro.engine import default_jobs

    monkeypatch.setenv("REPRO_WORKERS", "9")
    assert default_jobs() == 9
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ReproError, match="REPRO_WORKERS"):
        default_jobs()
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ReproError, match=">= 1"):
        default_jobs()
    monkeypatch.delenv("REPRO_WORKERS")
    assert 1 <= default_jobs() <= 4  # capped default for CI machines


def test_chunk_target_policy(tmp_path):
    engine = ExecutionEngine(_config(tmp_path, jobs=2))
    # Small sweeps never chunk: each worker would get <= 4 tasks.
    assert engine._chunk_target(8) == 1
    # Large backlogs amortise process start-up, capped at 8.
    assert engine._chunk_target(40) == 5
    assert engine._chunk_target(1000) == 8
    pinned = ExecutionEngine(_config(tmp_path, jobs=2, chunk_size=3))
    assert pinned._chunk_target(1000) == 3
    # Fault plans need per-task process isolation.
    plan = FaultPlan("t", (FaultSpec("transient", "E-T1"),))
    faulty = ExecutionEngine(_config(tmp_path, jobs=2, chunk_size=3,
                                     fault_plan=plan))
    assert faulty._chunk_target(1000) == 1


def test_chunked_sweep_returns_every_result(tmp_path, monkeypatch):
    ids = []
    for index in range(10):
        experiment_id = f"E-CHUNK{index}"

        def runner(index=index):
            return {"value": index}

        _inject(monkeypatch, experiment_id, runner)
        ids.append(experiment_id)
    sweep = run_experiments(ids,
                            config=_config(tmp_path, chunk_size=4))
    assert sweep.all_ok
    assert sweep.results == {f"E-CHUNK{i}": {"value": i}
                             for i in range(10)}
    assert all(record.attempts == 1 for record in sweep.records)


def test_chunk_isolates_failing_member(tmp_path, monkeypatch):
    def bad_runner():
        raise ValueError("chunk member fails")

    _inject(monkeypatch, "E-BAD", bad_runner)
    ids = ["E-T1", "E-BAD", "E-T2", "E-F1"]
    sweep = run_experiments(ids,
                            config=_config(tmp_path, jobs=1,
                                           chunk_size=4))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-BAD"].status == "failed"
    assert "chunk member fails" in by_id["E-BAD"].error
    for ok_id in ("E-T1", "E-T2", "E-F1"):
        assert by_id[ok_id].status == "ok"
        assert ok_id in sweep.results


def test_chunk_crash_retries_unfinished_singly(tmp_path, monkeypatch):
    # A worker dying mid-chunk must not lose its chunk-mates: every
    # unreported task is retried individually (attempts > 0 tasks are
    # never re-chunked).
    marker = tmp_path / "died.log"

    def dying_once_runner():
        if not marker.exists():
            marker.write_text("x")
            os._exit(9)
        return {"value": "recovered"}

    def ok_runner():
        return {"value": "fine"}

    _inject(monkeypatch, "E-DIE", dying_once_runner)
    _inject(monkeypatch, "E-AFTER", ok_runner)
    sweep = run_experiments(
        ["E-DIE", "E-AFTER"],
        config=_config(tmp_path, jobs=1, chunk_size=2, retries=1))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-DIE"].status == "ok"
    assert by_id["E-DIE"].attempts == 2
    assert by_id["E-AFTER"].status == "ok"
    assert sweep.results["E-DIE"] == {"value": "recovered"}


# -- scheduler: result sizes, per-task deadlines, worker signals ------

#: Straddles the ~64 KiB OS pipe buffer and reaches far past it.
RESULT_SIZES = (1_000, 60_000, 70_000, 1_000_000, 10_000_000)


def _blob_runner(size):
    def runner():
        return {"blob": b"x" * size}
    return runner


@pytest.mark.parametrize("chunk_size", [None, 2], ids=["single", "chunked"])
@pytest.mark.parametrize("size", RESULT_SIZES)
def test_result_of_any_size_returns(tmp_path, monkeypatch, size,
                                    chunk_size):
    ids = ["E-BLOB0", "E-BLOB1"] if chunk_size else ["E-BLOB0"]
    for experiment_id in ids:
        _inject(monkeypatch, experiment_id, _blob_runner(size))
    start = time.monotonic()
    sweep = run_experiments(ids, config=_config(
        tmp_path, jobs=1, timeout_s=20.0, chunk_size=chunk_size))
    assert time.monotonic() - start < 10.0
    assert [record.status for record in sweep.records] == ["ok"] * len(ids)
    for experiment_id in ids:
        assert sweep.results[experiment_id] == {"blob": b"x" * size}


def test_large_result_without_timeout_does_not_hang(tmp_path, monkeypatch):
    import threading

    _inject(monkeypatch, "E-BLOB", _blob_runner(1_000_000))
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(run_experiments(
            ["E-BLOB"], config=_config(tmp_path, timeout_s=None))),
        daemon=True)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "sweep hung on a 1 MB result"
    assert outcome[0].records[0].status == "ok"
    assert outcome[0].results["E-BLOB"] == {"blob": b"x" * 1_000_000}


def test_each_chunk_mate_gets_its_own_deadline(tmp_path, monkeypatch):
    def steady_runner():
        time.sleep(1.2)  # 0.6 x timeout_s: two of these overrun one budget
        return "steady"

    _inject(monkeypatch, "E-STEADY0", steady_runner)
    _inject(monkeypatch, "E-STEADY1", steady_runner)
    sweep = run_experiments(
        ["E-STEADY0", "E-STEADY1"],
        config=_config(tmp_path, jobs=1, chunk_size=2, timeout_s=2.0))
    assert [record.status for record in sweep.records] == ["ok", "ok"]
    assert all(record.attempts == 1 for record in sweep.records)


def test_hang_after_fast_chunk_mate_times_out_alone(tmp_path, monkeypatch):
    def fast_runner():
        return {"value": "fast"}

    def hung_runner():
        time.sleep(60)

    _inject(monkeypatch, "E-FAST", fast_runner)
    _inject(monkeypatch, "E-HUNG", hung_runner)
    config = _config(tmp_path, jobs=1, chunk_size=2, timeout_s=1.0)
    start = time.monotonic()
    sweep = run_experiments(["E-FAST", "E-HUNG"], config=config)
    assert time.monotonic() - start < 1.0 + 1.5
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-FAST"].status == "ok"
    assert sweep.results["E-FAST"] == {"value": "fast"}
    assert by_id["E-HUNG"].status == "timeout"
    assert by_id["E-HUNG"].error.startswith("timeout: exceeded 1.0 s")
    # the fast mate's result was stored before the hung task was killed
    warm = run_experiments(["E-FAST"], config=config)
    assert warm.records[0].cache_hit


def test_worker_restores_default_signal_disposition(tmp_path, monkeypatch):
    import signal

    def runner():
        return [signal.getsignal(signal.SIGTERM),
                signal.getsignal(signal.SIGINT)]

    _inject(monkeypatch, "E-SIGNALS", runner)
    sweep = run_experiments(
        ["E-SIGNALS"], config=_config(tmp_path, handle_signals=True))
    assert sweep.records[0].status == "ok"
    assert sweep.results["E-SIGNALS"] == [signal.SIG_DFL, signal.SIG_IGN]


def test_timeout_kill_is_prompt_and_silent_under_a_wakeup_fd(
        tmp_path, monkeypatch):
    """A host process (e.g. an asyncio daemon) with its own SIGTERM
    handler and wakeup fd runs the engine on a non-main thread: killing
    a hung worker must neither wait out the SIGTERM grace period nor
    report the worker's signal on the host's wakeup fd."""
    import signal
    import socket
    import threading

    def hung_runner():
        time.sleep(60)

    _inject(monkeypatch, "E-HUNG", hung_runner)
    reader, writer = socket.socketpair()
    writer.setblocking(False)
    previous_handler = signal.signal(signal.SIGTERM, lambda *_: None)
    previous_fd = signal.set_wakeup_fd(writer.fileno())
    try:
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(run_experiments(
                ["E-HUNG"], config=_config(tmp_path, timeout_s=2.0))),
            daemon=True)
        start = time.monotonic()
        thread.start()
        thread.join(timeout=30.0)
        elapsed = time.monotonic() - start
    finally:
        signal.set_wakeup_fd(previous_fd)
        signal.signal(signal.SIGTERM, previous_handler)
    reader.setblocking(False)
    try:
        written = reader.recv(64)
    except BlockingIOError:
        written = b""
    finally:
        reader.close()
        writer.close()
    assert outcome and outcome[0].records[0].status == "timeout"
    assert elapsed < 2.0 + 1.5
    assert written == b""


# -- scheduler: API surface -------------------------------------------


def test_unknown_ids_rejected(tmp_path):
    with pytest.raises(ReproError, match="E-NOPE"):
        run_experiments(["E-T1", "E-NOPE"], config=_config(tmp_path))


def test_duplicate_ids_deduplicated(tmp_path):
    sweep = run_experiments(["E-T1", "E-T1"], config=_config(tmp_path))
    assert [record.experiment_id for record in sweep.records] == ["E-T1"]


def test_inline_executor_matches_process_results(tmp_path):
    inline = run_experiments(
        ["E-T2"], config=_config(tmp_path, executor="inline",
                                 cache_enabled=False))
    process = run_experiments(
        ["E-T2"], config=_config(tmp_path, cache_enabled=False))
    assert inline.results["E-T2"]["summary"] \
        == process.results["E-T2"]["summary"]


def test_engine_writes_journal(tmp_path, monkeypatch):
    def bad_runner():
        raise RuntimeError("journalled failure")

    _inject(monkeypatch, "E-BAD", bad_runner)
    config = _config(tmp_path)
    run_experiments(["E-T1", "E-BAD"], config=config)
    records = RunJournal.read(config.effective_journal_path)
    by_id = {record.experiment_id: record for record in records}
    assert by_id["E-T1"].status == "ok"
    assert "journalled failure" in by_id["E-BAD"].error


def test_run_experiments_kwarg_overrides(tmp_path):
    sweep = run_experiments(["E-T1"], cache_enabled=False,
                            executor="inline")
    assert sweep.metrics.cache_misses == 1
    assert (tmp_path / "cache").exists() is False


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(jobs=0)
    with pytest.raises(ValueError):
        EngineConfig(retries=-1)
    with pytest.raises(ValueError):
        EngineConfig(executor="threads")


def test_engine_full_registry_inline(tmp_path):
    engine = ExecutionEngine(_config(tmp_path, executor="inline"))
    sweep = engine.run()
    assert sweep.metrics.total == len(EXPERIMENTS)
    assert sweep.all_ok
    assert set(sweep.results) == set(EXPERIMENTS)


# -- scheduler: fault injection and backoff ---------------------------


def test_injected_transient_fault_absorbed_by_retry(tmp_path):
    plan = FaultPlan("t", (FaultSpec("transient", "E-T1"),))
    sweep = run_experiments(
        ["E-T1", "E-T2"],
        config=_config(tmp_path, retries=1, fault_plan=plan,
                       executor="inline"))
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"
    assert by_id["E-T1"].attempts == 2
    assert by_id["E-T2"].attempts == 1
    assert [(f.experiment_id, f.kind) for f in sweep.fired_faults] \
        == [("E-T1", "transient")]


def test_injected_crash_fault_absorbed_in_process_pool(tmp_path):
    plan = FaultPlan("c", (FaultSpec("crash", "E-T2"),))
    sweep = run_experiments(
        ["E-T2"], config=_config(tmp_path, retries=1, fault_plan=plan))
    record = sweep.records[0]
    assert record.status == "ok" and record.attempts == 2
    assert sweep.fired_faults[0].kind == "crash"


def test_torn_cache_entry_recomputed_on_warm_sweep(tmp_path):
    """corrupt-cache fault: the warm sweep must recompute, never trust
    (or crash on) the torn entry."""
    plan = FaultPlan("cc", (FaultSpec("corrupt-cache", "E-T2"),))
    config = _config(tmp_path, executor="inline")
    cold = run_experiments(
        ["E-T2"], config=_config(tmp_path, executor="inline",
                                 fault_plan=plan))
    assert cold.all_ok
    assert cold.fired_faults[0].kind == "corrupt-cache"
    warm = run_experiments(["E-T2"], config=config)
    assert warm.all_ok
    assert not warm.records[0].cache_hit  # quarantined -> recomputed
    again = run_experiments(["E-T2"], config=config)
    assert again.records[0].cache_hit  # repaired entry now reused
    assert warm.results["E-T2"]["summary"] \
        == again.results["E-T2"]["summary"]


def test_retry_backoff_spaces_attempts(tmp_path):
    plan = FaultPlan("t", (FaultSpec("transient", "E-T2"),))
    policy = BackoffPolicy(base_s=0.2, factor=1.0, max_s=0.2,
                           jitter=0.0)
    start = time.monotonic()
    sweep = run_experiments(
        ["E-T2"],
        config=_config(tmp_path, retries=1, fault_plan=plan,
                       backoff=policy, executor="inline",
                       cache_enabled=False))
    elapsed = time.monotonic() - start
    assert sweep.records[0].attempts == 2
    assert elapsed >= 0.2  # the retry waited out the backoff delay


# -- monotonic timing discipline --------------------------------------


def test_wall_time_immune_to_backwards_clock(tmp_path, monkeypatch):
    """An NTP step (time.time() jumping backwards mid-run) must not
    produce negative durations: every measured interval is a
    difference of monotonic readings."""
    steps = itertools.count()

    def backwards_clock():
        return 1.0e9 - 60.0 * next(steps)  # a minute back per reading

    monkeypatch.setattr(time, "time", backwards_clock)
    sweep = run_experiments(
        ["E-T1"], config=_config(tmp_path, executor="inline"))
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.wall_time_s >= 0.0
    assert all(value >= 0.0 for value in record.phases.values())
    assert sweep.metrics.sweep_wall_s >= 0.0


def test_no_wall_clock_deltas_in_repro_sources():
    """time.time() may appear only at the obs clock anchor; every other
    unix-scale stamp (including the cache's created_at) must come from
    wall_now(), which is monotonic-derived and NTP-step-safe."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {src / "obs" / "clock.py"}
    offenders = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if path not in allowed
        and "time.time()" in path.read_text(encoding="utf-8"))
    assert offenders == []


# -- metrics: speedup n/a and retry derivation ------------------------


def test_speedup_na_when_runner_time_unmeasurable():
    records = [RunRecord("E-T1", "ok", 0.0, False, 1)]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=0.5)
    assert metrics.speedup is None
    assert "n/a parallel speedup" in metrics.render()


def test_speedup_na_when_sweep_fully_cached():
    records = [RunRecord("E-T1", "ok", 0.2, True, 0),
               RunRecord("E-T2", "ok", 0.3, True, 0)]
    metrics = EngineMetrics.from_records(records, sweep_wall_s=0.4)
    assert metrics.fully_cached
    assert metrics.speedup is None
    assert "n/a parallel speedup" in metrics.render()
    # a mixed sweep with real runner time still reports the ratio
    mixed = records + [RunRecord("E-T3", "ok", 0.8, False, 1)]
    assert EngineMetrics.from_records(mixed, 0.65).speedup is not None


def test_retries_derived_from_per_record_attempts():
    records = [
        RunRecord("E-T1", "ok", 0.1, True, 0),   # plain cache hit
        RunRecord("E-T2", "ok", 0.2, False, 3),  # two retries
        RunRecord("E-T3", "ok", 0.1, True, 2),   # retried, then served
    ]                                            # by the retry recheck
    metrics = EngineMetrics.from_records(records, 1.0)
    assert metrics.retries == 3
    # the superseded attempts-minus-misses arithmetic miscounts here
    assert max(0, metrics.attempts - metrics.cache_misses) \
        != metrics.retries
    assert f"({metrics.retries} retries)" in metrics.render()


def test_retry_recheck_serves_entry_stored_by_concurrent_sweep(
        tmp_path, monkeypatch):
    """Between a failed attempt and its retry another sweep may have
    cached the result; the engine must serve it instead of relaunching,
    yielding the cache_hit-with-attempts record the retry arithmetic
    has to survive."""
    def always_failing():
        raise RuntimeError("flaky dependency")

    _inject(monkeypatch, "E-RACE", always_failing)
    policy = BackoffPolicy(base_s=0.01, factor=1.0, max_s=0.01,
                           jitter=0.0)
    engine = ExecutionEngine(_config(
        tmp_path, executor="inline", retries=1, backoff=policy))
    calls = {"n": 0}

    def racing_get(experiment_id, fingerprint):
        calls["n"] += 1
        if calls["n"] == 1:
            return False, None  # cold at first lookup
        return True, {"value": "from-other-sweep"}

    monkeypatch.setattr(engine.cache, "get", racing_get)
    sweep = engine.run(["E-RACE"])
    record = sweep.records[0]
    assert record.status == "ok"
    assert record.cache_hit and record.attempts == 1
    assert sweep.results["E-RACE"] == {"value": "from-other-sweep"}
    assert sweep.metrics.retries == 0
    assert sweep.metrics.cache_hits == 1


# -- phases -----------------------------------------------------------


def test_record_phases_round_trip_through_journal(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    records = [
        RunRecord("E-T1", "ok", 0.012, False, 1, started_at=123.0,
                  phases={"lookup": 0.002, "run": 0.009,
                          "store": 0.001, "queue": 0.5}),
        RunRecord("E-T2", "ok", 0.001, True, 0,
                  phases={"lookup": 0.001}),
    ]
    journal.append_many(records)
    assert RunJournal.read(journal.path) == records


def test_process_sweep_phases_sum_to_wall_time(tmp_path):
    sweep = run_experiments(
        ["E-T1", "E-T2"],
        config=_config(tmp_path, cache_enabled=False))
    assert sweep.all_ok
    for record in sweep.records:
        assert "run" in record.phases
        active = sum(value for name, value in record.phases.items()
                     if name not in WAIT_PHASES)
        assert active == pytest.approx(record.wall_time_s, rel=0.05)
    for name in sweep.metrics.phase_totals:
        assert sweep.metrics.phase_totals[name] >= 0.0


def test_cache_hit_record_carries_lookup_phase(tmp_path):
    config = _config(tmp_path, executor="inline")
    run_experiments(["E-T1"], config=config)
    warm = run_experiments(["E-T1"], config=config)
    record = warm.records[0]
    assert record.cache_hit
    assert set(record.phases) == {"lookup"}
    assert record.phases["lookup"] == pytest.approx(record.wall_time_s)


# -- tracing integration ----------------------------------------------


def test_traced_sweep_records_engine_spans_and_counters(tmp_path):
    with tracing(Trace("test-sweep")) as trace:
        sweep = run_experiments(
            ["E-T1"], config=_config(tmp_path, executor="inline"))
    assert sweep.all_ok
    names = {record.name for record in trace.spans}
    assert {"engine.sweep", "engine.run", "engine.lookup",
            "engine.store"} <= names
    assert trace.counters.get("cache.misses") == 1
    assert trace.counters.get("cache.stores") == 1


def test_traced_process_sweep_collects_worker_spans(tmp_path):
    with tracing(Trace("test-sweep")) as trace:
        sweep = run_experiments(
            ["E-T2"], config=_config(tmp_path, cache_enabled=False))
    assert sweep.all_ok
    names = {record.name for record in trace.spans}
    assert "worker.run" in names  # shipped back from the child
    worker = next(record for record in trace.spans
                  if record.name == "worker.run")
    assert worker.pid != os.getpid()
    assert worker.attributes["experiment"] == "E-T2"


def test_untraced_sweep_leaves_no_trace_state(tmp_path):
    sweep = run_experiments(
        ["E-T1"], config=_config(tmp_path, executor="inline"))
    assert sweep.all_ok
    assert current_trace() is None


# -- claims (cross-process in-flight leases) --------------------------


def _claims_cache(tmp_path):
    from repro.engine import ResultCache
    return ResultCache(tmp_path / "cache")


def test_claim_is_exclusive_until_released(tmp_path):
    cache = _claims_cache(tmp_path)
    assert cache.claim("E-T1", "f" * 64) is True
    assert cache.claim("E-T1", "f" * 64) is False
    cache.release_claim("E-T1", "f" * 64)
    assert cache.claim("E-T1", "f" * 64) is True
    assert cache.claim_count() == 1
    assert cache.stats.claims == 2


def test_claim_holder_identifies_this_process(tmp_path):
    import socket

    from repro.engine import ResultCache
    cache = _claims_cache(tmp_path)
    assert cache.claim_holder("E-T1", "f" * 64) is None
    cache.claim("E-T1", "f" * 64)
    holder = cache.claim_holder("E-T1", "f" * 64)
    assert holder.pid == os.getpid()
    assert holder.host == socket.gethostname()
    assert holder.holder_alive() is True
    assert not ResultCache.claim_is_stale(holder)


def test_a_claim_is_never_visible_without_its_holder(tmp_path):
    """A waiter reading a claim mid-creation must not see a holderless
    (and therefore stale) claim, or it breaks a live lease."""
    import os
    import sys
    import threading

    cache = _claims_cache(tmp_path)
    seen = []
    done = threading.Event()

    def reader():
        while not done.is_set():
            holder = cache.claim_holder("E-T1", "f" * 64)
            if holder is not None:
                seen.append(holder.pid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for _ in range(300):
            assert cache.claim("E-T1", "f" * 64) is True
            cache.release_claim("E-T1", "f" * 64)
    finally:
        done.set()
        thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert set(seen) <= {os.getpid()}

def test_dead_holder_claim_is_stale_and_breakable(tmp_path):
    import multiprocessing
    import socket

    from repro.engine import ClaimInfo, ResultCache
    from repro.obs import wall_now

    probe = multiprocessing.get_context().Process(target=lambda: None)
    probe.start()
    probe.join()
    dead = ClaimInfo(pid=probe.pid, host=socket.gethostname(),
                     created_at=wall_now())
    assert dead.holder_alive() is False
    assert ResultCache.claim_is_stale(dead)

    cache = _claims_cache(tmp_path)
    path = cache.claim_path("E-T1", "f" * 64)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"pid": probe.pid,
                                "host": socket.gethostname(),
                                "created_at": wall_now()}))
    cache.break_claim("E-T1", "f" * 64)
    assert not path.exists()
    assert cache.stats.claims_broken == 1


def test_corrupt_claim_file_reads_as_stale(tmp_path):
    from repro.engine import ResultCache
    cache = _claims_cache(tmp_path)
    path = cache.claim_path("E-T1", "f" * 64)
    path.parent.mkdir(parents=True)
    path.write_text("not json at all")
    holder = cache.claim_holder("E-T1", "f" * 64)
    assert holder is not None
    assert ResultCache.claim_is_stale(holder)


def test_sweep_waits_on_foreign_claim_then_reads_stored_result(
        tmp_path, monkeypatch):
    """The claim loser never recomputes: it polls the lease and is
    served the winner's stored result as a shared-store hit."""
    import threading

    from repro.engine import ResultCache, runner_fingerprint

    def runner():  # pragma: no cover - must never execute
        raise AssertionError("claim waiter recomputed the key")

    _inject(monkeypatch, "E-T1", runner)
    fingerprint = runner_fingerprint("E-T1", runner)
    cache = ResultCache(tmp_path / "cache")
    assert cache.claim("E-T1", fingerprint)  # "foreign" live claim

    config = _config(tmp_path, jobs=1, executor="inline",
                     claim_poll_s=0.01)
    done = {}

    def sweep():
        done["sweep"] = ExecutionEngine(config).run(["E-T1"])

    waiter = threading.Thread(target=sweep)
    waiter.start()
    time.sleep(0.15)  # the waiter is now polling the claim
    cache.put("E-T1", fingerprint, {"from": "winner"})
    cache.release_claim("E-T1", fingerprint)
    waiter.join(timeout=30.0)

    record = done["sweep"].records[0]
    assert record.status == "ok"
    assert record.cache_hit is True
    assert done["sweep"].results["E-T1"] == {"from": "winner"}
    assert record.phases.get("shared", 0.0) > 0.0


def test_expired_claim_ttl_lets_the_waiter_take_over(
        tmp_path, monkeypatch):
    from repro.engine import ResultCache, runner_fingerprint

    calls = []

    def runner():
        calls.append(1)
        return {"value": 9}

    _inject(monkeypatch, "E-T1", runner)
    fingerprint = runner_fingerprint("E-T1", runner)
    cache = ResultCache(tmp_path / "cache")
    assert cache.claim("E-T1", fingerprint)  # held by us, never freed

    config = _config(tmp_path, jobs=1, executor="inline",
                     claim_ttl_s=0.1, claim_poll_s=0.01)
    sweep = ExecutionEngine(config).run(["E-T1"])
    assert sweep.records[0].status == "ok"
    assert calls == [1]  # the stale lease was broken, the task ran
    assert not cache.claim_path("E-T1", fingerprint).exists()


def test_claims_disabled_skips_lease_protocol(tmp_path, monkeypatch):
    from repro.engine import ResultCache, runner_fingerprint

    def runner():
        return 5

    _inject(monkeypatch, "E-T1", runner)
    fingerprint = runner_fingerprint("E-T1", runner)
    cache = ResultCache(tmp_path / "cache")
    cache.claim("E-T1", fingerprint)  # a foreign claim to ignore

    config = _config(tmp_path, jobs=1, executor="inline",
                     claim_results=False)
    sweep = ExecutionEngine(config).run(["E-T1"])
    assert sweep.records[0].status == "ok"
    assert sweep.results["E-T1"] == 5  # ran straight through


# -- graceful shutdown ------------------------------------------------


def test_drain_signal_cancels_pending_tasks(tmp_path, monkeypatch):
    """SIGINT mid-sweep: the in-flight task finishes and is stored;
    tasks not yet launched settle as ``cancelled``; the journal holds
    every record and the result carries ``interrupted``."""
    import signal

    def first():
        os.kill(os.getpid(), signal.SIGINT)
        return "finished anyway"

    def second():  # pragma: no cover - must never execute
        raise AssertionError("cancelled task was launched")

    _inject(monkeypatch, "E-T1", first)
    _inject(monkeypatch, "E-T2", second)
    config = _config(tmp_path, jobs=1, executor="inline")
    sweep = ExecutionEngine(config).run(["E-T1", "E-T2"])

    assert sweep.interrupted is True
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"
    assert by_id["E-T2"].status == "cancelled"
    assert "interrupted" in by_id["E-T2"].error
    assert sweep.metrics.cancelled == 1
    assert not sweep.metrics.all_ok
    # the journal flushed both records
    journal = RunJournal.read(config.effective_journal_path)
    assert {record.status for record in journal} == {"ok", "cancelled"}


def test_drain_signal_process_pool(tmp_path, monkeypatch):
    import signal

    def first():
        os.kill(os.getppid(), signal.SIGTERM)
        time.sleep(0.3)  # give the parent time to take the signal
        return 1

    def second():  # pragma: no cover
        raise AssertionError("cancelled task was launched")

    _inject(monkeypatch, "E-T1", first)
    _inject(monkeypatch, "E-T2", second)
    config = _config(tmp_path, jobs=1)
    sweep = ExecutionEngine(config).run(["E-T1", "E-T2"])
    assert sweep.interrupted is True
    by_id = {record.experiment_id: record for record in sweep.records}
    assert by_id["E-T1"].status == "ok"  # in-flight work completed
    assert by_id["E-T2"].status == "cancelled"


def test_handlers_restored_after_sweep(tmp_path):
    import signal

    before = (signal.getsignal(signal.SIGINT),
              signal.getsignal(signal.SIGTERM))
    run_experiments(["E-T1"],
                    config=_config(tmp_path, executor="inline"))
    after = (signal.getsignal(signal.SIGINT),
             signal.getsignal(signal.SIGTERM))
    assert before == after


def test_metrics_count_cancelled_records():
    records = [RunRecord("E-T1", "ok", 0.1, False, 1),
               RunRecord("E-T2", "cancelled", 0.0, False, 0,
                         error="interrupted")]
    metrics = EngineMetrics.from_records(records, 0.1)
    assert metrics.cancelled == 1
    assert not metrics.all_ok
    assert "1 cancelled" in metrics.render()
