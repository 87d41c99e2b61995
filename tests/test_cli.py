"""Command-line interface."""

import json

import pytest

from repro.analysis.experiments import EXPERIMENTS, Experiment
from repro.cli import _print_result, main
from repro.obs import load_chrome_trace


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E-T2" in out
    assert "Figure 5" in out


def test_roadmap_command(capsys):
    assert main(["roadmap"]) == 0
    out = capsys.readouterr().out
    assert "180" in out
    assert "35" in out
    assert "Vdd" in out


def test_run_fast_experiment(capsys):
    assert main(["run", "E-T2"]) == 0
    out = capsys.readouterr().out
    assert "E-T2" in out
    assert "vth" in out.lower()


def test_run_figure(capsys):
    assert main(["run", "E-F3"]) == 0
    out = capsys.readouterr().out
    assert "curve:" in out


def test_unknown_experiment_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "E-X9"])
    assert excinfo.value.code == 2
    # argparse's message lists the known ids
    assert "E-T1" in capsys.readouterr().err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_run_unexpected_exception_exits_3(capsys, monkeypatch):
    def exploding_runner():
        raise RuntimeError("model blew up")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    assert main(["run", "E-T1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "model blew up" in err


def test_print_result_empty_scalars(capsys):
    _print_result({})
    _print_result({"summary": {}})
    assert capsys.readouterr().out == ""


def test_run_all_subset(capsys, tmp_path):
    code = main(["run-all", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1", "E-T2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "E-T1" in out and "E-T2" in out
    assert "cache" in out
    assert "2 total: 2 ok" in out


def test_run_all_workers_alias(capsys, tmp_path):
    code = main(["run-all", "--workers", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1", "E-T2"])
    assert code == 0
    assert "2 total: 2 ok" in capsys.readouterr().out


def test_bad_repro_workers_is_a_clean_usage_error(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    # Unrelated commands resolve no worker count and stay unaffected.
    assert main(["roadmap"]) == 0
    capsys.readouterr()
    # Sweep commands report the bad value as a usage error (exit 2)...
    code = main(["run-all", "--cache-dir", str(tmp_path / "cache"),
                 "E-T1"])
    assert code == 2
    assert "REPRO_WORKERS" in capsys.readouterr().err
    # ...unless --jobs/--workers overrides the environment.
    code = main(["run-all", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"), "E-T1"])
    assert code == 0


def test_run_all_warm_run_hits_cache(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert main(["run-all", "--jobs", "2", "--cache-dir", cache_dir,
                 "E-T1", "E-T2"]) == 0
    capsys.readouterr()
    assert main(["run-all", "--jobs", "2", "--cache-dir", cache_dir,
                 "E-T1", "E-T2"]) == 0
    out = capsys.readouterr().out
    assert "2 hits, 0 misses" in out


def test_run_all_no_cache(capsys, tmp_path):
    code = main(["run-all", "--no-cache",
                 "--cache-dir", str(tmp_path / "unused"),
                 "E-T1"])
    assert code == 0
    assert not (tmp_path / "unused").exists()
    assert "0 hits, 1 misses" in capsys.readouterr().out


def test_run_all_json_output(capsys, tmp_path):
    code = main(["run-all", "--jobs", "2", "--json",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1", "E-F1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {record["experiment_id"]
            for record in payload["records"]} == {"E-T1", "E-F1"}
    assert payload["metrics"]["ok"] == 2


def test_run_all_unknown_id_exits_2(capsys, tmp_path):
    code = main(["run-all", "--cache-dir", str(tmp_path / "cache"),
                 "E-BOGUS"])
    assert code == 2
    err = capsys.readouterr().err
    assert "E-BOGUS" in err and "known ids" in err


def test_run_all_failure_exits_1(capsys, tmp_path, monkeypatch):
    def exploding_runner():
        raise RuntimeError("sweep failure")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["run-all", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1", "E-T2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "failed" in out and "sweep failure" in out


def test_run_all_total_failure_exits_3(capsys, tmp_path, monkeypatch):
    def exploding_runner():
        raise RuntimeError("total failure")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["run-all", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1"])
    assert code == 3
    assert "total failure" in capsys.readouterr().out


def test_run_all_prints_error_tail_not_head(capsys, tmp_path,
                                            monkeypatch):
    # the raise site lands at the END of an error repr; the status
    # table must show that end, elided from the front.
    def exploding_runner():
        raise RuntimeError("x" * 200 + " the-actual-cause")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["run-all", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"), "E-T1"])
    assert code == 3
    out = capsys.readouterr().out
    assert "the-actual-cause" in out
    assert "..." in out


def test_error_tail_helper():
    from repro.cli import _error_tail
    assert _error_tail(None) == ""
    assert _error_tail("short") == "short"
    long = "A" * 100 + "END"
    tail = _error_tail(long, width=20)
    assert len(tail) == 20
    assert tail.startswith("...") and tail.endswith("END")
    assert _error_tail("spread  over\nlines", width=60) \
        == "spread over lines"


# -- chaos ------------------------------------------------------------


def test_chaos_list_plans(capsys):
    assert main(["chaos", "--list-plans"]) == 0
    out = capsys.readouterr().out
    assert "crash-transient" in out
    assert "full-chaos" in out


def test_chaos_requires_a_plan(capsys):
    assert main(["chaos"]) == 2
    assert "--plan is required" in capsys.readouterr().err


def test_chaos_unknown_plan_exits_2(capsys):
    assert main(["chaos", "--plan", "nope"]) == 2
    assert "unknown fault plan" in capsys.readouterr().err


def test_chaos_subset_absorbs_and_exits_0(capsys, tmp_path):
    code = main(["chaos", "--plan", "crash-transient", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "chaos"),
                 "E-T1", "E-F3", "E-C5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 absorbed" in out
    assert "3/3 correct" in out
    assert "exit 0" in out


def test_chaos_json_output(capsys, tmp_path):
    code = main(["chaos", "--plan", "crash-transient", "--jobs", "2",
                 "--json", "--cache-dir", str(tmp_path / "chaos"),
                 "E-T1", "E-F3", "E-C5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 0
    assert payload["correct_results"] == payload["total"] == 3
    assert all(entry["outcome"] == "absorbed"
               for entry in payload["outcomes"])


# -- trace ------------------------------------------------------------


def test_trace_command_writes_chrome_trace(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code = main(["trace", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(out_path),
                 "E-T1", "E-T2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine.run" in out       # breakdown table
    assert "cache.misses" in out     # counter table
    assert "2 total: 2 ok" in out    # metrics summary
    assert str(out_path) in out
    events = load_chrome_trace(out_path)  # validates on load
    names = {event["name"] for event in events
             if event.get("ph") == "X"}
    assert "engine.sweep" in names and "engine.run" in names


def test_trace_command_json_format(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code = main(["trace", "--format", "json", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(out_path), "E-T1"])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["span_count"] == len(payload["spans"]) > 0
    assert any(row["name"] == "engine.run"
               for row in payload["phases"])
    assert {"cache.fingerprint_memo_hits",
            "cache.fingerprint_memo_misses"} <= set(payload["counters"])


def test_trace_in_missing_artifact_is_no_data_exit_0(capsys,
                                                     tmp_path):
    code = main(["trace", "--in", str(tmp_path / "absent.json")])
    assert code == 0
    assert "no trace data" in capsys.readouterr().out


def test_trace_in_unparseable_artifact_is_no_data_exit_0(capsys,
                                                         tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["trace", "--in", str(bad)]) == 0
    assert "no trace data" in capsys.readouterr().out


def test_trace_in_filters_spans_by_job_and_trace_id(capsys,
                                                    tmp_path):
    artifact = tmp_path / "trace.json"
    span = {"name": "engine.run", "start_s": 0.0, "duration_s": 0.5,
            "pid": 11, "tid": 1, "depth": 0, "parent": None}
    artifact.write_text(json.dumps({"spans": [
        span | {"attributes": {"trace_id": "tid-a", "job_id": "j-1"}},
        span | {"pid": 12,
                "attributes": {"trace_id": "tid-a", "job_id": "j-1"}},
        span | {"attributes": {"trace_id": "tid-b", "job_id": "j-2"}},
    ]}), encoding="utf-8")
    assert main(["trace", "--in", str(artifact),
                 "--trace-id", "tid-a"]) == 0
    out = capsys.readouterr().out
    assert "2 of 3 spans" in out
    assert "engine.run" in out
    # A filter nothing matches is still exit 0, with the miss named.
    assert main(["trace", "--in", str(artifact),
                 "--job", "j-missing"]) == 0
    out = capsys.readouterr().out
    assert "no trace data matching job_id=j-missing" in out
    assert "3 spans total" in out


def test_stats_in_missing_artifact_is_no_data_exit_0(capsys,
                                                     tmp_path):
    assert main(["stats", "--in", str(tmp_path / "absent.json")]) == 0
    assert "no stats data" in capsys.readouterr().out


def test_stats_in_empty_payload_is_no_data_exit_0(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert main(["stats", "--in", str(empty)]) == 0
    assert "no stats data" in capsys.readouterr().out


def test_stats_in_reads_trace_artifact_metrics(capsys, tmp_path):
    artifact = tmp_path / "trace.json"
    assert main(["trace", "--format", "json", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(artifact), "E-T1"]) == 0
    capsys.readouterr()
    assert main(["stats", "--in", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "cache.misses" in out


def test_profile_command_inline(capsys, tmp_path):
    out_path = tmp_path / "profile.txt"
    code = main(["profile", "E-T1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--interval", "0.0005",
                 "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "samples over" in out
    assert str(out_path) in out
    assert out_path.is_file()


def test_trace_command_top_limits_breakdown_rows(capsys, tmp_path):
    code = main(["trace", "--jobs", "2", "--top", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "trace.json"), "E-T1"])
    assert code == 0
    out = capsys.readouterr().out
    table = out.split("\n\n")[0].splitlines()
    assert len(table) == 3  # header + rule + exactly one phase row


def test_trace_command_cached_sweep_reports_na_speedup(capsys,
                                                       tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ["trace", "--jobs", "2", "--cache-dir", cache_dir,
            "--out", str(tmp_path / "trace.json"), "E-T1"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0  # warm: fully cached
    out = capsys.readouterr().out
    assert "n/a parallel speedup" in out
    assert "1 hits, 0 misses" in out


def test_trace_command_failure_exit_code(capsys, tmp_path,
                                         monkeypatch):
    def exploding_runner():
        raise RuntimeError("traced failure")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["trace", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "trace.json"),
                 "E-T1", "E-T2"])
    assert code == 1  # partial failure, same contract as run-all
    assert (tmp_path / "trace.json").exists()  # still exported


# -- stats ------------------------------------------------------------


def test_stats_command_table_format(capsys, tmp_path):
    code = main(["stats", "--jobs", "1", "--no-cache",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T2", "E-F1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "run latency by experiment family" in out
    assert "table" in out and "figure" in out
    assert "histograms:" in out
    assert "engine.run_s{family=table}" in out
    assert "resource.rss_peak_kb" in out     # gauge table
    assert "2 total: 2 ok" in out            # sweep summary rides along


def test_stats_command_prom_format_is_parseable(capsys, tmp_path):
    import re

    code = main(["stats", "--format", "prom", "--jobs", "1",
                 "--no-cache", "--cache-dir", str(tmp_path / "cache"),
                 "E-T2"])
    assert code == 0
    out = capsys.readouterr().out
    line_re = re.compile(
        r"^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
        r"(?:counter|gauge|histogram)"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
        r"(?:\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
        r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
        r" -?(?:[0-9.eE+-]+|\+Inf|NaN))$")
    lines = out.rstrip("\n").split("\n")
    assert lines
    for line in lines:
        assert line_re.match(line), f"bad exposition line: {line!r}"
    assert any(line.startswith("repro_engine_run_s_bucket{")
               for line in lines)


def test_stats_command_json_format_validates(capsys, tmp_path):
    from repro.obs import validate_metrics_payload

    code = main(["stats", "--format", "json", "--jobs", "1",
                 "--no-cache", "--cache-dir", str(tmp_path / "cache"),
                 "E-T2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert validate_metrics_payload(payload) == []
    assert any(entry["name"] == "engine.run_s"
               for entry in payload["histograms"])


def test_stats_command_failure_exit_code(capsys, tmp_path,
                                         monkeypatch):
    def exploding_runner():
        raise RuntimeError("stats failure")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["stats", "--jobs", "1", "--no-cache",
                 "--cache-dir", str(tmp_path / "cache"),
                 "E-T1", "E-T2"])
    assert code == 1  # partial failure, same contract as run-all


# -- bench ------------------------------------------------------------


def test_bench_first_run_writes_snapshot_no_baseline(capsys, tmp_path):
    out_dir = tmp_path / "baselines"
    code = main(["bench", "--repeats", "1",
                 "--out-dir", str(out_dir), "E-T2", "E-F1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no earlier snapshot" in out
    snapshots = list(out_dir.glob("BENCH_*.json"))
    assert len(snapshots) == 1
    from repro.bench import validate_snapshot
    assert validate_snapshot(
        json.loads(snapshots[0].read_text())) == []


def test_bench_second_run_compares_clean(capsys, tmp_path):
    out_dir = str(tmp_path / "baselines")
    args = ["bench", "--repeats", "1", "--out-dir", out_dir,
            "E-T2", "E-F1"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "no regressions" in out


def test_bench_synthetic_slowdown_trips_the_gate(capsys, tmp_path):
    out_dir = str(tmp_path / "baselines")
    base = ["bench", "--repeats", "1", "--out-dir", out_dir, "E-F1"]
    assert main(base) == 0
    capsys.readouterr()
    code = main(base + ["--slowdown", "0.5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "E-F1" in out


def test_bench_env_slowdown_and_json_output(capsys, tmp_path,
                                            monkeypatch):
    out_dir = str(tmp_path / "baselines")
    assert main(["bench", "--repeats", "1", "--out-dir", out_dir,
                 "E-F1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("REPRO_BENCH_SLOWDOWN_S", "0.5")
    code = main(["bench", "--repeats", "1", "--out-dir", out_dir,
                 "--json", "E-F1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["comparison"]["regressions"] == ["E-F1"]
    assert payload["snapshot"]["config"]["slowdown_s"] == 0.5


def test_bench_quick_flag_uses_quick_subset(capsys, tmp_path):
    from repro.bench import QUICK_IDS
    code = main(["bench", "--quick", "--repeats", "1", "--no-compare",
                 "--out-dir", str(tmp_path / "baselines")])
    assert code == 0
    out = capsys.readouterr().out
    for quick_id in QUICK_IDS:
        assert quick_id in out
    assert "comparison skipped" in out


def test_bench_usage_errors_exit_2(capsys, tmp_path):
    assert main(["bench", "--repeats", "0", "--out-dir",
                 str(tmp_path), "E-F1"]) == 2
    assert main(["bench", "--slowdown", "-1", "--out-dir",
                 str(tmp_path), "E-F1"]) == 2


def test_bench_failing_experiment_exits_3(capsys, tmp_path,
                                          monkeypatch):
    def exploding_runner():
        raise RuntimeError("bench failure")

    monkeypatch.setitem(
        EXPERIMENTS, "E-T1",
        Experiment("E-T1", "exploding", "(test)", exploding_runner))
    code = main(["bench", "--repeats", "1",
                 "--out-dir", str(tmp_path / "baselines"), "E-T1"])
    assert code == 3
    assert "bench failure" in capsys.readouterr().err


# -- cache command ----------------------------------------------------


def _seed_store(tmp_path, count=3):
    from repro.engine import ResultCache
    cache = ResultCache(tmp_path)
    for index in range(count):
        cache.put(f"E-T{index}", "f" * 64, {"value": index})
    return cache


def test_cache_stats_command(tmp_path, capsys):
    _seed_store(tmp_path)
    assert main(["cache", "--cache-dir", str(tmp_path), "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out
    assert "3" in out


def test_cache_stats_json(tmp_path, capsys):
    _seed_store(tmp_path, 2)
    assert main(["cache", "--cache-dir", str(tmp_path), "stats",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 2
    assert payload["quarantined"] == 0


def test_cache_prune_command(tmp_path, capsys):
    _seed_store(tmp_path)
    assert main(["cache", "--cache-dir", str(tmp_path), "prune",
                 "--max-entries", "1"]) == 0
    out = capsys.readouterr().out
    assert "evicted 2" in out
    assert len(list((tmp_path / "objects").glob("*.rpc"))) == 1


def test_cache_prune_requires_a_bound(tmp_path, capsys):
    assert main(["cache", "--cache-dir", str(tmp_path),
                 "prune"]) == 2
    assert "at least one bound" in capsys.readouterr().err


# -- service client errors --------------------------------------------


def test_jobs_unreachable_service_is_a_clean_error(capsys):
    assert main(["jobs", "--url", "http://127.0.0.1:1",
                 "list"]) == 2
    assert "cannot reach service" in capsys.readouterr().err


# -- interrupted sweeps -----------------------------------------------


def test_interrupted_sweep_maps_to_exit_code_4():
    from repro.cli import EXIT_INTERRUPTED, _sweep_exit_code
    from repro.engine import EngineMetrics, SweepResult
    from repro.engine.records import RunRecord

    records = [RunRecord("E-T1", "cancelled", 0.0, False, 0)]
    sweep = SweepResult(
        records=records, results={},
        metrics=EngineMetrics.from_records(records, 0.0),
        interrupted=True)
    assert _sweep_exit_code(sweep) == EXIT_INTERRUPTED == 4
