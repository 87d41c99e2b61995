"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

A smoke run of every workload through ``run.py``, rejection of
corrupted results by each output check, and the removal of the traced
run's layer wrappers before anything untraced is measured.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import layers  # noqa: E402
from common import Phase, metric  # noqa: E402
from grid_signoff import Corner, check_visit  # noqa: E402
from paper_sweep import check_sweep  # noqa: E402
from service_jobs import check_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def _run(*args: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0.1", *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def traced_smoke():
    return _run("--workload", "all", "--trace", "1", "--seed", "3")


def test_smoke_every_workload_traced(traced_smoke):
    code, lines = traced_smoke
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in child.WORKLOADS:
        names = {key.split("/", 1)[1] for key in result["metrics"]
                 if key.startswith(workload + "/")}
        assert names == set(layers.PER_LAYER)
    report = "\n".join(lines)
    for name in [*E2E_UNITS, "trace.unattributed_share", "tracing overhead"]:
        assert name in report


def test_smoke_untraced_prints_end_to_end_metrics():
    code, lines = _run("--workload", "service-jobs", "--seed", "4")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == E2E_UNITS
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_benchmark_json_names_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(child.WORKLOADS)
    assert {m["name"]: m["unit"]
            for m in SPEC["per_layer"]} == layers.PER_LAYER


def test_missing_program_exits_nonzero(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, str(copy / "run.py"),
                           "--workload", "grid-signoff"],
                          capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert done.returncode != 0 and not done.stdout.strip()


def _sweep(results, warm=False, status="ok"):
    records = [SimpleNamespace(experiment_id=key, status=status,
                               cache_hit=warm, error=None)
               for key in results]
    return SimpleNamespace(records=records, results=results)


def test_sweep_check_rejects_corruption():
    reference = {"E-T1": {"rows": [1.0, 2.0]}, "E-C5": {"x": 0.25}}
    assert check_sweep(_sweep(reference), reference, warm=False) == []
    corrupted = {"E-T1": {"rows": [1.0, 2.0000001]}, "E-C5": {"x": 0.25}}
    assert check_sweep(_sweep(corrupted), reference, warm=False)
    assert check_sweep(_sweep({"E-T1": reference["E-T1"]}), reference,
                       warm=False)
    assert check_sweep(_sweep(reference, status="failed"), reference,
                       warm=False)
    assert check_sweep(_sweep(reference, warm=False), reference, warm=True)


def test_grid_check_accepts_solver_output_and_rejects_corruption():
    from repro.analysis.scaling import _grid_inputs
    from repro.pdn.grid import solve_power_grid_2d

    density, sheet, width, pitch = _grid_inputs()
    visit = []
    for sheet_mult, density_mult in ((1.0, 1.0), (1.2, 0.9), (0.8, 1.1)):
        solution = solve_power_grid_2d(
            density * density_mult, sheet * sheet_mult, width / 8, pitch,
            rails_per_pitch=8, cells=3)
        visit.append(Corner(3, sheet_mult, density_mult, solution.n_nodes,
                            solution.worst_drop_v, 0.01))
    assert check_visit(visit) == []
    bad = visit[2]
    visit[2] = Corner(bad.cells, bad.sheet_mult, bad.density_mult,
                      bad.n_nodes, bad.worst_drop_v * (1 + 1e-6), 0.01)
    assert check_visit(visit)


def test_job_check_rejects_corruption():
    reference = {"value": 1.5, "rows": [1, 2]}
    final = {"state": "done", "records": [{"cache_hit": True}]}
    good = {"results": {"E-T1": {"value": 1.5, "rows": [1, 2]}}}
    assert check_job("E-T1", True, final, good, reference) == []
    bad = {"results": {"E-T1": {"value": 1.5000001, "rows": [1, 2]}}}
    assert check_job("E-T1", True, final, bad, reference)
    assert check_job("E-T1", True, {"state": "failed"}, good, reference)
    recomputed = {"state": "done", "records": [{"cache_hit": False}]}
    assert check_job("E-T1", True, recomputed, good, reference)
    assert check_job("E-T1", False, recomputed, good, reference) == []


def test_wrappers_are_removed_completely():
    import importlib

    from repro.obs import Trace, tracing
    from repro.pdn import grid

    modules = [(importlib.import_module(name), attr)
               for name, attr, _ in layers.FUNCTIONS]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr in modules]
    instrumentation = layers.Instrumentation().install()
    wrappers = instrumentation.wrappers()
    assert grid.guarded_linear_solve is not originals[-1][2]
    instrumentation.remove()
    assert instrumentation.leftovers(wrappers) == []
    assert all(getattr(module, attr) is original
               for module, attr, original in originals)
    trace = Trace("after-remove")
    with tracing(trace):
        grid.solve_power_grid_2d(1e5, 0.02, 1e-6, 1e-4, rails_per_pitch=4)
    assert not [s for s in trace.spans if s.name.startswith(layers.PREFIX)]


def test_traced_run_removes_wrappers_before_untraced_phase():
    from repro.pdn import grid

    original = grid.solve_power_grid_2d
    seen = []

    class Probe:
        def run_phase(self, seconds, traced):
            wrapped = grid.solve_power_grid_2d is not original
            seen.append((traced, wrapped))
            phase = Phase(attempted=1)
            phase.e2e = {"cold_ms": metric(1.0, "ms")}
            return phase

    result = child.measure(Probe(), 0.0, trace=True)
    assert seen == [(True, True), (False, False)]
    assert set(result["traced"]["layers"]) == set(layers.PER_LAYER)


def test_self_time_subtracts_nested_layer_spans_only():
    def record(name, start, duration, tid=1):
        return SimpleNamespace(name=name, start_s=start, duration_s=duration,
                               end_s=start + duration, pid=1, tid=tid,
                               attributes={})

    spans = [record("pb.optim", 0.0, 10.0),
             record("pb.netlist.sta", 1.0, 2.0),
             record("engine.lookup", 4.0, 1.0),
             record("pb.optim", 5.0, 3.0),
             record("pb.netlist.sta", 6.0, 1.0),
             record("pb.netlist.sta", 20.0, 4.0, tid=2)]
    busy = layers.busy_by_layer(spans)
    assert busy["pb.optim"] == (pytest.approx(10.0 - 2.0 - 3.0 + 2.0), 2)
    assert busy["pb.netlist.sta"] == (pytest.approx(7.0), 3)
