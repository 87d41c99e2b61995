"""Helpers shared by the orchestrator and the workload processes.

Nothing here imports ``repro``: the orchestrator stays light, and each
workload process pays for its own imports inside its measured set-up.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch space for result stores, daemon state and references.  It
#: lives inside the checkout so a run touches nothing outside it.
WORK_DIR = REPO_ROOT / ".perfbench_work"

#: Solver and runtime knobs that change what the program does.  Every
#: ``REPRO_*`` variable is removed from the workload environment; these
#: are the ones a result must name explicitly.
PINNED_ENV = ("REPRO_PRECONDITIONER", "REPRO_TRANSIM_METHOD",
              "REPRO_WORKERS", "REPRO_LOG_PATH", "REPRO_BENCH_SLOWDOWN_S")

#: Lines a workload process writes on stdout for its orchestrator.
READY_TAG = "PERFBENCH-READY"
RESULT_TAG = "PERFBENCH-RESULT "


def workload_env() -> tuple[dict[str, str], list[str]]:
    """Environment for a workload process and the knobs removed from it.

    ``PYTHONPATH`` points at this checkout's ``src`` only, so the
    program measured is the one built from this source tree.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    return env, removed


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_state() -> tuple[str | None, bool | None]:
    """``(revision, dirty)`` of the checkout, ``(None, None)`` outside git."""
    if not (REPO_ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        revision = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
            check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, env=env,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return revision, bool(status.strip())


def provenance(seed: int) -> dict[str, Any]:
    """What a result must carry to be compared with another one."""
    import numpy
    import scipy

    revision, dirty = git_state()
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "seed": seed,
        "env_unset": [key for key in PINNED_ENV if key not in os.environ],
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def same(left: Any, right: Any) -> bool:
    """Exact structural equality that also treats NaN as equal to NaN."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    if hasattr(left, "tolist") and hasattr(right, "tolist"):
        return same(left.tolist(), right.tolist())
    if isinstance(left, dict) and isinstance(right, dict):
        return (left.keys() == right.keys()
                and all(same(left[key], right[key]) for key in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (type(left) is type(right) and len(left) == len(right)
                and all(same(a, b) for a, b in zip(left, right)))
    return type(left) is type(right) and left == right


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


@dataclass
class Phase:
    """What one measured phase (traced or untraced) of a workload saw.

    ``e2e`` holds the BENCHMARK.json end-to-end metrics, ``report`` the
    workload's own named figures (printed with their units), and
    ``layers`` the per-layer metrics of a traced phase.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, dict[str, Any]] = field(default_factory=dict)
    report: dict[str, dict[str, Any]] = field(default_factory=dict)
    layers: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20], "e2e": self.e2e,
                "report": self.report, "layers": self.layers}


def interval_union(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, start), min(hi, end))
                     for start, end in intervals)
    covered, reach = 0.0, lo
    for start, end in clipped:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
