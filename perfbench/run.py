"""Repository benchmark: paper-sweep, grid-signoff and service-jobs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process built from this checkout's
``src``, with every ``REPRO_*`` knob removed from its environment.  The
run prints each metric with its unit and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
traced phase.  It exits 1 when an output check fails and 2 when the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, READY_TAG, RESULT_TAG, SRC_DIR,  # noqa: E402
                    WORK_DIR, median, metric, workload_env)

WORKLOADS = ("paper-sweep", "grid-signoff", "service-jobs")
#: In-process workloads: set-up is spawning the child until it is ready,
#: sampled this many times per run.  The daemon workload samples its
#: own daemon start-ups.
SETUP_SAMPLES = 5
#: A whole run must end within this many seconds.
RUN_BUDGET_S = 175.0


class ChildError(RuntimeError):
    pass


class Child:
    """A workload process whose stdout lines arrive with their times."""

    def __init__(self, args: list[str], env: dict[str, str]) -> None:
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=BENCH_DIR.parent, start_new_session=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put((time.monotonic(), line.rstrip("\n")))
        self.lines.put((time.monotonic(), None))

    def expect(self, prefix: str, deadline: float) -> tuple[float, str]:
        """Time and text of the next stdout line starting with ``prefix``."""
        while True:
            try:
                at, line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ChildError(f"no {prefix.strip()} before the "
                                 "deadline") from None
            if line is None:
                raise ChildError(f"child exited (code {self.process.wait()})"
                                 f" before {prefix.strip()}")
            if line.startswith(prefix):
                return at, line[len(prefix):]
            print(line, file=sys.stderr)

    def finish(self, deadline: float) -> None:
        try:
            code = self.process.wait(
                timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildError("child did not exit in time") from None
        self.reader.join(timeout=5)
        if code != 0:
            raise ChildError(f"child exited with code {code}")

    def kill(self) -> None:
        """Stop the child and anything it left running in its session."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, deadline: float) -> dict:
    env, removed = workload_env()
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    setup_s: list[float] = []
    in_process = name != "service-jobs"
    for sample in range(SETUP_SAMPLES - 1 if in_process else 0):
        child = Child(base + ["--setup-only", "--work-dir",
                              str(work_dir / f"setup-{sample}")], env)
        try:
            at, _ = child.expect(READY_TAG, deadline)
            setup_s.append(at - child.started)
            child.finish(deadline)
        finally:
            child.kill()
    child = Child(base + ["--work-dir", str(work_dir / name)], env)
    try:
        at, _ = child.expect(READY_TAG, deadline)
        _, payload = child.expect(RESULT_TAG, deadline)
        child.finish(deadline)
    finally:
        child.kill()
    result = json.loads(payload)
    if in_process:
        setup_s.append(at - child.started)
        result["setup_samples_s"] = setup_s
    result["provenance"]["env_removed"] = removed
    return result


def summarize(result: dict, trace: bool) -> tuple[dict, dict]:
    """(result-line metrics, everything printed) for one workload."""
    untraced = result["untraced"]
    setup = metric(median(result["setup_samples_s"]), "s")
    e2e = {"setup_s": setup, **untraced["e2e"]}
    printed = {**e2e, **untraced["report"]}
    if trace:
        layers = result["traced"]["layers"]
        printed.update(layers)
        return layers, printed
    return e2e, printed


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC_DIR}/repro",
              file=sys.stderr)
        return 2
    # Byte-compile first so no set-up sample pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC_DIR)],
                   check=True, stdout=subprocess.DEVNULL)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), work_dir, deadline)
            metrics, printed = summarize(result, bool(args.trace))
            phases = [result["untraced"]] + (
                [result["traced"]] if args.trace else [])
            problems = [p for phase in phases for p in phase["problems"]]
            attempted = sum(phase["attempted"] for phase in phases)
            failed = sum(phase["failed"] for phase in phases)
            _print_report(name, result, printed, problems, attempted,
                          failed)
            totals["correct"] &= not problems and failed == 0
            totals["attempted"] += attempted
            totals["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}/"
            totals["metrics"].update(
                {prefix + key: value for key, value in metrics.items()})
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def _print_report(name: str, result: dict, printed: dict,
                  problems: list[str], attempted: int, failed: int) -> None:
    print(f"== {name}: {attempted} operations, {failed} failed, "
          f"{len(problems)} check problem(s)")
    print("   provenance: " + json.dumps(result["provenance"],
                                         sort_keys=True))
    print("   setup samples (s): " + ", ".join(
        f"{value:.4f}" for value in result["setup_samples_s"]))
    for key, value in printed.items():
        print(f"   {key:34s} {value['value']:>16.6g} {value['unit']}")
    for key, ratio in result.get("overhead", {}).items():
        print(f"   tracing overhead {key:17s} {100 * ratio:>+15.2f} % "
              "(traced / untraced - 1)")
    for problem in problems[:20]:
        print(f"   CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
