"""One workload in one fresh process; started by ``run.py``.

Prints ``PERFBENCH-READY`` once set-up (imports plus warm-up) is done,
then measures and prints ``PERFBENCH-RESULT <json>``.  With ``--trace``
it measures a traced phase first, takes every layer wrapper out again,
and then measures an untraced phase of the same length, so the two
can be compared for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import READY_TAG, RESULT_TAG, provenance

WORKLOADS = {
    "paper-sweep": ("paper_sweep", "PaperSweep"),
    "grid-signoff": ("grid_signoff", "GridSignoff"),
    "service-jobs": ("service_jobs", "ServiceJobs"),
}


def load(name: str):
    module_name, cls_name = WORKLOADS[name]
    return getattr(__import__(module_name), cls_name)


def overhead(traced: dict, untraced: dict) -> dict[str, float]:
    """Traced over untraced value, minus one, per shared time metric."""
    return {name: traced[name]["value"] / untraced[name]["value"] - 1
            for name in ("cold_ms", "warm_ms", "throughput_per_s")
            if untraced.get(name, {}).get("value")}


def measure(workload, seconds: float, trace: bool) -> dict:
    from layers import Instrumentation, layer_payload

    result: dict = {}
    if trace:
        instrumentation = Instrumentation().install()
        wrappers = instrumentation.wrappers()
        try:
            traced = workload.run_phase(seconds, traced=True)
        finally:
            instrumentation.remove()
        leftovers = instrumentation.leftovers(wrappers)
        if leftovers:
            raise SystemExit(f"layer wrappers left installed: {leftovers}")
        untraced = workload.run_phase(seconds, traced=False)
        ratios = overhead(traced.e2e, untraced.e2e)
        traced.layers["trace.overhead_cold"] = ratios.get("cold_ms", 0.0)
        traced.layers["trace.overhead_warm"] = ratios.get("warm_ms", 0.0)
        result["traced"] = traced.to_json_dict()
        result["traced"]["layers"] = layer_payload(traced.layers)
        result["overhead"] = ratios
    else:
        untraced = workload.run_phase(seconds, traced=False)
    result["untraced"] = untraced.to_json_dict()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done (a set-up sample)")
    parser.add_argument("--reference-out", type=Path,
                        help="write the paper-sweep inline reference "
                             "here and exit")
    args = parser.parse_args()

    if args.reference_out is not None:
        from paper_sweep import write_reference
        write_reference(args.reference_out)
        return 0

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = load(args.workload)(args.work_dir, args.seed)
    print(READY_TAG, flush=True)
    try:
        if args.setup_only:
            return 0
        workload.prepare()
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    result["workload"] = args.workload
    result["provenance"] = provenance(args.seed)
    if getattr(workload, "setup_samples", None):
        result["setup_samples_s"] = workload.setup_samples
    print(RESULT_TAG + json.dumps(result), flush=True)
    shutil.rmtree(args.work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
