"""Traced versus untraced runs: per-layer table and tracing overhead.

From the root of a checkout:

    python3 perfbench/report.py --seed 1

For each workload this runs ``perfbench/run.py`` once untraced and once
traced on the same seed, for the ``run_seconds`` of ``BENCHMARK.json``.
It then prints, per op, each layer's self time, the share of op time
no named span covers, and the tracing overhead:
every end-to-end metric of the traced run minus the untraced one.  The
summary is also written to ``.perfbench/report-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict

WORKLOADS = ("batch-57", "service-118", "stream-57")
LAYERS = ("sat", "encode", "extract", "lint", "engine", "stream",
          "service")


def _run(workload: str, seed: int, seconds: int,
         trace: int) -> Dict[str, Any]:
    subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(".perfbench", "runs",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    summary: Dict[str, Any] = {}
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, seconds, 0)
        traced = _run(workload, args.seed, seconds, 1)
        layers = traced["per_layer"]
        overhead = {
            name: {"untraced": value,
                   "traced": traced["end_to_end"][name],
                   "delta": traced["end_to_end"][name] - value}
            for name, value in plain["end_to_end"].items()}
        summary[workload] = {
            "ops": [plain["ops"], traced["ops"]],
            "failed": [plain["failed"], traced["failed"]],
            "self_ms_per_op": {layer: layers[f"self_ms.{layer}"]
                               for layer in LAYERS},
            "uncovered_share": layers["trace.uncovered_share"],
            "per_layer": layers,
            "tracing_overhead": overhead,
            "host": traced["host"],
        }
        print(f"\n{workload}  (seed {args.seed}, {plain['ops']} untraced "
              f"/ {traced['ops']} traced ops)")
        for layer in LAYERS:
            print(f"  self {layer:<8} {layers[f'self_ms.{layer}']:10.2f}"
                  f" ms/op")
        print(f"  uncovered       {layers['trace.uncovered_share']:10.2%}"
              f" of op time")
        for name, row in overhead.items():
            print(f"  {name:<14} untraced {row['untraced']:10.3f}  "
                  f"traced {row['traced']:10.3f}  "
                  f"delta {row['delta']:+10.3f}")
    path = os.path.join(".perfbench", f"report-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
