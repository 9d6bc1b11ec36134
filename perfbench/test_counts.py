"""The exact per-layer counts repeat across runs and hash seeds.

A prefix of each workload runs traced twice, under two
``PYTHONHASHSEED`` values, and the solver and encoding counts it reads
off every ``VerificationResult`` must agree exactly.  These counts are
the benchmark's deterministic regression gate.  From the root of a
checkout:

    python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Ops per prefix: one full spec rotation on batch-57, one write on
#: service-118, a dozen events on stream-57.
PREFIX = {"batch-57": 7, "service-118": 7, "stream-57": 12}
COUNTS = ("sat.propagations", "sat.conflicts", "encode.clauses",
          "encode.vars")


def _counts(workload: str, hash_seed: int) -> Dict[str, float]:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1", "--ops", str(PREFIX[workload])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_counts_repeat_across_hash_seeds(workload: str) -> None:
    first = _counts(workload, 1)
    assert first["sat.propagations"] > 0
    assert first == _counts(workload, 2)
