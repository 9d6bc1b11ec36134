"""Solver hot-path benchmark — arena and inprocessing on 118-bus.

Measures what the clause-arena solver rewrite buys the verification
stack on the largest evaluation case, across the configuration matrix
{fresh, assumption} x {inprocess on, off}:

* **max-resiliency axis**: the total-budget observability search per
  hierarchy level — wall time, inprocessing counters (clauses
  subsumed / strengthened / vivified, arena compactions), and the
  returned bounds, which must be identical across all four
  configurations (the overhaul is an optimization, never an answer
  change).
* **trajectory axis** (Fig. 5/6 shape): per-budget verify wall times
  along the k ladder up to three steps past the certificate.  The
  rungs past ``k*`` are the *hard* queries.

Run directly (``python benchmarks/bench_solver_hotpath.py``) to write
``BENCH_solver.json`` at the repo root; ``BENCH_SMOKE=1`` switches to
the 14-bus case for CI's perf-smoke job.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Tuple

from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import VerificationEngine
from repro.grid import case_by_buses
from repro.obs.tracer import Tracer, set_tracer
from repro.scada import GeneratorConfig, generate_scada

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
BUSES = 14 if SMOKE else 118
HIERARCHIES = (1, 2)
SEED = 7
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_solver.json"

#: The benchmark matrix: every backend crossed with inprocessing on/off.
BACKENDS = ("fresh", "assumption")
CONFIGS: Tuple[Tuple[str, bool], ...] = tuple(
    (backend, inprocess)
    for backend in BACKENDS
    for inprocess in (True, False))

#: Counter prefixes harvested from the tracer per measurement.
_PREFIXES = ("solver.inprocess.", "solver.arena.")


def _config_key(backend: str, inprocess: bool) -> str:
    return f"{backend}+{'inprocess' if inprocess else 'no-inprocess'}"


def _build(hierarchy: int):
    synthetic = generate_scada(
        case_by_buses(BUSES, seed=SEED),
        GeneratorConfig(measurement_fraction=0.7, secure_fraction=1.0,
                        dual_home_fraction=0.3, hierarchy_level=hierarchy,
                        seed=SEED))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic.network, problem


def _engine(network, problem, backend: str,
            inprocess: bool) -> VerificationEngine:
    opts: Dict[str, object] = {} if inprocess else {"inprocess": False}
    return VerificationEngine(network, problem, backend=backend,
                              lint=False, solver_opts=opts)


def _traced(fn):
    """Run *fn* under a fresh tracer; return (result, wall_s, counters)."""
    sink = io.StringIO()
    tracer = Tracer(sink)
    previous = set_tracer(tracer)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        tracer.close()
        set_tracer(previous)
    counters: Dict[str, float] = {}
    for line in sink.getvalue().splitlines():
        record = json.loads(line)
        if record.get("type") != "metrics":
            continue
        for key, value in record.get("counters", {}).items():
            if key.startswith(_PREFIXES):
                counters[key] = counters.get(key, 0.0) + value
    return result, wall, counters


def _bench_max_resiliency(network, problem) -> Dict[str, Any]:
    """Total-budget observability search across the full matrix."""
    out: Dict[str, Any] = {}
    bounds_seen = []
    for backend, inprocess in CONFIGS:
        engine = _engine(network, problem, backend, inprocess)
        bounds, wall, counters = _traced(
            lambda e=engine: e.max_total_resiliency_bounds(
                Property.OBSERVABILITY))
        bounds_seen.append((bounds.lower, bounds.upper))
        out[_config_key(backend, inprocess)] = {
            "wall_s": round(wall, 3),
            "bounds": [bounds.lower, bounds.upper],
            "counters": {k: int(v) for k, v in sorted(counters.items())},
        }
    out["agree"] = len(set(bounds_seen)) == 1
    if not out["agree"]:
        raise SystemExit(f"max-resiliency bounds diverge: {bounds_seen}")
    out["k_star"] = bounds_seen[0][0]
    return out


def _bench_trajectory(network, problem, k_star: int) -> Dict[str, Any]:
    """Per-budget verify wall times along the k ladder (Fig. 5/6 shape).

    The ladder runs from 0 to three steps past the certificate: the
    rungs beyond k* are the *hard* queries — past the certified
    maximum the minimal-witness search (and, deeper still, the
    minimization of large threat vectors) dominates.
    """
    depth = 1 if SMOKE else 3
    ks = sorted({0, max(0, k_star)}
                | {k_star + i for i in range(1, depth + 1)})
    rows: List[Dict[str, Any]] = []
    for k in ks:
        spec = ResiliencySpec.observability(k=k)
        row: Dict[str, Any] = {"k": k, "hard": k > k_star}
        verdicts = set()
        best = None
        for backend, inprocess in CONFIGS:
            engine = _engine(network, problem, backend, inprocess)
            result, wall, _ = _traced(lambda e=engine: e.verify(spec))
            key = _config_key(backend, inprocess)
            row[key] = {"wall_s": round(wall, 3),
                        "status": result.status.value}
            verdicts.add(result.status.value)
            if best is None or wall < best[1]:
                best = (key, wall)
        if len(verdicts) != 1:
            raise SystemExit(
                f"verdicts diverge at k={k}: "
                f"{ {c: row[c]['status'] for c in row if '+' in c} }")
        row["status"] = verdicts.pop()
        row["fastest"] = best[0]
        rows.append(row)
    return {"ladder": rows}


def _bench_hierarchy(hierarchy: int) -> Dict[str, Any]:
    network, problem = _build(hierarchy)
    maxima = _bench_max_resiliency(network, problem)
    trajectory = _bench_trajectory(network, problem, maxima["k_star"])
    return {
        "case": {
            "buses": BUSES,
            "hierarchy": hierarchy,
            "seed": SEED,
            "devices": len(network.devices),
            "measurements": problem.num_measurements,
            "states": problem.num_states,
        },
        "max_resiliency": maxima,
        "trajectory": trajectory,
    }


def main() -> None:
    payload: Dict[str, Any] = {
        f"hierarchy_{h}": _bench_hierarchy(h) for h in HIERARCHIES}
    payload["config_matrix"] = [_config_key(b, i) for b, i in CONFIGS]
    payload["smoke"] = SMOKE
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")
    for h in HIERARCHIES:
        entry = payload[f"hierarchy_{h}"]
        maxima = entry["max_resiliency"]
        walls = {c: maxima[c]["wall_s"]
                 for c in payload["config_matrix"]}
        print(f"hierarchy_{h}: k*={maxima['k_star']} "
              f"max-resiliency walls {walls}")


if __name__ == "__main__":
    main()
