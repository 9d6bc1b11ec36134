"""Run one benchmark workload and print its metrics as JSON.

From the root of a checkout:

    python3 perfbench/run.py --workload batch-57 --seed 1 --seconds 10 \\
        --trace 0

A run sets up (several times; ``setup_s`` is the median), then drives
ops in a closed loop until ``--seconds`` of op time have passed
and at least the workload's ``min_ops`` have completed, so that
``op_p90_ms`` always has at least ten ops above it.  Every time in the
end-to-end metrics is scaled to a reference host speed, sampled all
through the run (see :mod:`hostspeed`).  Every verdict received is
then checked (see :mod:`inputs`).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A record of the run, with the host it ran on, goes to
``.perfbench/runs/``; a traced run also writes its spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Hard stop for the measured phase, whatever ``min_ops`` says.
MAX_MEASURE_S = 120.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB"}


def _bootstrap() -> None:
    """Import the program from ``src/`` of this checkout, or exit 2."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro under the current "
                         "directory; run from the root of a checkout\n")
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _steal_ticks() -> int:
    with open("/proc/stat", "r") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_record() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg()),
            "platform": platform.platform()}


def measure(workload: Any, seconds: float, recorder: Any = None,
            ops: Optional[int] = None) -> Tuple[List[Any], Dict[str, Any]]:
    """The closed loop; returns op records and phase totals.

    With *ops* the loop runs exactly that many ops instead (a prefix
    of the workload, for tests).
    """
    records: List[Any] = []
    errors: List[str] = []
    timed = 0.0
    steal0 = _steal_ticks()
    started = time.perf_counter()
    index = 0
    while True:
        if ops is not None:
            if index >= ops:
                break
        elif time.perf_counter() - started > MAX_MEASURE_S:
            break
        elif index >= workload.min_ops and timed >= seconds:
            break
        workload.prepare(index)
        cpu_start = workload.cpu_s()
        op_start = time.perf_counter()
        try:
            record = workload.op(index)
        except Exception as exc:  # counted as a failed op
            from workloads import OpRecord

            record = OpRecord(extra={"error": f"{type(exc).__name__}: "
                                              f"{exc}"})
            errors.append(traceback.format_exc(limit=3))
        record.end = time.perf_counter()
        record.cpu_s = workload.cpu_s() - cpu_start
        record.start = op_start
        record.latency_s = record.end - op_start
        timed += record.latency_s
        if recorder is not None:
            record.extra["spans"] = recorder.take()
        records.append(record)
        index += 1
    from workloads import peak_rss_mb

    phase = {"timed_s": timed, "wall_s": time.perf_counter() - started,
             "peak_rss_mb": peak_rss_mb(workload.pid()),
             "steal_s": (_steal_ticks() - steal0)
             / os.sysconf("SC_CLK_TCK"),
             "errors": errors[:3]}
    return records, phase


def check(workload: Any, records: List[Any]) -> Tuple[int, List[str]]:
    """Check every verdict; returns (failed ops, first reasons)."""
    from inputs import VerdictTable, check_verdict, config_digest
    from repro.core.reference import ReferenceEvaluator

    table = VerdictTable(workload.name)
    configs: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    references: Dict[str, Any] = {}
    failed = 0
    reasons: List[str] = []
    for index, record in enumerate(records):
        problems = []
        if "error" in record.extra:
            problems.append(record.extra["error"])
        for verdict in record.verdicts:
            label = verdict.label
            if label not in configs:
                configs[label] = workload.config_of(label)
                digests[label] = config_digest(configs[label])

            def reference(label: str = label) -> Any:
                if label not in references:
                    config = configs[label]
                    references[label] = ReferenceEvaluator(
                        config.network, config.problem)
                return references[label]

            reason = check_verdict(
                verdict.status, verdict.spec, verdict.failed,
                verdict.links, label, digests[label], reference, table)
            if reason is not None:
                problems.append(reason)
        if problems:
            failed += 1
            reasons.extend(f"op {index}: {p}" for p in problems)
    table.save()
    return failed, reasons[:10]


def end_to_end(records: List[Any], phase: Dict[str, Any],
               setups: List[float], op_scale: List[float],
               setup_scale: List[float]) -> Dict[str, float]:
    """The end-to-end metrics, each time multiplied by its scale (see
    :mod:`hostspeed`; all ones give the times as measured)."""
    latencies = [r.latency_s * f for r, f in zip(records, op_scale)]
    cpu = sum(r.cpu_s * f for r, f in zip(records, op_scale))
    return {
        "setup_s": statistics.median(
            t * f for t, f in zip(setups, setup_scale)),
        "ops_per_s": len(records) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": statistics.quantiles(
            latencies, n=10, method="exclusive")[-1] * 1000.0,
        "cpu_ms_per_op": cpu * 1000.0 / len(records),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops (a prefix of "
                             "the workload) instead of --seconds")
    args = parser.parse_args(argv)
    _bootstrap()
    # Unwind through the finally below on SIGTERM too, so a stopped
    # run still stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import layers
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}"
                         f"; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(os.path.join(".perfbench", "runs"), exist_ok=True)
    os.makedirs(os.path.join(".perfbench", "traces"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = os.path.abspath(
        os.path.join(".perfbench", "traces", f"{stem}.daemon.jsonl"))
    host_before = host_record()

    recorder = None
    if args.trace and workload.in_process():
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    speed = HostSpeed()
    setups: List[Tuple[float, float]] = []
    try:
        speed.start()
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.teardown()
            began = time.perf_counter()
            workload.setup(trace_out if args.trace else None)
            setups.append((began, time.perf_counter()))
        if recorder is not None:
            recorder.take()
        # What set-up built stays alive for the whole run; keep it out
        # of the collections that the ops trigger.
        gc.collect()
        gc.freeze()
        peak_reset = workload.reset_peak()
        records, phase = measure(workload, args.seconds, recorder,
                                 args.ops)
    finally:
        speed.stop()
        began = time.perf_counter()
        workload.teardown()
        teardown_s = time.perf_counter() - began
    began = time.perf_counter()
    failed, reasons = check(workload, records)
    check_s = time.perf_counter() - began

    setup_s = [end - start for start, end in setups]
    op_scale = [speed.factor(r.start, r.end) for r in records]
    setup_scale = [speed.factor(*interval) for interval in setups]
    metrics = end_to_end(records, phase, setup_s, op_scale, setup_scale)
    measured = end_to_end(records, phase, setup_s, [1.0] * len(records),
                          [1.0] * len(setups))
    per_layer = None
    if args.trace:
        daemon_spans = (None if workload.in_process()
                        else layers.tracing.Recorder.load(trace_out))
        per_layer = layers.per_layer(workload.name, records, daemon_spans,
                                     os.path.join(".perfbench", "traces",
                                                  f"{stem}.jsonl"))
    latencies = sorted(r.latency_s for r in records)
    p90 = statistics.quantiles(latencies, n=10, method="exclusive")[-1]
    run_record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {**host_before, "loadavg_after": list(os.getloadavg()),
                 "steal_s": phase["steal_s"],
                 "probe_ms": statistics.median(speed.probes_ms),
                 "probes": len(speed.probes_ms)},
        "ops": len(records), "ops_above_p90": sum(
            1 for x in latencies if x > p90),
        "timed_s": phase["timed_s"], "wall_s": phase["wall_s"],
        "setups_s": setup_s, "setup_scale": setup_scale,
        "teardown_s": teardown_s, "check_s": check_s,
        "peak_reset": peak_reset,
        "failed": failed, "failures": reasons,
        "latencies_ms": [round(r.latency_s * 1000.0, 3) for r in records],
        "cpu_ms": [round(r.cpu_s * 1000.0, 3) for r in records],
        "op_scale": [round(f, 4) for f in op_scale],
        "errors": phase["errors"], "end_to_end": metrics,
        "end_to_end_unscaled": measured,
        "per_layer": per_layer,
    }
    with open(os.path.join(".perfbench", "runs", f"{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(run_record, handle, indent=1, sort_keys=True)
    sys.stderr.write(json.dumps({k: run_record[k] for k in (
        "host", "ops", "ops_above_p90", "timed_s", "setups_s",
        "failures", "errors")}) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": (
            UNITS.get(name) or layers.UNITS[name])}
            for name, value in (per_layer or metrics).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
