"""Per-layer metrics of a traced run.

Turns the spans of each op (from this process, or from the daemon,
joined to the client's requests) plus the counts each op read off its
``VerificationResult`` into the per-layer metrics, all per op unless
the name says otherwise.  Every metric is reported on every workload;
one that a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import tracing

#: name -> (unit, better).  The order is the order of BENCHMARK.json.
METRICS: Dict[str, tuple] = {
    "sat.check_ms": ("ms", "lower"),
    "sat.propagations": ("count", "lower"),
    "sat.conflicts": ("count", "lower"),
    "sat.props_per_ms": ("1/ms", "higher"),
    "encode.ms": ("ms", "lower"),
    "encode.clauses": ("count", "lower"),
    "encode.vars": ("count", "lower"),
    "encode.availability_ms": ("ms", "lower"),
    "encode.delivery_ms": ("ms", "lower"),
    "encode.negation_ms": ("ms", "lower"),
    "encode.budget_ms": ("ms", "lower"),
    "extract.ms": ("ms", "lower"),
    "lint.ms": ("ms", "lower"),
    "engine.build_ms": ("ms", "lower"),
    "engine.verify_ms": ("ms", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "stream.delta_ms": ("ms", "lower"),
    "stream.materialize_ms": ("ms", "lower"),
    "stream.engine_hit_ratio": ("ratio", "higher"),
    "stream.reverify_per_event": ("count", "lower"),
    "stream.skipped_share": ("ratio", "higher"),
    "service.overhead_ms": ("ms", "lower"),
    "service.queued_ms": ("ms", "lower"),
    "service.parse_ms": ("ms", "lower"),
    "service.session_open_ms": ("ms", "lower"),
    "service.session_hit_ratio": ("ratio", "higher"),
    "self_ms.sat": ("ms", "lower"),
    "self_ms.encode": ("ms", "lower"),
    "self_ms.extract": ("ms", "lower"),
    "self_ms.lint": ("ms", "lower"),
    "self_ms.engine": ("ms", "lower"),
    "self_ms.stream": ("ms", "lower"),
    "self_ms.service": ("ms", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}
UNITS = {name: unit for name, (unit, _) in METRICS.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload: str, records: List[Any],
              daemon_spans: Optional[List[Dict[str, Any]]],
              spans_path: str) -> Dict[str, float]:
    """The per-layer metrics; writes the joined spans to *spans_path*."""
    if daemon_spans is not None:
        groups = tracing.assign(daemon_spans,
                                [(r.start, r.end) for r in records])
        for record, spans in zip(records, groups):
            record.extra["spans"] = spans
    joined = []
    for index, record in enumerate(records):
        for span in record.extra.get("spans", []):
            joined.append({**span, "op": index,
                           "job": record.extra.get("job")})
    tracing.Recorder.dump(joined, spans_path)

    n = max(1, len(records))
    table = tracing.layer_table(
        [(r.latency_s, r.extra.get("spans", [])) for r in records])

    def ms(name: str) -> float:
        return table.get("ms." + name, 0.0)

    def total(key: str) -> float:
        return sum(r.counts.get(key, 0.0) for r in records)

    metrics = {name: 0.0 for name in METRICS}
    metrics.update({
        "sat.check_ms": ms("sat.check"),
        "sat.propagations": total("propagations") / n,
        "sat.conflicts": total("conflicts") / n,
        "sat.props_per_ms": _ratio(total("propagations") / n,
                                   ms("sat.check")),
        "encode.ms": table.get("encode_total_ms", 0.0),
        "encode.clauses": total("clauses") / n,
        "encode.vars": total("vars") / n,
        "extract.ms": ms("extract"),
        "lint.ms": ms("lint"),
        "engine.build_ms": ms("engine.build"),
        "engine.verify_ms": ms("engine.verify"),
        "engine.cache_hit_ratio": _ratio(
            table.get("n.engine.cache_get.hit", 0.0),
            table.get("n.engine.cache_get", 0.0)),
        "trace.uncovered_share": table["uncovered_share"],
        "trace.spans_per_op": table.get("spans", 0.0),
    })
    for family in ("availability", "delivery", "negation", "budget"):
        metrics[f"encode.{family}_ms"] = table.get(
            f"family_ms.encode.{family}", 0.0)
    for layer in ("sat", "encode", "extract", "lint", "engine", "stream",
                  "service"):
        metrics[f"self_ms.{layer}"] = table.get(f"self_ms.{layer}", 0.0)

    if workload.startswith("stream"):
        changed = [r for r in records if r.extra.get("changed")]
        misses = sum(1 for r in changed if any(
            s["name"] == "engine.build" for s in r.extra["spans"]))
        reverified = sum(r.extra.get("reverified", 0) for r in records)
        skipped = sum(r.extra.get("skipped", 0) for r in records)
        metrics.update({
            "stream.delta_ms": ms("stream.delta"),
            "stream.materialize_ms": ms("stream.materialize"),
            "stream.engine_hit_ratio": _ratio(len(changed) - misses,
                                              len(changed)),
            "stream.reverify_per_event": reverified / n,
            "stream.skipped_share": _ratio(skipped, reverified + skipped),
        })
    if workload.startswith("service"):
        metrics.update({
            "service.overhead_ms": 1000.0 * sum(
                r.latency_s - r.extra.get("run_s", 0.0)
                for r in records) / n,
            "service.queued_ms": 1000.0 * sum(
                r.extra.get("queued_s", 0.0) for r in records) / n,
            "service.parse_ms": ms("service.parse")
            + ms("service.fingerprint"),
            "service.session_open_ms": ms("service.session_open"),
            "service.session_hit_ratio": 1.0 - _ratio(
                table.get("n.service.session_open.created", 0.0),
                table.get("n.service.session_open", 0.0)),
        })
    return metrics
