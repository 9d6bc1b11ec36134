"""Span wrappers around the public functions of each layer.

The benchmark times layers from its own files: :func:`install` swaps a
timing wrapper in for each function named in :data:`TARGETS`, in every
``repro`` module that binds it, and :class:`Recorder` keeps the spans
in memory until :meth:`Recorder.dump` writes them out as JSON lines.

A span records its name, layer, start, end, the span that was open on
the same thread when it began (its parent) and its self time: its
duration minus the time its direct children cover.  Nothing inside
``src/`` changes, and an untraced run installs no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, layer).  A dotted attribute
#: names a method on a class; a bare one a module-level function,
#: which is also patched in every ``repro`` module that imported it by
#: name.  Only coarse calls are wrapped (never one per clause or per
#: variable), so the wrappers stay cheap next to the work they time.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("repro.smt.solver", "Solver.check", "sat.check", "sat"),
    ("repro.smt.solver", "Solver.add", "encode.add", "encode"),
    ("repro.smt.solver", "Solver.budget_handle", "encode.budget",
     "encode"),
    ("repro.smt.solver", "BudgetHandle.at_most", "encode.budget",
     "encode"),
    ("repro.smt.solver", "BudgetHandle.at_least", "encode.budget",
     "encode"),
    ("repro.core.encoder", "ModelEncoder.availability_axioms",
     "encode.availability", "encode"),
    ("repro.core.encoder", "ModelEncoder.delivery_definitions",
     "encode.delivery", "encode"),
    ("repro.core.encoder", "ModelEncoder.property_negation",
     "encode.negation", "encode"),
    ("repro.core.encoder", "ModelEncoder.budget_constraint",
     "encode.budget", "encode"),
    ("repro.core.encoder", "ModelEncoder.link_budget_constraint",
     "encode.budget", "encode"),
    ("repro.core.extraction", "extract_threat", "extract", "extract"),
    ("repro.lint.config_rules", "lint_case", "lint", "lint"),
    ("repro.engine.engine", "VerificationEngine.__init__",
     "engine.build", "engine"),
    ("repro.engine.engine", "VerificationEngine.verify",
     "engine.verify", "engine"),
    ("repro.engine.cache", "EncodingCache.get", "engine.cache_get",
     "engine"),
    ("repro.stream.watcher", "Watcher.apply", "stream.apply", "stream"),
    ("repro.stream.delta", "DeltaCompiler.apply", "stream.delta",
     "stream"),
    ("repro.stream.delta", "DeltaCompiler.materialize",
     "stream.materialize", "stream"),
    ("repro.service.sessions", "SessionManager.parse", "service.parse",
     "service"),
    ("repro.service.sessions", "SessionManager.fingerprint",
     "service.fingerprint", "service"),
    ("repro.service.sessions", "SessionManager.open",
     "service.session_open", "service"),
    ("repro.service.jobs", "run_traced", "service.job", "service"),
]

#: Modules that bind a target function under their own name.
PRELOAD = ("repro.lint", "repro.core.analyzer", "repro.core.incremental",
           "repro.engine", "repro.stream", "repro.service")

#: Outcome attributes read off a traced call's return value.
ANNOTATE: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "service.session_open": lambda result: {"created": bool(result[1])},
    "engine.cache_get": lambda result: {"hit": result is not None},
}

#: Encode spans whose returned terms a later ``Solver.add`` asserts;
#: the add's time is charged to the family that built its terms.
FAMILIES = ("encode.availability", "encode.delivery", "encode.negation",
            "encode.budget")


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {"id": span_id, "name": name, "layer": layer,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(), "child_s": 0.0}
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        duration = span["end"] - span["start"]
        span["self_s"] = duration - span.pop("child_s")
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += duration
        if span["name"] in FAMILIES:
            self._local.last_family = span["name"]
        elif span["name"] == "encode.add":
            span["family"] = getattr(self._local, "last_family",
                                     None) or "encode.other"
            self._local.last_family = None
        with self._lock:
            self.spans.append(span)

    def take(self) -> List[Dict[str, Any]]:
        """Every finished span so far; the store starts empty again."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(spans: List[Dict[str, Any]], path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]


def _wrap(recorder: Recorder, fn: Callable[..., Any], name: str,
          layer: str) -> Callable[..., Any]:
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if annotate is not None:
            span.update(annotate(result))
        return result

    return traced


def install(recorder: Recorder) -> None:
    """Wrap every target, for the rest of the process."""
    # Load every module that imports a wrapped function by name, so
    # the loop below finds and patches its binding too.
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for module_name, attr, name, layer in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, _wrap(recorder, original, name, layer))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(recorder, original, name, layer)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original):
                setattr(other, attr, wrapped)


def assign(spans: List[Dict[str, Any]],
           windows: List[Tuple[float, float]]) -> List[List[Dict[str, Any]]]:
    """Group spans by the op window (start, end) that contains them.

    Used for spans from another process (the daemon): the benchmark
    drives one request at a time, so windows never overlap and a
    span's start time decides its op.
    """
    groups: List[List[Dict[str, Any]]] = [[] for _ in windows]
    ordered = sorted(spans, key=lambda s: s["start"])
    index = 0
    for span in ordered:
        while index < len(windows) and span["start"] > windows[index][1]:
            index += 1
        if index == len(windows):
            break
        if span["start"] >= windows[index][0]:
            groups[index].append(span)
    return groups


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor: Optional[float] = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def layer_table(ops: List[Tuple[float, List[Dict[str, Any]]]]
                ) -> Dict[str, float]:
    """Per-op span totals from (op latency, spans of that op) pairs.

    Returns milliseconds per op for each span name (``ms.<name>``),
    each layer's self time (``self_ms.<layer>``), each encode family
    including the ``Solver.add`` calls charged to it
    (``family_ms.<family>``), the outermost encode time
    (``encode_total_ms``), the share of op time that no span covers
    (``uncovered_share``), the number of spans per op, and raw counts
    of annotated calls and their outcomes (``n.<name>``,
    ``n.<name>.<flag>``).
    """
    n = max(1, len(ops))
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    latency = 0.0
    uncovered = 0.0
    for op_s, spans in ops:
        latency += op_s
        by_id = {span["id"]: span for span in spans}
        roots = []
        for span in spans:
            duration = span["end"] - span["start"]
            add("ms." + span["name"], duration)
            add("self_ms." + span["layer"], span["self_s"])
            add("spans", 1.0)
            parent = by_id.get(span["parent"])
            if parent is None:
                roots.append((span["start"], span["end"]))
            if span["layer"] == "encode" and (
                    parent is None or parent["layer"] != "encode"):
                add("encode_total_ms", duration)
            if span["name"] in FAMILIES:
                add("family_ms." + span["name"], duration)
            elif span["name"] == "encode.add":
                add("family_ms." + span["family"], duration)
            for flag in ("created", "hit"):
                if flag in span:
                    add(f"n.{span['name']}", 1.0)
                    add(f"n.{span['name']}.{flag}", float(span[flag]))
        uncovered += max(0.0, op_s - _union(roots))
    table = {key: (value if key.startswith("n.")
                   else value * (1.0 if key == "spans" else 1000.0) / n)
             for key, value in totals.items()}
    table["uncovered_share"] = uncovered / latency if latency else 0.0
    return table
