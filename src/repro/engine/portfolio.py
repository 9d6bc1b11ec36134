"""In-query parallel portfolio solving.

Every other backend answers a query with one solver process; the
``portfolio`` backend splits one *hard* query across a process pool and
takes the first decisive answer:

* a cheap conflict- and propagation-limited **probe** runs first
  in-process — easy queries never pay for the pool, and the probe's
  VSIDS activities pick the cube-and-conquer split variables for the
  hard ones (the propagation cap matters: SCADA encodings are
  propagation-bound, so a conflict cap alone would never fan out);
* **full workers** each attack the whole query with a diversified
  solver (seed-perturbed activities, different phase initialization,
  restart cadence, and activity decay);
* **cube workers** partition the search space on the probe's
  top-activity variables: one worker per sign combination, so SAT from
  any cube is SAT, and UNSAT from *every* cube is UNSAT.

The first decisive finisher wins; the losers are cancelled through the
solver's cooperative ``interrupt_check`` polling a shared
:class:`multiprocessing.Event` (the cross-process face of the engine's
``interrupt()``), and the observed cancel latency is exported as a
metric.  Caller :class:`~repro.sat.Limits` budgets are apportioned:
wall-clock and memory pass through (workers run concurrently), while
conflict and propagation budgets — minus what the probe already spent
— are divided across workers so the portfolio never spends more total
search than the caller allowed.

Verdict soundness: a worker solving under cube assumptions reports
"resilient" *for its cube only*; the aggregation here promotes that to
a real RESILIENT verdict only when every cube of the covering family
returned UNSAT.  ``certify=True`` needs an assumption-free refutation,
so certified queries fall back to a fresh single-process solve (same
policy as the incremental backend, noted in
``details["certify_fallback"]``).

Workers are ordinary processes: they receive the (picklable) network,
problem, and spec, rebuild the encoding locally — Tseitin emission is
deterministic, so the probe's variable indices stay meaningful — and
ship a :class:`~repro.core.results.VerificationResult` home along with
their telemetry export for the parent tracer to absorb.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.analyzer import ScadaAnalyzer
from ..core.problem import ObservabilityProblem
from ..core.reference import ReferenceEvaluator
from ..core.results import Status, ThreatVector, VerificationResult
from ..core.specs import ResiliencySpec
from ..obs.tracer import Tracer, activate, count as obs_count
from ..obs.tracer import current_tracer, event as obs_event
from ..obs.tracer import observe as obs_observe, span as obs_span
from ..sat.limits import LimitReason, Limits
from ..smt.solver import Result
from ..scada.network import ScadaNetwork
from .sweep import resolve_jobs

__all__ = ["PortfolioBackend"]

#: Conflicts granted to the in-process probe before fanning out.
PROBE_CONFLICTS = 1500

#: Propagation budget for the probe.  SCADA encodings are propagation
#: bound — hard queries can burn hundreds of thousands of propagations
#: while staying under a hundred conflicts — so a conflict cap alone
#: would let the probe swallow exactly the queries the pool is for.
PROBE_PROPAGATIONS = 100_000

#: Diversification table for full workers, cycled by worker index.
#: ``seed`` is added per-worker; the probe itself runs undiversified,
#: so even worker 0 explores a (slightly) different order.  Random
#: phase initialisation is the highest-variance diversifier on the
#: witness-search (SAT) side, so it sits early enough for small pools.
_DIVERSIFY: Tuple[Dict[str, object], ...] = (
    {},
    {"phase_init": "random", "var_decay": 0.85},
    {"phase_init": True, "restart_base": 200},
    {"restart_base": 50},
    {"phase_init": "random", "restart_base": 400, "var_decay": 0.99},
    {"phase_init": True, "var_decay": 0.90},
)


def _probe_budget_hit(reason: LimitReason,
                      limits: Optional[Limits]) -> bool:
    """True when the probe stopped on *its own* cap — the caller still
    has budget left, so fanning out is worthwhile.  False when the
    caller's own (tighter) budget expired: time, memory, an interrupt,
    or a conflict/propagation ceiling at or below the probe's."""
    if reason is LimitReason.CONFLICTS:
        cap = limits.max_conflicts if limits else None
        return cap is None or cap > PROBE_CONFLICTS
    if reason is LimitReason.PROPAGATIONS:
        cap = limits.max_propagations if limits else None
        return cap is None or cap > PROBE_PROPAGATIONS
    return False


@dataclass(frozen=True)
class _WorkerSpec:
    """Picklable description of one portfolio worker."""

    index: int
    kind: str                    # "full" | "cube"
    solver_opts: Dict[str, object] = field(default_factory=dict)
    cube: Tuple[int, ...] = ()   # DIMACS literals, cube workers

    @property
    def label(self) -> str:
        if self.kind == "cube":
            return f"cube-{self.index}"
        return f"full-{self.index}"


@dataclass
class _WorkerReport:
    """What a worker ships home: its verdict plus telemetry."""

    index: int
    kind: str
    label: str
    result: VerificationResult
    elapsed: float
    pid: int
    export: Dict[str, Any] = field(default_factory=dict)


# -- worker-process side -----------------------------------------------

_CANCEL_EVENT = None


def _init_worker(event) -> None:
    """Pool initializer: stash the shared cancel event."""
    global _CANCEL_EVENT
    _CANCEL_EVENT = event


def _cancel_requested() -> bool:
    """The solver-facing ``interrupt_check``: poll the shared event."""
    event = _CANCEL_EVENT
    return event is not None and event.is_set()


def _run_worker(payload: Tuple) -> _WorkerReport:
    """Solve one diversified attack on the query (module-level so the
    pool can pickle it).  Never raises: a failure becomes an UNKNOWN
    result so one broken worker cannot poison the aggregation."""
    (worker, network, problem, spec, minimize, limits,
     card_encoding) = payload
    opts = dict(worker.solver_opts)
    if worker.cube:
        opts["cube"] = list(worker.cube)
    opts["interrupt_check"] = _cancel_requested
    tracer = Tracer()
    started = time.perf_counter()
    try:
        with activate(tracer):
            analyzer = ScadaAnalyzer(
                network, problem, card_encoding=card_encoding,
                lint=False, solver_opts=opts)
            # Full disjunction: cube literals name variables of the
            # probe's encoding, which must be this encoding too.
            result = analyzer._verify(spec, minimize=minimize,
                                      limits=limits, defer=False)
    except Exception as exc:  # pragma: no cover — defensive boundary
        result = VerificationResult(
            spec=spec, status=Status.UNKNOWN, backend="portfolio",
            details={"worker_error": f"{type(exc).__name__}: {exc}"})
    return _WorkerReport(
        index=worker.index, kind=worker.kind, label=worker.label,
        result=result, elapsed=time.perf_counter() - started,
        pid=os.getpid(), export=tracer.export())


# -- parent side -------------------------------------------------------

def _split_workers(jobs: int) -> Tuple[int, int]:
    """``(full, cube_bits)`` worker split for a *jobs*-wide pool.

    Cube workers only help in powers of two (the sign combinations must
    cover the whole space), so small pools stay all-full: below four
    workers a cube pair would cost half the diversification for one
    binary split.
    """
    if jobs >= 8:
        return jobs - 4, 2
    if jobs >= 4:
        return jobs - 2, 1
    return jobs, 0


def _apportion(limits: Optional[Limits], workers: int, elapsed: float,
               spent_conflicts: int = 0,
               spent_propagations: int = 0) -> Optional[Limits]:
    """Per-worker share of the caller's *remaining* budget.

    Wall-clock (minus what the probe already spent) and memory pass
    through — workers run concurrently, each under the full clock.
    Conflict and propagation budgets first deduct the search the probe
    already consumed, then divide across workers, so the portfolio's
    *total* search effort stays within the caller's grant.
    """
    if limits is None or limits.unbounded:
        return limits
    left = limits.remaining(elapsed, max(0, spent_conflicts),
                            max(0, spent_propagations))
    max_time = left.max_time
    if max_time is not None:
        max_time = max(0.05, max_time)
    div = max(1, workers)
    conflicts = left.max_conflicts
    if conflicts is not None:
        conflicts = max(1, math.ceil(max(1, conflicts) / div))
    props = left.max_propagations
    if props is not None:
        props = max(1, math.ceil(max(1, props) / div))
    return Limits(max_time=max_time, max_conflicts=conflicts,
                  max_propagations=props,
                  max_memory_mb=limits.max_memory_mb)


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """Pick a start method for the worker pool, or ``None`` for none.

    ``fork`` is the cheap default: workers inherit the loaded modules
    and start solving immediately.  Forking a *multi-threaded* parent
    is hazardous, though — the service solves jobs on HTTP worker
    threads, and a child forked while another thread holds a lock
    inherits that lock forever-held — so threaded parents prefer start
    methods that boot workers from a clean interpreter (``forkserver``
    exec's its server before any pool exists; ``spawn`` exec's every
    worker).  Workers are module-level functions and every payload
    already travels by pickle, so all start methods are equivalent up
    to startup cost.  Returns ``None`` when the platform supports no
    candidate, and the caller degrades to an inline solve.
    """
    methods = ("fork", "spawn")
    if threading.active_count() > 1:
        methods = ("forkserver", "spawn", "fork")
    for method in methods:
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover — platform-dependent
            continue
    return None  # pragma: no cover — no usable start method


class PortfolioBackend:
    """First-finisher-wins parallel portfolio over fresh encodings."""

    name = "portfolio"

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 card_encoding: str = "totalizer",
                 reference: Optional[ReferenceEvaluator] = None,
                 jobs: int = 0,
                 solver_opts: Optional[Dict[str, object]] = None) -> None:
        self.network = network
        self.problem = problem
        self.card_encoding = card_encoding
        self.reference = reference or ReferenceEvaluator(network, problem)
        #: Pool width; ``0`` sizes to the usable CPU count.
        self.jobs = resolve_jobs(jobs or None)
        self.solver_opts = dict(solver_opts or {})
        # Probe / fallback analyzer: easy queries, enumeration, and
        # certified queries all run here, in-process.
        self.analyzer = ScadaAnalyzer(
            network, problem, card_encoding=card_encoding, lint=False,
            reference=self.reference, solver_opts=self.solver_opts)
        self._interrupt_requested = False
        self._live_event = None

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        Reaches the in-process probe through the analyzer and every
        pooled worker through the shared cancel event — the same
        mechanism that cancels portfolio losers.  Sticky until
        :meth:`clear_interrupt`.
        """
        self._interrupt_requested = True
        self.analyzer.interrupt()
        event = self._live_event
        if event is not None:
            event.set()

    def clear_interrupt(self) -> None:
        """Re-arm the backend after an :meth:`interrupt`."""
        self._interrupt_requested = False
        self.analyzer.clear_interrupt()

    # ------------------------------------------------------------------

    def _worker_specs(self, cube_vars: List[int]) -> List[_WorkerSpec]:
        full, cube_bits = _split_workers(self.jobs)
        cube_bits = min(cube_bits, len(cube_vars))
        specs: List[_WorkerSpec] = []
        for i in range(full):
            opts = dict(self.solver_opts)
            opts.update(_DIVERSIFY[i % len(_DIVERSIFY)])
            opts["seed"] = i + 1
            specs.append(_WorkerSpec(index=len(specs), kind="full",
                                     solver_opts=opts))
        # One cube worker per sign combination of the split variables:
        # combination ``bits`` asserts variable j positively when bit j
        # is clear and negatively when set.  The literals are DIMACS
        # (signed variable indices) — that is what the smt facade's
        # ``cube`` option appends to the solve's assumptions — so the
        # 2^cube_bits cubes form a covering family of the search space.
        for bits in range(1 << cube_bits):
            cube = tuple(
                -cube_vars[j] if (bits >> j) & 1 else cube_vars[j]
                for j in range(cube_bits))
            opts = dict(self.solver_opts)
            opts["seed"] = len(specs) + 1
            specs.append(_WorkerSpec(index=len(specs), kind="cube",
                                     solver_opts=opts, cube=cube))
        return specs

    def _probe(self, spec: ResiliencySpec, minimize: bool,
               limits: Optional[Limits]
               ) -> Tuple[Optional[VerificationResult], List[int], float,
                          Dict[str, float]]:
        """Conflict-limited in-process attempt; decides easy queries.

        Returns ``(result, cube_vars, encode_time, probe_stats)`` —
        *result* is the final answer when the probe decided (or the
        global budget already expired), else ``None`` with the
        harvested top-activity split variables.  *probe_stats* is the
        probe's own search-counter deltas, deducted from the caller's
        budget before the fan-out apportions it.
        """
        probe_limits = (limits or Limits()).merged(
            Limits(max_conflicts=PROBE_CONFLICTS,
                   max_propagations=PROBE_PROPAGATIONS))
        solver, encoder, _, encode_time = self.analyzer._build(spec)
        with obs_span("portfolio.probe", spec=spec.describe()) as sp:
            outcome = solver.check(limits=probe_limits)
            sp.attrs["result"] = outcome.value
        probe_stats = dict(solver.last_check_stats)
        result = VerificationResult(
            spec=spec, status=Status.UNKNOWN, encode_time=encode_time,
            solve_time=solver.statistics.check_time,
            num_vars=solver.num_vars, num_clauses=solver.num_clauses,
            backend=self.name, stats=dict(probe_stats))
        if outcome is Result.UNSAT:
            result.status = Status.RESILIENT
            return result, [], encode_time, probe_stats
        if outcome is Result.SAT:
            result.status = Status.THREAT_FOUND
            started = time.perf_counter()
            result.threat = self.analyzer._extract_threat(
                solver, encoder, spec, minimize)
            result.extract_time = time.perf_counter() - started
            return result, [], encode_time, probe_stats
        reason = solver.last_limit_reason
        if reason is not None and not _probe_budget_hit(reason, limits):
            # Not our probe cap: the caller's own budget (time, memory,
            # conflicts, propagations, an interrupt) expired, so
            # fanning out would only overspend it.
            result.limit_reason = reason.value
            return result, [], encode_time, probe_stats
        return None, solver.top_activity_vars(8), encode_time, probe_stats

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               max_conflicts: Optional[int] = None,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        if certify:
            # A RUP refutation must be assumption-free and single-
            # process; certified queries take the fresh path whole.
            obs_event("backend.certify_fallback", backend=self.name)
            result = self.analyzer.verify(
                spec, minimize=minimize, max_conflicts=max_conflicts,
                certify=True, limits=limits)
            result.backend = self.name
            result.details["certify_fallback"] = "fresh"
            return result
        effective = limits if limits is not None else Limits()
        if max_conflicts is not None:
            effective = effective.merged(
                Limits(max_conflicts=max_conflicts))
        if self.jobs <= 1:
            # No pool to fan out to: solve inline on the analyzer.
            return self._solve_inline(spec, minimize, effective)
        started = time.perf_counter()
        probe_result, cube_vars, encode_time, probe_stats = self._probe(
            spec, minimize, effective)
        if probe_result is not None:
            obs_count("portfolio.probe_wins")
            probe_result.details["portfolio"] = {"mode": "probe",
                                                 "workers": 0}
            return probe_result
        result = self._fan_out(spec, minimize, effective, cube_vars,
                               time.perf_counter() - started, probe_stats)
        result.encode_time = encode_time
        return result

    def _solve_inline(self, spec: ResiliencySpec, minimize: bool,
                      limits: Optional[Limits]) -> VerificationResult:
        """Single-process fallback: no pool width, no usable start
        method, or the pool failed to come up."""
        result = self.analyzer._verify(spec, minimize=minimize,
                                       limits=limits, defer=False)
        result.backend = self.name
        result.details["portfolio"] = {"mode": "inline", "workers": 0}
        return result

    def _fan_out(self, spec: ResiliencySpec, minimize: bool,
                 limits: Limits, cube_vars: List[int],
                 probe_elapsed: float,
                 probe_stats: Dict[str, float]) -> VerificationResult:
        specs = self._worker_specs(cube_vars)
        worker_limits = _apportion(
            limits if not limits.unbounded else None,
            len(specs), probe_elapsed,
            spent_conflicts=int(probe_stats.get("conflicts", 0)),
            spent_propagations=int(probe_stats.get("propagations", 0)))
        try:
            ctx = _pool_context()
            event = ctx.Event() if ctx is not None else None
        except OSError:  # pragma: no cover — no semaphore support
            event = None
        if event is None:  # pragma: no cover — no multiprocessing here
            return self._solve_inline(spec, minimize, limits or None)
        self._live_event = event
        if self._interrupt_requested:
            event.set()
        payloads = [
            (w, self.network, self.problem, spec, minimize,
             worker_limits, self.card_encoding)
            for w in specs
        ]
        started = time.perf_counter()
        obs_count("portfolio.queries")
        with obs_span("portfolio.fan_out", workers=len(specs),
                      cubes=sum(1 for w in specs if w.kind == "cube"),
                      spec=spec.describe()) as sp:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=len(specs), mp_context=ctx,
                    initializer=_init_worker, initargs=(event,))
            except (OSError, ValueError):  # pragma: no cover — no procs
                self._live_event = None
                return self._solve_inline(spec, minimize, limits or None)
            try:
                reports = self._drain(pool, payloads, specs, sp)
            finally:
                self._live_event = None
                pool.shutdown(wait=False, cancel_futures=True)
        result = self._aggregate(spec, specs, reports)
        result.solve_time = time.perf_counter() - started
        return result

    def _drain(self, pool: ProcessPoolExecutor, payloads: List[Tuple],
               specs: List[_WorkerSpec], sp) -> List[_WorkerReport]:
        """Collect worker reports, cancelling losers on first decision.

        Returns every report received up to (and including) the moment
        the race was decided and the stragglers unwound; the shared
        event is the one cancellation channel, and the time between
        setting it and the last straggler's return is the cancel
        latency exported to the metrics registry.
        """
        event = self._live_event
        futures = {pool.submit(_run_worker, payload): payload[0]
                   for payload in payloads}
        pending = set(futures)
        reports: List[_WorkerReport] = []
        cube_total = sum(1 for w in specs if w.kind == "cube")
        cube_unsat = 0
        decided = False
        while pending and not decided:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                try:
                    report = fut.result()
                except BrokenProcessPool:  # pragma: no cover — crash
                    pending = set()
                    break
                except Exception:  # pragma: no cover — crash
                    continue
                reports.append(report)
                self._absorb(report)
                status = report.result.status
                if status is Status.THREAT_FOUND:
                    decided = True
                elif status is Status.RESILIENT:
                    if report.kind == "full":
                        decided = True
                    else:
                        cube_unsat += 1
                        if cube_total and cube_unsat == cube_total:
                            decided = True
        if decided and pending:
            cancel_started = time.perf_counter()
            event.set()
            # Losers poll the event at the solver's 128-iteration
            # cadence; the straggler tail is the cancel latency.
            for fut in pending:
                try:
                    reports.append(fut.result())
                    self._absorb(reports[-1])
                except Exception:  # pragma: no cover — racing crash
                    pass
            latency_ms = (time.perf_counter() - cancel_started) * 1e3
            obs_observe("portfolio.cancel_latency_ms", latency_ms)
            sp.attrs["cancel_latency_ms"] = round(latency_ms, 3)
        return reports

    @staticmethod
    def _absorb(report: _WorkerReport) -> None:
        tracer = current_tracer()
        if tracer is not None and report.export:
            tracer.absorb(report.export, worker=report.pid)

    def _aggregate(self, spec: ResiliencySpec, specs: List[_WorkerSpec],
                   reports: List[_WorkerReport]) -> VerificationResult:
        """Normalize the race's outcome to one VerificationResult."""
        cube_total = sum(1 for w in specs if w.kind == "cube")
        sat_winner: Optional[_WorkerReport] = None
        unsat_winner: Optional[_WorkerReport] = None
        cube_unsat: List[_WorkerReport] = []
        for report in sorted(reports, key=lambda r: r.elapsed):
            status = report.result.status
            if status is Status.THREAT_FOUND and sat_winner is None:
                sat_winner = report
            elif status is Status.RESILIENT:
                if report.kind == "full" and unsat_winner is None:
                    unsat_winner = report
                elif report.kind == "cube":
                    cube_unsat.append(report)
        winner: Optional[_WorkerReport] = None
        win_kind: Optional[str] = None
        if sat_winner is not None:
            winner, win_kind = sat_winner, sat_winner.kind
        elif unsat_winner is not None:
            winner, win_kind = unsat_winner, "full"
        elif cube_total and len(cube_unsat) == cube_total:
            # Every cube of the covering family is UNSAT: the slowest
            # cube completed the refutation, so it is the "winner".
            winner = max(cube_unsat, key=lambda r: r.elapsed)
            win_kind = "cube-family"
        detail: Dict[str, object] = {
            "workers": len(specs),
            "cubes": cube_total,
            "reports": [
                {"worker": r.label, "status": r.result.status.value,
                 "elapsed": round(r.elapsed, 4),
                 "limit_reason": r.result.limit_reason}
                for r in sorted(reports, key=lambda r: r.index)
            ],
        }
        if winner is not None:
            result = winner.result
            result.backend = self.name
            detail["winner"] = winner.label
            detail["win_kind"] = win_kind
            result.details["portfolio"] = detail
            obs_count("portfolio.worker_wins")
            obs_event("portfolio.win", winner=winner.label,
                      status=result.status.value,
                      workers=len(specs), cubes=cube_total)
            return result
        # Nobody decided: report UNKNOWN with the most informative
        # expired budget (prefer a real resource over an interrupt).
        reasons = [r.result.limit_reason for r in reports
                   if r.result.limit_reason is not None]
        reason: Optional[str] = None
        if self._interrupt_requested:
            reason = LimitReason.INTERRUPT.value
        else:
            for candidate in reasons:
                if candidate != LimitReason.INTERRUPT.value:
                    reason = candidate
                    break
            if reason is None and reasons:
                reason = reasons[0]
        result = VerificationResult(
            spec=spec, status=Status.UNKNOWN, backend=self.name,
            limit_reason=reason)
        result.details["portfolio"] = detail
        if reports:
            # Charge the query with the pool's *total* search effort:
            # counters sum across workers; tier sizes are per-database
            # gauges that don't add, so keep the largest snapshot.
            totals: Dict[str, float] = {}
            for report in reports:
                for key, value in report.result.stats.items():
                    if key.startswith("tier_"):
                        totals[key] = max(totals.get(key, 0.0),
                                          float(value))
                    else:
                        totals[key] = totals.get(key, 0.0) + float(value)
            result.stats = totals
        return result

    # ------------------------------------------------------------------

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  max_conflicts: Optional[int] = None,
                  limits: Optional[Limits] = None
                  ) -> List[ThreatVector]:
        """Enumeration is inherently sequential (each model blocks the
        next query), so it runs on the in-process analyzer."""
        return self.analyzer.enumerate_threat_vectors(
            spec, limit=limit, minimal=minimal,
            max_conflicts=max_conflicts, limits=limits)
