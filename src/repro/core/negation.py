"""Solving a property negation in two phases: eager branch first.

``¬Observability ≡ U ∨ T`` (:meth:`ModelEncoder.negation_branches`).
``U`` (some state uncovered) is small; ``T`` (fewer than ``n`` unique
groups delivered) is a cardinality counter that makes up most of the
CNF.  :class:`PhasedNegation` asserts ``U ∨ gate`` for a fresh selector
``gate`` and answers a query in up to two solver calls:

1. solve under the assumption ``¬gate``, i.e. with ``U`` alone.  SAT
   is a real threat, since ``U`` implies ``¬Obs``;
2. only when phase 1 is UNSAT, assert ``gate → T`` (once per solver,
   at base level) and solve again without the assumption, i.e. with
   ``U ∨ T``.

Phase 2's answer is the query's answer, so the verdicts are those of
the single disjunction.  Every query tries phase 1 first, also once
``T`` exists.  Both calls share one per-query budget, and the result's
statistics cover both.  Properties with no deferred branch (command
deliverability, bad data), and paths that keep the full disjunction,
run phase 1 only.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

from ..obs.tracer import span as obs_span
from ..sat.limits import Limits
from ..smt.solver import Result, Solver
from ..smt.terms import Bool, Implies, Not, Or, Term

__all__ = ["PhaseOutcome", "PhasedNegation"]


class PhaseOutcome(NamedTuple):
    """One query's answer over its phases."""

    result: Result
    #: Search counters and ``check_time`` summed over the phases.
    stats: Dict[str, float]
    #: Seconds spent building the deferred branch during this query.
    encode_time: float


def _add_stats(total: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        # ``tier_*`` are gauges of the clause database, not deltas.
        total[key] = (value if key.startswith("tier_")
                      else total.get(key, 0.0) + value)


class PhasedNegation:
    """The threat condition on one solver, its deferred branch gated.

    ``PhasedNegation(solver, backend, eager, deferred)`` asserts
    ``eager ∨ gate`` and defers ``deferred``; with ``deferred=None`` it
    asserts ``eager`` as is (``eager=None`` asserts nothing, for
    callers that assert the negation themselves).
    """

    def __init__(self, solver: Solver, backend: str,
                 eager: Optional[Term] = None,
                 deferred: Optional[Term] = None) -> None:
        self._solver = solver
        self._backend = backend
        self._deferred = deferred
        self.gate: Optional[Term] = None
        self.built = deferred is None
        if deferred is not None:
            assert eager is not None
            self.gate = Bool("__negation_deferred")
            solver.add(Or(eager, self.gate))
        elif eager is not None:
            solver.add(eager)

    def build(self) -> float:
        """Assert ``gate → deferred`` at base level, once; the seconds
        it took (zero when already built)."""
        if self.built:
            return 0.0
        assert self.gate is not None and self._deferred is not None
        started = time.perf_counter()
        with obs_span("encode", backend=self._backend, branch="deferred"):
            self._solver.add_base(Implies(self.gate, self._deferred))
        self.built = True
        return time.perf_counter() - started

    def check(self, *assumptions: Term,
              max_conflicts: Optional[int] = None,
              limits: Optional[Limits] = None) -> PhaseOutcome:
        """Answer one query: phase 1, then phase 2 if phase 1 is UNSAT.

        *limits* (with *max_conflicts* merged in) bounds the whole
        query; phase 2 gets what phase 1 left.
        """
        solver = self._solver
        budget = limits if limits is not None else Limits()
        if max_conflicts is not None:
            budget = budget.merged(Limits(max_conflicts=max_conflicts))
        started = time.perf_counter()
        phase_one = list(assumptions)
        if self.gate is not None:
            phase_one.append(Not(self.gate))
        result = self._solve(phase_one, budget, phase=1)
        stats = dict(solver.last_check_stats)
        if result is not Result.UNSAT or self.gate is None:
            return PhaseOutcome(result, stats, 0.0)
        encode_time = self.build()
        left = budget.remaining(time.perf_counter() - started,
                                stats.get("conflicts", 0.0),
                                stats.get("propagations", 0.0))
        result = self._solve(list(assumptions), left, phase=2)
        _add_stats(stats, solver.last_check_stats)
        return PhaseOutcome(result, stats, encode_time)

    def _solve(self, assumptions: List[Term], limits: Limits,
               phase: int) -> Result:
        with obs_span("solve", backend=self._backend, phase=phase) as sp:
            result = self._solver.check(*assumptions, limits=limits)
            sp.attrs["result"] = result.value
        return result
