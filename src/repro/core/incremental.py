"""Incremental verification: one encoding, many budget queries.

Maximal-resiliency search (Fig. 7(a)) and threat-space sweeps ask many
queries that differ *only* in the failure budget.  The plain
:class:`~repro.core.analyzer.ScadaAnalyzer` re-encodes the whole model
per query; an :class:`IncrementalContext` encodes the budget-independent
part — delivery definitions, availability axioms, and the property
negation — once (the negation's deferred branch on the first query
that reaches phase 2, see :mod:`repro.core.negation`), and answers
each budget against the shared solver.

Two budget-selection modes are supported:

* ``"scopes"`` (the original): each query opens a push/pop scope and
  re-encodes its cardinality constraint inside it.  Learned clauses
  touching the budget die with the scope's activation literal.
* ``"assumptions"``: every budget bound is a selector literal over a
  persistent, extendable totalizer (:class:`~repro.smt.BudgetHandle`),
  passed to ``check`` as an assumption.  Nothing is re-encoded per
  query — a new budget only *grows* the counter the first time it is
  seen — and **all** learned clauses survive across budgets.  For
  bad-data detectability the redundancy parameter ``r`` is gated the
  same way, so one context serves every ``(k, r)`` combination.

The verdicts are identical by construction; the ablation benchmark
``bench_ablation_incremental`` quantifies the difference.  The
:class:`~repro.engine.VerificationEngine`'s ``incremental`` and
``assumption`` backends keep contexts in its encoding cache.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

from ..obs.tracer import current_tracer, probe_for
from ..obs.tracer import span as obs_span
from ..sat.enumeration import drive_enumeration
from ..sat.limits import Limits
from ..scada.network import ScadaNetwork
from ..smt.solver import BudgetHandle, Result, Solver
from ..smt.terms import Bool, BoolVal, Implies, Not, Or, Term
from .encoder import ModelEncoder
from .extraction import extract_threat
from .negation import PhaseOutcome, PhasedNegation
from .problem import ObservabilityProblem
from .reference import ReferenceEvaluator
from .results import Status, ThreatVector, VerificationResult
from .specs import Property, ResiliencySpec

__all__ = ["BUDGET_MODES", "IncrementalContext"]

#: How a context binds each query's budget to the shared solver.
BUDGET_MODES = ("scopes", "assumptions")


class IncrementalContext:
    """A cached base encoding for one (property, r, link-modeling) key.

    All budget-parameterized queries against that key — single verdicts,
    galloping max-resiliency probes, threat enumeration — run against
    the shared solver, so learned clauses carry over.  With
    ``budget_mode="scopes"`` each query re-encodes its cardinality
    constraint in a push/pop scope; with ``budget_mode="assumptions"``
    budgets are chosen by assumption literals over persistent extendable
    counters and nothing is re-encoded (in that mode the context also
    serves *every* ``r`` for bad-data detectability).
    """

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 prop: Property = Property.OBSERVABILITY,
                 r: int = 1,
                 model_links: bool = False,
                 card_encoding: str = "totalizer",
                 reference: Optional[ReferenceEvaluator] = None,
                 budget_mode: str = "scopes",
                 solver_opts: Optional[Dict[str, object]] = None) -> None:
        if budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget mode {budget_mode!r}; "
                             f"expected one of {', '.join(BUDGET_MODES)}")
        self.network = network
        self.problem = problem
        self.prop = prop
        self.r = r
        self.model_links = model_links
        self.budget_mode = budget_mode
        self.backend_name = ("assumption" if budget_mode == "assumptions"
                             else "incremental")
        self.reference = reference or ReferenceEvaluator(network, problem)
        self._encoder = ModelEncoder(network, problem,
                                     model_links=model_links)
        self._solver = Solver(card_encoding=card_encoding,
                              solver_opts=solver_opts)
        # With assumption-selected budgets, the bad-data redundancy
        # parameter r is gated per query exactly like k, so the base
        # encoding is r-independent.
        self._gate_r = (budget_mode == "assumptions"
                        and prop is Property.BAD_DATA_DETECTABILITY)
        self._negation_selectors: Dict[int, Term] = {}
        started = time.perf_counter()
        self._solver.add(*self._encoder.availability_axioms())
        self._solver.add(*self._encoder.delivery_definitions(secured=False))
        if prop.uses_security:
            self._solver.add(
                *self._encoder.delivery_definitions(secured=True))
        # ¬property as ``U ∨ gate``; the deferred branch T is built the
        # first time a query's phase 1 is UNSAT.  Gated-r contexts
        # assert the negation per r behind a selector instead.
        self._negation = (
            PhasedNegation(self._solver, self.backend_name)
            if self._gate_r else
            PhasedNegation(self._solver, self.backend_name,
                           *self._encoder.negation_branches(prop, r)))
        if model_links:
            # Allocate every topology link's variable up front so
            # per-query link budgets never grow the base numbering.
            self._encoder.link_vars()
        self.base_encode_time = time.perf_counter() - started
        self._base_vars = self._solver.num_vars
        self._base_clauses = self._solver.num_clauses

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        Thread-safe in the cooperative sense: the shared solver's CDCL
        loop polls the flag and answers UNKNOWN with limit reason
        ``interrupt``, unwinding cleanly — the base encoding stays
        reusable.  Sticky until :meth:`clear_interrupt`.
        """
        self._solver.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the context after an :meth:`interrupt`."""
        self._solver.clear_interrupt()

    def _check_spec(self, spec: ResiliencySpec) -> None:
        if spec.property is not self.prop:
            raise ValueError(
                f"context encodes {self.prop.value}, got a "
                f"{spec.property.value} spec")
        if (spec.property is Property.BAD_DATA_DETECTABILITY
                and not self._gate_r and spec.r != self.r):
            raise ValueError(
                f"context encodes r={self.r}, got a spec with r={spec.r}")
        if (spec.link_k is not None) != self.model_links:
            raise ValueError(
                "context link modeling does not match the spec: "
                f"model_links={self.model_links}, link_k={spec.link_k}")

    def _add_budgets(self, spec: ResiliencySpec) -> None:
        """Scope mode: assert this query's budgets (inside a scope)."""
        self._solver.add(self._encoder.budget_constraint(spec.budget))
        if spec.link_k is not None:
            self._solver.add(
                self._encoder.link_budget_constraint(spec.link_k))

    # -- assumption mode ------------------------------------------------

    def _device_handle(self, kind: str) -> BudgetHandle:
        enc = self._encoder
        ids = {
            "nodes": self.network.field_device_ids,
            "ieds": self.network.ied_ids,
            "rtus": self.network.rtu_ids,
        }[kind]
        return self._solver.budget_handle(
            [Not(enc.node(i)) for i in ids], f"{kind}-down")

    def _negation_selector(self, r: int) -> Term:
        """Selector assuming which activates ``¬property`` at this r.

        The implication is asserted permanently; distinct r values share
        the underlying per-state counters (the encoder keys them on the
        literal set and raises their bound in place), so sweeping r is
        as cheap as sweeping k.
        """
        sel = self._negation_selectors.get(r)
        if sel is None:
            sel = Bool(f"__negation[r={r}]")
            self._solver.add(Implies(
                sel, self._encoder.property_negation(self.prop, r)))
            self._negation_selectors[r] = sel
        return sel

    def _budget_assumptions(self, spec: ResiliencySpec) -> List[Term]:
        """Selector terms activating this spec's budgets (and r)."""
        budget = spec.budget
        assumptions: List[Term] = []
        if budget.is_split:
            assert budget.k1 is not None and budget.k2 is not None
            assumptions.append(self._device_handle("ieds").at_most(budget.k1))
            assumptions.append(self._device_handle("rtus").at_most(budget.k2))
        else:
            assert budget.k is not None
            assumptions.append(self._device_handle("nodes").at_most(budget.k))
        if spec.link_k is not None:
            links = self._solver.budget_handle(
                [Not(var) for var in self._encoder.link_vars().values()],
                "links-down")
            assumptions.append(links.at_most(spec.link_k))
        if self._gate_r:
            assumptions.append(self._negation_selector(spec.r))
        # A trivially-true bound (k >= n) needs no assumption at all.
        return [a for a in assumptions
                if not (isinstance(a, BoolVal) and a.value)]

    # ------------------------------------------------------------------

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               max_conflicts: Optional[int] = None,
               limits: Optional[Limits] = None) -> VerificationResult:
        """Verify the context's property under one spec's budgets.

        *limits* bounds the query (both phases together, not
        cumulatively across queries — the shared solver grants every
        query the full budget); an expired budget yields an UNKNOWN
        result naming the reason.
        """
        self._check_spec(spec)
        solver = self._solver
        solver.set_hooks(probe_for(current_tracer()))
        scoped = self.budget_mode != "assumptions"
        with solver.scope() if scoped else contextlib.nullcontext():
            started = time.perf_counter()
            with obs_span("encode", backend=self.backend_name):
                pre_vars, pre_clauses = solver.num_vars, solver.num_clauses
                assumptions: List[Term] = []
                if scoped:
                    self._add_budgets(spec)
                else:
                    assumptions = self._budget_assumptions(spec)
                query_vars = solver.num_vars - pre_vars
                query_clauses = solver.num_clauses - pre_clauses
            encode_time = time.perf_counter() - started
            phases = self._negation.check(*assumptions,
                                          max_conflicts=max_conflicts,
                                          limits=limits)
            # A deferred branch built by this query is base encoding
            # from now on: every later query's solver holds it too.
            self._base_vars += solver.num_vars - pre_vars - query_vars
            self._base_clauses += (solver.num_clauses - pre_clauses
                                   - query_clauses)
            return self._result(spec, phases,
                                encode_time + phases.encode_time,
                                query_vars, query_clauses, minimize)

    def _result(self, spec: ResiliencySpec, phases: PhaseOutcome,
                encode_time: float, query_vars: int, query_clauses: int,
                minimize: bool) -> VerificationResult:
        solver = self._solver
        outcome = phases.result
        # Report the encoding size *this query* would have cost on its
        # own: the shared base (with the deferred branch once built)
        # plus the query's budget delta.  The shared solver's raw
        # totals accumulate every previous query's budget encoding and
        # would inflate scaling tables relative to the fresh backend.
        # (In assumption mode a repeated budget's delta is zero: its
        # counter already exists.)
        result = VerificationResult(
            spec=spec,
            status=Status.UNKNOWN,
            encode_time=encode_time,
            solve_time=phases.stats.get("check_time", 0.0),
            num_vars=self._base_vars + query_vars,
            num_clauses=self._base_clauses + query_clauses,
            backend=self.backend_name,
            stats=phases.stats,
        )
        if outcome is Result.UNKNOWN:
            if solver.last_limit_reason is not None:
                result.limit_reason = solver.last_limit_reason.value
            return result
        if outcome is Result.UNSAT:
            result.status = Status.RESILIENT
            return result
        result.status = Status.THREAT_FOUND
        started = time.perf_counter()
        with obs_span("extract", backend=self.backend_name):
            result.threat = extract_threat(
                solver.model(), self._encoder, self.reference,
                self.network, self.problem, spec, minimize,
                origin=f"{self.backend_name} solver")
        result.extract_time = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  max_conflicts: Optional[int] = None,
                  limits: Optional[Limits] = None) -> List[ThreatVector]:
        """All (minimal) threat vectors within the spec's budgets.

        Blocking clauses are asserted inside a query scope, so the
        cached base encoding is untouched once the scope pops and later
        queries see no leftover blocks.  In assumption mode the budget
        itself still rides on assumption selectors (created *before*
        the scope opens, so their definitions are permanent); only the
        blocking clauses are scoped.
        """
        self._check_spec(spec)
        solver = self._solver
        solver.set_hooks(probe_for(current_tracer()))
        node_vars = self._encoder.field_node_vars()
        # Enumeration keeps the full disjunction: every check below
        # runs without the phase-1 assumption.
        self._negation.build()
        assumptions: List[Term] = []
        if self.budget_mode == "assumptions":
            assumptions = self._budget_assumptions(spec)

        def check() -> Optional[bool]:
            outcome = solver.check(*assumptions,
                                   max_conflicts=max_conflicts,
                                   limits=limits)
            if outcome is Result.UNKNOWN:
                return None
            return outcome is Result.SAT

        def extract() -> ThreatVector:
            return extract_threat(
                solver.model(), self._encoder, self.reference,
                self.network, self.problem, spec, minimize=minimal,
                origin=f"{self.backend_name} solver")

        def block(threat: ThreatVector) -> bool:
            failed = threat.failed_devices
            failed_links = threat.failed_links
            if minimal:
                # Forbid this failure set and every superset.
                revive = [node_vars[i] for i in failed]
                revive += [self._encoder.link_up(a, b)
                           for a, b in failed_links]
                solver.add(Or(*revive))
            else:
                # Forbid only this exact assignment of the node vars.
                flip = [
                    Not(var) if i not in failed else var
                    for i, var in node_vars.items()
                ]
                if spec.link_k is not None:
                    flip += [
                        Not(var) if pair not in failed_links else var
                        for pair, var
                        in self._encoder.link_vars().items()
                    ]
                solver.add(Or(*flip))
            # The empty vector violates the property; nothing else can
            # be more minimal, so stop the enumeration here.
            return bool(failed or failed_links)

        with solver.scope():
            if self.budget_mode != "assumptions":
                self._add_budgets(spec)
            # On budget expiry drive_enumeration raises
            # ResourceLimitReached carrying the vectors found so far;
            # the scope's context manager pops the blocking clauses on
            # the way out either way, so the cached base encoding stays
            # clean for the next query.
            return list(drive_enumeration(
                check, extract, block, limit=limit, what="threat vector",
                limit_reason=lambda: solver.last_limit_reason))
