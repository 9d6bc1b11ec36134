"""Two-phase solving of ¬observability: ``U`` first, ``T`` on demand.

Every verify answers with phase 1 (``U``: some state uncovered) and,
only when that is UNSAT, phase 2 (``U ∨ T``, with ``T`` the
unique-group counter).  These tests pin down that the split changes no
verdict, that a query's statistics and budget span both phases, and
that phase 2 really runs where only ``T`` can find the threat.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ObservabilityProblem,
    ResiliencySpec,
    ScadaAnalyzer,
    Status,
)
from repro.core.incremental import IncrementalContext
from repro.core.negation import PhasedNegation
from repro.engine import VerificationEngine
from repro.grid import ieee14
from repro.scada import (
    Device,
    DeviceType,
    GeneratorConfig,
    Link,
    ScadaNetwork,
    generate_scada,
)
from repro.smt.solver import Solver

#: The backends that split the negation into phases.
PHASED = ("fresh", "incremental", "assumption")


@pytest.fixture
def checks(monkeypatch):
    """Every ``Solver.check`` as ``(result, last_check_stats)``."""
    log = []
    original = Solver.check

    def spy(self, *assumptions, **kwargs):
        result = original(self, *assumptions, **kwargs)
        log.append((result.value, dict(self.last_check_stats)))
        return result

    monkeypatch.setattr(Solver, "check", spy)
    return log


def _resilient_case():
    """IEEE-14, hierarchy 1: observability k=2 holds, and both phases
    need conflicts to show it."""
    syn = generate_scada(ieee14(), GeneratorConfig(
        measurement_fraction=0.8, hierarchy_level=1, seed=1,
        secure_fraction=0.8))
    problem = ObservabilityProblem.from_table(syn.table)
    return syn.network, problem, ResiliencySpec.observability(k=2)


def _t_only_case():
    """Two IEDs, each with one measurement over both states, each dual-
    homed to two RTUs.  One IED down leaves every state covered but
    only one of the two unique groups delivered: the only threats
    within k=1 come from ``T``."""
    devices = [Device(1, DeviceType.IED), Device(2, DeviceType.IED),
               Device(3, DeviceType.RTU), Device(4, DeviceType.RTU),
               Device(5, DeviceType.MTU)]
    links = [Link(1, 1, 3), Link(2, 1, 4), Link(3, 2, 3), Link(4, 2, 4),
             Link(5, 3, 5), Link(6, 4, 5)]
    network = ScadaNetwork(devices=devices, links=links,
                           measurement_map={1: [1], 2: [2]},
                           name="t-only")
    problem = ObservabilityProblem(num_states=2,
                                   state_sets={1: [1, 2], 2: [1, 2]},
                                   unique_groups=[[1], [2]])
    return network, problem


def _engine(network, problem, backend):
    return VerificationEngine(network, problem, backend=backend,
                              lint=False)


def _total(log, field):
    return sum(stats[field] for _, stats in log)


# -- per-query accounting ---------------------------------------------

def test_fresh_result_covers_both_phases(checks):
    network, problem, spec = _resilient_case()
    analyzer = ScadaAnalyzer(network, problem, lint=False)
    full_size = analyzer.model_size(spec)
    checks.clear()
    result = analyzer.verify(spec)
    assert result.status is Status.RESILIENT
    assert [outcome for outcome, _ in checks] == ["unsat", "unsat"]
    for field in ("conflicts", "decisions", "propagations"):
        assert result.stats[field] == _total(checks, field)
    assert all(stats["conflicts"] > 0 for _, stats in checks)
    assert result.solve_time == pytest.approx(_total(checks, "check_time"))
    # The sizes are what the solver holds, the counter T included.
    solver = analyzer._live_solver
    assert (result.num_vars, result.num_clauses) == (solver.num_vars,
                                                     solver.num_clauses)
    assert result.num_clauses >= full_size["clauses"]


@pytest.mark.parametrize("mode", ["scopes", "assumptions"])
def test_context_result_covers_both_phases(checks, mode):
    network, problem, spec = _resilient_case()
    full_size = ScadaAnalyzer(network, problem,
                              lint=False).model_size(spec)
    ctx = IncrementalContext(network, problem, budget_mode=mode)
    checks.clear()
    first = ctx.verify(spec)
    assert first.status is Status.RESILIENT
    assert len(checks) == 2
    for field in ("conflicts", "decisions", "propagations"):
        assert first.stats[field] == _total(checks, field)
    assert first.solve_time == pytest.approx(_total(checks, "check_time"))
    # T, built during the first query, is part of the base from now on.
    assert first.num_clauses >= full_size["clauses"]
    if mode == "assumptions":
        assert first.num_clauses == ctx._solver.num_clauses
        assert first.num_vars == ctx._solver.num_vars


def test_threat_on_eager_branch_never_builds_the_counter(checks):
    network, problem, _ = _resilient_case()
    analyzer = ScadaAnalyzer(network, problem, lint=False)
    spec = ResiliencySpec.observability(k=4)
    full_size = analyzer.model_size(spec)
    checks.clear()
    result = analyzer.verify(spec)
    assert result.status is Status.THREAT_FOUND
    assert result.threat.uncovered_states
    assert [outcome for outcome, _ in checks] == ["sat"]
    assert result.num_clauses < full_size["clauses"]


# -- one budget per query -----------------------------------------------

@pytest.mark.parametrize("backend", PHASED)
def test_conflict_budget_spans_both_phases(checks, backend):
    network, problem, spec = _resilient_case()
    checks.clear()
    assert _engine(network, problem, backend).verify(spec).is_resilient
    (_, first), (_, second) = checks
    phase_one = int(first["conflicts"])
    phase_two = int(second["conflicts"])
    assert phase_two > 0

    exact = _engine(network, problem, backend).verify(
        spec, max_conflicts=phase_one + phase_two)
    assert exact.status is Status.RESILIENT
    for cap in (phase_one, phase_one + phase_two - 1):
        # The cap runs out in phase 2, which must not answer RESILIENT.
        result = _engine(network, problem, backend).verify(
            spec, max_conflicts=cap)
        assert result.status is Status.UNKNOWN, cap
        assert result.limit_reason == "conflicts"
        assert result.stats["conflicts"] <= cap + 1


@pytest.mark.parametrize("backend", PHASED)
def test_interrupt_between_phases_answers_unknown(monkeypatch, backend):
    network, problem, spec = _resilient_case()
    engine = _engine(network, problem, backend)
    build = PhasedNegation.build

    def interrupt_then_build(self):
        engine.interrupt()
        return build(self)

    monkeypatch.setattr(PhasedNegation, "build", interrupt_then_build)
    result = engine.verify(spec)
    assert result.status is Status.UNKNOWN
    assert result.limit_reason == "interrupt"
    monkeypatch.setattr(PhasedNegation, "build", build)
    engine.clear_interrupt()
    assert engine.verify(spec).is_resilient


# -- differential: phase 2 finds what phase 1 cannot ---------------------

@pytest.mark.parametrize("backend", PHASED)
def test_threat_only_through_the_unique_group_counter(checks, backend):
    network, problem = _t_only_case()
    engine = VerificationEngine(network, problem, backend=backend)
    spec = ResiliencySpec.observability(k=1)
    checks.clear()
    result = engine.verify(spec)
    assert [outcome for outcome, _ in checks] == ["unsat", "sat"]
    assert result.status is Status.THREAT_FOUND
    assert result.threat.failed_devices in ({1}, {2})
    assert not result.threat.uncovered_states

    brute = engine.reference.brute_force_threats(spec)
    assert brute == [frozenset({1}), frozenset({2})]
    enumerated = {frozenset(t.failed_devices)
                  for t in engine.enumerate_threat_vectors(spec)}
    assert enumerated == set(brute)
    assert engine.verify(ResiliencySpec.observability(k=0)).is_resilient
    assert engine.max_total_resiliency(screen=False) == 0


@st.composite
def tiny_scada(draw):
    """At most 8 devices, with unique groups drawn too, so ``T``
    matters as often as ``U``."""
    num_ieds = draw(st.integers(min_value=2, max_value=4))
    num_rtus = draw(st.integers(min_value=1, max_value=3))
    num_states = draw(st.integers(min_value=2, max_value=4))
    ied_ids = list(range(1, num_ieds + 1))
    rtu_ids = list(range(num_ieds + 1, num_ieds + num_rtus + 1))
    mtu = num_ieds + num_rtus + 1
    pairs = set()
    for ied in ied_ids:
        for rtu in draw(st.lists(st.sampled_from(rtu_ids), min_size=1,
                                 max_size=2, unique=True)):
            pairs.add((ied, rtu))
    for pos, rtu in enumerate(rtu_ids):
        if pos == 0 or draw(st.booleans()):
            pairs.add((rtu, mtu))
        else:
            pairs.add((min(rtu_ids[:pos]), rtu))
    links = [Link(i, a, b) for i, (a, b) in enumerate(sorted(pairs), 1)]
    measurement_map, state_sets = {}, {}
    for ied in ied_ids:
        zs = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            z = len(state_sets) + 1
            state_sets[z] = draw(st.lists(
                st.integers(min_value=1, max_value=num_states),
                min_size=1, max_size=3, unique=True))
            zs.append(z)
        measurement_map[ied] = zs
    labels = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=len(state_sets),
                           max_size=len(state_sets)))
    groups = {}
    for z, label in zip(sorted(state_sets), labels):
        groups.setdefault(label, []).append(z)
    devices = ([Device(i, DeviceType.IED) for i in ied_ids]
               + [Device(i, DeviceType.RTU) for i in rtu_ids]
               + [Device(mtu, DeviceType.MTU)])
    network = ScadaNetwork(devices=devices, links=links,
                           measurement_map=measurement_map)
    problem = ObservabilityProblem(num_states=num_states,
                                   state_sets=state_sets,
                                   unique_groups=list(groups.values()))
    return network, problem


@given(tiny_scada(), st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_phased_backends_match_brute_force(system, k):
    network, problem = system
    spec = ResiliencySpec.observability(k=k)
    engines = {name: _engine(network, problem, name) for name in PHASED}
    reference = engines["fresh"].reference
    expected = (Status.THREAT_FOUND
                if reference.brute_force_threats(spec, minimal_only=False)
                else Status.RESILIENT)
    minimal = set(reference.brute_force_threats(spec))
    max_k = -1
    while max_k < len(network.field_device_ids) and not \
            reference.brute_force_threats(
                ResiliencySpec.observability(k=max_k + 1),
                minimal_only=False):
        max_k += 1
    for name, engine in engines.items():
        assert engine.verify(spec).status is expected, name
        enumerated = {frozenset(t.failed_devices)
                      for t in engine.enumerate_threat_vectors(spec)}
        assert enumerated == minimal, name
        assert engine.max_total_resiliency(screen=False) == max_k, name


# -- certification -----------------------------------------------------

def test_certified_resilient_query_checks_its_proof(checks):
    network, problem, spec = _resilient_case()
    analyzer = ScadaAnalyzer(network, problem, lint=False)
    checks.clear()
    result = analyzer.verify(spec, certify=True)
    assert result.status is Status.RESILIENT
    assert len(checks) == 2
    assert result.details["proof_checked"] is True
