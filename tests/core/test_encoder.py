"""The constraint encoder, cross-checked against the reference evaluator."""

import itertools

import pytest

from repro.core import ObservabilityProblem
from repro.core.encoder import ModelEncoder
from repro.core.reference import ReferenceEvaluator
from repro.core.specs import FailureBudget, Property
from repro.smt import And, Not, Result, Solver


@pytest.fixture
def encoder(tiny_network, tiny_problem):
    return ModelEncoder(tiny_network, tiny_problem)


def _fix_nodes(encoder, failed):
    """Terms pinning every field device's availability."""
    terms = []
    for device in encoder.network.field_device_ids:
        node = encoder.node(device)
        terms.append(Not(node) if device in failed else node)
    return terms


def test_variables_are_stable(encoder):
    assert encoder.node(1) is encoder.node(1)
    assert encoder.delivered(2).name == "D_2"
    assert encoder.secured(2).name == "S_2"


def test_delivery_matches_reference_on_all_failure_sets(
        tiny_network, tiny_problem):
    reference = ReferenceEvaluator(tiny_network, tiny_problem)
    field = tiny_network.field_device_ids
    for secured in (False, True):
        for size in range(len(field) + 1):
            for failed in itertools.combinations(field, size):
                encoder = ModelEncoder(tiny_network, tiny_problem)
                solver = Solver()
                solver.add(*encoder.availability_axioms())
                solver.add(*encoder.delivery_definitions(secured=secured))
                solver.add(*_fix_nodes(encoder, set(failed)))
                assert solver.check() == Result.SAT
                model = solver.model()
                expected = reference.delivered_measurements(
                    failed, secured=secured)
                var_of = encoder.secured if secured else encoder.delivered
                for z in tiny_problem.measurement_indices:
                    assert model[var_of(z)] == (z in expected), \
                        (secured, failed, z)


def test_not_observability_matches_reference(tiny_network, tiny_problem):
    reference = ReferenceEvaluator(tiny_network, tiny_problem)
    field = tiny_network.field_device_ids
    for size in range(len(field) + 1):
        for failed in itertools.combinations(field, size):
            encoder = ModelEncoder(tiny_network, tiny_problem)
            solver = Solver()
            solver.add(*encoder.availability_axioms())
            solver.add(*encoder.delivery_definitions(secured=False))
            solver.add(*_fix_nodes(encoder, set(failed)))
            solver.add(encoder.property_negation(Property.OBSERVABILITY))
            outcome = solver.check()
            expected = not reference.observable(failed)
            assert (outcome == Result.SAT) == expected, failed


def test_budget_constraint_total(encoder, tiny_network):
    solver = Solver()
    solver.add(encoder.budget_constraint(FailureBudget.total(1)))
    solver.add(Not(encoder.node(1)), Not(encoder.node(2)))
    assert solver.check() == Result.UNSAT
    solver = Solver()
    enc = ModelEncoder(encoder.network, encoder.problem)
    solver.add(enc.budget_constraint(FailureBudget.total(2)))
    solver.add(Not(enc.node(1)), Not(enc.node(2)))
    assert solver.check() == Result.SAT


def test_budget_constraint_split(tiny_network, tiny_problem):
    encoder = ModelEncoder(tiny_network, tiny_problem)
    solver = Solver()
    solver.add(encoder.budget_constraint(FailureBudget.split(1, 0)))
    solver.add(Not(encoder.node(3)))  # RTU down but k2 = 0
    assert solver.check() == Result.UNSAT


def test_unassigned_measurement_pinned_undelivered(tiny_network):
    problem = ObservabilityProblem(
        num_states=2,
        state_sets={1: [1], 2: [2], 3: [1, 2]},  # z3 has no IED
        unique_groups=[[1], [2], [3]],
    )
    encoder = ModelEncoder(tiny_network, problem)
    solver = Solver()
    solver.add(*encoder.availability_axioms())
    solver.add(*encoder.delivery_definitions(secured=False))
    solver.add(encoder.delivered(3))
    assert solver.check() == Result.UNSAT


def test_bad_data_term(tiny_network, tiny_problem):
    encoder = ModelEncoder(tiny_network, tiny_problem)
    solver = Solver()
    solver.add(*encoder.availability_axioms())
    solver.add(*encoder.delivery_definitions(secured=True))
    solver.add(*_fix_nodes(encoder, set()))
    # r = 0: state 2 has no secured measurement → not detectable.
    solver.add(encoder.not_bad_data_detectability(0))
    assert solver.check() == Result.SAT
