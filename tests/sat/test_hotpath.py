"""Hot-path regressions: heap growth, memory polling, inprocessing.

Three properties the arena rewrite must hold forever:

* the VSIDS order heap stays bounded on bump-heavy instances (the
  historical solver re-pushed the whole trail on every backtrack and
  grew without bound);
* the memory estimate is O(1) — polling it every 128 iterations must
  not dominate a solve;
* inprocessing (subsumption / self-subsuming resolution / bounded
  vivification) never changes an answer, and every strengthening step
  it logs keeps the RUP proof replayable.
"""

import random
import time

from repro.sat import SatSolver
from repro.sat.proof import check_unsat_proof
from tests.conftest import brute_force_sat


def _pigeonhole(holes: int):
    """PHP(holes+1, holes): unsatisfiable and conflict-heavy."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _random_3cnf(rng: random.Random, max_vars: int = 12):
    """Random 3-CNF near the phase transition: search-hard both ways.

    `tests.conftest.random_cnf` mixes unit clauses in, so most of its
    unsat instances die at `add_clause` time before any search (or
    inprocessing) happens; fixed-width clauses at ratio ~4-5 force the
    refutation through conflict analysis instead.
    """
    n = rng.randint(8, max_vars)
    m = int(n * rng.uniform(3.8, 5.2))
    clauses = []
    for _ in range(m):
        lits = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return n, clauses


def _force_inprocessing(solver: SatSolver) -> None:
    """Run an inprocessing round between every pair of restarts."""
    solver._inprocess_next = 0
    solver._inprocess_interval = 1


def test_order_heap_stays_bounded_on_bump_heavy_instance():
    """Satellite 1: `_decide` stale entries no longer accumulate.

    PHP(7,6) drives thousands of conflicts and backtracks; with the
    historical re-push-the-trail `_cancel_until` the heap ballooned to
    hundreds of entries per variable.  The `_heap_act` freshness filter
    caps live+stale entries near the variable count.
    """
    n, clauses = _pigeonhole(6)
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() is False
    assert solver.stats.conflicts > 500  # genuinely bump-heavy
    assert len(solver._order_heap) <= 2 * solver.num_vars + 64


def test_memory_estimate_is_constant_time_and_sane():
    """Satellite 2: the estimate must not scale with clause count."""
    small = SatSolver()
    small.add_clause([1, 2])

    big = SatSolver()
    rng = random.Random(0)
    for _ in range(50_000):
        v = rng.randint(1, 200)
        w = rng.randint(201, 400)
        big.add_clause([v, -w, rng.choice([1, -1]) * rng.randint(1, 400)])

    assert big._estimate_memory_mb() > small._estimate_memory_mb() > 0.0

    # 10k polls over a 50k-clause database: an O(clauses) walk would
    # take seconds here; the O(1) arena totals take microseconds each.
    start = time.perf_counter()
    for _ in range(10_000):
        big._estimate_memory_mb()
    per_call = (time.perf_counter() - start) / 10_000
    assert per_call < 200e-6, f"memory poll costs {per_call * 1e6:.1f}us"


def test_memory_polling_does_not_dominate_solve():
    """Satellite 2: cumulative poll time stays a sliver of the solve."""
    n, clauses = _pigeonhole(6)
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)

    poll_time = 0.0
    original = solver._estimate_memory_mb

    def timed_estimate():
        nonlocal poll_time
        start = time.perf_counter()
        try:
            return original()
        finally:
            poll_time += time.perf_counter() - start

    solver._estimate_memory_mb = timed_estimate
    start = time.perf_counter()
    from repro.sat.limits import Limits

    assert solver.solve(limits=Limits(max_memory_mb=512.0)) is False
    wall = time.perf_counter() - start
    assert poll_time < 0.2 * wall, (
        f"memory polling took {poll_time:.4f}s of a {wall:.4f}s solve")


def test_inprocessing_preserves_answers_against_brute_force():
    """Satellite 3: per-restart inprocessing never flips a verdict."""
    rng = random.Random(20260808)
    rounds_seen = 0
    for _ in range(120):
        n, clauses = _random_3cnf(rng)
        solver = SatSolver(restart_base=1)  # restart (and inprocess) often
        _force_inprocessing(solver)
        ok = all(solver.add_clause(c) for c in clauses)
        result = solver.solve() if ok else False
        assert result == brute_force_sat(n, clauses)
        stats = solver.stats
        rounds_seen += (stats.subsumed_clauses + stats.strengthened_clauses
                        + stats.vivified_clauses)
        if result:
            for clause in clauses:
                assert any(solver.model_value(l) for l in clause)
    # The fuzz must actually exercise the inprocessing paths.
    assert rounds_seen > 0


def test_rup_proof_replays_after_inprocessing_random():
    """Satellite 3: strengthened clauses keep the proof log RUP-valid."""
    rng = random.Random(1606)
    unsat_seen = 0
    for _ in range(80):
        n, clauses = _random_3cnf(rng, max_vars=10)
        solver = SatSolver(restart_base=1)
        solver.enable_proof()
        _force_inprocessing(solver)
        ok = all(solver.add_clause(c) for c in clauses)
        if not ok:
            continue
        if solver.solve() is False:
            unsat_seen += 1
            originals, learned = solver.proof
            assert check_unsat_proof(originals, learned, num_vars=n)
    assert unsat_seen > 10  # the generator must produce real refutations


def test_rup_proof_replays_after_inprocessing_pigeonhole():
    """A guaranteed-hard refutation with inprocessing forced on."""
    n, clauses = _pigeonhole(5)
    solver = SatSolver(restart_base=1)
    solver.enable_proof()
    _force_inprocessing(solver)
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() is False
    stats = solver.stats
    assert (stats.subsumed_clauses + stats.strengthened_clauses
            + stats.vivified_clauses) > 0
    originals, learned = solver.proof
    assert check_unsat_proof(originals, learned, num_vars=n)
    # Deletion records are observability-only but must be well-formed.
    deletions = solver.proof_deletions
    assert deletions is not None
    assert all(isinstance(l, int) and l != 0
               for clause in deletions for l in clause)
