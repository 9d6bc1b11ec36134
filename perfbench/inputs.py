"""Seeded inputs and verdict checking for the benchmark workloads.

Each workload runs over a fixed pool of synthetic SCADA systems on the
fixed IEEE-57/118 bus systems, as a dataset; the run's ``--seed``
alone drives the stream of operations over it: which system and spec
each batch op takes and in what order, the service's read order and
write order, and the stream's event feed.  Every run of a workload
thus covers the same systems in a different order, so runs on
different seeds cost alike.  The program under test only ever
receives the generated configs, specs and events.

Verdicts are checked without the SAT path.  A THREAT is replayed
through :meth:`ReferenceEvaluator.is_threat` on the config the verdict
was about (once per distinct witness; the outcome is kept in the
table).  A RESILIENT verdict must match the expected-verdict table
stored with the workload's inputs (``.perfbench/inputs/``).  Both are
keyed by a digest of the config itself (see :func:`config_digest`), so
an entry is never reused for a config the generator no longer makes.
A table entry is confirmed once, by
:meth:`ReferenceEvaluator.brute_force_threats` where the budget is
small enough to enumerate (else by a fresh solve whose DRUP proof the
RUP checker validates), and reused by every later run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple, TypeVar)

from repro.core import ObservabilityProblem, ResiliencySpec
from repro.core.reference import ReferenceEvaluator
from repro.grid import case_by_buses
from repro.scada import GeneratorConfig, generate_scada
from repro.scada.config_io import CaseConfig, dump_config

T = TypeVar("T")

#: Where generated inputs and their verdict tables live, relative to
#: the checkout root (ignored by git).
CACHE_DIR = os.path.join(".perfbench", "inputs")

#: Format of the stored tables; a table of another version is dropped.
TABLE_VERSION = 2

#: Largest number of failure sets brute force may enumerate for one
#: table entry (an IEEE-57 config at k=2 is about 6.6k sets).
BRUTE_FORCE_LIMIT = 10_000

#: The generator's defaults at hierarchy level 2 (the paper's
#: two-tier RTU hierarchy).
GENERATOR = dict(hierarchy_level=2)


def system_seed(pool: int, index: int) -> int:
    """The generator seed of system *index* in a workload's pool."""
    return pool * 100_003 + index


def seeded_cycle(rng: random.Random, items: Sequence[T],
                 count: int) -> List[T]:
    """*count* items: repeated passes over *items*, each in an order
    drawn from *rng*, so every item recurs evenly whatever the seed."""
    out: List[T] = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


#: The bus systems are fixed, as the paper's IEEE test cases are; each
#: SCADA system over them comes from its own generator seed.
GRID_SEED = 0


def make_config(buses: int, gen_seed: int) -> CaseConfig:
    """One synthetic SCADA config over the *buses*-bus test system."""
    synthetic = generate_scada(
        case_by_buses(buses, seed=GRID_SEED),
        GeneratorConfig(seed=gen_seed, **GENERATOR))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return CaseConfig(network=synthetic.network, problem=problem,
                      spec=None)


def config_digest(config: CaseConfig) -> str:
    """What a verdict table entry is about: the config's text form."""
    return hashlib.sha1(dump_config(config).encode()).hexdigest()


def spec_json(spec: ResiliencySpec) -> Dict[str, Any]:
    """The service's wire form of a total-budget spec."""
    budget = spec.budget
    return {"property": spec.property.value, "k": budget.k, "r": spec.r}


def failure_sets(reference: ReferenceEvaluator, k: int) -> int:
    n = len(reference.network.ied_ids) + len(reference.network.rtu_ids)
    return sum(math.comb(n, i) for i in range(min(k, n) + 1))


class VerdictTable:
    """Expected verdicts for the cells of one workload's inputs.

    Keys are ``"<config digest>|<spec>"``.  Each entry records the
    verdict and how it was confirmed; entries are added the first time
    a cell needs one and saved under :data:`CACHE_DIR`.  A cell
    that could not be confirmed gets no entry, so a later run tries
    again.
    """

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(CACHE_DIR, f"{workload}.json")
        self.entries: Dict[str, Dict[str, Any]] = {}
        #: Witness replays already done: ``is_threat`` is a pure
        #: function of (config, spec, witness), so a witness the
        #: program repeats need not be replayed again.
        self.replayed: Dict[str, bool] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            if stored.get("version") == TABLE_VERSION:
                self.entries = stored.get("expected", {})
                self.replayed = stored.get("replayed", {})

    def expected(self, digest: str, spec: ResiliencySpec,
                 reference: Callable[[], ReferenceEvaluator]
                 ) -> Optional[str]:
        """``"resilient"``/``"threat-found"``, or None if unconfirmed."""
        key = f"{digest}|{spec.describe()}"
        entry = self.entries.get(key)
        if entry is None:
            entry = self._confirm(spec, reference())
            if entry["verdict"] is not None:
                self.entries[key] = entry
        return entry["verdict"]

    def replays(self, digest: str, spec: ResiliencySpec,
                failed: Iterable[int],
                failed_links: Iterable[Tuple[int, int]],
                reference: Callable[[], ReferenceEvaluator]) -> bool:
        """Whether the witness is a threat, by ``is_threat``."""
        failed, links = sorted(failed), sorted(failed_links)
        key = f"{digest}|{spec.describe()}|{failed}|{links}"
        if key not in self.replayed:
            self.replayed[key] = reference().is_threat(spec, failed, links)
        return self.replayed[key]

    @staticmethod
    def _confirm(spec: ResiliencySpec,
                 reference: ReferenceEvaluator) -> Dict[str, Any]:
        # A threat within k=1 is a threat for every larger budget, and
        # k=1 always enumerates cheaply: try it first.
        budget = spec.budget.k
        assert budget is not None
        for k in sorted({1, budget}):
            probe = ResiliencySpec.for_property(spec.property, r=spec.r,
                                                k=k)
            if failure_sets(reference, k) > BRUTE_FORCE_LIMIT:
                return _certified(probe, reference)
            threats = reference.brute_force_threats(probe)
            if threats:
                return {"verdict": "threat-found",
                        "by": "brute_force_threats", "k": k,
                        "witness": sorted(threats[0])}
        return {"verdict": "resilient", "by": "brute_force_threats",
                "k": budget}

    def save(self) -> None:
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"version": TABLE_VERSION,
                       "expected": self.entries,
                       "replayed": self.replayed}, handle, indent=1,
                      sort_keys=True)
        os.replace(tmp, self.path)


def _certified(spec: ResiliencySpec,
               reference: ReferenceEvaluator) -> Dict[str, Any]:
    """A table entry for a cell too large to enumerate.

    Solved once on the fresh backend with a DRUP proof: RESILIENT
    counts only when the RUP checker validates the proof, THREAT only
    when its witness replays.  Any other outcome leaves the entry
    empty, and a RESILIENT verdict on that cell fails its check.
    """
    from repro.engine.engine import VerificationEngine

    engine = VerificationEngine(reference.network, reference.problem,
                                backend="fresh", lint=False)
    result = engine.verify(spec, minimize=False, certify=True)
    if result.status.value == "resilient":
        if result.details.get("proof_checked"):
            return {"verdict": "resilient", "by": "rup-proof",
                    "k": spec.budget.k}
    elif result.threat is not None and reference.is_threat(
            spec, result.threat.failed_devices,
            result.threat.failed_links):
        return {"verdict": "threat-found", "by": "witness-replay",
                "k": spec.budget.k,
                "witness": sorted(result.threat.failed_devices)}
    return {"verdict": None, "by": "unconfirmed", "k": spec.budget.k}


def check_verdict(status: str, spec: ResiliencySpec,
                  failed: Optional[Iterable[int]],
                  failed_links: Iterable[Tuple[int, int]],
                  label: str, digest: str,
                  reference: Callable[[], ReferenceEvaluator],
                  table: VerdictTable) -> Optional[str]:
    """None when the verdict checks out, else why it does not.

    *label* names the verdict's config in messages and *digest* is its
    :func:`config_digest`; *reference* builds the evaluator for it,
    and is only called when the table has not settled the question.
    """
    if status == "threat-found":
        if failed is None:
            return "threat verdict without a witness"
        failed = list(failed)
        if not table.replays(digest, spec, failed, failed_links,
                             reference):
            return (f"witness {sorted(failed)} does not violate "
                    f"{spec.describe()}")
        return None
    if status == "resilient":
        expected = table.expected(digest, spec, reference)
        if expected is None:
            return f"no expected verdict for {label} {spec.describe()}"
        if expected != "resilient":
            return (f"{label} {spec.describe()}: got resilient, "
                    f"table says {expected}")
        return None
    return f"{label} {spec.describe()}: status {status}"


def batch_specs() -> List[ResiliencySpec]:
    """The batch rotation: observability k=1..3, secured k=1..2,
    bad data r=1 k=1..2."""
    return ([ResiliencySpec.observability(k=k) for k in (1, 2, 3)]
            + [ResiliencySpec.secured_observability(k=k) for k in (1, 2)]
            + [ResiliencySpec.bad_data_detectability(r=1, k=k)
               for k in (1, 2)])


def stream_floors() -> List[ResiliencySpec]:
    """The three k=1 floors the stream watcher holds."""
    return [ResiliencySpec.observability(k=1),
            ResiliencySpec.secured_observability(k=1),
            ResiliencySpec.bad_data_detectability(r=1, k=1)]
