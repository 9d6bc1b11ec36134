"""The three closed-loop workloads.

Each workload is driven from this one process over one call chain: the
runner calls :meth:`Workload.prepare` (untimed: input generation) and
then :meth:`Workload.op` once per operation, and waits for each op
before sending the next.  An op returns an :class:`OpRecord` with the
verdicts it received, for checking after the measured phase, and the
solver and encoding counts read off each ``VerificationResult``.

* ``batch-57`` — a fresh ``VerificationEngine`` (lint on, ``fresh``
  backend) per never-seen IEEE-57 config, then one ``verify``.
* ``service-118`` — ``ServiceClient.verify(config=...)`` against the
  daemon in its own process: six warm reads, then one write of a
  never-seen IEEE-118 config that opens a session and evicts by LRU.
* ``stream-57`` — ``Watcher.apply`` of one emulator event over the
  three k=1 floors, taking two fixed feeds in a seeded order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from inputs import (
    batch_specs,
    make_config,
    seeded_cycle,
    spec_json,
    stream_floors,
    system_seed,
)
from repro.core import ResiliencySpec
from repro.scada.config_io import CaseConfig, dump_config, parse_config

CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Verdict:
    """One verdict an op received, with what is needed to check it."""

    label: str
    spec: ResiliencySpec
    status: str
    failed: Optional[List[int]] = None
    links: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class OpRecord:
    verdicts: List[Verdict] = field(default_factory=list)
    #: propagations, conflicts, clauses, vars summed over the op.
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    latency_s: float = 0.0
    cpu_s: float = 0.0
    start: float = 0.0
    end: float = 0.0


def peak_rss_mb(pid: int) -> float:
    """The peak RSS (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _add_counts(counts: Dict[str, float], stats: Dict[str, Any],
                clauses: float, variables: float) -> None:
    for key, value in (("propagations", stats.get("propagations", 0)),
                       ("conflicts", stats.get("conflicts", 0)),
                       ("clauses", clauses), ("vars", variables)):
        counts[key] = counts.get(key, 0.0) + float(value)


def _result_verdict(label: str, spec: ResiliencySpec,
                    result: Any) -> Verdict:
    threat = result.threat
    return Verdict(
        label=label, spec=spec, status=result.status.value,
        failed=sorted(threat.failed_devices) if threat else None,
        links=sorted(threat.failed_links) if threat else [])


class Workload:
    """Interface the runner drives."""

    name = ""
    #: How many times the runner repeats set-up; setup_s is the median.
    setup_repeats = 7
    #: Fewest ops a run completes: with n ops the exclusive-method p90
    #: has n - floor(0.9 (n + 1)) ops above it, 10 or more for n >= 109.
    #: 112 is one pass over the batch pool and 16 service write cycles.
    min_ops = 112

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, trace_out: Optional[str] = None) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (before a repeat)."""

    def prepare(self, index: int) -> None:
        """Untimed input generation for op *index*."""

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def config_of(self, label: str) -> CaseConfig:
        """The config a verdict labelled *label* was about."""
        raise NotImplementedError

    def pid(self) -> int:
        """The process under test."""
        return os.getpid()

    def reset_peak(self) -> bool:
        """Restart the peak-RSS mark of the process under test, so that
        the peak read after the measured phase is that phase's own."""
        try:
            with open(f"/proc/{self.pid()}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            return False
        return True

    def cpu_s(self) -> float:
        """CPU seconds the process under test has used so far."""
        return time.process_time()

    def in_process(self) -> bool:
        return True


# ----------------------------------------------------------------------


class Batch(Workload):
    """Build an engine for a never-seen IEEE-57 config, verify once.

    The pool holds :attr:`pool` systems; system ``j`` takes spec
    ``j mod 7`` of the rotation, so each spec is taken equally often.
    A run visits the pool in a seeded order, each op on fresh objects
    of a system the run has not seen yet; only a run fast enough to
    exhaust the pool within --seconds starts a second pass.
    """

    name = "batch-57"
    pool = 16 * 7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        specs = batch_specs()
        self.spec_of = [specs[j % len(specs)] for j in range(self.pool)]
        self.rng = random.Random(seed)
        self.order: List[int] = []
        self.configs: Dict[int, CaseConfig] = {}

    def _system(self, index: int) -> int:
        if len(self.order) <= index:
            self.order += seeded_cycle(self.rng, range(self.pool),
                                       self.pool)
        return self.order[index]

    def _config(self, index: int) -> CaseConfig:
        return make_config(57, system_seed(0, self._system(index)))

    def setup(self, trace_out: Optional[str] = None) -> None:
        self.configs = {i: self._config(i) for i in range(self.pool)}

    def prepare(self, index: int) -> None:
        if index not in self.configs:
            self.configs[index] = self._config(index)

    def op(self, index: int) -> OpRecord:
        from repro.engine.engine import VerificationEngine

        system = self._system(index)
        config = self.configs.pop(index)
        spec = self.spec_of[system]
        engine = VerificationEngine(config.network, config.problem,
                                    backend="fresh", lint=True)
        result = engine.verify(spec)
        record = OpRecord(verdicts=[_result_verdict(f"sys{system}", spec,
                                                    result)])
        _add_counts(record.counts, result.stats, result.num_clauses,
                    result.num_vars)
        return record

    def config_of(self, label: str) -> CaseConfig:
        return make_config(57, system_seed(0, int(label[3:])))


# ----------------------------------------------------------------------


class Service(Workload):
    """One client, one connection at a time, daemon in its own process.

    Every :attr:`period`-th op writes a never-seen config from a pool
    of :attr:`writes` systems (seeded order); the others are reads,
    alternating between :attr:`warm` configs warmed in set-up, each
    cycling through :attr:`read_specs` in seeded orders.  The daemon
    keeps ``warm + 1`` sessions and every warm config is read between
    two writes, so each write evicts the previous write's session and
    warm reads stay warm.
    """

    name = "service-118"
    #: Each set-up starts a daemon and warms it, about 6 s.
    setup_repeats = 3
    warm = 2
    period = 7
    writes = 16
    read_specs = [ResiliencySpec.observability(k=1),
                  ResiliencySpec.observability(k=2),
                  ResiliencySpec.bad_data_detectability(r=1, k=1),
                  ResiliencySpec.bad_data_detectability(r=1, k=2)]
    write_spec = ResiliencySpec.bad_data_detectability(r=1, k=1)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.cells: List[Tuple[str, ResiliencySpec]] = []
        self.write_order: List[int] = []
        self.read_queues: List[List[ResiliencySpec]] = [
            [] for _ in range(self.warm)]
        self.texts: Dict[str, str] = {}
        self.proc: Optional[subprocess.Popen] = None
        self.client: Any = None

    def _text(self, label: str) -> str:
        text = self.texts.get(label)
        if text is None:
            pool, index = ((1, int(label[4:])) if label.startswith("warm")
                           else (2, int(label[5:])))
            config = make_config(118, system_seed(pool, index))
            text = self.texts[label] = dump_config(config)
        return text

    def _cell(self, index: int) -> Tuple[str, ResiliencySpec]:
        while len(self.cells) <= index:
            n = len(self.cells)
            if n % self.period == self.period - 1:
                if not self.write_order:
                    self.write_order = seeded_cycle(
                        self.rng, range(self.writes), self.writes)
                system = self.write_order.pop(0)
                self.cells.append((f"write{system}", self.write_spec))
                continue
            config = (n - n // self.period) % self.warm
            queue = self.read_queues[config]
            if not queue:
                queue += seeded_cycle(self.rng, self.read_specs,
                                      len(self.read_specs))
            self.cells.append((f"warm{config}", queue.pop(0)))
        return self.cells[index]

    def setup(self, trace_out: Optional[str] = None) -> None:
        from repro.service import ServiceClient

        # Client and daemon share one core: the client only waits
        # while the daemon works, and the host-speed probe, which runs
        # in the client, then reads the core the daemon runs on.  Cores
        # of a shared VM slow down independently of each other.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        cmd = [sys.executable, os.path.join("perfbench", "daemon.py"),
               "--sessions", str(self.warm + 1)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     text=True)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            raise RuntimeError("daemon did not report a port")
        self.client = ServiceClient(port=int(line), timeout=120)
        for j in range(self.warm):
            text = self._text(f"warm{j}")
            for spec in self.read_specs:
                self.client.verify(config=text, spec=spec_json(spec))

    def teardown(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def prepare(self, index: int) -> None:
        self._text(self._cell(index)[0])

    def op(self, index: int) -> OpRecord:
        label, spec = self._cell(index)
        reply = self.client.verify(config=self.texts[label],
                                   spec=spec_json(spec))
        result = reply["result"]
        threat = result.get("threat")
        verdict = Verdict(
            label=label, spec=spec, status=result["status"],
            failed=(sorted(threat["ieds"] + threat["rtus"])
                    if threat else None),
            links=[tuple(p) for p in threat["links"]] if threat else [])
        record = OpRecord(verdicts=[verdict], extra={
            "job": reply["job"], "run_s": reply["run_s"],
            "queued_s": reply["queued_s"]})
        _add_counts(record.counts, result["stats"], result["num_clauses"],
                    result["num_vars"])
        return record

    def config_of(self, label: str) -> CaseConfig:
        return parse_config(self.texts[label], strict=False)

    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid()}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def in_process(self) -> bool:
        return False


# ----------------------------------------------------------------------


class Stream(Workload):
    """Apply the next event of one of :attr:`feeds` emulator feeds to
    that feed's watcher.

    Every feed watches the same fixed base system and holds the three
    k=1 floors with the default engine LRU.  The feeds themselves are
    fixed (like the pools of the other workloads); the seed draws the
    order in which ops take them, each feed equally often, so every
    run applies the same events to each watcher.
    """

    name = "stream-57"
    feeds = 2
    #: Both feeds in full.  A stream op's latency varies more from run
    #: to run than the others' (which ops the collector's full passes
    #: land on depends on the order), so its p50 needs more ops.
    feed_events = 84
    min_ops = feeds * feed_events

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.floors = stream_floors()
        self.base: Optional[CaseConfig] = None
        self.rng = random.Random(seed)
        self.schedule: List[int] = []
        self.watchers: List[Any] = []
        self.emulators: List[Any] = []
        self.events: List[Any] = []
        self._states: Dict[str, Any] = {}

    def setup(self, trace_out: Optional[str] = None) -> None:
        from repro.stream import ScenarioEmulator, Watcher

        self.base = make_config(57, system_seed(3, 0))
        self.emulators = [
            ScenarioEmulator(self.base.network, seed=system_seed(3, 1 + f))
            for f in range(self.feeds)]
        self.events = []
        self.watchers = [Watcher(self.base, self.floors)
                         for _ in range(self.feeds)]

    def teardown(self) -> None:
        self.watchers = []

    def _feed(self, index: int) -> int:
        if len(self.schedule) <= index:
            block = [f for f in range(self.feeds)
                     for _ in range(self.feed_events)]
            self.schedule += seeded_cycle(self.rng, block, len(block))
        return self.schedule[index]

    def prepare(self, index: int) -> None:
        while len(self.events) <= index:
            feed = self._feed(len(self.events))
            self.events.append(self.emulators[feed].next_event())

    def op(self, index: int) -> OpRecord:
        update = self.watchers[self._feed(index)].apply(self.events[index])
        state = update.delta.after
        label = "state-" + hashlib.sha1(json.dumps(
            state.to_json(), sort_keys=True).encode()).hexdigest()[:16]
        record = OpRecord(extra={
            "changed": update.delta.changed,
            "reverified": len(update.reverified),
            "skipped": len(update.skipped)})
        for spec, result in update.reverified:
            record.verdicts.append(_result_verdict(label, spec, result))
            _add_counts(record.counts, result.stats, result.num_clauses,
                        result.num_vars)
        if record.verdicts:
            self._states.setdefault(label, state)
        return record

    def config_of(self, label: str) -> CaseConfig:
        from repro.stream import DeltaCompiler

        assert self.base is not None
        return DeltaCompiler(self.base).materialize(self._states[label])


WORKLOADS = {cls.name: cls for cls in (Batch, Service, Stream)}
