"""The benchmark's workloads and the closed-loop clients that run them.

Every workload drives the public ``Mediator.ask`` with SQL text and
checks every answer against a ``reference_answer`` computed outside
the measured window.  A run:

1. generates the seeded inputs (:mod:`gen`);
2. builds the program from the raw rows and grammar text; that build
   is the program measured;
3. warms it where the workload says so (untimed);
4. runs the closed-loop clients for the measured window, in segments;
   in the gaps between segments it builds the program again, timing
   each build (``setup_s``), so set-up time is sampled across the run.

See ``README.md`` in this directory for why each workload exists and
what each metric means.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from dataclasses import dataclass, field

import gen
from spans import Recorder

from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.mediator import Mediator
from repro.plans.execute import reference_answer
from repro.plans.retry import RetryPolicy
from repro.query import parse_query
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.source import CapabilitySource
from repro.ssdl.text import parse_ssdl
from repro.workloads.federation import oracle_ask

#: Distinct queries generated for a cold run (a run that exhausts them
#: ends early; several times what a 25 s run asks on a 2-core Xeon).
COLD_QUERIES = 3000
#: Requests generated for a Zipf run (same margin).
STREAM_LENGTH = 40_000
#: Requests per Zipf segment before the hot set rotates.
SEGMENT = 20
_TYPES = {"int": AttrType.INT, "str": AttrType.STRING}


@dataclass
class Inputs:
    """Everything one seed gives a run."""

    worlds: list[gen.World]
    #: Every distinct query the stream contains.
    pool: list[str]
    #: The requests, in order; concurrent clients take them in turn.
    stream: list[str]


@dataclass
class Program:
    """The program state one measured run uses (fresh every run)."""

    mediator: Mediator
    sources: list[CapabilitySource]


@dataclass(frozen=True)
class Workload:
    """One workload: inputs, program configuration and client shape."""

    name: str
    n_rows: int
    #: Grammar richness: the registered grammar, then the one that
    #: capability writes alternate with.
    richness: tuple[float, ...] = (0.8,)
    clients: int = 1
    #: Asks between capability writes (0 = the catalog never changes).
    write_every: int = 0
    #: Zipf workloads: 4 pools of 48 queries of 2-4 atoms, warmed once
    #: before timing.  Otherwise: distinct 4-8 atom queries, asked once.
    zipf: bool = False
    #: Production serving: async engine with coalescing, retries,
    #: telemetry, simulated latency and injected faults.
    served: bool = False

    # -- inputs ----------------------------------------------------------
    def inputs(self, seed: int) -> Inputs:
        worlds = gen.make_worlds(self.n_rows, self.richness, seed)
        sources = [gen.source_name(i) for i in range(len(worlds))]
        if not self.zipf:
            queries = gen.make_queries(COLD_QUERIES, 4, 8, seed, "cold",
                                       sources)
            return Inputs(worlds, queries, queries)
        pools = [gen.make_queries(48, 2, 4, seed, f"pool{p}", sources)
                 for p in range(4)]
        stream = gen.rotating_zipf(pools, STREAM_LENGTH, 1.2, seed, SEGMENT)
        return Inputs(worlds, [q for pool in pools for q in pool], stream)

    # -- program ---------------------------------------------------------
    def mediator_options(self, seed: int) -> dict:
        if not self.zipf:
            return {}
        if not self.served:
            return {"plan_cache_entries": 256, "plan_templates": True}
        return {
            "executor": "async",
            "async_coalesce": True,
            "plan_cache_entries": 256,
            "plan_templates": True,
            "retry_policy": RetryPolicy(
                max_attempts=4, base_backoff=0.002, real_sleep=True,
                seed=gen.derive(seed, "retry"),
            ),
            "event_log_entries": 1024,
            "latency_objective": 0.05,
        }

    def source_options(self, seed: int, index: int) -> dict:
        if not self.served:
            return {}
        return {
            "latency": SimulatedLatency(
                seed=gen.derive(seed, f"latency{index}"), base=0.0015,
                jitter=0.001),
            "fault_injector": FaultInjector(
                seed=gen.derive(seed, f"faults{index}"), transient_rate=0.02),
        }

    def build(self, worlds: list[gen.World], seed: int) -> Program:
        """Hand rows and grammar text to the program until it is ready:
        sources registered, grammars compiled, statistics built."""
        mediator = Mediator(**self.mediator_options(seed))
        sources = []
        for index, world in enumerate(worlds):
            name = gen.source_name(index)
            schema = Schema.of(
                name, [(n, _TYPES[t]) for n, t in gen.column_spec()],
                key="key")
            source = CapabilitySource(
                name, Relation(schema, world.rows),
                parse_ssdl(world.grammars[0], name=f"{name}-g0"),
                **self.source_options(seed, index))
            mediator.add_source(source)
            source.stats  # noqa: B018 - builds the statistics now
            sources.append(source)
        return Program(mediator, sources)


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("cold_plan", n_rows=300),
        Workload("warm_zipf", n_rows=2000, zipf=True),
        Workload("served_drift", n_rows=2000, richness=(0.8, 0.6), clients=2,
                 write_every=60, zipf=True, served=True),
    )
}


# ----------------------------------------------------------------------
# Measured run
# ----------------------------------------------------------------------

@dataclass
class AskRecord:
    latency: float
    ok: bool
    queries: int = 0
    tuples: int = 0
    attempts: int = 0
    retries: int = 0
    coalesced: int = 0
    batched: int = 0


@dataclass
class RunResult:
    asks: list[AskRecord]
    elapsed: float
    wrong: list[str]
    writes: int
    #: Failed asks by kind (exception class, or the drift oracle's class).
    failures: dict[str, int] = field(default_factory=dict)


class References:
    """Ground-truth row sets, from a program instance never measured.

    A reference is computed the first time a query needs one; ``spent``
    is the time that took, which :func:`drive` keeps out of the measured
    window (the clock stops while a reference is computed).
    """

    def __init__(self, worlds: list[gen.World]):
        program = Workload("reference", 0).build(worlds, 0)
        self._sources = {s.name: s for s in program.sources}
        self._rows: dict[str, frozenset] = {}
        self.spent = 0.0

    def __getitem__(self, text: str) -> frozenset:
        rows = self._rows.get(text)
        if rows is None:
            started = time.perf_counter()
            query = parse_query(text)
            rows = reference_answer(self._sources[query.source],
                                    query.condition,
                                    query.attributes).as_row_set()
            self._rows[text] = rows
            self.spent += time.perf_counter() - started
        return rows

    def precompute(self, queries: list[str]) -> "References":
        for text in queries:
            self[text]
        self.spent = 0.0
        return self


class _Capture:
    """A mediator stand-in for ``oracle_ask`` that keeps the answer."""

    def __init__(self, mediator: Mediator):
        self._mediator = mediator
        self.answer = None

    @property
    def catalog_version(self) -> int:
        return self._mediator.catalog_version

    def ask(self, query):
        self.answer = None
        self.answer = self._mediator.ask(query)
        return self.answer


def setup(workload: Workload, inputs: Inputs, seed: int,
          repeats: int) -> tuple[list[float], Program]:
    """Build the program ``repeats`` times; time each; keep the last.

    The collector is off while a build is timed: a collection would
    scan the benchmark's own heap, whose size depends on how far the
    run has got, not on the program's set-up work."""
    times = []
    program = None
    for _ in range(repeats):
        if program is not None:
            program.mediator.close()
        program = None
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            program = workload.build(inputs.worlds, seed)
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    return times, program


def warm_up(program: Program, pool: list[str]) -> None:
    """Ask every query once, untimed (fills the plan cache)."""
    for text in pool:
        try:
            program.mediator.ask(text)
        except Exception:  # noqa: BLE001 - a faulted warm-up ask is harmless
            pass


class Session:
    """The measured window of one program, run as one or more segments.

    Segments continue one request stream and one write cadence, so a
    window cut into segments (with set-up builds timed in the gaps) asks
    the same as an uncut one.  Time spent computing reference answers,
    and the gaps between segments, are not part of the window.

    Capability writes are quiesced: the writer waits until no ask is in
    flight and holds new asks back until the write is done.  A write
    that lands mid-ask fails that ask (see README.md), and the benchmark
    runs only workloads on which no ask fails.  The wait counts in the
    latency of the held-back asks.
    """

    def __init__(self, workload: Workload, program: Program, inputs: Inputs,
                 refs: References):
        self.workload = workload
        self.program = program
        self.inputs = inputs
        self.refs = refs
        self.asks: list[AskRecord] = []
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}
        self.elapsed = 0.0
        self.writes = 0
        self._requests = iter(inputs.stream)
        self._requests_lock = threading.Lock()
        self._ask_ids = itertools.count(1)
        self._completed = 0
        self._write_due = threading.Event()
        # Gate between asks and capability writes.
        self._gate = threading.Condition()
        self._in_flight = 0
        self._writing = False

    def result(self) -> RunResult:
        return RunResult(self.asks, self.elapsed, self.wrong, self.writes,
                         self.failures)

    def run(self, seconds: float, recorder: Recorder | None = None) -> None:
        """Run the closed-loop clients for ``seconds`` more."""
        write_due = self._write_due
        stop = threading.Event()
        lock = threading.Lock()
        refs = self.refs
        refs.spent = 0.0
        deadline = time.perf_counter() + seconds

        def client() -> None:
            capture = _Capture(self.program.mediator)
            while time.perf_counter() - refs.spent < deadline:
                with self._requests_lock:
                    text = next(self._requests, None)
                if text is None:
                    break
                started = time.perf_counter()
                with self._gate:
                    while self._writing:
                        self._gate.wait()
                    self._in_flight += 1
                try:
                    if recorder is None:
                        answer, failure = self._ask(capture, text)
                    else:
                        answer, failure = recorder.root(
                            next(self._ask_ids), self._ask, capture, text)
                finally:
                    with self._gate:
                        self._in_flight -= 1
                        self._gate.notify_all()
                record = AskRecord(time.perf_counter() - started,
                                   answer is not None)
                if answer is not None:
                    report = answer.report
                    record.queries = report.queries
                    record.tuples = report.tuples_transferred
                    record.attempts = report.attempts
                    record.retries = report.retries
                    record.coalesced = report.coalesced_hits
                    record.batched = report.batched_hits
                    if answer.result.as_row_set() != refs[text]:
                        with lock:
                            self.wrong.append(text)
                with lock:
                    self.asks.append(record)
                    if failure is not None:
                        self.failures[failure] = \
                            self.failures.get(failure, 0) + 1
                    self._completed += 1
                    if self.workload.write_every and \
                            self._completed % self.workload.write_every == 0:
                        write_due.set()

        def writer() -> None:
            while not stop.is_set():
                if write_due.wait(timeout=0.05):
                    write_due.clear()
                    self._write()

        clients = [threading.Thread(target=client,
                                    name=f"perfbench-client{i}")
                   for i in range(self.workload.clients)]
        helpers = [threading.Thread(target=writer, name="perfbench-writer")
                   ] if self.workload.write_every else []
        started = time.perf_counter()
        for thread in clients + helpers:
            thread.start()
        for thread in clients:
            thread.join()
        self.elapsed += time.perf_counter() - started - refs.spent
        stop.set()
        for thread in helpers:
            thread.join()

    def _ask(self, capture: _Capture, text: str):
        """-> (answer or None, failure kind or None)."""
        try:
            if not self.workload.served:
                return self.program.mediator.ask(text), None
            outcome = oracle_ask(capture, text)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            return None, type(exc).__name__
        if outcome.kind == "ok":
            return capture.answer, None
        return None, outcome.kind

    def _write(self) -> None:
        """One quiesced capability write: the next source moves to its
        other grammar."""
        with self._gate:
            self._writing = True
            while self._in_flight:
                self._gate.wait()
        try:
            index = self.writes % len(self.inputs.worlds)
            grammars = self.inputs.worlds[index].grammars
            version = self.writes // len(self.inputs.worlds) + 1
            self.program.mediator.mutate_source(
                gen.source_name(index),
                parse_ssdl(grammars[version % len(grammars)],
                           name=f"{gen.source_name(index)}-g{version}"))
            self.writes += 1
        finally:
            with self._gate:
                self._writing = False
                self._gate.notify_all()


def drive(workload: Workload, program: Program, inputs: Inputs,
          refs: References, seconds: float,
          recorder: Recorder | None = None) -> RunResult:
    """One uncut window of ``seconds``."""
    session = Session(workload, program, inputs, refs)
    session.run(seconds, recorder)
    return session.result()
