"""Tracing from outside the program: timing wrappers on public entry points.

:class:`Recorder` replaces a fixed list of public functions and methods
with wrappers that record one span per call -- name, start, end,
parent span and ask id -- while it is entered as a context manager,
and puts the originals back on exit.  The program is not modified; every span
comes from these wrappers, which is why a traced run is a separate run
from the one that reports end-to-end metrics.

Parent and ask id travel in :mod:`contextvars`, so they follow a call
from a client thread into the async executor's event-loop tasks
(``run_coroutine_threadsafe`` copies the caller's context).  Spans are
kept in memory and written out with :meth:`Recorder.dump`.

A span's layer is the first component of its name (``ssdl.check`` is
layer ``ssdl``); its self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass

_CURRENT: ContextVar[int | None] = ContextVar("perfbench_span", default=None)
_ASK: ContextVar[int | None] = ContextVar("perfbench_ask", default=None)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    ask: int | None
    name: str
    start: float
    end: float
    #: Per-call detail a wrapper extracted (rows in/out, planner stats).
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped entry point.

    ``parse_query`` is wrapped both where it is defined and where the
    mediator looks it up; ``plan_cache_key`` is imported by the mediator
    at call time, so its defining module is enough.
    """
    import importlib

    from repro.data.relation import Relation
    from repro.mediator import Mediator
    from repro.observability.events import EventLog
    from repro.observability.metrics import Histogram
    from repro.observability.slo import SlowQueryLog
    from repro.planners.gencompact import GenCompact
    from repro.plans.async_exec import AsyncExecutor
    from repro.plans.execute import Executor
    from repro.serving.plan_cache import PlanCache, PlanTemplates
    from repro.source.source import CapabilitySource
    from repro.ssdl.description import SourceDescription

    module = importlib.import_module
    return [
        (module("repro.query"), "parse_query", "conditions.parse"),
        (module("repro.mediator.mediator"), "parse_query", "conditions.parse"),
        (module("repro.serving.plan_cache"), "plan_cache_key",
         "conditions.canonical_key"),
        (Mediator, "plan", "mediator.plan"),
        (PlanCache, "get", "serving.plan_cache"),
        (PlanCache, "put", "serving.plan_cache"),
        (PlanTemplates, "instantiate", "serving.templates"),
        (PlanTemplates, "store", "serving.templates"),
        (SourceDescription, "check", "ssdl.check"),
        (CapabilitySource, "compile_capabilities", "ssdl.compile"),
        (GenCompact, "plan", "planners.plan"),
        (Executor, "execute_with_report", "plans.execute"),
        (AsyncExecutor, "execute_with_report", "plans.execute"),
        (CapabilitySource, "execute", "source.execute"),
        (CapabilitySource, "execute_async", "source.execute"),
        (Relation, "sp", "data.scan"),
        (EventLog, "append", "observability.event_log"),
        (Histogram, "observe", "observability.histogram"),
        (SlowQueryLog, "append", "observability.slow_log"),
    ]


def _info(name: str, args: tuple, result: object) -> object:
    """The per-call detail kept for a span (None for most)."""
    if name == "data.scan":
        return (len(args[0]), len(result))  # rows scanned, rows returned
    if name == "ssdl.check":
        return args[0]  # the description, whose counters are read later
    if name == "planners.plan":
        return result.stats
    return None


class Recorder:
    """Span-recording wrappers, installed while the recorder is entered."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Rows materialized into new relations during asks.
        self.rows_materialized = 0
        self._rows_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # -- context -------------------------------------------------------
    def root(self, ask_id: int, fn, *args):
        """Run ``fn(*args)`` as ask ``ask_id``'s root span ``mediator.ask``."""
        token = _ASK.set(ask_id)
        try:
            return self._call("mediator.ask", fn, args, {})
        finally:
            _ASK.reset(token)

    def _call(self, name, fn, args, kwargs):
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, parent, _ASK.get(), name, start,
                                   end, _info(name, args, result)
                                   if result is not None else None))

    def _wrap(self, name: str, fn):
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id = next(recorder._ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    recorder.spans.append(
                        Span(span_id, parent, _ASK.get(), name, start, end))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder._call(name, fn, args, kwargs)
        return wrapper

    @classmethod
    def span_cost(cls, calls: int = 20_000) -> float:
        """Seconds one span adds to a call: a wrapped no-op timed
        against the bare no-op, in this process, best of three."""
        def noop() -> None:
            return None

        recorder = cls()
        wrapped = recorder._wrap("calibration", noop)
        costs = []
        for _ in range(3):
            recorder.spans.clear()
            started = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(calls):
                noop()
            costs.append((traced - (time.perf_counter() - started)) / calls)
        return min(costs)

    # -- install on enter, restore on exit ------------------------------
    def __enter__(self) -> "Recorder":
        from repro.data.relation import Relation

        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        original_init = vars(Relation)["__init__"]
        recorder = self

        @functools.wraps(original_init)
        def counting_init(relation, *args, **kwargs):
            original_init(relation, *args, **kwargs)
            if _ASK.get() is not None:
                with recorder._rows_lock:
                    recorder.rows_materialized += len(relation)

        self._saved.append((Relation, "__init__", original_init))
        Relation.__init__ = counting_init
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (children may overlap under the async executor)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.duration - covered
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps([span.span_id, span.parent, span.ask,
                                       span.name, span.start, span.end]))
                sink.write("\n")
