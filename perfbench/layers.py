"""Per-layer metrics of a traced run.

Times come from the spans :class:`spans.Recorder` recorded around the
program's public entry points; counts come from the program's own
public counters (``PlannerStats``, ``SourceDescription.check_*``,
``PlanCache.stats``, ``ExecutionReport``, ``QueryMeter``,
``SimulatedLatency`` and ``FaultInjector``), read before and after the
measured window.  A layer is a module of the program: conditions, ssdl,
planners, serving, plans, source, data, observability and the mediator
itself.
"""

from __future__ import annotations

from collections import defaultdict

from repro.observability.metrics import get_metrics

#: (name, unit) of every per-layer metric, in output order.
METRICS = [
    ("conditions.parse_ms", "ms/ask"),
    ("conditions.canonical_key_ms", "ms/ask"),
    ("serving.plan_cache_ms", "ms/ask"),
    ("serving.plan_cache_hit_ratio", "ratio"),
    ("serving.template_hit_ratio", "ratio"),
    ("serving.entries_invalidated", "count"),
    ("ssdl.check_ms", "ms/ask"),
    ("ssdl.check_calls", "count/ask"),
    ("ssdl.check_cache_hit_ratio", "ratio"),
    ("ssdl.check_fallback_share", "ratio"),
    ("ssdl.compile_ms", "ms/compile"),
    ("ssdl.recompiles", "count"),
    ("planners.plan_ms", "ms/ask"),
    ("planners.cts_processed", "count/ask"),
    ("planners.subplans_considered", "count/ask"),
    ("planners.mcsc_problems", "count/ask"),
    ("planners.pruning_fires", "count/ask"),
    ("plans.execute_ms", "ms/ask"),
    ("plans.operator_ms", "ms/ask"),
    ("plans.source_attempts", "count/ask"),
    ("plans.retries", "count/ask"),
    ("plans.coalesced_share", "ratio"),
    ("plans.batched_hits", "count"),
    ("source.service_ms", "ms/ask"),
    ("source.queue_wait_ms", "ms/ask"),
    ("source.simulated_wait_ms", "ms/ask"),
    ("source.rows_scanned_per_row_returned", "ratio"),
    ("source.rejections", "count"),
    ("source.faults", "count"),
    ("data.scan_ms", "ms/ask"),
    ("data.rows_materialized", "count/ask"),
    ("observability.telemetry_ms", "ms/ask"),
    ("mediator.self_ms", "ms/ask"),
    ("layers.planning_share", "frac"),
    ("layers.execution_share", "frac"),
    ("trace.overhead_frac", "frac"),
]

#: The layers whose self time must dominate each workload's asks (the
#: layer-isolation check): planning on cold_plan, execution on warm_zipf.
PLANNING = ("ssdl", "planners")
EXECUTION = ("plans", "source", "data")
ISOLATION = {"cold_plan": ("layers.planning_share", 0.8),
             "warm_zipf": ("layers.execution_share", 0.8)}


def counters(program) -> dict:
    """The program's public counters relevant to the per-layer view,
    summed over its sources."""
    mediator, sources = program.mediator, program.sources
    registry = get_metrics()
    out = {
        # Keyed by identity; the description is kept so its id cannot be
        # reused by a description created later in the run.
        "descriptions": {
            id(d): (d, d.check_calls, d.check_cache_hits, d.check_fallbacks)
            for s in sources for d in (s.description, s.closed_description)
        },
        "rejected": sum(s.meter.snapshot().rejected for s in sources),
        "faults": sum(s.fault_injector.total_injected for s in sources
                      if s.fault_injector is not None),
        "slept": sum(s.latency.slept_seconds for s in sources
                     if s.latency is not None),
        "queue_wait": sum(
            registry.histogram(f"source.{s.name}.queue_wait_seconds").total
            for s in sources),
        "cache": (0, 0, 0),
        "templates": (0, 0),
    }
    if mediator.plan_cache is not None:
        stats = mediator.plan_cache.stats
        out["cache"] = (stats.hits, stats.misses, stats.invalidations)
    if mediator.plan_templates is not None:
        out["templates"] = (mediator.plan_templates.hits,
                            mediator.plan_templates.stats.invalidations)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_name(span, names: dict[int, str]) -> str:
    """The name a span is counted under.  ``plan_cache_key`` keys the
    plan cache when called under ``Mediator.plan``; called anywhere else
    in an ask, it fingerprints the ask for the event or slow-query log."""
    if span.name == "conditions.canonical_key" and \
            names.get(span.parent) != "mediator.plan":
        return "observability.fingerprint"
    return span.name


def per_layer(recorder, run, before: dict, after: dict,
              window_start: float, span_cost: float) -> dict[str, float]:
    """Every per-layer metric of one traced window; ``span_cost`` is
    the calibrated seconds one span adds to a call."""
    n = max(1, len(run.asks))
    self_times = recorder.self_times()
    in_asks = [s for s in recorder.spans if s.ask is not None]
    names = {s.span_id: s.name for s in in_asks}
    self_ms = defaultdict(float)
    total_ms = defaultdict(float)
    for span in in_asks:
        name = _layer_name(span, names)
        self_ms[name] += self_times[span.span_id] * 1000
        total_ms[name] += span.duration * 1000
    by_layer = defaultdict(float)
    for name, value in self_ms.items():
        by_layer[name.split(".", 1)[0]] += value
    ask_ms = total_ms["mediator.ask"]
    tracing_ms = span_cost * len(in_asks) * 1000

    plan_stats = [s.info for s in in_asks
                  if s.name == "planners.plan" and s.info is not None]
    scans = [s.info for s in in_asks
             if s.name == "data.scan" and s.info is not None]

    calls = hits = fallbacks = 0
    descriptions = {id(s.info): s.info for s in in_asks
                    if s.name == "ssdl.check" and s.info is not None}
    for key, description in descriptions.items():
        _, *base = before["descriptions"].get(key, (None, 0, 0, 0))
        calls += description.check_calls - base[0]
        hits += description.check_cache_hits - base[1]
        fallbacks += description.check_fallbacks - base[2]
    checks = calls + hits

    cache_hits = after["cache"][0] - before["cache"][0]
    cache_misses = after["cache"][1] - before["cache"][1]
    compiles = [s for s in recorder.spans if s.name == "ssdl.compile"]
    source_waits_ms = ((after["slept"] - before["slept"])
                       + (after["queue_wait"] - before["queue_wait"])) * 1000
    logical_calls = sum(a.queries + a.coalesced + a.batched for a in run.asks)

    values = {
        "conditions.parse_ms": self_ms["conditions.parse"] / n,
        "conditions.canonical_key_ms": self_ms["conditions.canonical_key"] / n,
        "serving.plan_cache_ms": by_layer["serving"] / n,
        "serving.plan_cache_hit_ratio": _ratio(cache_hits,
                                               cache_hits + cache_misses),
        "serving.template_hit_ratio": _ratio(
            after["templates"][0] - before["templates"][0], cache_misses),
        "serving.entries_invalidated": (
            after["cache"][2] - before["cache"][2]
            + after["templates"][1] - before["templates"][1]),
        "ssdl.check_ms": self_ms["ssdl.check"] / n,
        "ssdl.check_calls": checks / n,
        "ssdl.check_cache_hit_ratio": _ratio(hits, checks),
        "ssdl.check_fallback_share": _ratio(fallbacks, calls),
        "ssdl.compile_ms": _ratio(
            sum(s.duration for s in compiles) * 1000, len(compiles)),
        "ssdl.recompiles": sum(1 for s in compiles if s.start >= window_start),
        "planners.plan_ms": self_ms["planners.plan"] / n,
        "planners.cts_processed":
            sum(s.cts_processed for s in plan_stats) / n,
        "planners.subplans_considered":
            sum(s.subplans_considered for s in plan_stats) / n,
        "planners.mcsc_problems": sum(s.mcsc_problems for s in plan_stats) / n,
        "planners.pruning_fires":
            sum(s.pr1_fires + s.pr2_fires + s.pr3_fires
                for s in plan_stats) / n,
        "plans.execute_ms": total_ms["plans.execute"] / n,
        "plans.operator_ms": self_ms["plans.execute"] / n,
        "plans.source_attempts": sum(a.attempts for a in run.asks) / n,
        "plans.retries": sum(a.retries for a in run.asks) / n,
        "plans.coalesced_share": _ratio(
            sum(a.coalesced for a in run.asks), logical_calls),
        "plans.batched_hits": sum(a.batched for a in run.asks),
        "source.service_ms":
            (self_ms["source.execute"] - source_waits_ms) / n,
        "source.queue_wait_ms":
            (after["queue_wait"] - before["queue_wait"]) * 1000 / n,
        "source.simulated_wait_ms":
            (after["slept"] - before["slept"]) * 1000 / n,
        "source.rows_scanned_per_row_returned": _ratio(
            sum(scanned for scanned, _ in scans),
            sum(returned for _, returned in scans)),
        "source.rejections": after["rejected"] - before["rejected"],
        "source.faults": after["faults"] - before["faults"],
        "data.scan_ms": self_ms["data.scan"] / n,
        "data.rows_materialized": recorder.rows_materialized / n,
        "observability.telemetry_ms": by_layer["observability"] / n,
        "mediator.self_ms": by_layer["mediator"] / n,
        "layers.planning_share": _ratio(
            sum(by_layer[layer] for layer in PLANNING), ask_ms),
        "layers.execution_share": _ratio(
            sum(by_layer[layer] for layer in EXECUTION), ask_ms),
        "trace.overhead_frac": _ratio(tracing_ms, ask_ms - tracing_ms),
    }
    return values
