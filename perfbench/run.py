"""End-to-end and per-layer benchmark of ``Mediator.ask``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with no tracing and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from a traced run
(and the tracing overhead, from the calibrated cost of one span).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Every answer is checked against a reference answer computed outside the
measured window; a wrong answer makes ``correct`` false.  Workloads and
metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs write their spans (ignored by git).
OUT = HERE / "out"

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("ask_p50_ms", "ms"),
    ("ask_p95_ms", "ms"),
    ("asks_per_s", "1/s"),
    ("answered_frac", "frac"),
    ("source_queries_per_ask", "queries/ask"),
    ("tuples_per_ask", "tuples/ask"),
    ("rss_mb", "MB"),
]
#: Asks that must lie beyond the p95 for it to count (reported on stderr).
TAIL_SAMPLES = 10
#: The untraced window runs in this many segments; the program is built
#: again, timed, before each segment and after the last, and ``setup_s``
#: is the median of those builds and the measured program's own.
SEGMENTS = 12


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _latency_percentile(run, q: float) -> float:
    """Nearest-rank percentile of ask latency; a failed ask counts as
    slower than every answered one (it missed any latency limit)."""
    ranked = sorted(a.latency for a in run.asks if a.ok)
    ranked += [math.inf] * (len(run.asks) - len(ranked))
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return value if value != math.inf else max(a.latency for a in run.asks)


def _rss_bytes() -> int:
    """Resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def errors(run) -> list[str]:
    """Why a run's outputs are wrong (empty when they are right)."""
    out = []
    if run.failures.get("stale"):
        out.append(f"{run.failures['stale']} stale plan serves")
    if run.wrong:
        out.append(f"{len(run.wrong)} wrong answers, first: {run.wrong[0]}")
    return out


def _identity(workload, run, invalidations: int, recompiles: int) -> None:
    """Warn when a served run lacks what the workload exists to measure."""
    if not workload.served:
        return
    missing = [what for what, count in (
        ("coalesced source calls", sum(a.coalesced for a in run.asks)),
        ("retried source calls", sum(a.retries for a in run.asks)),
        ("plan-cache invalidations", invalidations),
        ("grammar recompiles", recompiles),
    ) if count == 0]
    if missing:
        _note(f"{len(run.asks)} asks without {', '.join(missing)}")


def end_to_end(workload, inputs, refs, seed, seconds):
    """The untraced run: the measured window, cut into segments with
    set-up builds timed in the gaps."""
    from workloads import Session, setup, warm_up

    def build_once() -> float:
        (took,), program = setup(workload, inputs, seed, 1)
        program.mediator.close()
        return took

    gc.collect()
    rss_before = _rss_bytes()
    times, program = setup(workload, inputs, seed, 1)
    if workload.zipf:
        warm_up(program, inputs.pool)
    session = Session(workload, program, inputs, refs)
    for _ in range(SEGMENTS):
        times.append(build_once())
        gc.collect()
        session.run(seconds / SEGMENTS)
    gc.collect()
    rss_after = _rss_bytes()
    times.append(build_once())
    run = session.result()
    invalidations = sum(
        cache.stats.invalidations for cache in
        (program.mediator.plan_cache, program.mediator.plan_templates)
        if cache is not None)
    program.mediator.close()
    _identity(workload, run, invalidations, run.writes)
    answered = [a for a in run.asks if a.ok]
    n_ok = max(1, len(answered))
    beyond = len(run.asks) - math.ceil(0.95 * len(run.asks))
    if beyond < TAIL_SAMPLES:
        _note(f"only {beyond} asks lie beyond the p95 "
              f"({len(run.asks)} asks); it needs {TAIL_SAMPLES}")
    metrics = {
        "setup_s": statistics.median(times),
        "ask_p50_ms": _latency_percentile(run, 0.50) * 1000,
        "ask_p95_ms": _latency_percentile(run, 0.95) * 1000,
        "asks_per_s": len(run.asks) / run.elapsed,
        "answered_frac": len(answered) / max(1, len(run.asks)),
        "source_queries_per_ask": sum(a.queries for a in answered) / n_ok,
        "tuples_per_ask": sum(a.tuples for a in answered) / n_ok,
        "rss_mb": (rss_after - rss_before) / 2**20,
    }
    return run, errors(run), metrics


def traced(workload, inputs, refs, seed, seconds):
    """One traced window: per-layer metrics from its spans and the
    program's counters, and the tracing overhead from the wrapper cost
    calibrated in the same process."""
    import layers
    from spans import Recorder
    from workloads import drive, setup, warm_up

    with Recorder() as recorder:
        _, program = setup(workload, inputs, seed, 1)
        if workload.zipf:
            warm_up(program, inputs.pool)
        before = layers.counters(program)
        window_start = time.perf_counter()
        run = drive(workload, program, inputs, refs, seconds,
                    recorder=recorder)
        after = layers.counters(program)
        program.mediator.close()
    metrics = layers.per_layer(recorder, run, before, after, window_start,
                               Recorder.span_cost())
    _identity(workload, run, metrics["serving.entries_invalidated"],
              metrics["ssdl.recompiles"])
    problems = errors(run)
    rule = layers.ISOLATION.get(workload.name)
    if rule is not None and metrics[rule[0]] < rule[1]:
        problems.append(f"layer isolation: {rule[0]} = {metrics[rule[0]]:.3f}"
                        f" < {rule[1]}")
    OUT.mkdir(exist_ok=True)
    recorder.dump(OUT / f"spans-{workload.name}-{seed}.jsonl")
    return run, problems, metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        _note(f"no program sources under {ROOT / 'src'}; run from the "
              "root of a checkout")
        return 2
    if args.seconds <= 0:
        _note("--seconds must be positive")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, References

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _note(f"unknown workload {args.workload!r}; "
              f"pick one of {', '.join(WORKLOADS)}")
        return 2
    inputs = workload.inputs(args.seed)
    refs = References(inputs.worlds)
    if workload.zipf:
        refs.precompute(inputs.pool)
    if args.trace:
        import layers

        run, problems, metrics = traced(workload, inputs, refs, args.seed,
                                        args.seconds)
        units = dict(layers.METRICS)
    else:
        run, problems, metrics = end_to_end(workload, inputs, refs,
                                            args.seed, args.seconds)
        units = dict(END_TO_END)
    for problem in problems:
        _note(problem)
    if run.failures:
        _note(f"failed asks by kind: {run.failures}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.asks),
        "failed": sum(run.failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
