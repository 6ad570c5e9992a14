"""Runs a workload's days and turns them into the benchmark's metrics.

``run_day`` sets up, drives and checks one day; ``end_to_end`` and
``per_layer`` pool the days of a run into the metrics ``run.py`` prints.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform as host_platform
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Tuple

import gate
import hostspeed
from repro.api.envelope import ApiStatus
from repro.core.scoring import numpy_available
from repro.platform.metrics import summarize
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Operations whose per-request wall time the traced run reports.
OPERATIONS = (
    "login", "logout", "query", "buy", "negotiate", "join_auction",
    "recommendations", "find_similar",
)

#: Layer → the span names whose self time it sums.
LAYERS = {
    "api": ("api",),
    "agents": ("agents.dispatch", "agents.send_message", "agents.create"),
    "marketplace": ("marketplace.search", "marketplace.trade"),
    "fleet": ("fleet.query_similar",),
    "neighbors": ("neighbors.find_similar",),
    "recommend": ("recommend.recommend_for_query", "recommend.recommend"),
    "learning": ("learning.apply",),
    "replication": ("replication.append", "replication.apply_entries"),
    "transport": ("transport.deliver",),
}

#: A drain sets its world up again (keeping the last) until its set-ups have
#: taken this many wall seconds, so that a set-up of a few tens of ms is
#: timed often enough for its median to hold still.
SETUP_MIN_S = 0.5

#: Program counters the digest line reports (platform metrics registry).
PROGRAM_COUNTERS = ("agents.dispatched", "messages.delivered", "replication.entries_shipped")


class GateFailure(Exception):
    """The program's outputs failed the correctness gate."""

    def __init__(self, message: str, attempted: int = 0) -> None:
        super().__init__(message)
        self.attempted = attempted


@dataclass
class Day:
    """What one measured day produced."""

    seed: int
    #: Median wall time of the drain's set-ups.
    setup_s: float
    #: ``setup_s`` scaled to the reference host speed (``hostspeed.py``).
    setup_scaled_s: float
    #: Drain wall time, kernel samples excluded.
    phase_ns: int
    requests: int
    errors: int
    sim_latency_ms: List[float]
    queue_wait_ms: List[float]
    #: ``(operation, wall ns)`` per request; empty on a traced day.
    step_ns: List[Tuple[str, int]]
    #: ``step_ns``'s times scaled to the reference host speed.
    scaled_ns: List[float]
    #: Median host speed over the drain (1.0 on a traced day).
    speed: float
    scoring_backend: str
    digest: str
    #: Deltas of the program's own counters over the drain.
    counters: Dict[str, float]


def _neighbor_indexes(platform) -> list:
    indexes = []
    for server in platform.buyer_servers:
        index = server.recommendations.neighbor_index
        indexes.extend(getattr(index, "_shards", [index]))
    return indexes


def _program_counts(platform, scheduler) -> Dict[str, float]:
    metrics = platform.metrics
    counts = {name: metrics.counter(name).value for name in PROGRAM_COUNTERS}
    counts["api.admission.rejected"] = metrics.counter("api.admission.rejected").value
    counts["submitted"] = scheduler.submitted
    indexes = _neighbor_indexes(platform)
    counts["neighbors.queries"] = sum(index.queries for index in indexes)
    counts["neighbors.rebuilds"] = sum(index.rebuilds for index in indexes)
    counts["neighbors.bound_skips"] = sum(index.bound_skips for index in indexes)
    counts["queue_waits"] = len(metrics.timer("api.queue_wait_ms").samples)
    return counts


def run_day(workload, seed: int, tracer=None) -> Day:
    """Set up (see ``SETUP_MIN_S``), drive and check one day; ``tracer``
    (if any) is installed only while the day's requests are drained."""
    setups: List[Tuple[float, float]] = []
    while sum(wall for wall, _scaled in setups) < SETUP_MIN_S:
        world = None
        gc.collect()
        world, wall_s, scaled_s = hostspeed.timed_setup(workload.setup)
        setups.append((wall_s, scaled_s))

    platform = world.platform
    gateway = platform.gateway()
    scheduler = gateway.sessions
    futures: list = []
    submit = gateway.submit

    def recording_submit(request, at_ms=None, session_id=""):
        future = submit(request, at_ms=at_ms, session_id=session_id)
        futures.append(future)
        return future

    gateway.submit = recording_submit

    step_ns: List[Tuple[str, int]] = []
    probe = hostspeed.SpeedProbe()
    if tracer is None:
        step, heap = scheduler.step, scheduler._heap

        def timed_step():
            if not heap:
                return step()
            probe.before_request(len(step_ns))
            operation = heap[0][2].request.operation
            begin = perf_counter_ns()
            stepped = step()
            step_ns.append((operation, perf_counter_ns() - begin))
            return stepped

        scheduler.step = timed_step

    drain = scheduler.run_until_idle
    phase_ns = [0]

    def timed_drain(*args, **kwargs):
        begin = perf_counter_ns()
        try:
            return drain(*args, **kwargs)
        finally:
            phase_ns[0] += perf_counter_ns() - begin

    scheduler.run_until_idle = timed_drain

    before = _program_counts(platform, scheduler)
    # Collect set-up garbage now so the drain does not pay for it.
    gc.collect()
    if tracer is not None:
        with tracer:
            workload.drive(world, seed)
    else:
        workload.drive(world, seed)
    after = _program_counts(platform, scheduler)
    counters = {name: after[name] - before[name] for name in after}

    problems = gate.check_day(
        futures,
        scheduler,
        submitted=int(counters["submitted"]),
        shed=int(counters["api.admission.rejected"]),
    )
    if not problems:
        problems = gate.check_neighbors(platform, seed)
    if problems:
        raise GateFailure(f"day seed {seed}: " + "; ".join(problems), len(futures))

    hasher = hashlib.sha256()
    gate.digest_update(hasher, futures)
    waits = platform.metrics.timer("api.queue_wait_ms").samples
    return Day(
        seed=seed,
        setup_s=_median([wall for wall, _scaled in setups]),
        setup_scaled_s=_median([scaled for _wall, scaled in setups]),
        phase_ns=phase_ns[0] - probe.probe_ns,
        requests=len(futures),
        errors=sum(1 for f in futures if f.response.status in gate.ERROR_STATUSES),
        sim_latency_ms=[
            f.finished_at_ms - f.submitted_at_ms
            for f in futures
            if f.response.status != ApiStatus.REJECTED
        ],
        queue_wait_ms=list(waits[int(before["queue_waits"]):]),
        step_ns=step_ns,
        scaled_ns=probe.scaled([ns for _op, ns in step_ns]) if step_ns else [],
        speed=probe.speed() if step_ns else 1.0,
        scoring_backend=platform.buyer_servers[0].recommendations.scoring_backend,
        digest=hasher.hexdigest(),
        counters=counters,
    )


def _median(values: List[float]) -> float:
    return summarize(values)["p50"]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def best_request_ns(days: List[Day], scaled: bool) -> List[float]:
    """Each request's time, the least over the drains of its day's seed.

    The drains of one seed run the same requests (their digests are equal),
    so the least of a request's times is the one the host disturbed least:
    on a shared core single requests still vary by up to +-50% from drain
    to drain after scaling, which would otherwise set the tail percentile.
    """
    by_seed: Dict[int, List[Day]] = {}
    for day in days:
        by_seed.setdefault(day.seed, []).append(day)
    best: List[float] = []
    for group in by_seed.values():
        series = [
            day.scaled_ns if scaled else [ns for _op, ns in day.step_ns] for day in group
        ]
        best.extend(min(times) for times in zip(*series))
    return best


def _timings(days: List[Day], scaled: bool) -> Dict[str, float]:
    """Set-up s (the median over the days) and throughput, p50 and p99 µs
    (over every request of the run, each its best drain), from the scaled
    or the raw times."""
    request_ns = best_request_ns(days, scaled)
    setups = [day.setup_scaled_s if scaled else day.setup_s for day in days]
    wall = summarize([ns / 1e3 for ns in request_ns])
    return {
        "setup_s": _median(setups),
        "throughput_rps": len(request_ns) / (sum(request_ns) / 1e9),
        "request_us_p50": wall["p50"],
        "request_us_p99": wall["p99"],
    }


def wall_figures(days: List[Day]) -> Dict[str, float]:
    """The unscaled counterparts of the timed end-to-end metrics, and the
    host's median speed, for the report."""
    figures = {f"wall.{key}": value for key, value in _timings(days, False).items()}
    figures["host.speed"] = _median([day.speed for day in days])
    return figures


def end_to_end(days: List[Day]) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, with times scaled to the reference host
    speed (``hostspeed.py``)."""
    requests = sum(day.requests for day in days)
    errors = sum(day.errors for day in days)
    timings = _timings(days, True)
    return {
        "setup_s": _metric(timings["setup_s"], "s"),
        "throughput_rps": _metric(timings["throughput_rps"], "1/s"),
        "request_us_p50": _metric(timings["request_us_p50"], "us"),
        "request_us_p99": _metric(timings["request_us_p99"], "us"),
        "success_pct": _metric(100.0 * (requests - errors) / requests, "%"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def simulated(days: List[Day]) -> Dict[str, Dict[str, object]]:
    """Simulated latency per request (finish minus virtual arrival) over all
    days: deterministic for a seed, so a speed-only change leaves it equal."""
    sim = summarize([ms for day in days for ms in day.sim_latency_ms])
    return {
        "sim.latency_ms_p50": _metric(sim["p50"], "ms"),
        "sim.latency_ms_p99": _metric(sim["p99"], "ms"),
    }


def per_layer(
    untraced: List[Day], traced: List[Day], tracer
) -> Dict[str, Dict[str, object]]:
    try:
        totals = tracer.layer_totals()
    except ValueError as nesting:
        raise GateFailure(str(nesting)) from None
    roots = tracer.request_ns()
    request_ns = sum(roots)
    self_ns = sum(entry["self_ns"] for entry in totals.values())
    if self_ns != request_ns:
        raise GateFailure(
            f"layer self times sum to {self_ns} ns but traced requests took "
            f"{request_ns} ns"
        )
    requests = sum(day.requests for day in traced)
    if len(roots) != requests:
        raise GateFailure(f"{len(roots)} root spans for {requests} requests")

    metrics: Dict[str, Dict[str, object]] = {}
    for layer, names in LAYERS.items():
        layer_ns = sum(totals[name]["self_ns"] for name in names)
        metrics[f"{layer}.self_ms"] = _metric(layer_ns / 1e6, "ms")
        metrics[f"{layer}.share_pct"] = _metric(100.0 * layer_ns / request_ns, "%")
        if layer == "api":
            continue
        for name in names:
            metrics[f"{name}.calls"] = _metric(totals[name]["calls"], "count")
            if len(names) > 1:
                metrics[f"{name}.self_ms"] = _metric(totals[name]["self_ns"] / 1e6, "ms")

    by_operation: Dict[str, List[float]] = {}
    for day in untraced:
        for (operation, _ns), ns in zip(day.step_ns, day.scaled_ns):
            by_operation.setdefault(operation, []).append(ns / 1e3)
    for operation in OPERATIONS:
        samples = by_operation.get(operation, [])
        metrics[f"api.op.{operation}.us_p50"] = _metric(
            summarize(samples)["p50"], "us"
        )
    metrics["api.queue_wait_ms_p50"] = _metric(
        summarize([ms for day in traced for ms in day.queue_wait_ms])["p50"], "ms"
    )

    counted = {
        name: sum(day.counters[name] for day in traced)
        for name in traced[0].counters
    }
    neighbors = totals["neighbors.find_similar"]
    metrics["agents.dispatch_bytes"] = _metric(tracer.dispatch_bytes, "B")
    metrics["neighbors.us_per_call"] = _metric(
        neighbors["self_ns"] / 1e3 / neighbors["calls"] if neighbors["calls"] else 0.0,
        "us",
    )
    metrics["neighbors.calls_per_request"] = _metric(
        counted["neighbors.queries"] / requests, "count"
    )
    for counter in ("neighbors.rebuilds", "neighbors.bound_skips"):
        metrics[counter] = _metric(int(counted[counter]), "count")
    metrics["replication.entries_shipped"] = _metric(
        int(counted["replication.entries_shipped"]), "count"
    )
    untraced_ns = sum(day.phase_ns for day in untraced)
    traced_ns = sum(day.phase_ns for day in traced)
    metrics["trace.overhead_pct"] = _metric(
        100.0 * (traced_ns - untraced_ns) / untraced_ns, "%"
    )
    metrics.update(simulated(traced))
    return metrics


def host_notes(platform_backend: str) -> str:
    numpy_note = "yes" if numpy_available() else "no"
    if os.environ.get("REPRO_NO_NUMPY"):
        numpy_note += " (REPRO_NO_NUMPY set)"
    return (
        f"host python={host_platform.python_version()} numpy={numpy_note} "
        f"scoring_backend={platform_backend} nproc={len(os.sched_getaffinity(0))}"
    )


def day_line(index: int, day: Day) -> str:
    counts = " ".join(f"{name}={int(day.counters[name])}" for name in PROGRAM_COUNTERS)
    per_request = day.counters["neighbors.queries"] / day.requests
    return (
        f"day {index} seed={day.seed} setup_s={day.setup_s:.3f} speed={day.speed:.3f} "
        f"phase_s={day.phase_ns / 1e9:.3f} requests={day.requests} digest={day.digest} "
        f"{counts} neighbors.calls_per_request={per_request!r}"
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run ``name`` for ``seconds`` worth of days; print the report and the
    JSON result as the last line.  Returns the process exit status."""
    workload = WORKLOADS[name]
    pairs = max(1, round(seconds / (2 * workload.day_seconds)))
    seeds = [seed * 1009 + index for index in range(pairs)]

    untraced: List[Day] = []
    traced: List[Day] = []
    tracer = Tracer() if trace else None
    try:
        if tracer is None:
            for day_seed in seeds:
                untraced.append(run_day(workload, day_seed))
                untraced.append(run_day(workload, day_seed))
                if untraced[-1].digest != untraced[-2].digest:
                    raise GateFailure(
                        f"day seed {day_seed}: two drains of one seed differ"
                    )
        else:
            # Alternate which pass goes first so host drift within a pair
            # does not bias the overhead one way.
            for index, day_seed in enumerate(seeds):
                if index % 2 == 0:
                    untraced.append(run_day(workload, day_seed))
                traced.append(run_day(workload, day_seed, tracer))
                if index % 2 == 1:
                    untraced.append(run_day(workload, day_seed))
                if traced[-1].digest != untraced[-1].digest:
                    raise GateFailure(
                        f"day seed {day_seed}: tracing changed the simulated output"
                    )
        metrics = per_layer(untraced, traced, tracer) if tracer else end_to_end(untraced)
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        attempted = failure.attempted + sum(day.requests for day in untraced + traced)
        print(json.dumps(
            {"correct": False, "attempted": max(1, attempted), "failed": 0, "metrics": {}}
        ))
        return 1

    print(host_notes(untraced[0].scoring_backend))
    for index, day in enumerate(untraced):
        print(day_line(index, day))
    run_digest = hashlib.sha256("".join(day.digest for day in untraced).encode())
    print(f"digest {run_digest.hexdigest()} over {len(untraced)} days")
    # One day per seed: the drains of a seed repeat its simulated output.
    distinct = list({day.seed: day for day in untraced}.values())
    samples = sum(len(day.step_ns) for day in distinct)
    sim_samples = sum(len(day.sim_latency_ms) for day in distinct)
    drains = len(untraced) // len(distinct)
    print(
        f"samples request_us={samples} (each the best of {drains} drains) "
        f"sim_latency_ms={sim_samples}"
    )
    shown = metrics if tracer else {**metrics, **simulated(distinct)}
    for metric_name, metric in shown.items():
        print(f"  {metric_name:<40} {metric['value']!r} {metric['unit']}")
    for figure_name, value in wall_figures(untraced).items():
        print(f"  {figure_name:<40} {value!r}")
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    reported = traced if tracer else untraced
    print(json.dumps({
        "correct": True,
        "attempted": sum(day.requests for day in reported),
        "failed": sum(day.errors for day in reported),
        "metrics": metrics,
    }))
    return 0
