"""Runs one workload and reduces what it measured to the reported metrics.

End-to-end metrics come from untraced iterations.  Each workload names
three headline timings; the harness reports them in three generic slots,
``primary_ms``, ``secondary_ms`` and ``tertiary_ms``, so that every
workload emits the same metric names (``layers.json`` maps slot to
headline per workload).  ``setup_s`` is the median of several set-ups.

A traced run alternates traced and untraced iterations.  Traced iterations
run with the probes of :data:`workloads.PROBES` installed; their spans are
reduced to self time per layer, per workload unit (a request, a restart, a
delta or a campaign iteration).  The untraced iterations of the same run
give the tracing overhead.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import Tally
from spans import Instrumentation, Recorder, Span, self_times
from workloads import FULL, PROBES, WORKLOADS, Samples, Sizes, Workload

#: Generic end-to-end slots, filled from each workload's ``headlines``.
E2E_SLOTS = ("primary_ms", "secondary_ms", "tertiary_ms")
TO_MS = {"ms": 1.0, "us": 1e-3, "s": 1e3}

#: Iterations run even when ``--seconds`` has run out, so both halves of a
#: traced run, and both corpora of ``serve-cold``, have samples.
MIN_ITERATIONS = 4

#: Per-layer metrics: name -> (unit, better).  Times are self time in ms per
#: workload unit; counts are per workload unit unless the name says otherwise.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "server.transport_ms": ("ms", "lower"),
    "server.dispatch_ms": ("ms", "lower"),
    "server.parse_ms": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.evicted_per_delta": ("count", "lower"),
    "registry.compiles": ("count", "lower"),
    "registry.patches": ("count", "higher"),
    "registry.get_ms": ("ms", "lower"),
    "provider.current_ms": ("ms", "lower"),
    "provider.load_ms": ("ms", "lower"),
    "query.compile_ms": ("ms", "lower"),
    "digest.scope_ms": ("ms", "lower"),
    "digest.entry_calls_per_entry": ("count", "lower"),
    "query.pairs_ms": ("ms", "lower"),
    "query.ksets_ms": ("ms", "lower"),
    "query.selection_ms": ("ms", "lower"),
    "encode_ms": ("ms", "lower"),
    "encode_bytes": ("bytes", "lower"),
    "ingest.parse_ms": ("ms", "lower"),
    "ingest.upsert_ms": ("ms", "lower"),
    "ingest.upsert_calls": ("count", "lower"),
    "ingest.commit_ms": ("ms", "lower"),
    "ingest.apply_ms": ("ms", "lower"),
    "ingest.notify_ms": ("ms", "lower"),
    "sim.run_range_ms": ("ms", "lower"),
    "sim.runs": ("count", "higher"),
    "runner.chunk_s": ("s", "lower"),
    "runner.pool_overhead_s": ("s", "lower"),
    "runner.scope_digest_ms": ("ms", "lower"),
    "runner.cache_misses": ("count", "lower"),
    "runner.cache_writes": ("count", "lower"),
    "obs.tracing_overhead_pct": ("%", "lower"),
}

#: Per-layer time metrics read as the self time of one span name.
SPAN_METRICS = {
    "server.transport_ms": "client.request",
    "server.dispatch_ms": "server.dispatch",
    "registry.get_ms": "registry.get",
    "provider.current_ms": "provider.current",
    "provider.load_ms": "provider.load",
    "query.compile_ms": "query.compile",
    "digest.scope_ms": "digest.scope",
    "query.pairs_ms": "query.pairs",
    "query.ksets_ms": "query.ksets",
    "query.selection_ms": "query.selection",
    "encode_ms": "encode",
    "ingest.parse_ms": "ingest.parse",
    "ingest.upsert_ms": "ingest.upsert",
    "ingest.commit_ms": "ingest.commit",
    "ingest.apply_ms": "ingest.apply",
    "ingest.notify_ms": "ingest.notify",
    "sim.run_range_ms": "sim.run_range",
    "runner.scope_digest_ms": "runner.scope_digest",
}

#: Counted per-layer metrics: metric -> the count it divides by units.
COUNT_METRICS = {
    "registry.compiles": "registry.compiles",
    "registry.patches": "registry.patches",
    "encode_bytes": "encode.bytes",
    "ingest.upsert_calls": "ingest.upsert_calls",
    "sim.runs": "sim.runs",
    "runner.chunk_s": "chunk_s",
    "runner.pool_overhead_s": "pool_overhead_s",
    "runner.cache_misses": "runner.cache_misses",
    "runner.cache_writes": "runner.cache_writes",
}


class LayerTotals:
    """Self time and counts summed over a run's traced iterations."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.entry_calls_per_entry = 0.0

    def add(self, spans: List[Span], recorded: Dict[str, float], counts: Dict[str, float]) -> None:
        for name, seconds in self_times(spans).items():
            self.self_s[name] += seconds
        self.root_s += sum(span.end - span.start for span in spans if span.parent is None)
        for name, value in (*recorded.items(), *counts.items()):
            self.counts[name] += value
        if counts.get("entries"):
            self.entry_calls_per_entry += recorded.get("digest.entry_calls", 0) / counts["entries"]

    def metrics(self) -> Dict[str, float]:
        counts = self.counts
        units = counts["units"] or 1
        values = {
            metric: self.self_s.get(span, 0.0) / units * 1e3
            for metric, span in SPAN_METRICS.items()
        }
        values.update(
            {metric: counts[count] / units for metric, count in COUNT_METRICS.items()}
        )
        lookups = counts["cache.hits"] + counts["cache.misses"]
        values["server.parse_ms"] = counts["parse_s"] / units * 1e3
        values["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
        values["cache.evicted_per_delta"] = (
            counts["cache.evicted"] / counts["deltas"] if counts["deltas"] else 0.0
        )
        values["digest.entry_calls_per_entry"] = self.entry_calls_per_entry / units
        return values


@dataclass
class Result:
    workload: Workload
    tally: Tally
    setup_s: List[float]
    plain: Samples
    traced: Samples
    iterations: int
    layers: Optional[LayerTotals] = None
    named: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    named_traced: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)

    def e2e(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics, under their generic names."""
        metrics = {"setup_s": (statistics.median(self.setup_s), "s")}
        for slot, headline in zip(E2E_SLOTS, self.workload.headlines):
            if headline in self.named:
                value, unit, _ = self.named[headline]
                metrics[slot] = (value * TO_MS[unit], "ms")
        return metrics

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        values = self.layers.metrics()
        primary = self.workload.headlines[0]
        if primary in self.named and primary in self.named_traced:
            plain, traced = self.named[primary][0], self.named_traced[primary][0]
            values["obs.tracing_overhead_pct"] = (traced - plain) / plain * 100.0
        return {name: (values.get(name, 0.0), unit) for name, (unit, _) in PER_LAYER.items()}

    def accounting(self) -> Dict[str, float]:
        """Per unit: untraced and traced wall time, and the time spans cover."""
        plain, traced = self.plain.get("total"), self.traced.get("total")
        units = self.layers.counts["units"] or 1
        return {
            "untraced_ms": statistics.fmean(plain) * 1e3 if plain else 0.0,
            "traced_ms": statistics.fmean(traced) * 1e3 if traced else 0.0,
            "spans_ms": self.layers.root_s / units * 1e3,
            "self_ms": sum(self.layers.self_s.values()) / units * 1e3,
        }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    sizes: Sizes = FULL,
) -> Result:
    """Set up, measure for ``seconds`` and tear down one workload."""
    tally = Tally()
    workload = WORKLOADS[name](seed, sizes, workdir, tally)
    result = Result(workload, tally, [], Samples(), Samples(), 0)
    recorder = Recorder()
    instrumentation = Instrumentation(recorder, PROBES)
    if trace:
        result.layers = LayerTotals()
    try:
        for repeat in range(sizes.setup_repeats):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup(repeat)
            result.setup_s.append(time.perf_counter() - started)
        workload.verify_setup()
        deadline = time.perf_counter() + seconds
        index = 0
        while (
            index < MIN_ITERATIONS
            or index % workload.cycle
            or time.perf_counter() < deadline
        ):
            traced = trace and workload.traced(index)
            workload.prepare(index)
            try:
                if traced:
                    recorder.drain()
                    with instrumentation.installed():
                        counts = workload.iteration(index, result.traced, recorder)
                    spans, recorded = recorder.drain()
                    result.layers.add(spans, recorded, counts)
                else:
                    workload.iteration(index, result.plain, None)
            except Exception as error:  # one broken iteration ends the run as failed
                traceback.print_exc(file=sys.stderr)
                tally.record(f"iteration {index}", f"raised {error!r}")
                break
            finally:
                workload.finish(index)
            index += 1
        result.iterations = index
    finally:
        workload.teardown()
    if result.plain.get("total"):
        result.named = workload.metrics(result.plain)
    if result.traced.get("total"):
        result.named_traced = workload.metrics(result.traced)
    return result


def report_lines(result: Result, trace: bool) -> List[str]:
    """Human-readable lines; the JSON result line follows them."""
    workload, tally = result.workload, result.tally
    lines = [
        f"workload {workload.name}: {result.iterations} iterations, "
        f"setup_s {statistics.median(result.setup_s):.4f} s "
        f"(median of {len(result.setup_s)} set-ups)"
    ]
    for name, (value, unit, count) in result.named.items():
        lines.append(f"  {name} = {value:.6g} {unit} (n={count})")
    for slot, headline in zip(E2E_SLOTS, workload.headlines):
        lines.append(f"  {slot} <- {headline}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  ops_failed_ratio = {ratio:.6g} ({tally.failed} of {tally.attempted})")
    lines.extend(f"  FAILED {reason}" for reason in tally.reasons)
    if trace and result.layers is not None:
        lines.append(f"  per-layer, per {workload.unit}:")
        for name, (value, unit) in result.per_layer().items():
            lines.append(f"    {name} = {value:.6g} {unit}")
        for name in workload.headlines:
            if name in result.named and name in result.named_traced:
                plain, unit, _ = result.named[name]
                traced = result.named_traced[name][0]
                lines.append(
                    f"  tracing overhead on {name}: {(traced - plain) / plain * 100:+.1f}% "
                    f"({traced:.6g} traced vs {plain:.6g} untraced {unit})"
                )
        account = result.accounting()
        lines.append(
            "  accounting per {unit}: untraced {untraced_ms:.4f} ms, traced "
            "{traced_ms:.4f} ms, covered by spans {spans_ms:.4f} ms "
            "(self times sum to {self_ms:.4f} ms)".format(unit=workload.unit, **account)
        )
    return lines
