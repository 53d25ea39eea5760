"""Units of every metric, percentiles, and the round loop."""

from __future__ import annotations

import math
import statistics
import sys
import time

clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "warm_rps": "req/s",
    "mixed_p50_ms": "ms",
    "mixed_p99_ms": "ms",
}

_COUNTS = (
    "kernels.iterations", "tracegen.ops", "tracegen.memo_hits",
    "tracegen.memo_misses", "sim.ops", "sim.cycles", "mem.l1_hits",
    "mem.l1_misses", "mem.l2_hits", "mem.l2_misses", "mem.atomics",
    "mem.ownership_registrations", "mem.acquires", "model.configs_kept",
    "runtime.units", "runtime.retries", "runtime.cache_hits",
    "runtime.cache_misses", "serve.requests", "serve.hits",
    "serve.misses", "serve.coalesced", "serve.rejected", "serve.batches",
    "serve.simulated",
)
_SECONDS = (
    "graph.load_s", "kernels.iterate_s", "tracegen.realize_s",
    "sim.feed_s", "sim.feed_s.gpu", "sim.feed_s.denovo", "sim.result_s",
    "taxonomy.profile_s", "model.predict_s", "model.prune_s",
    "harness.plan_s", "harness.aggregate_s", "runtime.run_plan_s",
    "runtime.unit_p50_s", "runtime.pool_overhead_s",
    "runtime.cache_get_s", "runtime.cache_put_s", "serve.digest_s",
    "trace.overhead_s",
)
PER_LAYER_UNITS = {
    **{name: "count" for name in _COUNTS},
    **{name: "s" for name in _SECONDS},
    "sim.ops_per_s": "1/s",
    "serve.cold_overhead_ms": "ms",
    "serve.warm_residual_ms": "ms",
}

#: The simulated statistics: summed exactly over every ExecutionResult.
MEMORY_COUNTERS = ("l1_hits", "l1_misses", "l2_hits", "l2_misses",
                   "atomics", "ownership_registrations", "acquires")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def intervals(start: float, stamps: list[float]) -> list[float]:
    """Gaps between successive completion stamps, the first from
    ``start``."""
    previous, gaps = start, []
    for stamp in stamps:
        gaps.append(stamp - previous)
        previous = stamp
    return gaps


def median(values):
    return statistics.median(values)


def rounds(seconds: float, run_round, trace: bool):
    """Run whole rounds until ``seconds`` have passed.

    Untraced, every round counts.  Traced, rounds alternate untraced and
    traced (at least one of each) so the two can be compared.  Returns
    ``(untraced_results, traced_results)``.
    """
    untraced, traced = [], []
    started = clock()
    while True:
        tracing = trace and len(traced) < len(untraced)
        result = run_round(tracing)
        (traced if tracing else untraced).append(result)
        print(f"round {len(untraced) + len(traced)}"
              f"{' traced' if tracing else ''}: wall_s "
              f"{result['wall_s']:.3f}", file=sys.stderr)
        if clock() - started < seconds:
            continue
        if not trace or (traced and len(traced) == len(untraced)):
            return untraced, traced


def merge_rounds(per_round: list[dict]) -> dict:
    """Per metric, the median over traced rounds; a count that repeats
    exactly keeps its exact value."""
    merged = {}
    for name, first in per_round[0].items():
        values = [layers[name] for layers in per_round]
        merged[name] = first if len(set(values)) == 1 else median(values)
    return merged


def chunked_p99(samples: list[float], chunk: int = 1000) -> float:
    """Median over consecutive chunks of ``chunk`` samples of each
    chunk's p99 (a trailing partial chunk is dropped when a full one
    exists).  Each chunk's p99 has ten samples beyond it; the median over
    chunks keeps one burst of host noise from setting the figure."""
    chunks = [samples[i:i + chunk] for i in range(0, len(samples), chunk)]
    full = [c for c in chunks if len(c) == chunk] or chunks
    return median([percentile(c, 99) for c in full])


def latencies(results: list[dict]) -> dict:
    """End-to-end metrics shared by every workload, from its rounds:
    medians pool every round's samples; p99s are :func:`chunked_p99`."""
    def pooled(key):
        return [x for r in results for x in r[key]]

    return {
        "wall_s": median([r["wall_s"] for r in results]),
        "cold_p50_ms": 1e3 * median(pooled("cold")),
        "warm_p50_ms": 1e3 * median(pooled("warm")),
        "warm_p99_ms": 1e3 * chunked_p99(pooled("warm")),
        "warm_rps": median([r["warm_rps"] for r in results]),
        "mixed_p50_ms": 1e3 * median(pooled("mixed")),
        "mixed_p99_ms": 1e3 * chunked_p99(pooled("mixed")),
    }
