"""The two sweep workloads: ``fig5-serial`` and ``pruned-2proc``.

One round is a Figure-5 sweep of the paper's six applications on
``GRAPHS``: planned (``plan_sweep``), executed uncached (``run_plan``)
and aggregated (``aggregate_sweep``); ``wall_s`` times exactly that.
``fig5-serial`` runs the full configuration grid in-process;
``pruned-2proc`` plans with ``PruningPolicy(k=1)`` and runs on a
2-worker process pool.  After the timed sweep, and outside its timing,
the round re-reads its own results through a ``ResultCache`` the way a
repeated or resumed ``repro sweep --cache-dir`` does:

* warm passes: every unit is a hit (``warm_*``);
* resume passes: the plan plus one small owed unit, which ``run_plan``
  simulates and writes back after restoring the hits (``mixed_*`` are
  those hits' latencies).  They run serially on both workloads: for one
  owed unit a pool would add only a fork.
"""

from __future__ import annotations

from common import (clock, intervals, latencies, median, merge_rounds,
                    rounds)

import checks
import tracing
from checks import require

GRAPHS = ("AMZ", "OLS")
#: Scale divisors: 8x the defaults (32 / 9), so that a round fits the
#: run; the measured Table V classes are unchanged at these scales.
SCALES = {"AMZ": 256, "OLS": 72}
MAX_ITERS = 2
SETUP_REPEATS = 5
#: Cache passes per round: 3,000 warm and 2,016 resumed hit latencies.
WARM_PASSES = 250
RESUME_PASSES = 168
#: The unit a resume pass owes: SSSP on OLS, one configuration, one
#: iteration (graph, scale divisor, app, configuration).
OWED = ("OLS", 72, "SSSP", "SGR")
#: The plan unit whose pool-executed result is checked in-process.
SAMPLE_UNIT = ("OLS", "SSSP")


def run(ctx, name: str) -> dict:
    from repro.harness import PAPER_APPS
    from repro.harness import sweep as harness_sweep
    from repro.model.pruning import PruningPolicy
    from repro.runtime import GraphRef, ResultCache, WorkloadSpec, executor

    pruned = name == "pruned-2proc"
    jobs = 2 if pruned else 1
    apps = PAPER_APPS

    def plan():
        return harness_sweep.plan_sweep(
            GRAPHS, apps, max_iters=MAX_ITERS, seed=ctx.seed,
            scales=SCALES, prune=PruningPolicy(k=1) if pruned else None)

    # Set-up: materialize every graph and build the plan, several times.
    refs = [GraphRef.dataset(g, scale=SCALES[g], seed=ctx.seed)
            for g in GRAPHS]
    setup = []
    for repeat in range(SETUP_REPEATS):
        started = clock()
        for ref in refs:
            executor.load_graph(ref) if repeat == 0 else ref.load()
        the_plan, subsets = plan()
        setup.append(clock() - started)
    graph, scale, app, config = OWED
    owed = WorkloadSpec.for_workload(
        app, GraphRef.dataset(graph, scale=scale, seed=ctx.seed),
        configs=[config], max_iters=1, seed=ctx.seed)

    tracer = tracing.Tracer() if ctx.trace else None
    if tracer is not None:
        tracer.spool = ctx.tmp / "spans"
        tracer.spool.mkdir()
    state = {"fingerprint": None, "counts": None, "round": 0}

    def run_round(traced: bool) -> dict:
        cache = ResultCache(ctx.tmp / f"cache-{state['round']}")
        state["round"] += 1
        if traced:
            tracing.install(tracer)
        try:
            phases, out = [], {}
            # -- the timed sweep ----------------------------------------
            done = {}
            started = clock()
            plan_, subsets_ = plan()
            execute_from = clock()
            outcomes = executor.run_plan(
                plan_, jobs=jobs,
                progress=lambda label: done.setdefault(label, clock()))
            sweep = harness_sweep.aggregate_sweep(
                plan_, outcomes, GRAPHS, apps, scales=SCALES)
            out["wall_s"] = clock() - started
            out["cold"] = unit_latencies(plan_, done, execute_from, jobs)
            if traced:
                phases.append(tracer.take())
            # -- checks (untimed) ----------------------------------------
            checks.check_sweep(plan_, outcomes, sweep,
                               subsets_ if pruned else None)
            require(subsets_ == subsets, "plan differs between rounds")
            expected = checks.fingerprint(outcomes)
            if state["fingerprint"] is None:
                state["fingerprint"] = expected
                state["counts"] = checks.simulated_counts(outcomes)
            require(expected == state["fingerprint"],
                    "simulated results differ between rounds "
                    f"({'traced' if traced else 'untraced'} round)")
            for spec, outcome in zip(plan_, outcomes):
                cache.put(spec, outcome)
            # -- warm passes: every unit a hit ---------------------------
            out["warm"], warm_time = [], 0.0
            if traced:
                tracer.take()
            for _ in range(WARM_PASSES):
                stamps = []
                started = clock()
                hits = executor.run_plan(
                    plan_, jobs=jobs,
                    cache=cache, progress=lambda _: stamps.append(clock()))
                warm_time += clock() - started
                out["warm"] += intervals(started, stamps)
            if traced:
                phases.append(tracer.take())
            require(checks.fingerprint(hits) == expected,
                    "cached results differ from the simulated ones")
            out["warm_rps"] = WARM_PASSES * len(plan_) / warm_time
            # -- resume passes: the plan plus one owed unit, which is
            # simulated and written back after the hits are restored ---
            out["mixed"] = []
            resume_plan = list(plan_) + [owed]
            for _ in range(RESUME_PASSES):
                cache.path_for(owed).unlink(missing_ok=True)
                labels, stamps = [], []

                def progress(label):
                    stamps.append(clock())
                    labels.append(label)

                started = clock()
                resumed = executor.run_plan(resume_plan, cache=cache,
                                            progress=progress)
                gaps = intervals(started, stamps)
                out["mixed"] += [gap for gap, label in zip(gaps, labels)
                                 if label.endswith("(cached)")]
                require(checks.fingerprint(resumed[:-1]) == expected,
                        "resumed results differ from the simulated ones")
                if traced:
                    phases.append(tracer.take())
            out["owed"] = resumed[-1]
            out["spans"] = phases
            return out
        finally:
            if traced:
                tracer.uninstall()

    untraced, traced = rounds(ctx.seconds, run_round, ctx.trace)

    # The owed unit's result is the same in every round and equals an
    # in-process execute_spec; on the pool, so does one sampled plan unit.
    local = executor.execute_spec(owed)
    for result in untraced + traced:
        checks.check_equal(local, result["owed"], owed.label)
    if pruned:
        spec = [spec for spec in the_plan
                if (spec.graph.source, spec.app) == SAMPLE_UNIT][0]
        cache = ResultCache(ctx.tmp / "cache-0")
        checks.check_equal(executor.execute_spec(spec), cache.get(spec),
                           spec.label)

    units_per_round = (len(the_plan) * (1 + WARM_PASSES)
                       + (len(the_plan) + 1) * RESUME_PASSES)
    attempted = units_per_round * len(untraced + traced)
    e2e = _end_to_end(untraced, setup)
    if not ctx.trace:
        return {"attempted": attempted, "failed": 0, "metrics": e2e}
    layers = _per_layer(traced, untraced, jobs, units_per_round)
    layers.update(state["counts"])
    return {"attempted": attempted, "failed": 0, "metrics": layers}


def unit_latencies(plan, done: dict, start: float, jobs: int) -> list:
    """Each unit's latency from its start to its completion stamp.

    The executors start units in plan order and start the next one as
    soon as one completes, keeping ``jobs`` in flight, so unit ``k``
    starts at ``start`` (k < jobs) or at the (k - jobs)-th completion.
    """
    finished = sorted(done.values())
    latencies = []
    for k, spec in enumerate(plan):
        begun = start if k < jobs else finished[k - jobs]
        latencies.append(done[spec.label] - begun)
    return latencies


def _end_to_end(results: list[dict], setup: list[float]) -> dict:
    return {"setup_s": median(setup), **latencies(results)}


def _per_layer(traced, untraced, jobs, units_per_round) -> dict:
    """Layer numbers of the timed sweep, plus the cache layer's and the
    spec digest's over the whole round (the cache passes use them)."""
    per_round = []
    for result in traced:
        phases = result["spans"]
        layers = tracing.layer_metrics(phases[:1], jobs)
        layers.pop("spec_s")
        whole = tracing.layer_metrics(phases, jobs)
        for name in ("runtime.cache_get_s", "runtime.cache_put_s",
                     "runtime.cache_hits", "runtime.cache_misses"):
            layers[name] = whole[name]
        warm = tracing.layer_metrics(phases[1:2], jobs)
        per_hit_ms = 1e3 * (warm["runtime.cache_get_s"]
                            + warm["spec_s"]) / warm["runtime.cache_hits"]
        layers.update({
            "serve.digest_s": whole["spec_s"] / units_per_round,
            "serve.cold_overhead_ms": 1e3 * (median(result["cold"])
                                             - layers["runtime.unit_p50_s"]),
            "serve.warm_residual_ms": 1e3 * median(result["warm"])
            - per_hit_ms,
        })
        per_round.append(layers)
    merged = merge_rounds(per_round)
    merged["trace.overhead_s"] = (
        median([r["wall_s"] for r in traced])
        - median([r["wall_s"] for r in untraced]))
    for name in ("requests", "hits", "misses", "coalesced", "rejected",
                 "batches", "simulated"):
        merged[f"serve.{name}"] = 0  # no daemon in a sweep
    return merged
