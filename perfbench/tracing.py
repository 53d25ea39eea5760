"""Spans around the public calls of each ``repro`` layer.

The benchmark measures the program from outside: :func:`install` rebinds
each listed public function or method to a wrapper that records a span
(name, start, end, parent span, shared id, optional value) and calls the
original.  Nothing in ``src/`` changes; :meth:`Tracer.uninstall` puts the
originals back.  Spans are kept in memory.  A forked pool worker starts
with an empty list and spools its spans to a file after each unit it
executes, because a worker has no "end of run" the parent can see.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter

# Fields of one span record (a list, so the wrapper can fill it in place).
NAME, START, END, PARENT, SID, VALUE = range(6)


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pid = os.getpid()
        self.spool: Path | None = None
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- recording --------------------------------------------------------

    def _forked(self) -> None:
        # A pool worker inherits the parent's spans and open span; it
        # records its own from scratch.
        self.spans.clear()
        self._current.set(None)

    def wrap(self, func, name, sid_of=None, value_of=None, before_of=None):
        """A wrapper recording one span per call of ``func``.

        ``sid_of(args)`` starts a new span id (a unit or request); other
        spans inherit their parent's.  ``value_of(args, result, before)``
        attaches a number to the span, where ``before`` is what
        ``before_of(args)`` returned ahead of the call.  A call nested
        directly in a span of the same name (an override calling
        ``super()``) is not recorded twice.
        """
        spans = self.spans
        current = self._current

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent[NAME] == name:
                return func(*args, **kwargs)
            sid = (sid_of(args) if sid_of is not None
                   else parent[SID] if parent is not None else None)
            before = before_of(args) if before_of is not None else None
            record = [name, 0.0, 0.0, parent, sid, None]
            token = current.set(record)
            record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                current.reset(token)
                spans.append(record)
            if value_of is not None:
                record[VALUE] = value_of(args, result, before)
            if parent is None and self.spool is not None \
                    and os.getpid() != self.pid:
                self._spool_worker_spans()
            return result

        return wrapper

    def wrap_generator(self, func, name):
        """Like :meth:`wrap`, one span per ``next()`` on the generator."""
        spans = self.spans
        current = self._current

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            generator = func(*args, **kwargs)
            while True:
                parent = current.get()
                record = [name, 0.0, 0.0, parent,
                          parent[SID] if parent is not None else None, 1]
                token = current.set(record)
                record[START] = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    record[VALUE] = 0
                    return
                finally:
                    record[END] = clock()
                    current.reset(token)
                    spans.append(record)
                yield item

        return wrapper

    def _spool_worker_spans(self) -> None:
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(export(self.spans, os.getpid())) + "\n")
        self.spans.clear()

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, func, name, **kwargs) -> None:
        """Rebind ``func`` in every ``repro`` module that holds it."""
        wrapper = self.wrap(func, name, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith(
                    "repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name, **kwargs) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = self.wrap(original.__func__, name, **kwargs)
            self.patch(cls, attr, classmethod(wrapped))
        elif inspect.isgeneratorfunction(original):
            self.patch(cls, attr, self.wrap_generator(original, name))
        else:
            self.patch(cls, attr, self.wrap(original, name, **kwargs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list[dict]]:
        """Export and forget this process's spans and the spooled ones,
        as batches for :func:`rebase`."""
        batches = [export(self.spans, self.pid)]
        self.spans.clear()
        if self.spool is not None:
            for path in sorted(self.spool.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    batches.extend(json.loads(line) for line in handle)
                path.unlink()
        return batches


def export(spans: list[list], proc: int) -> list[dict]:
    """Span records as JSON-safe rows; ``parent`` becomes a row index."""
    index = {id(record): position for position, record in enumerate(spans)}
    return [{"name": record[NAME], "start": record[START],
             "end": record[END], "proc": proc,
             "parent": (index.get(id(record[PARENT]))
                        if record[PARENT] is not None else None),
             "sid": record[SID], "value": record[VALUE]}
            for record in spans]


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        klass = stack.pop()
        found.append(klass)
        stack.extend(klass.__subclasses__())
    return found


def _defining(classes, attr: str) -> list[type]:
    """The distinct classes (in MROs of ``classes``) that define ``attr``
    concretely."""
    owners: list[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            method = klass.__dict__.get(attr)
            if method is None or getattr(method, "__isabstractmethod__",
                                         False):
                continue
            if klass not in owners:
                owners.append(klass)
    return owners


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every layer the benchmark reports."""
    from repro.harness import sweep as harness_sweep
    from repro.kernels import TraceBuilder
    from repro.kernels.registry import KERNELS
    from repro.model import predict_configuration
    from repro.model.pruning import PruningPolicy
    from repro.runtime import ResultCache, WorkloadSpec, executor
    from repro.serve import ServeClient
    from repro.serve.server import ReproServer
    from repro.sim.engine import GPUSimulator
    from repro.taxonomy import profile_graph, profile_workload

    digest = WorkloadSpec.digest

    def unit_id(args):
        return digest(args[0])[:12]

    def request_id(args):
        spec = args[1]
        return digest(spec)[:12] if isinstance(spec, WorkloadSpec) else None

    def memo(args):
        return args[0].memo_hits, args[0].memo_misses

    def realized(args, result, before):
        hits, misses = memo(args)
        return [sum(trace.op_count for trace in result),
                hits - before[0], misses - before[1]]

    def hit(args, result, before):
        return int(result is not None)

    tracer.patch_function(executor.load_graph, "graph.load")
    for cls in _defining(KERNELS.values(), "iterations"):
        tracer.patch_method(cls, "iterations", "kernels.iterate")
    tracer.patch_method(TraceBuilder, "realize_iteration",
                        "tracegen.realize", value_of=realized,
                        before_of=memo)
    for cls in _defining(_subclasses(GPUSimulator), "feed"):
        original = cls.__dict__["feed"]
        recorders = {
            protocol: tracer.wrap(
                original, f"sim.feed.{protocol}",
                value_of=lambda args, result, before: args[1].op_count)
            for protocol in ("gpu", "denovo")}

        def feed(self, kernel, _recorders=recorders):
            return _recorders[self.memory.name](self, kernel)

        tracer.patch(cls, "feed", feed)
    for cls in _defining(_subclasses(GPUSimulator), "result"):
        tracer.patch_method(cls, "result", "sim.result")
    tracer.patch_function(profile_graph, "taxonomy.profile_graph")
    tracer.patch_function(profile_workload, "taxonomy.profile_workload")
    tracer.patch_function(predict_configuration, "model.predict")
    tracer.patch_method(
        PruningPolicy, "subset", "model.prune",
        value_of=lambda args, result, before: len(result))
    tracer.patch_function(harness_sweep.plan_sweep, "harness.plan")
    tracer.patch_function(harness_sweep.aggregate_sweep,
                          "harness.aggregate")
    tracer.patch_function(executor.run_plan, "runtime.run_plan")
    tracer.patch_function(executor.execute_spec, "runtime.execute_spec",
                          sid_of=unit_id)
    for cls in _defining(_subclasses(ResultCache), "get"):
        tracer.patch_method(cls, "get", "runtime.cache_get", value_of=hit)
    for cls in _defining(_subclasses(ResultCache), "put"):
        tracer.patch_method(cls, "put", "runtime.cache_put")
    # The daemon answers a hit from the raw entry file, not through
    # ResultCache.get; this is the one private method wrapped.
    tracer.patch_method(ReproServer, "_cached_payload", "runtime.cache_get",
                        value_of=hit, sid_of=lambda args: args[1][:12])
    tracer.patch_method(WorkloadSpec, "from_dict", "spec.from_dict")
    tracer.patch_method(WorkloadSpec, "digest", "spec.digest")
    tracer.patch_method(ServeClient, "submit", "serve.submit",
                        sid_of=request_id)
    return tracer


# -- per-layer numbers ------------------------------------------------------

def layer_times(rows: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: (self seconds, total seconds, list of rows)."""
    child_time: dict[int, float] = {}
    for row in rows:
        if row["parent"] is not None:
            key = row["_base"] + row["parent"]
            child_time[key] = (child_time.get(key, 0.0)
                               + row["end"] - row["start"])
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for position, row in enumerate(rows):
        duration = row["end"] - row["start"]
        name = row["name"]
        total[name] = total.get(name, 0.0) + duration
        own[name] = (own.get(name, 0.0) + duration
                     - child_time.get(position, 0.0))
        by_name.setdefault(name, []).append(row)
    return own, total, by_name


def rebase(batches: list[list[dict]]) -> list[dict]:
    """Concatenate exported span batches, keeping parent links valid."""
    merged: list[dict] = []
    for batch in batches:
        base = len(merged)
        for row in batch:
            merged.append({**row, "_base": base})
    return merged


def layer_metrics(phases: list[list[list[dict]]], jobs: int) -> dict:
    """The benchmark's per-layer metrics from traced spans.

    ``phases`` holds span batches (see :meth:`Tracer.take`) per phase of a
    round; a unit executed twice within one phase counts as a retry.
    """
    rows = rebase([batch for phase in phases for batch in phase])
    retries = 0
    for phase in phases:
        sids = [row["sid"] for batch in phase for row in batch
                if row["name"] == "runtime.execute_spec"]
        retries += len(sids) - len(set(sids))
    own, total, by_name = layer_times(rows)

    def s(*names):
        return sum(own.get(name, 0.0) for name in names)

    def values(name):
        return [row["value"] for row in by_name.get(name, ())
                if row["value"] is not None]

    realized = values("tracegen.realize")
    units = by_name.get("runtime.execute_spec", [])
    unit_s = [row["end"] - row["start"] for row in units]
    cache_reads = values("runtime.cache_get")
    feed_s = s("sim.feed.gpu", "sim.feed.denovo")
    sim_ops = sum(values("sim.feed.gpu")) + sum(values("sim.feed.denovo"))
    plan_wall = sum(row["end"] - row["start"]
                    for row in by_name.get("runtime.run_plan", ()))
    return {
        "graph.load_s": s("graph.load"),
        "kernels.iterate_s": s("kernels.iterate"),
        "kernels.iterations": sum(values("kernels.iterate")),
        "tracegen.realize_s": s("tracegen.realize"),
        "tracegen.ops": sum(v[0] for v in realized),
        "tracegen.memo_hits": sum(v[1] for v in realized),
        "tracegen.memo_misses": sum(v[2] for v in realized),
        "sim.feed_s": feed_s,
        "sim.feed_s.gpu": s("sim.feed.gpu"),
        "sim.feed_s.denovo": s("sim.feed.denovo"),
        "sim.result_s": s("sim.result"),
        "sim.ops": sim_ops,
        "sim.ops_per_s": sim_ops / feed_s if feed_s else 0.0,
        "taxonomy.profile_s": s("taxonomy.profile_graph",
                                "taxonomy.profile_workload"),
        "model.predict_s": s("model.predict"),
        "model.prune_s": s("model.prune"),
        "model.configs_kept": sum(values("model.prune")),
        "harness.plan_s": s("harness.plan"),
        "harness.aggregate_s": s("harness.aggregate"),
        "runtime.run_plan_s": s("runtime.run_plan"),
        "runtime.unit_p50_s": statistics.median(unit_s) if unit_s else 0.0,
        "runtime.pool_overhead_s": jobs * plan_wall - sum(unit_s),
        "runtime.units": len(units),
        "runtime.retries": retries,
        "runtime.cache_get_s": s("runtime.cache_get"),
        "runtime.cache_put_s": s("runtime.cache_put"),
        "runtime.cache_hits": sum(cache_reads),
        "runtime.cache_misses": len(cache_reads) - sum(cache_reads),
        # Raw seconds in spec decode + digest; the workload divides by
        # the units or requests it handled (``serve.digest_s``).
        "spec_s": (total.get("spec.from_dict", 0.0)
                   + total.get("spec.digest", 0.0)),
    }
