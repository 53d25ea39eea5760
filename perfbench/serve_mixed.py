"""The ``serve-mixed`` workload: closed-loop traffic against a ``repro
serve`` daemon on a Unix socket, over at most two connections.

One round, in four parts:

1. cold fill: connection A submits each ``FILL`` spec once; each is
   simulated and written to the daemon's result cache (``cold_p50_ms``);
2. warm loop: connection A re-submits the fill specs ``WARM_REQUESTS``
   times; every answer must come from the cache (``warm_*``);
3. mixed: connection A repeats the warm loop (``MIXED_REQUESTS``) while
   connection B streams the ``STREAM`` specs, which are cold, so cache
   writes run beside the reads (``mixed_*``);
4. malformed: three broken HTTP requests, each on its own connection.
   Each counts as failed unless the daemon answers it with a 4xx.

Each round runs against a fresh daemon with an empty cache; its start-up
(spawn to first ``/healthz`` answer) is the run's set-up time.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import sys
import threading

from common import clock, latencies, median, merge_rounds, rounds

import checks
import tracing
from checks import require

GRAPHS = {"OLS": 72, "WNG": 32}
FILL_ITERS = 1
STREAM_ITERS = 2
WARM_REQUESTS = 1000
MIXED_REQUESTS = 1000
#: Raw requests the daemon should answer with a 4xx.
MALFORMED = (
    b"NONSENSE\r\n\r\n",
    b"POST /submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
)
#: The daemon's admission limits are raised so the closed loop never
#: meets a 429: admission control is not what this workload measures.
DAEMON_FLAGS = ("--client-rate", "1000", "--client-burst", "1000")
STAT_KEYS = ("requests", "hits", "misses", "coalesced", "rejected",
             "batches", "simulated")


def grid(seed: int):
    """The fill and stream specs.

    Static apps use the four push configurations of Figure 5 (baseline
    SG1), dynamic ones their full grid: a spec that mixes push and pull
    configurations simulates differently under different hash seeds
    (see the README), so the daemon's answers could not be checked
    against this process's.
    """
    from repro.configs import figure5_configurations
    from repro.harness import PAPER_APPS
    from repro.kernels.registry import KERNELS
    from repro.runtime import GraphRef, WorkloadSpec

    def spec(app, graph, iters):
        codes = [c.code for c in figure5_configurations(
            KERNELS[app].traversal) if c.direction != "pull"]
        ref = GraphRef.dataset(graph, scale=GRAPHS[graph], seed=seed)
        return WorkloadSpec.for_workload(app, ref, configs=codes,
                                         max_iters=iters, seed=seed)

    fill = [spec(app, graph, FILL_ITERS)
            for graph in GRAPHS for app in PAPER_APPS]
    stream = [spec(app, graph, STREAM_ITERS)
              for graph in GRAPHS for app in PAPER_APPS]
    return fill, stream


class Daemon:
    """One ``repro serve`` process, traced or not."""

    def __init__(self, ctx, name: str, traced: bool) -> None:
        from repro.serve import ServeClient, ServeUnavailable

        self.ctx = ctx
        self.cache_dir = ctx.tmp / f"{name}-cache"
        self.socket = ctx.tmp / f"{name}.sock"
        self.log = ctx.tmp / f"{name}.log"
        self.spans_file = ctx.tmp / f"{name}-spans.json"
        self.url = f"unix://{self.socket}"
        argv = ["serve", "--uds", str(self.socket), "--cache-dir",
                str(self.cache_dir), *DAEMON_FLAGS]
        if traced:
            argv = [sys.executable, "perfbench/serve_daemon.py",
                    str(self.spans_file), *argv]
        else:
            argv = [sys.executable, "-m", "repro", *argv]
        started = clock()
        self.process = ctx.spawn(argv, self.log)
        probe = ServeClient(self.url, timeout=5.0)
        while True:
            try:
                probe.health()
                break
            except ServeUnavailable:
                pass  # not listening yet
            if self.process.poll() is not None or clock() - started > 60:
                raise checks.CheckFailed(
                    f"daemon did not come up: {self.log.read_text()[-800:]}")
            threading.Event().wait(0.01)
        probe.close()
        self.ready_s = clock() - started

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient(self.url) as client:
            return client.stats()

    def stop(self) -> list[dict]:
        """Shut down gracefully; return the spans a traced daemon wrote."""
        from repro.serve import ServeClient

        with ServeClient(self.url) as client:
            client.shutdown()
        self.ctx.reap(self.process)
        require(not self.socket.exists(), "daemon left its socket behind")
        if self.spans_file.exists():
            return json.loads(self.spans_file.read_text())
        return []


def malformed(path: str, payload: bytes) -> bool:
    """Send one broken request; True if a 4xx status line comes back."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5.0)
        sock.connect(path)
        sock.sendall(payload)
        try:
            reply = sock.recv(64)
        except (ConnectionResetError, socket.timeout):
            return False
    parts = reply.split(b" ", 2)
    return (len(parts) > 1 and parts[0].startswith(b"HTTP/")
            and parts[1][:1] == b"4")


def timed_submits(client, specs, count, source, where, keep=False):
    """Submit ``count`` requests cycling over ``specs``; return their
    latencies, and the envelopes if ``keep``.  Each answer must be ok and
    come from ``source``; it is checked on arrival and then dropped, so
    the client's own heap does not grow with the loop."""
    latencies, kept = [], []
    for i in range(count):
        started = clock()
        envelope = client.submit(specs[i % len(specs)])
        latencies.append(clock() - started)
        require(envelope["status"] == "ok" and envelope["source"] == source,
                f"{where}: {envelope.get('label')} answered "
                f"{envelope['status']} from {envelope.get('source')}, "
                f"expected {source}")
        if keep:
            kept.append(envelope)
    return latencies, kept


def run(ctx, name: str) -> dict:
    from repro.harness.runner import WorkloadResult
    from repro.runtime import executor
    from repro.serve import ServeClient

    fill, stream = grid(ctx.seed)
    # The client and its daemons (which inherit this) share one CPU: each
    # request then hands over on that CPU instead of waking the other
    # one, whose wake-up latency on a shared virtual machine swings with
    # host load and would set the warm tail.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = []
    tracer = tracing.Tracer() if ctx.trace else None

    def run_round(traced: bool) -> dict:
        # A fresh daemon with an empty cache per round, so that every
        # round runs the same operations from the same state.
        target = Daemon(ctx, f"round{len(setup)}", traced)
        setup.append(target.ready_s)
        if traced:
            tracing.install(tracer)
        try:
            out = one_round(target)
        finally:
            if traced:
                tracer.uninstall()
        spans = target.stop()
        shutil.rmtree(target.cache_dir)
        if traced:
            out["spans"] = (tracer.take(), spans)
        return out

    def one_round(target: Daemon) -> dict:
        out = {}
        before = target.stats()
        a = ServeClient(target.url, client_id="reader")
        b = ServeClient(target.url, client_id="streamer")
        try:
            start = clock()
            out["cold"], filled = timed_submits(a, fill, len(fill),
                                                "simulated", "cold fill",
                                                keep=True)
            fill_s = clock() - start
            after_fill = target.stats()
            start = clock()
            out["warm"], _ = timed_submits(a, fill, WARM_REQUESTS, "cache",
                                           "warm loop")
            warm_s = clock() - start
            out["warm_window"] = (start, start + warm_s)
            after_warm = target.stats()
            require(after_warm["simulated"] == after_fill["simulated"],
                    "the daemon simulated during the warm loop")
            streamed = {}

            def streamer():
                streamed["result"] = timed_submits(
                    b, stream, len(stream), "simulated", "mixed stream")

            thread = threading.Thread(target=streamer)
            start = clock()
            thread.start()
            out["mixed"], _ = timed_submits(a, fill, MIXED_REQUESTS,
                                            "cache", "mixed reads")
            thread.join()
            mixed_s = clock() - start
            require("result" in streamed, "the cold stream did not finish")
            start = clock()
            failures = sum(not malformed(str(target.socket), payload)
                           for payload in MALFORMED)
            bad_s = clock() - start
        finally:
            a.close()
            b.close()
        after = target.stats()
        out["wall_s"] = fill_s + warm_s + mixed_s + bad_s
        out["warm_rps"] = WARM_REQUESTS / warm_s
        out["failed"] = failures
        out["stats"] = {key: after[key] - before[key] for key in STAT_KEYS}
        out["filled"] = [WorkloadResult.from_dict(e["result"])
                         for e in filled]
        return out

    untraced, traced = rounds(ctx.seconds, run_round, ctx.trace)

    # Served results equal in-process ones: one fill spec per round, and
    # every fill spec in a traced run (whose times give cold overhead).
    local_ms = []
    for index, result in enumerate(untraced + traced):
        sample = (range(len(fill)) if ctx.trace
                  else [(ctx.seed + index) % len(fill)])
        for position in sample:
            spec = fill[position]
            started = clock()
            local = executor.execute_spec(spec)
            local_ms.append(1e3 * (clock() - started))
            checks.check_equal(local, result["filled"][position],
                               f"served {spec.label}")

    per_round = (len(fill) + WARM_REQUESTS + len(stream) + MIXED_REQUESTS
                 + len(MALFORMED))
    attempted = per_round * len(untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    if not ctx.trace:
        return {"attempted": attempted, "failed": failed,
                "metrics": {"setup_s": median(setup), **latencies(untraced)}}
    return {"attempted": attempted, "failed": failed,
            "metrics": _per_layer(traced, untraced, median(local_ms))}


def _per_layer(traced, untraced, local_ms) -> dict:
    per_round = []
    for result in traced:
        client_batches, daemon_rows = result["spans"]
        layers = tracing.layer_metrics([client_batches, [daemon_rows]], 1)
        spec_s = layers.pop("spec_s")
        start, end = result["warm_window"]
        warm_rows = [row for row in daemon_rows
                     if start <= row["start"] <= end]
        warm = tracing.layer_metrics([[warm_rows]], 1)
        hits = warm["runtime.cache_hits"] or 1
        per_hit_ms = 1e3 * (warm["runtime.cache_get_s"]
                            + warm["spec_s"]) / hits
        layers.update({
            "serve.digest_s": spec_s / result["stats"]["requests"],
            "serve.cold_overhead_ms": 1e3 * median(result["cold"])
            - local_ms,
            "serve.warm_residual_ms": 1e3 * median(result["warm"])
            - per_hit_ms,
            **{f"serve.{key}": value
               for key, value in result["stats"].items()},
        })
        layers.update(checks.simulated_counts(result["filled"]))
        per_round.append(layers)
    merged = merge_rounds(per_round)
    merged["trace.overhead_s"] = (
        median([r["wall_s"] for r in traced])
        - median([r["wall_s"] for r in untraced]))
    return merged
