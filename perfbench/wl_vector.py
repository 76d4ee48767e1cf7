"""Workload ``vector_n2048``: APSP and S-SP on the numpy round engine.

One seeded Erdős–Rényi graph (n = 2048, mean degree about 10) gets
repeated ``protocols.run("apsp", backend="vector")`` and
``protocols.run("ssp", backend="vector")`` calls with 32 seeded
sources.  Nearly all the work is in ``repro.vector`` and the result
building in ``repro.protocols``; ``congest``, ``core``, ``harness`` and
``serve`` are bypassed.  APSP uses the closed-form pebble schedule while
S-SP steps its waves round by round, so a change to the shared round
schedule that helps one and costs the other shows on this workload.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
import tracemalloc

import reference
from common import median

N = 2048
MEAN_DEGREE = 10
NUM_SOURCES = 32
#: APSP rows checked against the reference BFS per run.
SAMPLED_ROWS = 64
#: S-SP takes about a quarter of APSP's time; two per APSP give its
#: median as many samples as a shared host's noise needs.
SSP_PER_APSP = 2


def make_edges(seed: int):
    """Seeded connected graph: a random spanning tree plus random pairs."""
    rng = random.Random(f"vector-{seed}")
    order = list(range(1, N + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, N):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = N * MEAN_DEGREE // 2
    while len(edges) < target:
        u, v = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    sources = sorted(rng.sample(range(1, N + 1), NUM_SOURCES))
    return sorted(edges), sources


class State:
    def __init__(self, seed: int, tracer) -> None:
        from repro import graphs, protocols
        import numpy  # noqa: F401  (the engine's dependency; part of set-up)

        self.protocols = protocols
        self.edges, self.sources = make_edges(seed)
        if tracer is not None:
            with tracer.span("graphs.Graph"):
                self.graph = graphs.Graph(range(1, N + 1), self.edges)
        else:
            self.graph = graphs.Graph(range(1, N + 1), self.edges)
        self.rss_root = None

    def close(self) -> None:
        pass


def setup(args, tracer):
    return State(args.seed, tracer)


def _counters(metrics):
    return (metrics.rounds, metrics.messages_total, metrics.bits_total)


def measure(state: State, args, tracer):
    protocols = state.protocols
    graph = state.graph
    if tracer is not None:
        import repro.vector
        import repro.vector._engine as engine

        repro.vector.run_apsp = tracer.wrap(
            "vector.run_apsp", repro.vector.run_apsp)
        repro.vector.run_ssp = tracer.wrap(
            "vector.run_ssp", repro.vector.run_ssp)
        # The simulation proper, without the per-node result dicts that
        # run_apsp builds after it; absent in a tree that renamed it.
        has_engine = hasattr(engine, "_apsp_run")
        if has_engine:
            engine._apsp_run = tracer.wrap("vector._apsp_run",
                                           engine._apsp_run)

    def timed(name, *call_args, **kwargs):
        if tracer is None:
            t0 = time.perf_counter()
            out = protocols.run(*call_args, **kwargs)
            return out, time.perf_counter() - t0
        with tracer.span(f"protocols.run.{name}") as span:
            out = protocols.run(*call_args, **kwargs)
        return out, span.duration

    rng = random.Random(f"rows-{args.seed}")
    sampled = sorted(rng.sample(range(1, N + 1), SAMPLED_ROWS))
    apsp_s, ssp_s = [], []
    apsp_counters, ssp_counters = set(), set()
    apsp_results, ssp_rows = set(), []
    apsp_rows = None
    entries = 0
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while not apsp_s or time.perf_counter() < deadline:
        attempted += 1
        outcome, seconds = timed("apsp", "apsp", graph, backend="vector")
        apsp_s.append(seconds)
        apsp_counters.add(_counters(outcome.metrics))
        apsp_results.add(tuple(sorted(outcome.result.items())))
        results = outcome.summary.results
        if apsp_rows is None:
            apsp_rows = {s: dict(results[s].distances) for s in sampled}
            entries = sum(len(r.distances) + len(r.parents)
                          for r in results.values())
        del outcome, results
        for _ in range(SSP_PER_APSP):
            attempted += 1
            outcome, seconds = timed(
                "ssp", "ssp", graph, {"sources": state.sources},
                backend="vector")
            ssp_s.append(seconds)
            ssp_counters.add(_counters(outcome.metrics))
            ssp_rows.append({
                v: dict(r.distances)
                for v, r in outcome.summary.results.items()
            })
            del outcome
    if tracer is not None:
        repro.vector.run_apsp = repro.vector.run_apsp.__wrapped__
        repro.vector.run_ssp = repro.vector.run_ssp.__wrapped__
        if has_engine:
            engine._apsp_run = engine._apsp_run.__wrapped__

    # -- correctness -----------------------------------------------------
    adj = reference.adjacency(range(1, N + 1), state.edges)
    ecc = reference.eccentricities(adj)
    want_apsp = (("diameter", max(ecc.values())),
                 ("radius", min(ecc.values())))
    bad = 0
    for s in sampled:
        ref = reference.bfs(adj, [s])
        row = apsp_rows[s]
        if row.get(s, 0) != 0 or any(row.get(v) != d for v, d in ref.items()
                                      if v != s):
            bad += 1
    if apsp_results != {want_apsp}:
        bad += 1
    ssp_ref = {s: reference.bfs(adj, [s]) for s in state.sources}
    for rows in ssp_rows:
        if any(rows[v].get(s) != ssp_ref[s][v]
               for s in state.sources for v in adj):
            bad += 1
    # Each repeated run must reproduce the paper's cost counters exactly.
    if len(apsp_counters) != 1 or len(ssp_counters) != 1:
        bad += 1
    failed = min(attempted, bad)
    a_rounds, a_msgs, a_bits = min(apsp_counters)
    s_rounds, s_msgs, s_bits = min(ssp_counters)

    e2e = {
        "heavy_s": median(apsp_s),
        "light_ms": 1000.0 * median(ssp_s),
    }
    info = {
        "apsp_s": (median(apsp_s), "s", len(apsp_s)),
        "ssp_s": (median(ssp_s), "s", len(ssp_s)),
    }
    layer = {
        "sim.rounds": a_rounds + s_rounds,
        "sim.messages": a_msgs + s_msgs,
        "sim.bits": a_bits + s_bits,
        "protocols.result_entries": entries,
    }
    if tracer is not None:
        vec_apsp = median(tracer.durations("vector.run_apsp"))
        engine_s = median(tracer.durations("vector._apsp_run") or [0.0])
        vec_ssp = median(tracer.durations("vector.run_ssp"))
        build = tracer.durations("graphs.Graph")
        layer.update({
            "graphs.build_s": build[0],
            "vector.apsp_s": vec_apsp,
            "vector.apsp_engine_s": engine_s,
            "vector.apsp_result_build_s": vec_apsp - engine_s if engine_s else 0.0,
            "vector.ssp_s": vec_ssp,
            "vector.apsp_ns_per_message": 1e9 * vec_apsp / a_msgs,
            "vector.ssp_ns_per_message": 1e9 * vec_ssp / s_msgs,
            "protocols.apsp_overhead_s": median([
                outer - inner for outer, inner in zip(
                    tracer.durations("protocols.run.apsp"),
                    tracer.durations("vector.run_apsp"))
            ]),
            "vector.apsp_alloc_peak_mb": _alloc_peak_mb(protocols, graph),
            "cli.import_s": cli_import_s(),
        })
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "info": info, "layer": layer}


def _alloc_peak_mb(protocols, graph) -> float:
    """Peak traced allocation of one APSP run (tracemalloc; untimed)."""
    tracemalloc.start()
    try:
        outcome = protocols.run("apsp", graph, backend="vector")
        del outcome
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


def cli_import_s(repeats: int = 3) -> float:
    """Median wall time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return median(samples)
