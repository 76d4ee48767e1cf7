"""Workload ``campaign_object``: a cold campaign, then its cache replay.

132 small tasks (``apsp``/``properties`` on a seeded ER family and
``torus:4x{n}``, even n = 12..32, three simulator seeds) plus 6 large
ones (``apsp``/``properties`` at n = 128..144, ``ssp`` with 16 sources
at n = 192) run with ``jobs=2`` on the object backend into a fresh run
cache.  Two cold passes alternate with replays of the identical
campaign from the newest cache, so the replays fall in two stretches of
the run.  The cold pass is mostly ``congest`` + ``core`` with per-task
pool and cache-write overhead in ``harness``; the replay is all
``harness`` cache reads and store writes.  ER (small diameter) and the
torus (large diameter) give the many-messages-few-rounds and
few-messages-many-rounds cases.

A replay repeats exactly the same work, so its time moves only with how
busy the host is.  Busy phases of the host last seconds and slow a
replay by up to 1.6x, which makes the per-run median and minimum jump
between two levels; the mean pass time over the run moves least, and is
reported.
"""

from __future__ import annotations

import json
import os
import random
import time
from statistics import mean

import reference
from common import median

JOBS = 2


def specs(seed: int):
    """The campaign's three sweeps, with graph seeds drawn from ``seed``."""
    rng = random.Random(f"campaign-{seed}")
    g1, g2, g3 = (rng.randrange(1, 10**6) for _ in range(3))
    sim_seeds = [3 * seed, 3 * seed + 1, 3 * seed + 2]
    return [
        {"name": "small",
         "graphs": [f"er:{{n}}:p=0.25:seed={g1}", "torus:4x{n}"],
         "sizes": list(range(12, 33, 2)), "seeds": sim_seeds,
         "algorithms": ["apsp", "properties"]},
        {"name": "large",
         "graphs": [f"er:128:p=0.08:seed={g2}", "torus:12x12"],
         "seeds": [seed], "algorithms": ["apsp", "properties"]},
        {"name": "ssp",
         "graphs": [f"er:192:p=0.05:seed={g3}", "torus:12x16"],
         "seeds": [seed], "algorithms": ["ssp"],
         "params": {"num_sources": 16}},
    ]


class State:
    def __init__(self, args, tracer) -> None:
        from repro import harness

        self.harness = harness
        self.tmp = args.tmp
        t0 = time.perf_counter()
        self.tasks = [task for spec in specs(args.seed)
                      for task in harness.CampaignSpec.from_dict(spec).expand()]
        self.expand_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.record("harness.expand", t0, t0 + self.expand_s)
        self.rss_root = None

    def close(self) -> None:
        pass


def setup(args, tracer):
    return State(args, tracer)


def _canon(record) -> str:
    return json.dumps(record, sort_keys=True)


def _expected(task, adj):
    if task.algorithm == "apsp":
        ecc = reference.eccentricities(adj)
        return {"diameter": max(ecc.values()), "radius": min(ecc.values())}
    if task.algorithm == "properties":
        return reference.properties(adj)
    sources = sorted(adj)[: task.param_dict()["num_sources"]]
    return {"sources": sources,
            "max_distance": max(max(reference.bfs(adj, [s]).values())
                                for s in sources)}


def measure(state: State, args, tracer):
    harness = state.harness
    tasks = state.tasks

    def run(label, cache_dir):
        store = harness.ResultStore(os.path.join(state.tmp, f"{label}.jsonl"))
        store.truncate()
        t0 = time.perf_counter()
        summary = harness.run_tasks(tasks, jobs=JOBS, cache_dir=cache_dir,
                                    store=store, name=label)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.record(f"harness.run_tasks.{label}", t0, t1)
        return summary, t1 - t0

    def mismatches(summary) -> int:
        """Records that differ from the first cold pass's, byte for byte."""
        return sum(a != _canon(harness.strip_timing(r))
                   for a, r in zip(cold_canon, summary.records))

    # Two cold passes into fresh caches, each followed by replays of its
    # cache: the first block of replays gets half the time the cold
    # passes leave, the second block the rest of the run.
    start = time.perf_counter()
    cold_s, cold_canon, cold = [], None, None
    replay_s, hit_ratios = [], []
    bad_replays = 0
    for block in range(2):
        cache_dir = os.path.join(state.tmp, f"run-cache-{block}")
        summary, seconds = run("cold", cache_dir)
        cold_s.append(seconds)
        if cold is None:
            cold = summary
            cold_canon = [_canon(harness.strip_timing(r))
                          for r in cold.records]
        else:
            bad_replays += mismatches(summary)
        del summary
        if block == 0:
            until = time.perf_counter() + (args.seconds - 2 * seconds) / 2
        else:
            until = start + args.seconds
        while True:
            summary, seconds = run("replay", cache_dir)
            replay_s.append(seconds)
            hit_ratios.append(summary.hit_rate)
            bad_replays += (len(tasks) - summary.cache_hits
                            + mismatches(summary))
            del summary
            if time.perf_counter() >= until:
                break
    campaign_s = median(cold_s)

    # -- correctness -----------------------------------------------------
    from repro.graphs.specs import parse_graph

    graphs = {}
    bad_tasks = 0
    totals = [0, 0, 0]
    for task, record in zip(tasks, cold.records):
        if "error" in record:
            bad_tasks += 1
            continue
        if task.graph not in graphs:
            g = parse_graph(task.graph)
            graphs[task.graph] = reference.adjacency(g.nodes, g.edges)
        if record["result"] != _expected(task, graphs[task.graph]):
            bad_tasks += 1
        m = record["metrics"]
        totals[0] += m["rounds"]
        totals[1] += m["messages_total"]
        totals[2] += m["bits_total"]
    attempted = len(tasks) * (len(cold_s) + len(replay_s))

    e2e = {
        "heavy_s": campaign_s,
        "light_ms": 1000.0 * mean(replay_s),
    }
    info = {
        "campaign_s": (campaign_s, "s", len(cold_s)),
        "replay_s": (mean(replay_s), "s", len(replay_s)),
        "replay_median_s": (median(replay_s), "s", len(replay_s)),
        "replay_fastest_s": (min(replay_s), "s", len(replay_s)),
    }
    task_sum = sum(r["timing"]["elapsed_s"] for r in cold.records)
    first_s = cold_s[0]
    files = [os.path.join(root, name)
             for root, _, names in os.walk(cache_dir) for name in names]
    layer = {
        "sim.rounds": totals[0],
        "sim.messages": totals[1],
        "sim.bits": totals[2],
        "harness.task_s_sum": task_sum,
        "harness.overhead_s": first_s - task_sum / JOBS,
        "harness.parallel_efficiency": task_sum / (JOBS * first_s),
        "harness.replay_ms_per_record": 1000.0 * mean(replay_s) / len(tasks),
        "harness.cache_hit_ratio": min(hit_ratios),
        "harness.cache_records": len(files),
        "harness.cache_bytes": sum(os.path.getsize(f) for f in files),
        "harness.failures": cold.failures,
        "harness.retries": cold.retried,
    }
    mismatched = 0
    if tracer is not None:
        layer["harness.expand_s"] = state.expand_s
        core_layer, mismatched = _serial_core_pass(tasks, cold.records,
                                                   tracer)
        layer.update(core_layer)
    failed = min(attempted, bad_tasks + bad_replays + mismatched)
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "info": info, "layer": layer}


#: protocol name → the ``repro.core`` entry point it dispatches to.
CORE_ENTRY = {"apsp": "run_apsp", "properties": "run_graph_properties",
              "ssp": "run_ssp"}


def _serial_core_pass(tasks, records, tracer):
    """Every task again, serially in-process, with the core call timed.

    The object engine's time per protocol splits the campaign's compute
    from the harness's pool and cache overhead; the counters must equal
    the campaign's records exactly.
    """
    import repro.core
    from repro import protocols
    from repro.graphs.specs import parse_graph

    originals = {name: getattr(repro.core, name) for name in CORE_ENTRY.values()}
    for name in originals:
        setattr(repro.core, name, tracer.wrap(f"core.{name}", originals[name]))
    messages = 0
    mismatched = 0
    try:
        for task, record in zip(tasks, records):
            with tracer.span("graphs.parse_graph"):
                graph = parse_graph(task.graph)
            with tracer.span(f"protocols.run.{task.algorithm}"):
                outcome = protocols.run(task.algorithm, graph,
                                        task.param_dict())
            messages += outcome.metrics.messages_total
            if outcome.metrics.to_dict() != record.get("metrics"):
                mismatched += 1
    finally:
        for name, func in originals.items():
            setattr(repro.core, name, func)
    core_s = {alg: sum(tracer.durations(f"core.{entry}"))
              for alg, entry in CORE_ENTRY.items()}
    return {
        "core.apsp_s": core_s["apsp"],
        "core.properties_s": core_s["properties"],
        "core.ssp_s": core_s["ssp"],
        "congest.us_per_message": 1e6 * sum(core_s.values()) / messages,
    }, mismatched
