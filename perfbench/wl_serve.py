"""Workload ``serve_mixed``: warm and cold distance queries over HTTP.

``python -m repro serve --port 0`` runs as a subprocess with a fresh
``--cache-dir`` and four seeded ``er:128`` families passed as
``--warm``; every other flag keeps its CLI default (object backend, two
workers, 5 ms tick).  The generator is one asyncio process with exactly
two keep-alive connections, both open-loop with Poisson arrivals:

* 500 req/s of warm ``/distance`` queries, uniform over the warm
  families and node pairs (memory-tier hits: HTTP parsing, lookup and
  encoding);
* 5 req/s of cold ``/distance`` queries, each on a fresh ``er:128``
  family with a new graph seed, which forces parse, cache miss, batch,
  pool IPC, a one-source S-SP run and a disk write.

A closed-loop warm-only phase on both connections follows and gives the
throughput, as the median over short segments.  Once the server is
ready, the generator and the server's event loop are pinned to one CPU
and the compute workers to the others (see :func:`pin_cpus`).  Splitting the traffic keeps a cold compute from stalling
warm queries on the client side; with two connections a batch holds at
most two sources, so the batcher is only lightly exercised.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

import reference
from common import median, nearest_rank, tail_fraction, tree_pids
from httpload import Connection, closed_loop, open_loop, poisson_schedule

N = 128
P = 0.08
WARM_FAMILIES = 4
WARM_RATE = 500.0
COLD_RATE = 5.0
#: The closed-loop phase: its throughput is the median over segments,
#: so a transient stall on the shared cores moves one segment only.
CLOSED_SEGMENTS = 9
CLOSED_SEGMENT_S = 0.5
READY = re.compile(r"ready on http://([0-9.]+):(\d+)")


def family_spec(graph_seed: int) -> str:
    return f"er:{N}:p={P}:seed={graph_seed}"


class State:
    """A running server with the warm families precomputed."""

    def __init__(self, args, tracer) -> None:
        rng = random.Random(f"serve-{args.seed}")
        self.rng = rng
        self.warm = [family_spec(rng.randrange(1, 10**6))
                     for _ in range(WARM_FAMILIES)]
        self.tmp = args.tmp
        cache_dir = os.path.join(args.tmp, f"serve-cache-{os.getpid()}")
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--cache-dir", cache_dir]
        for spec in self.warm:
            cmd += ["--warm", spec]
        self.log = open(os.path.join(args.tmp, f"serve-{os.getpid()}.log"),
                        "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.rss_root = self.proc.pid
        self.exit_code = None
        for line in self.proc.stdout:
            match = READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.close()
        raise RuntimeError("repro serve exited before it was ready")

    def close(self) -> None:
        """SIGTERM the server and wait for its drain; keep the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.exit_code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        else:
            self.exit_code = self.proc.returncode
        self.proc.stdout.close()
        self.log.close()


def setup(args, tracer):
    return State(args, tracer)


def pin_cpus(server_pid: int) -> None:
    """Pin the warm path to one CPU and the compute workers to the others.

    The generator and the server's event loop take turns on one core, so
    warm numbers do not depend on whether the host runs two virtual CPUs
    at the same moment.  Left alone, the scheduler put client and server
    on one core in some runs and on two in others, which halved or
    doubled the closed-loop throughput from run to run.  The compute
    workers keep the other cores to themselves.  With a single CPU
    nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, {cpus[0]})
    for pid in tree_pids(server_pid):
        target = {cpus[0]} if pid == server_pid else set(cpus[1:])
        # Affinity is per thread; threads started later inherit it.
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), target)
            except ProcessLookupError:
                pass


def _target(spec: str, source: int, target: int) -> str:
    return f"/distance?graph={spec}&source={source}&target={target}"


async def _drive(state: State, seconds: float):
    rng = state.rng
    warm_q = [(rng.choice(state.warm), rng.randint(1, N), rng.randint(1, N))
              for _ in range(int(WARM_RATE * seconds))]
    cold_q = [(family_spec(10**6 + rng.randrange(10**6)),
               rng.randint(1, N), rng.randint(1, N))
              for _ in range(int(COLD_RATE * seconds))]
    warm_at = poisson_schedule(WARM_RATE, seconds, rng)
    cold_at = poisson_schedule(COLD_RATE, seconds, rng)
    warm_conn = await Connection(state.host, state.port).open()
    cold_conn = await Connection(state.host, state.port).open()
    try:
        start = time.perf_counter() + 0.05
        warm, cold = await asyncio.gather(
            open_loop(warm_conn, start, warm_at,
                      lambda i: (warm_q[i], _target(*warm_q[i]))),
            open_loop(cold_conn, start, cold_at,
                      lambda i: (cold_q[i], _target(*cold_q[i]))),
        )

        def warm_of(i):
            q = (rng.choice(state.warm), rng.randint(1, N), rng.randint(1, N))
            return q, _target(*q)

        closed, rates = [], []
        for _ in range(CLOSED_SEGMENTS):
            t0 = time.perf_counter()
            loops = await asyncio.gather(
                closed_loop(warm_conn, t0 + CLOSED_SEGMENT_S, warm_of),
                closed_loop(cold_conn, t0 + CLOSED_SEGMENT_S, warm_of),
            )
            rates.append((len(loops[0]) + len(loops[1]))
                         / (time.perf_counter() - t0))
            closed += loops[0] + loops[1]
        _, stats_body = await warm_conn.get("/stats")
    finally:
        await warm_conn.close()
        await cold_conn.close()
    return warm, cold, closed, rates, json.loads(stats_body)


def _check(outcomes) -> int:
    """Wrong or failed answers among ``outcomes`` (after the run)."""
    from repro.graphs.specs import parse_graph

    adj_of, dist_of = {}, {}
    bad = 0
    for item in outcomes:
        if item.error is not None or item.status != 200:
            bad += 1
            continue
        spec, source, target = item.tag
        if (spec, source) not in dist_of:
            if spec not in adj_of:
                g = parse_graph(spec)
                adj_of[spec] = reference.adjacency(g.nodes, g.edges)
            dist_of[spec, source] = reference.bfs(adj_of[spec], [source])
        answer = json.loads(item.body)
        if answer.get("distance") != dist_of[spec, source][target]:
            bad += 1
    return bad


def tail(values, fraction: float) -> float:
    """The nearest-rank ``fraction`` percentile; warns when fewer than
    ten samples lie beyond it (a run shorter than the benchmark's)."""
    allowed = tail_fraction(len(values))
    if allowed is None or allowed < fraction:
        print(f"perfbench: only {len(values)} samples for a "
              f"p{100 * fraction:g} tail", file=sys.stderr)
    return nearest_rank(values, fraction)


def measure(state: State, args, tracer):
    pin_cpus(state.proc.pid)
    # A collector pause in the generator would read as server latency.
    gc.disable()
    try:
        warm, cold, closed, rates, stats = asyncio.run(
            _drive(state, args.seconds))
    finally:
        gc.enable()
    state.close()

    bad = _check(warm) + _check(cold) + _check(closed)
    if state.exit_code != 0:
        bad += 1
    attempted = len(warm) + len(cold) + len(closed)
    warm_ms = [1000.0 * o.latency for o in warm]
    cold_ms = [1000.0 * o.latency for o in cold]
    late_ms = [1000.0 * o.late for o in warm + cold]
    warm_p50 = median(warm_ms)
    e2e = {
        "heavy_s": median(cold_ms) / 1000.0,
        "light_ms": warm_p50,
    }
    info = {
        "warm_p50_ms": (warm_p50, "ms", len(warm_ms)),
        "warm_p99_ms": (tail(warm_ms, 0.99), "ms", len(warm_ms)),
        "cold_p50_ms": (median(cold_ms), "ms", len(cold_ms)),
        "cold_p90_ms": (tail(cold_ms, 0.90), "ms", len(cold_ms)),
        "warm_qps": (median(rates), "req/s", len(rates)),
        "late_p50_ms": (median(late_ms), "ms", len(late_ms)),
    }
    handler_p50 = stats["endpoints"]["/distance"]["p50_ms"]
    cache, batches = stats["cache"], stats["batches"]
    supervisor, admission = stats["supervisor"], stats["admission"]
    layer = {
        "sim.rounds": batches["rounds"],
        "serve.warm_qps": median(rates),
        "serve.warm_p99_ms": info["warm_p99_ms"][0],
        "serve.cold_p90_ms": info["cold_p90_ms"][0],
        "serve.server.handler_p50_ms": handler_p50,
        "serve.outside_handler_ms": warm_p50 - handler_p50,
        "serve.cache.hit_rate": cache["hit_rate"],
        "serve.cache.memory": cache["memory"],
        "serve.cache.disk": cache["disk"],
        "serve.cache.computed": cache["computed"],
        "serve.batch.count": batches["count"],
        "serve.batch.mean_size": batches["mean_size"],
        "serve.supervisor.respawns": supervisor["respawns"],
        "serve.supervisor.deadline_misses": supervisor["deadline_misses"],
        "serve.supervisor.failed": supervisor["failed"],
        "serve.admission.shed": admission["shed"],
        "loadgen.late_p99_ms": tail(late_ms, 0.99),
    }
    if tracer is not None:
        layer.update(asyncio.run(_probes(state, tracer)))
    return {"attempted": attempted, "failed": min(attempted, bad),
            "e2e": e2e, "info": info, "layer": layer}


# -- traced run: the server's layers called in-process -----------------------

PROBE_REPEATS = 2000
COLD_PROBES = 5


def _timed_us(tracer, name, func, repeats=PROBE_REPEATS):
    for _ in range(repeats):
        with tracer.span(name):
            func()
    return 1e6 * median(tracer.durations(name))


async def _probes(state: State, tracer):
    """Time each serve layer's public functions from outside.

    Warm path: request parsing, the memory-tier lookup and response
    encoding.  Cold path: graph parse, the in-thread row computation
    (with its cache write), a pool round trip through ``Supervisor.rows``
    and the batcher's coalescing window.
    """
    import repro.protocols
    from repro.serve.batch import SourceBatcher
    from repro.serve.server import encode_response, read_request
    from repro.serve.service import DistanceService
    from repro.serve.supervisor import Supervisor

    rng = random.Random(f"probe-{state.rng.random()}")
    raw = (f"GET {_target(state.warm[0], 3, 77)} HTTP/1.1\r\n"
           f"Host: {state.host}\r\n\r\n").encode()
    read_spans = []
    for _ in range(PROBE_REPEATS):
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        with tracer.span("serve.server.read_request") as span:
            await read_request(reader)
        read_spans.append(span.duration)
    payload = {"graph": state.warm[0], "protocol": "apsp", "source": 3,
               "target": 77, "distance": 2, "tier": "memory"}
    encode_us = _timed_us(
        tracer, "serve.server.encode_response",
        lambda: encode_response(200, payload, keep_alive=True))

    service = DistanceService(cache_dir=os.path.join(state.tmp, "probe-cache"))
    warm_family = service.family_for(state.warm[0])
    service.compute_rows(warm_family, list(range(1, 9)))
    lookup_us = _timed_us(
        tracer, "serve.service.lookup_row",
        lambda: service.lookup_row(warm_family, rng.randint(1, 8)))

    original_run = repro.protocols.run
    repro.protocols.run = tracer.wrap("protocols.run", original_run)
    service.cache.store_rows = tracer.wrap("serve.cache.store_rows",
                                           service.cache.store_rows)
    fresh = [family_spec(2 * 10**6 + rng.randrange(10**6))
             for _ in range(2 * COLD_PROBES)]
    try:
        for spec in fresh[:COLD_PROBES]:
            with tracer.span("graphs.parse_graph"):
                service.load_graph(spec)
            family = service.family_for(spec)
            with tracer.span("serve.service.compute_rows"):
                service.compute_rows(family, [rng.randint(1, N)])
    finally:
        repro.protocols.run = original_run
    parse_ms = 1000.0 * median(tracer.durations("graphs.parse_graph"))
    compute_ms = 1000.0 * median(tracer.durations("serve.service.compute_rows"))

    supervisor = Supervisor(service, workers=1)
    await supervisor.start()
    try:
        for spec in fresh[COLD_PROBES:]:
            family = service.family_for(spec)
            with tracer.span("serve.supervisor.rows"):
                await supervisor.rows(family, [rng.randint(1, N)])
    finally:
        await supervisor.drain()
        await supervisor.close()
    rows_ms = 1000.0 * median(tracer.durations("serve.supervisor.rows"))

    async def no_compute(family, sources):
        return None

    batcher = SourceBatcher(service, run_rows=no_compute)
    for i in range(50):
        with tracer.span("serve.batch.row"):
            await batcher.row(warm_family, 100 + i % 20)
    await batcher.drain()
    batcher.close()

    return {
        "serve.server.read_request_us": 1e6 * median(read_spans),
        "serve.service.lookup_us": lookup_us,
        "serve.server.encode_us": encode_us,
        "graphs.parse_fresh_ms": parse_ms,
        "serve.service.compute_rows_ms": compute_ms,
        "serve.supervisor.ipc_ms": rows_ms - (parse_ms + compute_ms),
        "serve.batch.window_ms":
            1000.0 * median(tracer.durations("serve.batch.row")),
        "serve.cache.store_ms":
            1000.0 * median(tracer.durations("serve.cache.store_rows")),
    }
