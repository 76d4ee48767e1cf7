"""Tests for the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import common
import reference
import run
from httpload import Connection, poisson_schedule

ROOT = Path(__file__).resolve().parents[2]
BENCH = Path(__file__).resolve().parents[1]


# -- tail percentiles ---------------------------------------------------------


@pytest.mark.parametrize("count, fraction", [
    (100, 0.9),        # ~100 cold queries: p90 has exactly 10 beyond
    (10000, 0.999),
    (1000, 0.99),
    (99, 0.75),        # p90 would leave only 9 beyond
    (20, 0.5),
    (19, None),
])
def test_tail_fraction(count, fraction):
    assert common.tail_fraction(count) == fraction


def test_tail_leaves_ten_samples_beyond():
    rng = random.Random(7)
    for count in range(20, 400, 13):
        values = [rng.random() for _ in range(count)]
        fraction = common.tail_fraction(count)
        tail = common.nearest_rank(values, fraction)
        assert sum(v > tail for v in values) >= 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert common.nearest_rank(values, 0.5) == 50
    assert common.nearest_rank(values, 0.9) == 90
    assert common.nearest_rank(values, 0.99) == 99
    assert common.nearest_rank([5.0], 0.99) == 5.0


# -- spans and self time ------------------------------------------------------


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4];
    # a grandchild [1.5, 2] is the first child's business only.
    tracer = common.Tracer(clock=FakeClock(0, 1, 1.5, 2, 4, 10))
    parent = tracer.begin("protocols.run")
    child = tracer.begin("vector.run_apsp")
    grandchild = tracer.begin("vector._apsp_run")
    tracer.end(grandchild)
    tracer.end(child)
    tracer.record("vector.run_ssp", 3, 6)
    tracer.end(parent)
    selfs = common.self_times(tracer.spans)
    assert selfs[parent.sid] == pytest.approx(10 - 5)
    assert selfs[child.sid] == pytest.approx(3 - 0.5)
    assert selfs[grandchild.sid] == pytest.approx(0.5)
    layers = common.layer_self_times(tracer.spans)
    assert layers["protocols"] == pytest.approx(5)
    assert layers["vector"] == pytest.approx(2.5 + 0.5 + 3)
    assert layers["harness"] == 0.0


def test_covered_clips_to_parent():
    assert common.covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4)
    assert common.covered([], 0, 10) == 0.0


def test_layer_of_prefers_longest_prefix():
    assert common.layer_of("serve.cache.store_rows") == "serve.cache"
    assert common.layer_of("graphs.parse_graph") == "graphs"
    assert common.layer_of("loadgen.request") is None


def test_wrap_records_and_unwraps():
    tracer = common.Tracer()

    def add(a, b):
        return a + b

    traced = tracer.wrap("core.add", add)
    assert traced(2, 3) == 5
    assert traced.__wrapped__ is add
    assert len(tracer.durations("core.add")) == 1


# -- the reference BFS --------------------------------------------------------


def _adj(n, edges):
    return reference.adjacency(range(1, n + 1), edges)


def test_path_graph():
    adj = _adj(4, [(1, 2), (2, 3), (3, 4)])
    assert reference.bfs(adj, [1]) == {1: 0, 2: 1, 3: 2, 4: 3}
    assert reference.bfs(adj, [1, 4]) == {1: 0, 2: 1, 3: 1, 4: 0}
    assert reference.eccentricities(adj) == {1: 3, 2: 2, 3: 2, 4: 3}
    props = reference.properties(adj)
    assert props == {"diameter": 3, "radius": 2, "center": [2, 3],
                     "peripheral": [1, 4], "girth": math.inf}


def test_cycle_and_clique():
    c5 = _adj(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert reference.eccentricities(c5) == {v: 2 for v in range(1, 6)}
    assert reference.girth(c5) == 5
    k4 = _adj(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert reference.properties(k4)["diameter"] == 1
    assert reference.girth(k4) == 3


def test_star_and_square_with_tail():
    star = _adj(5, [(1, v) for v in range(2, 6)])
    assert reference.properties(star)["center"] == [1]
    assert reference.properties(star)["radius"] == 1
    # A 4-cycle 1-2-3-4 with a pendant 5 on node 3.
    g = _adj(5, [(1, 2), (2, 3), (3, 4), (4, 1), (3, 5)])
    assert reference.girth(g) == 4
    assert reference.eccentricities(g) == {1: 3, 2: 2, 3: 2, 4: 2, 5: 3}


def test_disconnected_graph_is_rejected():
    with pytest.raises(ValueError):
        reference.eccentricities(_adj(4, [(1, 2), (3, 4)]))


def test_eccentricities_match_plain_bfs_on_random_graphs():
    rng = random.Random(3)
    for n in (2, 9, 40):
        edges = {(i, rng.randrange(1, i) or 1) for i in range(2, n + 1)}
        edges |= {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if rng.random() < 0.1}
        adj = _adj(n, edges)
        want = {v: max(reference.bfs(adj, [v]).values()) for v in adj}
        assert reference.eccentricities(adj) == want


# -- metric names and BENCHMARK.json ------------------------------------------


#: Metric names the benchmark contract accepts: a letter or digit, then
#: at most 63 more of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid():
    names = list(run.E2E) + list(run.LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    for bad in ("bad name", ".hidden", "x" * 65, "a/b"):
        assert not METRIC_NAME.match(bad)


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.MEANING)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- load generation ----------------------------------------------------------


def test_poisson_schedule_has_fixed_count():
    rng = random.Random(1)
    times = poisson_schedule(5.0, 20.0, rng)
    assert len(times) == 100
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 20.0


def test_connection_keeps_alive():
    async def handle(reader, writer):
        while True:
            try:
                await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                break
            body = b'{"ok": true}'
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conn = await Connection("127.0.0.1", port).open()
        try:
            replies = [await conn.get("/x") for _ in range(3)]
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(main(), 10))
    assert replies == [(200, b'{"ok": true}')] * 3


# -- the command --------------------------------------------------------------


def test_run_fails_without_source_tree(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
