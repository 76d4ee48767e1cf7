"""Algorithm 1's wave accounting inside the vector all-sources BFS.

The vector engine derives every wave-token count from the BFS's own
frontier products: per-hop send counts, girth candidates and the row
drop of finished sources.  The hypothesis suite in
``test_cross_backend.py`` draws only ER and diameter-promise graphs, so
this module pins the shapes it never draws — deep paths, even cycles,
odd cycles (whose closing same-hop edge sits in every source's last
layer, lost if a BFS row is dropped before that layer's product),
stars, grids, tori and trees — against the object engine, with and
without the small-n per-edge sweep and with the BFS forced into many
row blocks.  It also pins the full-scale n=512 counters committed in
``benchmarks/results/BENCH_2026-08-08_vector.json``.
"""

import json
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro import core, protocols, vector  # noqa: E402
from repro.bench.workloads import LARGE_WORKLOADS  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402
from repro.vector import _engine  # noqa: E402

from .test_cross_backend import _both, _canonical  # noqa: E402

SHAPES = [
    "path:1", "path:2", "path:5", "path:7", "path:8", "path:40",
    "cycle:3", "cycle:5", "cycle:7", "cycle:8", "cycle:40", "cycle:41",
    "star:9", "grid:4x6", "torus:5x7", "tree:30:seed=3",
]

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "BENCH_2026-08-08_vector.json"
)


@pytest.fixture(params=["sweep", "no-sweep", "blocked"])
def engine_mode(request, monkeypatch):
    """Run the vector engine three ways.

    ``sweep``: defaults — small inputs also run the per-edge Lemma 1
    sweep, which cross-checks the send-count total.  ``no-sweep``: the
    large-n path, histogram from the BFS alone.  ``blocked``: the BFS
    and sweep split into blocks of a few rows each.
    """
    if request.param == "no-sweep":
        monkeypatch.setattr(_engine, "_LEMMA1_CHECK_LIMIT", 0)
    elif request.param == "blocked":
        monkeypatch.setattr(_engine, "_CHUNK_ENTRIES", 96)
    return request.param


@pytest.mark.parametrize("spec", SHAPES)
@pytest.mark.parametrize("girth", [False, True])
def test_apsp_matches_object(spec, girth, engine_mode):
    _both("apsp", parse_graph(spec), {"collect_girth": girth})


@pytest.mark.parametrize("spec", SHAPES)
@pytest.mark.parametrize("girth", [False, True])
def test_properties_match_object(spec, girth, engine_mode):
    _both("properties", parse_graph(spec), {"include_girth": girth})


@pytest.mark.parametrize("spec", ["path:8", "cycle:7", "torus:5x7"])
def test_edge_audit_matches_object(spec, engine_mode):
    graph = parse_graph(spec)
    obj = core.run_apsp(graph, track_edges=True)
    vec = vector.run_apsp(graph, track_edges=True)
    assert vec.metrics.to_dict() == obj.metrics.to_dict()
    assert _canonical(vec.results) == _canonical(obj.results)


@pytest.mark.parametrize("spec", ["cycle:7", "cycle:8", "grid:4x6",
                                  "tree:30:seed=3"])
def test_send_counts_match_per_edge_definition(spec):
    # sent[v, d] = Σ_{x ∈ L_d(v)} |{y ~ x : D[v, y] ≥ D[v, x]}|.
    csr = _engine._Csr(parse_graph(spec))
    distances, sent, _ = _engine._all_pairs_distances(csr, False)
    d_src = distances[:, csr.src]
    crosses = distances[:, csr.dst] >= d_src
    expected = np.zeros_like(sent)
    for v in range(csr.n):
        np.add.at(expected[v], d_src[v][crosses[v]], 1)
    assert np.array_equal(sent, expected)
    assert sent.shape[1] == int(distances.max()) + 1


def test_full_scale_counters_pinned():
    workload = LARGE_WORKLOADS["bench_apsp_n512"]
    pinned = json.loads(BASELINE.read_text())["workloads"][workload.name]
    assert pinned["graph"] == workload.graph
    metrics = protocols.run(
        "apsp", parse_graph(workload.graph), {"backend": "vector"},
        seed=workload.seed,
    ).metrics
    assert (metrics.rounds, metrics.messages_total, metrics.bits_total) == (
        pinned["rounds"], pinned["messages"], pinned["bits"]
    )
