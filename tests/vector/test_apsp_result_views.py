"""The vector backend's APSP results are read-only views over one matrix.

Every node's ``ApspResult.distances`` / ``parents`` on the vector
backend is a :class:`Mapping` over the engine's shared distance matrix
rather than an n-entry dict.  These tests pin the contract those views
promise: the ``Mapping`` protocol, equality with the object backend's
dicts (in both directions), Remark 4 routing through ``next_hop``,
``dataclasses.asdict`` and ``pickle`` round trips, and the memory a
held outcome retains.
"""

import dataclasses
import gc
import pickle
import tracemalloc
from collections.abc import Mapping

import pytest

np = pytest.importorskip("numpy")

from repro import core, protocols, vector  # noqa: E402
from repro.graphs import Graph  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402

SPECS = [
    "path:1", "path:2", "path:7", "star:9", "cycle:8", "grid:3x4",
    "er:20:p=0.2:seed=5", "er:24:p=0.15:seed=2", "er:32:p=0.15:seed=1",
]

#: Node ids that are neither contiguous nor in insertion order.
SPARSE = Graph([30, 1, 9, 4, 17],
               [(1, 4), (4, 9), (9, 30), (30, 1), (4, 17), (17, 30)])


def _graphs():
    return [pytest.param(parse_graph(s), id=s) for s in SPECS] + [
        pytest.param(SPARSE, id="sparse-ids"),
    ]


@pytest.fixture(scope="module")
def sparse():
    return vector.run_apsp(SPARSE).results[4]


class TestMappingContract:
    def test_views_are_mappings(self, sparse):
        assert isinstance(sparse.distances, Mapping)
        assert isinstance(sparse.parents, Mapping)
        assert not isinstance(sparse.distances, dict)

    def test_len_and_ascending_iteration(self, sparse):
        for view in (sparse.distances, sparse.parents):
            assert len(view) == 5
            assert list(view) == [1, 4, 9, 17, 30]
            assert list(view.keys()) == [1, 4, 9, 17, 30]
            assert [k for k, _ in view.items()] == [1, 4, 9, 17, 30]

    def test_lookups(self, sparse):
        assert sparse.distances[4] == 0
        assert sparse.distances[30] == 2
        assert type(sparse.distances[30]) is int
        assert list(sparse.distances.values()) == [1, 0, 1, 1, 2]
        assert sparse.parents[4] is None
        assert sparse.parents[30] == 1   # min-id of 1 and 9 (and 17)
        assert sparse.parents[9] == 9

    def test_membership_and_get(self, sparse):
        for view in (sparse.distances, sparse.parents):
            assert 17 in view
            assert 2 not in view and "17" not in view
            assert view.get(2) is None
            assert view.get(2, -1) == -1
        assert sparse.distances.get(17) == 1

    @pytest.mark.parametrize("key", [0, 2, 31, -1, "4"])
    def test_unknown_ids_raise_key_error(self, sparse, key):
        with pytest.raises(KeyError):
            sparse.distances[key]
        with pytest.raises(KeyError):
            sparse.parents[key]

    def test_read_only(self, sparse):
        with pytest.raises(TypeError):
            sparse.distances[4] = 1
        with pytest.raises(TypeError):
            sparse.parents[4] = 1
        assert sparse.distances.max_value() == 2
        assert sparse.eccentricity == 2

    def test_repr_reads_like_the_dict(self, sparse):
        assert repr(sparse.distances) == repr(dict(sparse.distances))


@pytest.mark.parametrize("graph", _graphs())
class TestMatchesObjectBackend:
    def test_rows_equal_object_dicts(self, graph):
        obj = core.run_apsp(graph).results
        vec = vector.run_apsp(graph).results
        assert list(vec) == list(obj)
        for uid in graph.nodes:
            o, v = obj[uid], vec[uid]
            assert v.distances == o.distances
            assert o.distances == v.distances
            assert v.parents == o.parents
            assert o.parents == v.parents
            # The object engine's dicts are in discovery order; the
            # views iterate ids ascending.
            assert list(v.distances.items()) == \
                sorted(o.distances.items())
            assert list(v.parents.items()) == sorted(o.parents.items())
            assert v.eccentricity == o.eccentricity
            assert v == o

    def test_next_hop_for_every_pair(self, graph):
        obj = core.run_apsp(graph).results
        vec = vector.run_apsp(graph).results
        for uid in graph.nodes:
            for target in graph.nodes:
                assert vec[uid].next_hop(target) == \
                    obj[uid].next_hop(target), (uid, target)
            assert vec[uid].next_hop(max(graph.nodes) + 1) is None


class TestRoundTrips:
    def test_asdict_yields_plain_dicts(self):
        graph = parse_graph("er:24:p=0.15:seed=2")
        vec = vector.run_apsp(graph, collect_girth=True).results
        obj = core.run_apsp(graph, collect_girth=True).results
        for uid in graph.nodes:
            record = dataclasses.asdict(vec[uid])
            assert type(record["distances"]) is dict
            assert type(record["parents"]) is dict
            assert list(record["distances"]) == sorted(graph.nodes)
            assert record == dataclasses.asdict(obj[uid])

    def test_pickle_round_trip(self):
        graph = parse_graph("er:20:p=0.2:seed=5")
        summary = vector.run_apsp(graph)
        summary.results[3].parents[5]   # memoized rows are rebuilt on load
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.results == summary.results
        assert clone.results == core.run_apsp(graph).results
        assert clone.metrics.to_dict() == summary.metrics.to_dict()
        # One matrix per pickle, shared again by every unpickled row.
        assert clone.results[1].distances._matrix is \
            clone.results[20].parents._matrix

    def test_single_row_pickles(self, sparse):
        row = pickle.loads(pickle.dumps(sparse.distances))
        assert row == sparse.distances
        assert dict(row.items()) == dict(sparse.distances.items())


def test_held_outcome_retains_little_memory():
    # The parent tables used to be n² dict entries (~89 MB at n=1024);
    # a held outcome should now cost about one int32 n×n matrix.
    graph = parse_graph("er:1024:p=0.01:seed=1")
    # Import the engine outside the traced window.
    protocols.run("apsp", parse_graph("path:3"), backend="vector")
    gc.collect()
    tracemalloc.start()
    try:
        outcome = protocols.run("apsp", graph, backend="vector")
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.summary.results[1].distances[1] == 0
    assert held < 16 * 1024 * 1024, f"{held / 2**20:.1f} MB retained"
