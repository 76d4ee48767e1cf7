"""The distance-query service core (transport-independent).

:class:`DistanceService` owns the loaded graphs, the two-tier
:class:`~repro.serve.cache.MatrixCache`, the serve counters, and the
protocol runs that fill cache misses.  It is deliberately synchronous:
the HTTP layer (:mod:`repro.serve.server`) calls the fast lookup paths
from the event loop and routes cold misses through the asyncio
batcher (:mod:`repro.serve.batch`), which in turn calls
:meth:`compute_rows` on a worker thread.  Tests and the docs example
can drive the service directly without any server.

Two query backends exist:

* ``apsp`` — unweighted hop distance.  Point and eccentricity queries
  are served by **batched Algorithm 2 runs**: every cold source in a
  tick becomes one member of the S-SP source set, so ``k`` concurrent
  queries cost ``|S| + D + O(1)`` rounds instead of ``k·(D + O(1))``.
  Diameter queries need every row and run Algorithm 1 once.
* ``weighted-apsp`` — the subdivision reduction.  It has no partial
  engine, so any miss computes (and memoizes) the full matrix.

Every simulation is wrapped in a ``repro.obs`` span (``serve_run``)
when a tracer is active, stamped with the run's round extent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from .. import obs, protocols
from ..congest.errors import GraphError
from ..graphs.graph import Graph
from ..graphs.specs import GraphSpecError, parse_graph
from ..harness.cache import RunCache
from .cache import DEFAULT_MAX_BYTES, MatrixCache
from .matrix import DistanceMatrix, QueryFamily, rows_from_ssp_summary
from .stats import ServeStats


class QueryError(ValueError):
    """A malformed or unanswerable query (HTTP 400)."""


@dataclass(frozen=True)
class _Backend:
    """How one protocol family maps onto matrix construction."""

    #: Registry protocol computing the complete matrix.
    full_protocol: str
    #: Native summary → ``{source: {target: distance}}`` rows.
    rows_of: Callable[[Any], Dict[int, Dict[int, int]]]
    #: Registry protocol computing a batch of rows (``None`` = full
    #: runs only).
    row_protocol: Optional[str]
    #: Parameter names queries may set for this backend.
    param_names: FrozenSet[str]


BACKENDS: Dict[str, _Backend] = {
    "apsp": _Backend(
        full_protocol="apsp",
        rows_of=lambda s: {
            u: dict(r.distances.items()) for u, r in s.results.items()
        },
        row_protocol="ssp",
        param_names=frozenset(),
    ),
    "weighted-apsp": _Backend(
        full_protocol="weighted-apsp",
        rows_of=lambda s: {u: dict(row) for u, row in s.distances.items()},
        row_protocol=None,
        param_names=frozenset({"max_weight", "weight_seed"}),
    ),
}


@dataclass(frozen=True)
class Answer:
    """One answered query: the value and the cache tier that had it."""

    value: Optional[int]
    tier: str


def sequential_rounds_estimate(batch_size: int, batch_rounds: int) -> int:
    """Rounds the batch's queries would have cost as singleton runs.

    Theorem 3 prices an S-SP run at ``|S| + D + O(1)`` rounds, so a
    single-source run over the same graph costs about
    ``batch_rounds - (|S| - 1)``; one run per query multiplies that by
    ``|S|``.  This is the denominator of the batching win the ``/stats``
    endpoint reports (the batching tests validate it against *actual*
    per-query runs).
    """
    singleton = max(1, batch_rounds - (batch_size - 1))
    return batch_size * singleton


class DistanceService:
    """Graphs loaded once, matrices memoized, queries at memory speed."""

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        run_cache: Optional[RunCache] = None,
        max_matrix_bytes: int = DEFAULT_MAX_BYTES,
        seed: int = 0,
        policy: str = "strict",
        backend: str = "object",
    ) -> None:
        if run_cache is None and cache_dir is not None:
            run_cache = RunCache(cache_dir)
        if backend == "vector":
            from ..vector import HAS_NUMPY, NUMPY_HINT

            if not HAS_NUMPY:
                raise QueryError(NUMPY_HINT)
        elif backend != "object":
            raise QueryError(
                f"unknown backend {backend!r}; "
                f"expected 'object' or 'vector'"
            )
        self.seed = seed
        self.policy = policy
        self.backend = backend
        self.stats = ServeStats()
        self.cache = MatrixCache(
            max_bytes=max_matrix_bytes, run_cache=run_cache
        )
        self._graphs: Dict[str, Graph] = {}
        #: Guards cache/graph structures shared between the event loop
        #: and the simulation worker thread.  Never held during a run.
        self._lock = threading.RLock()

    # -- graphs ------------------------------------------------------------

    def load_graph(self, spec: str) -> Graph:
        """Load (once) and return the graph named by ``spec``."""
        with self._lock:
            graph = self._graphs.get(spec)
            if graph is None:
                try:
                    graph = parse_graph(spec)
                except (GraphSpecError, GraphError, OSError) as exc:
                    # GraphError/OSError cover bad or missing file:
                    # specs — a client error, not a server fault.
                    raise QueryError(str(exc))
                self._graphs[spec] = graph
            return graph

    def graphs(self) -> List[Dict[str, Any]]:
        """Summaries of every loaded graph (the ``/graphs`` payload)."""
        with self._lock:
            return [
                {"spec": spec, "n": g.n, "m": g.m}
                for spec, g in sorted(self._graphs.items())
            ]

    # -- families ----------------------------------------------------------

    def family_for(
        self,
        graph_spec: str,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
        *,
        seed: Optional[int] = None,
        policy: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> QueryFamily:
        """Validate query axes into a :class:`QueryFamily`."""
        serve_backend = BACKENDS.get(protocol)
        if serve_backend is None:
            raise QueryError(
                f"unknown serve protocol {protocol!r}; available: "
                f"{sorted(BACKENDS)}"
            )
        params = dict(params or {})
        unknown = set(params) - serve_backend.param_names
        if unknown:
            raise QueryError(
                f"protocol {protocol!r} does not take parameters "
                f"{sorted(unknown)} (allowed: "
                f"{sorted(serve_backend.param_names) or 'none'})"
            )
        engine = self.backend if backend is None else backend
        if engine == "vector":
            capable = protocols.get(serve_backend.full_protocol)
            if "vector" not in capable.capabilities:
                raise QueryError(
                    f"protocol {protocol!r} cannot run on the vector "
                    f"backend; use backend 'object'"
                )
        return QueryFamily.make(
            graph_spec,
            protocol,
            params,
            seed=self.seed if seed is None else seed,
            policy=self.policy if policy is None else policy,
            backend=engine,
        )

    def _check_node(self, graph: Graph, node: int, what: str) -> None:
        if not graph.has_node(node):
            raise QueryError(
                f"{what} {node} is not a node of the graph "
                f"(n={graph.n})"
            )

    # -- cache-only lookups (cheap; safe on the event loop) ----------------

    def lookup_row(self, family: QueryFamily, source: int) -> Optional[str]:
        """Tiered row lookup without computing: tier name or ``None``."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.load_row(family, graph.n, source)

    def lookup_full(self, family: QueryFamily) -> Optional[str]:
        """Tiered full-matrix lookup without computing."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.load_full(family, graph.n)

    def matrix(self, family: QueryFamily) -> DistanceMatrix:
        """The resident matrix for ``family`` (created empty)."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.matrix(family, graph.n)

    # -- computation (runs a simulation; call off the event loop) ----------

    def _spanned_run(
        self, protocol: str, graph: Graph, params: Dict[str, Any],
        family: QueryFamily, **attrs: Any,
    ):
        tracer = obs.active()
        span_id = None
        if tracer is not None:
            span_id = tracer.span_begin(
                "serve_run", round_no=0, protocol=protocol,
                graph=family.graph_spec, **attrs,
            )
        outcome = protocols.run(
            protocol, graph, params,
            seed=family.seed, policy=family.policy,
            backend=family.backend,
        )
        if tracer is not None:
            tracer.span_end(
                span_id, round_no=outcome.metrics.rounds,
                rounds=outcome.metrics.rounds,
            )
        return outcome

    def compute_rows(
        self, family: QueryFamily, sources: List[int]
    ) -> DistanceMatrix:
        """Run one batched row computation and merge it into the cache.

        For ``apsp`` this is a single Algorithm 2 run whose source set
        is the whole batch; backends without a row engine fall back to
        the full matrix (which answers the batch a fortiori).
        """
        backend = BACKENDS[family.protocol]
        if backend.row_protocol is None:
            return self.compute_full(family)
        graph = self.load_graph(family.graph_spec)
        sources = sorted(set(sources))
        outcome = self._spanned_run(
            backend.row_protocol, graph, {"sources": sources},
            family, batch_size=len(sources),
        )
        rows = rows_from_ssp_summary(outcome.summary, sources)
        rounds = outcome.metrics.rounds
        self.stats.observe_batch(
            len(sources), rounds,
            sequential_rounds_estimate(len(sources), rounds),
        )
        self.stats.observe_protocol_run()
        with self._lock:
            return self.cache.store_rows(
                family, graph.n, rows, rounds=rounds
            )

    def compute_full(self, family: QueryFamily) -> DistanceMatrix:
        """Run the full-matrix protocol and memoize the result."""
        backend = BACKENDS[family.protocol]
        graph = self.load_graph(family.graph_spec)
        outcome = self._spanned_run(
            backend.full_protocol, graph, dict(family.params), family,
        )
        rows = backend.rows_of(outcome.summary)
        self.stats.observe_protocol_run()
        with self._lock:
            return self.cache.store_full(
                family, graph.n, rows, rounds=outcome.metrics.rounds
            )

    # -- ensure + answer (the synchronous query path) ----------------------

    def ensure_row(self, family: QueryFamily, source: int) -> str:
        """Make ``source``'s row available; returns the serving tier."""
        tier = self.lookup_row(family, source)
        if tier is None:
            self.compute_rows(family, [source])
            tier = "computed"
        self.stats.observe_tier(tier)
        return tier

    def ensure_full(self, family: QueryFamily) -> str:
        """Make the complete matrix available; returns the tier."""
        tier = self.lookup_full(family)
        if tier is None:
            self.compute_full(family)
            tier = "computed"
        self.stats.observe_tier(tier)
        return tier

    def distance(
        self,
        graph_spec: str,
        source: int,
        target: int,
        *,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
    ) -> Answer:
        """Point distance ``d(source, target)``."""
        family = self.family_for(graph_spec, protocol, params)
        graph = self.load_graph(graph_spec)
        self._check_node(graph, source, "source")
        self._check_node(graph, target, "target")
        matrix = self.matrix(family)
        value = matrix.distance(source, target)
        if value is not None or matrix.has_row(source):
            self.stats.observe_tier("memory")
            return Answer(value, "memory")
        tier = self.ensure_row(family, source)
        return Answer(self.matrix(family).distance(source, target), tier)

    def eccentricity(
        self,
        graph_spec: str,
        node: int,
        *,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
    ) -> Answer:
        """Eccentricity of ``node`` (max entry of its own row)."""
        family = self.family_for(graph_spec, protocol, params)
        graph = self.load_graph(graph_spec)
        self._check_node(graph, node, "node")
        tier = self.ensure_row(family, node)
        return Answer(self.matrix(family).eccentricity(node), tier)

    def diameter(
        self,
        graph_spec: str,
        *,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
    ) -> Answer:
        """Graph diameter (needs the complete matrix)."""
        family = self.family_for(graph_spec, protocol, params)
        tier = self.ensure_full(family)
        return Answer(self.matrix(family).diameter(), tier)
