"""Independent reference answers for checking the program's outputs.

Plain breadth-first search over an adjacency dict built from the edge
list — deliberately not ``repro.graphs.analysis`` — so a defect shared
by the program's own helpers cannot hide a wrong answer.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Sequence, Tuple

Adjacency = Dict[int, List[int]]


def adjacency(nodes: Iterable[int], edges: Iterable[Tuple[int, int]]) -> Adjacency:
    """Undirected adjacency lists."""
    adj: Adjacency = {node: [] for node in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: Adjacency, sources: Sequence[int]) -> Dict[int, int]:
    """Hop distance from the nearest of ``sources`` to every reachable node."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if w not in dist:
                dist[w] = du
                queue.append(w)
    return dist


def eccentricities(adj: Adjacency) -> Dict[int, int]:
    """Every node's eccentricity, by bit-parallel BFS from all nodes.

    Node ``v`` holds a bitset of the sources whose BFS has reached it;
    one round ORs in the neighbours' sets.  ``v``'s eccentricity is the
    last round in which its set grew, so the whole all-pairs sweep costs
    about diameter × edges big-integer ORs.  Requires a connected graph.
    """
    nodes = sorted(adj)
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    full = (1 << len(nodes)) - 1
    reach = dict(bit)
    ecc = {v: 0 for v in nodes}
    rounds = 0
    frontier = set(nodes)
    while frontier:
        rounds += 1
        grown = {}
        touched = {w for v in frontier for w in adj[v]}
        for v in touched:
            acc = reach[v]
            for w in adj[v]:
                acc |= reach[w]
            if acc != reach[v]:
                grown[v] = acc
        for v, acc in grown.items():
            reach[v] = acc
            ecc[v] = rounds
        frontier = set(grown)
        if rounds > len(nodes):
            raise ValueError("reference BFS did not converge")
    if any(reach[v] != full for v in nodes):
        raise ValueError("graph is not connected")
    return ecc


def girth(adj: Adjacency) -> float:
    """Length of a shortest cycle (``inf`` for a forest).

    BFS from every node; a non-tree edge ``(u, w)`` met from root ``s``
    closes a cycle of length at most ``d(u) + d(w) + 1``, and the
    minimum over all roots is exact.
    """
    best = math.inf
    for s in adj:
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def properties(adj: Adjacency) -> Dict[str, object]:
    """The ``properties`` protocol's result fields, from scratch."""
    ecc = eccentricities(adj)
    diameter, radius = max(ecc.values()), min(ecc.values())
    return {
        "diameter": diameter,
        "radius": radius,
        "center": sorted(v for v, e in ecc.items() if e == radius),
        "peripheral": sorted(v for v, e in ecc.items() if e == diameter),
        "girth": girth(adj),
    }
