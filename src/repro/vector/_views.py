"""Read-only per-node APSP result rows over one shared distance matrix.

Algorithm 1 leaves every node holding its own distance row, and
Remark 4 stores shortest paths only implicitly, as the parents in the
BFS trees ``T_w``.  The vector engine already holds all of that in one
symmetric distance matrix ``D``, so each node's
:class:`~repro.core.results.ApspResult` gets two :class:`Mapping` views
into it instead of two n-entry dicts:

* :class:`DistanceRow` — node ``u``'s distances, the contiguous row
  ``D[u]``;
* :class:`ParentRow` — node ``u``'s parent in every ``T_w``: the
  min-id neighbour ``x`` with ``D[x, w] == D[u, w] - 1`` (the same
  tie-break as the object engine), ``None`` at ``u`` itself.  It is
  derived from ``u``'s CSR neighbours on first access, in
  O(n · deg u), and memoized.

Both iterate node ids in ascending order, compare equal to the dicts
they stand for (in either direction), pickle by sharing one matrix per
pickle, and deep-copy into plain dicts — which is what
``dataclasses.asdict`` produces for them.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from typing import Iterator, List, Optional

import numpy as np


class ApspMatrix:
    """What every node's rows share: ``D``, the ids and the CSR."""

    __slots__ = ("dist", "id_array", "indptr", "indices", "ids", "index")

    def __init__(self, dist: np.ndarray, id_array: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray) -> None:
        dist.setflags(write=False)
        self.dist = dist
        self.id_array = id_array
        self.indptr = indptr
        self.indices = indices
        #: Ascending node ids; index ``i`` is row/column ``i`` of ``D``.
        self.ids: List[int] = id_array.tolist()
        self.index = {uid: i for i, uid in enumerate(self.ids)}

    def __reduce__(self):
        return ApspMatrix, (self.dist, self.id_array, self.indptr,
                            self.indices)


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values())


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        row = self._mapping
        return zip(row._matrix.ids, row._values())


class _NodeRow(Mapping):
    """One node's row of an :class:`ApspMatrix`, keyed by node id."""

    __slots__ = ("_matrix", "_u")

    def __init__(self, matrix: ApspMatrix, u: int) -> None:
        self._matrix = matrix
        self._u = u

    def _values(self) -> list:
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        return iter(self._matrix.ids)

    def __len__(self) -> int:
        return len(self._matrix.ids)

    def __contains__(self, key) -> bool:
        return key in self._matrix.index

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __deepcopy__(self, memo) -> dict:
        return dict(self.items())

    def __reduce__(self):
        return type(self), (self._matrix, self._u)


class DistanceRow(_NodeRow):
    """``distances[w]`` = hop distance from node ``u`` to ``w``."""

    __slots__ = ("_row",)

    def __init__(self, matrix: ApspMatrix, u: int) -> None:
        super().__init__(matrix, u)
        self._row = matrix.dist[u]

    def __getitem__(self, key) -> int:
        return self._row.item(self._matrix.index[key])

    def _values(self) -> List[int]:
        return self._row.tolist()

    def max_value(self) -> int:
        """The row maximum — node ``u``'s eccentricity (Lemma 2)."""
        return self._row.max().item()


class ParentRow(_NodeRow):
    """``parents[w]`` = node ``u``'s parent in ``T_w``; ``None`` at ``u``."""

    __slots__ = ("_parents",)

    def __init__(self, matrix: ApspMatrix, u: int) -> None:
        super().__init__(matrix, u)
        self._parents: Optional[List[Optional[int]]] = None

    def __getitem__(self, key) -> Optional[int]:
        return self._values()[self._matrix.index[key]]

    def _values(self) -> List[Optional[int]]:
        if self._parents is None:
            m, u = self._matrix, self._u
            nbrs = m.indices[m.indptr[u]:m.indptr[u + 1]]
            if nbrs.size:
                # Neighbours are in ascending index order, so the first
                # one a step closer to w is the min-id parent.
                closer = m.dist[nbrs] == m.dist[u] - 1
                parents = m.id_array[nbrs[closer.argmax(axis=0)]].tolist()
            else:
                parents = [None]  # n = 1: u is the only node
            parents[u] = None
            self._parents = parents
        return self._parents
