"""Truss decomposition: per-edge trussness via support peeling.

The *k-truss* of a graph is the maximal subgraph in which every edge
closes at least ``k - 2`` triangles; the *trussness* ``t(e)`` of an
edge is the largest ``k`` whose k-truss contains it.  The paper's
Section VI observes that the PHCD/PBKS framework extends to cohesive
models with hierarchical decompositions, naming k-truss first — this
module provides the decomposition those extensions build on.

The algorithm is the standard bin-sort peeling over edge supports
(Wang & Cheng, PVLDB'12): repeatedly remove a minimum-support edge,
assign it trussness ``support + 2``, and decrement the support of the
two companion edges of every triangle it closed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["EdgeIndex", "edge_supports", "truss_decomposition"]


class EdgeIndex:
    """Dense ids for a graph's undirected edges with O(1) lookup."""

    __slots__ = ("edges", "_lookup")

    def __init__(self, graph: Graph) -> None:
        self.edges = graph.edge_array()  # (m, 2) with u < v rows
        self._lookup = {
            (int(u), int(v)): i for i, (u, v) in enumerate(self.edges)
        }

    def id_of(self, u: int, v: int) -> int:
        """Edge id of ``{u, v}``; KeyError if absent."""
        return self._lookup[(u, v) if u < v else (v, u)]

    def get(self, u: int, v: int) -> int | None:
        """Edge id of ``{u, v}`` or None."""
        return self._lookup.get((u, v) if u < v else (v, u))

    def vertices_of(self, eids: np.ndarray) -> np.ndarray:
        """Distinct endpoints of the edges ``eids``, ascending."""
        return np.unique(self.edges[eids].reshape(-1))

    def __len__(self) -> int:
        return int(self.edges.shape[0])


def _common_neighbors(graph: Graph, u: int, v: int) -> np.ndarray:
    """Sorted common neighbors of ``u`` and ``v``."""
    return np.intersect1d(
        graph.neighbors(u), graph.neighbors(v), assume_unique=True
    )


def edge_supports(graph: Graph, index: EdgeIndex | None = None) -> np.ndarray:
    """Number of triangles through every edge (by edge id)."""
    index = index or EdgeIndex(graph)
    supports = np.zeros(len(index), dtype=np.int64)
    for eid, (u, v) in enumerate(index.edges):
        supports[eid] = _common_neighbors(graph, int(u), int(v)).size
    return supports


def truss_decomposition(
    graph: Graph,
    index: EdgeIndex | None = None,
    pool: SimulatedPool | None = None,
) -> np.ndarray:
    """Trussness of every edge (by edge id of :class:`EdgeIndex`).

    Work is O(sum over edges of min-degree) for the support pass plus
    the peeling; charged to ``pool`` when given.
    """
    index = index or EdgeIndex(graph)
    m = len(index)
    trussness = np.zeros(m, dtype=np.int64)
    if m == 0:
        return trussness
    support = edge_supports(graph, index)
    charged = int(support.sum()) + m

    alive = np.ones(m, dtype=bool)
    # bucket queue over supports with lazy entries
    buckets: list[list[int]] = [[] for _ in range(int(support.max()) + 1)]
    for eid in range(m):
        buckets[int(support[eid])].append(eid)
    cursor = 0
    removed = 0
    while removed < m:
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        eid = buckets[cursor].pop()
        if not alive[eid] or support[eid] != cursor:
            continue  # stale entry
        alive[eid] = False
        removed += 1
        trussness[eid] = cursor + 2
        u, v = (int(x) for x in index.edges[eid])
        for w in _common_neighbors(graph, u, v):
            w = int(w)
            e1 = index.get(u, w)
            e2 = index.get(v, w)
            charged += 2
            if e1 is None or e2 is None or not alive[e1] or not alive[e2]:
                continue
            for other in (e1, e2):
                if support[other] > cursor:
                    support[other] -= 1
                    buckets[int(support[other])].append(other)
        cursor = max(0, cursor - 1)
    if pool is not None:
        with pool.phase("truss:peel"):
            with pool.serial_region("truss_decomposition") as ctx:
                ctx.charge(charged)
    return trussness
