"""(3,4)-nucleus decomposition: per-triangle nucleus numbers.

The nucleus decomposition of Sariyüce & Pinar generalizes k-core
(vertices/edges) and k-truss (edges/triangles) one motif higher:
*triangles* supported by *K4s*.  The (3,4)-nucleus number
``theta(T)`` of a triangle is the largest ``k`` such that ``T``
belongs to a maximal sub-collection of triangles in which every
triangle participates in at least ``k`` K4s whose four triangles all
remain in the sub-collection.

The paper's related work (Section VII) points out that hierarchy
construction for nucleus decomposition *has no parallel solution* —
:mod:`repro.nucleus.hierarchy` closes that gap with the PHCD
framework; this module provides the decomposition it consumes, via the
same bin-bucket peeling as k-core and k-truss, one motif level up.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["TriangleIndex", "triangle_supports", "nucleus_decomposition"]


class TriangleIndex:
    """Dense ids for a graph's triangles with O(1) lookup.

    Triangles are stored as sorted vertex triples, enumerated once via
    the degree-ordered wedge direction (O(m^1.5)).
    """

    __slots__ = ("triangles", "_lookup", "_graph")

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        degrees = graph.degrees()
        found: list[tuple[int, int, int]] = []
        for u, v in graph.edges():
            # direct the edge to the lower-(degree, id) endpoint
            lo, hi = (
                (u, v)
                if (int(degrees[u]), u) < (int(degrees[v]), v)
                else (v, u)
            )
            row_hi = graph.neighbors(hi)
            for w in graph.neighbors(lo):
                w = int(w)
                if w == hi:
                    continue
                # count each triangle once: at its max-id vertex as w
                if w < max(u, v):
                    continue
                pos = int(np.searchsorted(row_hi, w))
                if pos < row_hi.size and row_hi[pos] == w:
                    found.append(tuple(sorted((u, v, w))))
        unique = sorted(set(found))
        self.triangles = (
            np.asarray(unique, dtype=np.int64)
            if unique
            else np.empty((0, 3), dtype=np.int64)
        )
        self._lookup = {t: i for i, t in enumerate(unique)}

    def id_of(self, a: int, b: int, c: int) -> int:
        """Triangle id of ``{a, b, c}``; KeyError if absent."""
        return self._lookup[tuple(sorted((a, b, c)))]

    def get(self, a: int, b: int, c: int) -> int | None:
        """Triangle id of ``{a, b, c}`` or None."""
        return self._lookup.get(tuple(sorted((a, b, c))))

    def k4_companions(self, tid: int) -> list[tuple[int, int, int]]:
        """For triangle ``tid``, its K4s as companion triangle triples.

        Each common neighbor ``w`` of the triangle's corners closes a
        K4 whose other three triangles are returned as one tuple.
        """
        a, b, c = (int(x) for x in self.triangles[tid])
        g = self._graph
        commons = np.intersect1d(
            np.intersect1d(g.neighbors(a), g.neighbors(b), assume_unique=True),
            g.neighbors(c),
            assume_unique=True,
        )
        out = []
        for w in commons:
            w = int(w)
            t1 = self.get(a, b, w)
            t2 = self.get(a, c, w)
            t3 = self.get(b, c, w)
            if t1 is not None and t2 is not None and t3 is not None:
                out.append((t1, t2, t3))
        return out

    def vertices_of(self, tids: np.ndarray) -> np.ndarray:
        """Distinct corners of the triangles ``tids``, ascending."""
        return np.unique(self.triangles[tids].reshape(-1))

    def __len__(self) -> int:
        return int(self.triangles.shape[0])


def triangle_supports(
    graph: Graph, index: TriangleIndex | None = None
) -> np.ndarray:
    """Number of K4s through every triangle (by triangle id)."""
    index = index or TriangleIndex(graph)
    supports = np.zeros(len(index), dtype=np.int64)
    for tid in range(len(index)):
        supports[tid] = len(index.k4_companions(tid))
    return supports


def nucleus_decomposition(
    graph: Graph,
    index: TriangleIndex | None = None,
    pool: SimulatedPool | None = None,
) -> np.ndarray:
    """(3,4)-nucleus number of every triangle (by triangle id).

    Bin-bucket peeling over K4 supports, exactly the k-core/k-truss
    recipe one motif level up; charged to ``pool`` when given.
    """
    index = index or TriangleIndex(graph)
    t = len(index)
    theta = np.zeros(t, dtype=np.int64)
    if t == 0:
        return theta
    support = triangle_supports(graph, index)
    charged = int(support.sum()) + t

    alive = np.ones(t, dtype=bool)
    buckets: list[list[int]] = [[] for _ in range(int(support.max()) + 1)]
    for tid in range(t):
        buckets[int(support[tid])].append(tid)
    cursor = 0
    removed = 0
    while removed < t:
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        tid = buckets[cursor].pop()
        if not alive[tid] or support[tid] != cursor:
            continue  # stale entry
        alive[tid] = False
        removed += 1
        theta[tid] = cursor
        for companions in index.k4_companions(tid):
            charged += 3
            if not all(alive[x] for x in companions):
                continue  # this K4 is already broken
            for other in companions:
                if support[other] > cursor:
                    support[other] -= 1
                    buckets[int(support[other])].append(other)
    if pool is not None:
        with pool.phase("nucleus:peel"):
            with pool.serial_region("nucleus_decomposition") as ctx:
                ctx.charge(charged)
    return theta
