"""Parallel nucleus-hierarchy construction — the open gap of Section VII.

The paper observes: "A parallel solution for local nucleus query ...
is proposed in [44], but there is no parallel solution for the
hierarchy construction of nucleus decomposition."  Since the PHCD
paradigm only needs (i) elements arriving in descending decomposition
level and (ii) a connectivity relation preserved across levels,
Algorithm 2 (:func:`repro.core.phcd.build_hierarchy`) applies verbatim
with *triangles* as elements and *K4 co-membership* as the relation:

* levels are (3,4)-nucleus numbers theta, added in descending k;
* a K4 joins its triangles at level k iff all four have theta >= k;
* at the floor (theta = 0) a shared-edge relation also joins each
  0-shell triangle to every triangle it shares an edge with.

The result is an :class:`~repro.core.hcd.ElementHierarchy` over
triangle ids.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.hcd import ElementHierarchy
from repro.core.phcd import build_hierarchy, rank_by_level
from repro.graph.graph import Graph
from repro.nucleus.decomposition import TriangleIndex, nucleus_decomposition
from repro.parallel.scheduler import SimulatedPool

__all__ = ["nucleus_hierarchy"]


def _edge_neighbors(
    graph: Graph, index: TriangleIndex, tid: int
) -> list[int]:
    """Triangles sharing an edge with ``tid`` (outermost-level glue)."""
    a, b, c = (int(x) for x in index.triangles[tid])
    out = []
    for u, v in ((a, b), (a, c), (b, c)):
        commons = np.intersect1d(
            graph.neighbors(u), graph.neighbors(v), assume_unique=True
        )
        for w in commons:
            other = index.get(u, v, int(w))
            if other is not None and other != tid:
                out.append(other)
    return out


def nucleus_hierarchy(
    graph: Graph,
    theta: np.ndarray | None = None,
    pool: SimulatedPool | None = None,
    index: TriangleIndex | None = None,
) -> ElementHierarchy:
    """Build the (3,4)-nucleus hierarchy with the PHCD paradigm.

    ``theta`` may be precomputed (else it is computed here, charged to
    the pool).  Raises :class:`~repro.errors.HierarchyError` unless it
    holds one non-negative value per triangle of ``index``.
    """
    pool = pool or SimulatedPool(threads=1)
    index = index or TriangleIndex(graph)
    if theta is None:
        theta = nucleus_decomposition(graph, index, pool)
    theta = np.asarray(theta, dtype=np.int64)

    def k4s_at(tid: int, k: int, ctx) -> Iterator[int]:
        ctx.charge(1)
        for companions in index.k4_companions(tid):
            ctx.charge(1)
            if all(theta[x] >= k for x in companions):
                yield from companions

    def shared_edges(tid: int, k: int, ctx) -> Iterator[int]:
        for other in _edge_neighbors(graph, index, tid):
            ctx.charge(1)
            yield other

    forest = build_hierarchy(
        pool, "nucleus", theta, len(index), 0, rank_by_level,
        k4s_at, shared_edges,
    )
    return ElementHierarchy(index, forest)
