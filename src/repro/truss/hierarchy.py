"""Parallel truss-hierarchy construction — the PHCD framework on edges.

Paper Section VI: "Inspired by the framework of PHCD ... we can propose
parallel hierarchy construction algorithms ... for other cohesive
subgraph models with a hierarchical decomposition, such as k-truss".
This module carries that out.

The k-trusses (for triangle connectivity, the standard community
notion of Huang et al.) nest exactly like k-cores: every triangle-
connected k-truss component is contained in one (k-1)-truss component.
:func:`truss_hierarchy` therefore runs Algorithm 2
(:func:`repro.core.phcd.build_hierarchy`) with edges in the role of
vertices:

* *levels* are trussness values, added in descending ``k`` down to 2;
* the *relation* is triangle co-membership: edge ``e`` is joined to the
  two companion edges of every triangle it closes whose edges all have
  trussness >= k;
* at the floor (k = 2) a shared-endpoint relation also joins each
  2-shell edge to every edge it shares an endpoint with.

The result is an :class:`~repro.core.hcd.ElementHierarchy` over edge
ids.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.hcd import ElementHierarchy
from repro.core.phcd import build_hierarchy, rank_by_level
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.truss.decomposition import EdgeIndex, truss_decomposition

__all__ = ["truss_hierarchy"]


def _triangle_companions(
    graph: Graph, index: EdgeIndex, eid: int
) -> list[tuple[int, int]]:
    """For edge ``eid``, the companion edge id pairs of its triangles."""
    u, v = (int(x) for x in index.edges[eid])
    out = []
    for w in np.intersect1d(
        graph.neighbors(u), graph.neighbors(v), assume_unique=True
    ):
        w = int(w)
        e1 = index.get(u, w)
        e2 = index.get(v, w)
        if e1 is not None and e2 is not None:
            out.append((e1, e2))
    return out


def truss_hierarchy(
    graph: Graph,
    trussness: np.ndarray | None = None,
    pool: SimulatedPool | None = None,
    index: EdgeIndex | None = None,
) -> ElementHierarchy:
    """Build the truss hierarchy with the PHCD paradigm on edges.

    ``trussness`` may be precomputed (else it is computed here, charged
    to the pool).  Under triangle connectivity every edge in no
    triangle (trussness 2) would be a class of its own; following
    Huang et al. we keep *triangle* connectivity for k >= 3 and group
    the 2-level by shared endpoints, so a 2-shell edge joins every
    community it touches.

    Raises :class:`~repro.errors.HierarchyError` unless ``trussness``
    holds one value >= 2 per edge of ``index``.
    """
    pool = pool or SimulatedPool(threads=1)
    index = index or EdgeIndex(graph)
    if trussness is None:
        trussness = truss_decomposition(graph, index, pool)
    trussness = np.asarray(trussness, dtype=np.int64)

    def triangles_at(eid: int, k: int, ctx) -> Iterator[int]:
        ctx.charge(1)
        for e1, e2 in _triangle_companions(graph, index, eid):
            ctx.charge(1)
            if trussness[e1] >= k and trussness[e2] >= k:
                yield e1
                yield e2

    def shared_endpoints(eid: int, k: int, ctx) -> Iterator[int]:
        for x in index.edges[eid].tolist():
            for w in graph.neighbors(x).tolist():
                other = index.get(x, w)
                ctx.charge(1)
                if other is not None:
                    yield other

    forest = build_hierarchy(
        pool, "truss", trussness, len(index), 2, rank_by_level,
        triangles_at, shared_endpoints,
    )
    return ElementHierarchy(index, forest)
