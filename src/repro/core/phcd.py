"""PHCD — parallel HCD construction (paper Algorithm 2), for any model.

PHCD sidesteps the P-completeness of hierarchy construction (Theorem 1)
with a union-find-based bottom-up paradigm: starting from an empty
graph, the k-shells are added in *descending* k; a pivot-augmented
union-find maintains, for every connected component of the growing
graph, its minimum-rank member (the *pivot*, Definition 5), which
uniquely identifies the component's top tree node.  Each round runs
four parallel steps over the k-shell (Section III-D):

1. **find k'-core tree nodes** — collect the pivots of components that
   the shell will merge with (their nodes become children this round);
2. **connectivity** — union every shell element with the elements its
   relation joins it to at level k;
3. **create tree nodes** — group shell elements by their component's
   (new) pivot; one tree node per distinct pivot;
4. **find parents** — each captured old pivot's node gets the new
   pivot's node as parent.

Section VI notes that the paradigm only needs elements arriving in
descending level and a connectivity relation that holds across levels,
so :func:`build_hierarchy` writes the four steps once and each model
supplies a *relation* — ``relation(x, k, ctx)`` yields the elements
joined to element ``x`` once level ``k`` is added, charging its own
scan:

* k-core (:func:`phcd_build_hcd`): vertices; a shell vertex's CSR row,
  restricted to coreness >= k;
* k-truss (:func:`repro.truss.truss_hierarchy`): edges; the companion
  edges of every triangle wholly inside the k-truss;
* (3,4)-nucleus (:func:`repro.nucleus.nucleus_hierarchy`): triangles;
  the companion triangles of every K4 wholly inside the k-nucleus.

A second, *floor* relation runs only at the lowest level (shared
endpoints for truss at k = 2, shared edges for nucleus at k = 0) so the
forest's roots follow a coarser connectivity; it adds steps 1b and 2b.

Total work is O(m) union-find operations for k-cores — near-linear,
matching the paper's O(n sqrt(p) + m alpha(n) + F) bound on the
wait-free structure.  The shell loops use static chunking: shells are
contiguous rank ranges, and interleaving them round-robin across
threads (dynamic scheduling) was measured to *increase* simulated time
via union-find cache-line contention — see
``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.hcd import HCD, HCDBuilder
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.errors import HierarchyError
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray, AtomicSet
from repro.parallel.context import ThreadContext
from repro.parallel.scheduler import SimulatedPool
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

__all__ = ["phcd_build_hcd", "build_hierarchy", "rank_by_level", "SCAN_CHARGE"]

#: Work units per sequentially-scanned adjacency entry.  PHCD streams
#: each shell's CSR rows in order, so the hardware prefetcher hides most
#: of the latency — the contrast with LCPS's random-access priority
#: updates that Table III's serial comparison rests on.
SCAN_CHARGE = 0.2

#: ``relation(x, k, ctx)``: the elements joined to ``x`` at level ``k``.
Relation = Callable[[int, int, ThreadContext], Iterator[int]]
UnionFind = PivotUnionFind | SimulatedWaitFreeUnionFind


def phcd_build_hcd(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
    rank_result: VertexRankResult | None = None,
    use_waitfree: bool | None = None,
    cas_failure_rate: float = 0.0,
    seed: int = 0,
) -> HCD:
    """Build the HCD of ``graph`` in parallel on ``pool``.

    Parameters
    ----------
    graph, coreness:
        The input graph and its (precomputed) core decomposition.
    pool:
        Simulated thread pool; all four steps of every round run as
        parallel regions on it.
    rank_result:
        Optionally a precomputed Algorithm 1 result (otherwise it is
        computed here, charged to the same pool).
    use_waitfree:
        Select the union-find engine: the simulated wait-free structure
        (default whenever ``pool.threads > 1``, as the paper prescribes)
        or the sequential pivot DSU.
    cas_failure_rate, seed:
        Failure-injection controls for the wait-free engine (the
        ``F`` term of the work bound); ignored by the sequential DSU.
    """
    if use_waitfree is None:
        use_waitfree = pool.threads > 1
    indptr, indices = graph.indptr.tolist(), graph.indices

    def ranking(levels: np.ndarray) -> tuple[list, UnionFind]:
        ranked = rank_result or compute_vertex_rank(graph, levels, pool)
        if use_waitfree:
            return ranked.shells, SimulatedWaitFreeUnionFind(
                ranked.rank, failure_rate=cas_failure_rate, seed=seed
            )
        return ranked.shells, PivotUnionFind(ranked.rank)

    def scan(v: int, k: int, ctx: ThreadContext) -> Iterator[int]:
        ctx.charge(1)
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            ctx.charge(SCAN_CHARGE)
            if coreness[u] >= k:
                yield u

    return build_hierarchy(
        pool, "phcd", coreness, graph.num_vertices, 0, ranking, scan
    )


def rank_by_level(levels: np.ndarray) -> tuple[list, PivotUnionFind]:
    """Shells and a pivot union-find for elements ranked by (level, id).

    Definition 4 carried over to edges and triangles: ``shells[k]``
    lists the level-k elements in ascending id, and a component's pivot
    is its lowest-ranked member.
    """
    order = np.argsort(levels, kind="stable")
    shells = np.split(order, np.cumsum(np.bincount(levels))[:-1])
    return shells, PivotUnionFind(np.argsort(order))


def build_hierarchy(
    pool: SimulatedPool,
    name: str,
    levels: np.ndarray,
    size: int,
    floor: int,
    ranking: Callable[[np.ndarray], tuple[list, UnionFind]],
    relation: Relation,
    floor_relation: Relation | None = None,
) -> HCD:
    """Algorithm 2 over ``size`` elements with decomposition ``levels``.

    Returns the forest of relation-connected components of every level
    set ``{x : levels[x] >= k}``, k from the top down to ``floor``, as
    an :class:`HCD` whose members are element ids.  ``ranking(levels)``
    returns the shells (``shells[k]``: the level-k elements in rank
    order) and a pivot union-find over the element ranks.

    Raises :class:`HierarchyError` unless ``levels`` holds one level
    per element, none below ``floor``; an element a ranking leaves out
    of every shell fails :meth:`HCDBuilder.build`'s placement check.
    """
    levels = np.asarray(levels)
    if levels.shape != (size,):
        raise HierarchyError(
            f"{name}: levels have shape {levels.shape}, expected ({size},)"
        )
    levels = levels.astype(np.int64, copy=False)
    if size and int(levels.min()) < floor:
        x = int(np.argmin(levels))
        raise HierarchyError(
            f"{name}: element {x} has level {int(levels[x])}, "
            f"below the floor {floor}"
        )
    builder = HCDBuilder(size)
    if size == 0:
        return builder.build()
    shells, uf = ranking(levels)
    level = levels.tolist()
    # tid(x) = -1 marks "no tree node yet" (the paper's infinity).
    # All cross-thread tid traffic goes through the atomic wrapper so
    # it is charged and visible to the race detector; per-item stores
    # use recorded plain writes (each shell element owns its own slot).
    tid = builder.tid
    tid_arr = AtomicArray.from_array(tid, name="tid")

    for k in range(len(shells) - 1, floor - 1, -1):
        shell = shells[k].tolist()
        if not shell:
            continue
        kpc_pivot = AtomicSet(name=f"kpc_pivot_k{k}")
        at_floor = k == floor and floor_relation is not None
        # the phase annotates SimProf attribution only; it never charges
        with pool.phase(f"{name}:level-{k}"):
            # --- Step 1: pivots of components the shell will absorb ---
            _capture(pool, f"{name}:step1_k{k}", shell, k, relation,
                     level, uf, kpc_pivot)
            if at_floor:
                _capture(pool, f"{name}:step1b_k{k}", shell, k,
                         floor_relation, level, uf, kpc_pivot)

            # --- Step 2: union the shell into the growing graph -------
            _connect(pool, f"{name}:step2_k{k}", shell, k, relation, uf)
            if at_floor:
                _connect(pool, f"{name}:step2b_k{k}", shell, k,
                         floor_relation, uf)

            # --- Step 3: one tree node per distinct pivot -------------
            def group_by_pivot(x: int, ctx) -> None:
                pvt = uf.get_pivot(x, ctx)
                node = int(tid_arr.load(ctx, pvt))
                if node < 0:
                    # Two threads holding elements of one component race
                    # to create its node: allocate, then publish via CAS
                    # — the loser re-reads the winner's node.  (On the
                    # sequential substrate the CAS never loses; a real
                    # backend would also retire the orphaned allocation.)
                    fresh = builder.new_node(k)
                    ctx.atomic(("hcd_nodes",), contended=False)
                    if tid_arr.compare_and_swap(ctx, pvt, -1, fresh):
                        node = fresh
                    else:
                        node = int(tid_arr.load(ctx, pvt))
                if x != pvt:
                    # each shell element owns its own tid slot this round
                    ctx.write(("tid", int(x)), 0.0)
                    tid[x] = node
                # member append: relaxed fetch-add on the node's tail
                ctx.atomic(("node_members", node), contended=False)
                builder.add_member(node, x)

            pool.parallel_for(
                shell, group_by_pivot, label=f"{name}:step3_k{k}"
            )

            # --- Step 4: attach child tree nodes under the new nodes ---
            def attach_parent(old_pivot: int, ctx) -> None:
                pvt = uf.get_pivot(old_pivot, ctx)
                child = int(tid_arr.load(ctx, old_pivot))
                parent = int(tid_arr.load(ctx, pvt))
                # distinct old pivots map to distinct child nodes
                ctx.write(("hcd_parent", child), 0.0)
                builder.set_parent(child, parent)

            pool.parallel_for(
                list(kpc_pivot), attach_parent, label=f"{name}:step4_k{k}"
            )

    return builder.build()


def _capture(
    pool, label, shell, k, relation, level, uf, kpc_pivot
) -> None:
    """Step 1 over one relation: a joined element above level ``k``
    belongs to an existing component, whose pivot is captured."""

    def collect_child_pivots(x: int, ctx) -> None:
        for u in relation(x, k, ctx):
            if level[u] > k:
                kpc_pivot.add_if_absent(ctx, uf.get_pivot(u, ctx))

    pool.parallel_for(shell, collect_child_pivots, label=label)


def _connect(pool, label, shell, k, relation, uf) -> None:
    """Step 2 over one relation: union each shell element with every
    element the relation joins it to."""

    def connect(x: int, ctx) -> None:
        for u in relation(x, k, ctx):
            uf.union(x, u, ctx)

    pool.parallel_for(shell, connect, label=label)
