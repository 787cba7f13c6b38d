"""Batched parallel traversal maintenance of the coreness array.

Per-edge traversal maintenance (:mod:`repro.dynamic.maintenance`)
repairs one update at a time: collect the affected k-subcore, peel,
adjust.  Under a *batch* of updates that wastes work twice over — the
same subcore is re-collected for every edge that lands in it, and the
repair runs as serial Python.  This module implements the batched
alternative in the spirit of the level-grouped parallel maintenance
literature (Liu & Dong's parallel k-core; Shi, Dhulipala & Shun's
parallel hierarchy maintenance): group the pending updates by affected
level ``k = min(c(u), c(v))``, collect the **joint** candidate subcore
of all roots at that level once, and run candidate collection and
localized peeling as ``parallel_for`` kernels on a
:class:`~repro.parallel.scheduler.SimulatedPool` — every access
recorded through :class:`~repro.parallel.context.ThreadContext`, so
SimTSan / SimCheck / SimFlow cover the kernels like any other in the
repo.

Algorithm (``batch_repair``)
----------------------------
Structural mutations are applied to the adjacency *before* repair.
The repair then runs two monotone phases:

1. **Demotion** (only if the batch deletes edges): worklist rounds
   seeded by the deleted edges — per round, group seeds by current
   level, collect each level's joint subcore, run the demote peel
   (a vertex keeps level ``k`` only with ``>= k`` supporters of
   effective level ``>= k``), demote failures one level, and feed
   them back as seeds — followed by a **verification sweep** that
   re-runs the demote peel over *every* vertex of each dirty level
   until a full sweep changes nothing.  Coreness only decreases.
2. **Promotion** (only if the batch inserts edges): the mirror-image
   worklist (promote peel at ``k + 1``: a candidate survives with
   ``> k`` supporters among surviving candidates and higher cores;
   survivors rise one level) followed by the promote verification
   sweep over dirty levels.  Coreness only increases, and promotions
   can never invalidate the demotion phase's quiescence (they only
   add support).

Each phase alone terminates (monotone, bounded), and joint quiescence
of the verification sweeps certifies exact coreness: every vertex has
``>= c(v)`` neighbors of level ``>= c(v)`` (so ``c`` is a valid core
witness, hence a lower bound of nothing above the true coreness), and
no level's full peel can lift anyone (so no vertex is undervalued).
Levels never marked dirty are untouched by construction — every level
a vertex passes through, and every pending edge's current level, is
marked.  Because coreness is canonical, the result is bit-identical
to per-edge maintenance and to full recomputation; the property tests
check exactly that at several thread counts.

Frontier kernels
----------------
The subcore BFS (``expand``) and both peels' support counts
(``count_support``) run one contiguous range per thread over
:meth:`~repro.parallel.scheduler.SimulatedPool.partition`, balanced by
the cumulative ``row_len + 1`` of the frontier or active list (Liu &
Dong's work-balanced frontier).  A split by item count hands the
low-id hubs of a power-law graph to thread 0.  The prefix is gathered
in its own small ``dyn_prefix`` region, so the row-length reads stay
charged.

``expand`` tests before it claims: a charged ``visited`` load comes
first, and the CAS runs only while the slot still reads 0.  A vertex
already claimed costs one load instead of a contended CAS, so each
vertex is CASed exactly once and almost nothing queues on a cache
line.  The sequential substrate runs virtual threads one after
another, so a CAS that follows a zero load always wins; like
``AtomicArray.fetch_min`` and ``AtomicSet.add_if_absent``, the model
never charges a losing CAS.

Support counts land in position-indexed slots (``supp[i]`` for the
``i``-th active vertex); ``evict`` reads them back by the same
position and writes only its own vertex's flag.  Determinism across
thread counts follows: exactly-once claims, two-phase (snapshot then
apply) peels, and per-thread output buffers merged and sorted between
regions.  The claimed sets, the coreness, and the total work and
atomics do not depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphBuildError
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool

__all__ = [
    "BatchUpdateReport",
    "normalize_batch",
    "batch_repair",
]


# ----------------------------------------------------------------------
# batch normalization / validation
# ----------------------------------------------------------------------


@dataclass
class BatchUpdateReport:
    """Outcome of one batched update (or one batch-API call).

    ``skipped`` holds ``(u, v, reason)`` triples for entries the
    documented skip policy dropped (``"self-loop"``, ``"duplicate"``,
    ``"present"``, ``"absent"``); anything *invalid* (out-of-range or
    non-integer endpoints) raises instead, before any mutation.
    """

    applied_insertions: list[tuple[int, int]] = field(default_factory=list)
    applied_deletions: list[tuple[int, int]] = field(default_factory=list)
    skipped: list[tuple[int, int, str]] = field(default_factory=list)
    changed: int = 0     # vertices whose coreness moved
    rounds: int = 0      # repair worklist rounds run

    @property
    def applied(self) -> int:
        """Total structural mutations applied."""
        return len(self.applied_insertions) + len(self.applied_deletions)

    def as_dict(self) -> dict:
        return {
            "applied_insertions": len(self.applied_insertions),
            "applied_deletions": len(self.applied_deletions),
            "skipped": len(self.skipped),
            "changed": self.changed,
            "rounds": self.rounds,
        }


def normalize_batch(
    edges, num_vertices: int, where: str = "batch"
) -> tuple[list[tuple[int, int]], list[tuple[int, int, str]]]:
    """Validate and canonicalize a whole edge batch **up front**.

    Every endpoint is checked before anything is applied — a bad entry
    raises :class:`~repro.errors.GraphBuildError` naming its position,
    leaving the caller's graph untouched (batch atomicity).  Edges are
    canonicalized to ``(min, max)``; self-loops and within-batch
    duplicates (including reversed ``(v, u)`` repeats) are dropped into
    the skip list, never silently.
    """
    canonical: list[tuple[int, int]] = []
    skipped: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()
    for pos, pair in enumerate(edges):
        try:
            u, v = pair
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise GraphBuildError(
                f"{where}[{pos}]: expected an edge pair, got {pair!r}"
            ) from None
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphBuildError(
                f"{where}[{pos}]: endpoint out of range: ({u}, {v}) "
                f"for {num_vertices} vertices"
            )
        if u == v:
            skipped.append((u, v, "self-loop"))
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            skipped.append((u, v, "duplicate"))
            continue
        seen.add(edge)
        canonical.append(edge)
    return canonical, skipped


# ----------------------------------------------------------------------
# parallel kernels
# ----------------------------------------------------------------------


def _merge_parts(parts: list[list[int]]) -> list[int]:
    """Deterministic (sorted) merge of per-thread output buffers."""
    return sorted(y for part in parts for y in part)


def _row_prefix(
    pool: SimulatedPool, row_len: np.ndarray, items: list[int], tag: str
) -> np.ndarray:
    """Cumulative ``row_len + 1`` over ``items``: the cost prefix the
    frontier kernels hand to :meth:`SimulatedPool.partition`.

    Gathering the row lengths is charged as its own small region (one
    read and one position-indexed store per item); only the prefix sum
    over the gathered costs runs on the host, like the partition's own
    boundary search.
    """
    count = len(items)
    cost = np.zeros(count, dtype=np.int64)

    def gather(chunk: range, ctx) -> None:
        start, end = chunk.start, chunk.stop
        for i in range(start, end):
            x = items[i]
            ctx.read(("row_len", x))
            ctx.write(("dyn_cost", i))
            cost[i] = row_len[x] + 1

    pool.parallel_for(pool.partition(count), gather, label=f"dyn_prefix:{tag}")
    prefix = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(cost, out=prefix[1:])
    return prefix


def _collect_subcore(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    roots: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Joint k-subcore of all roots: every coreness-``k`` vertex
    connected to a root inside the k-core (paths may hop through
    vertices of coreness ``> k`` — they glue subcore fragments of the
    same k-core together, exactly like the per-edge bridge walk).

    One BFS claims the whole ``>= k`` reachable region.  A scanned
    neighbor is tested with a charged load first and CASed only while
    its slot is still 0, so each vertex is CASed exactly once and the
    claimed set, the total work and the atomics are independent of how
    the pool splits each frontier.  Frontiers are split into one range
    per thread by row cost.
    """
    n = coreness.size
    visited = AtomicArray(n, name="visited")
    nthreads = pool.threads
    seed_parts: list[list[int]] = [[] for _ in range(nthreads)]

    def claim_root(x, ctx) -> None:
        xi = int(x)
        ctx.read(("coreness", xi))
        if visited.compare_and_swap(ctx, xi, 0, 1):
            seed_parts[ctx.thread_id].append(xi)

    pool.parallel_for(list(roots), claim_root, label=f"dyn_seed:{tag}")
    frontier = _merge_parts(seed_parts)
    members: list[int] = []
    while frontier:
        members.extend(x for x in frontier if int(coreness[x]) == k)
        next_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def expand(chunk: range, ctx) -> None:
            start, end = chunk.start, chunk.stop
            for i in range(start, end):
                x = frontier[i]
                ctx.read(("row_len", x))
                base = int(indptr[x])
                deg = int(row_len[x])
                for j in range(deg):
                    y = int(indices[base + j])
                    ctx.read(("coreness", y))
                    if int(coreness[y]) >= k and visited.load(ctx, y) == 0:
                        if visited.compare_and_swap(ctx, y, 0, 1):
                            next_parts[ctx.thread_id].append(y)

        prefix = _row_prefix(pool, row_len, frontier, tag)
        pool.parallel_for(
            pool.partition(len(frontier), prefix),
            expand,
            label=f"dyn_expand:{tag}",
        )
        frontier = _merge_parts(next_parts)
    return sorted(members)


def _peel(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    cand: list[int],
    k: int,
    need: int,
    alive: np.ndarray,
    tag: str,
) -> list[int]:
    """Localized peel over ``cand``; returns the sorted survivors.

    A candidate survives while it keeps ``>= need`` supporters:
    neighbors of coreness ``> k``, or with their ``alive`` flag set.
    Evicted candidates clear their flag.  Two-phase per round: support
    counted into position-indexed slots against a frozen ``alive``
    snapshot, then evictions applied to disjoint vertex slots —
    bit-identical at any thread count.  Coreness is not written here.
    """
    active = sorted(cand)
    nthreads = pool.threads
    while active:
        supp = np.zeros(len(active), dtype=np.int64)

        def count_support(chunk: range, ctx) -> None:
            start, end = chunk.start, chunk.stop
            for i in range(start, end):
                x = active[i]
                ctx.read(("row_len", x))
                base = int(indptr[x])
                deg = int(row_len[x])
                s = 0
                for j in range(deg):
                    y = int(indices[base + j])
                    ctx.read(("coreness", y))
                    ctx.read(("alive", y))
                    if int(coreness[y]) > k or alive[y]:
                        s += 1
                ctx.write(("supp", i))
                supp[i] = s

        prefix = _row_prefix(pool, row_len, active, tag)
        pool.parallel_for(
            pool.partition(len(active), prefix),
            count_support,
            label=f"dyn_support:{tag}",
        )
        out_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def evict(slot, ctx) -> None:
            i = slot[0]
            xi = slot[1]
            ctx.read(("supp", i))
            if int(supp[i]) < need:
                ctx.write(("alive", xi))
                alive[xi] = 0
                out_parts[ctx.thread_id].append(xi)

        pool.parallel_for(
            list(enumerate(active)), evict, label=f"dyn_evict:{tag}"
        )
        if not any(out_parts):
            break
        active = [x for x in active if alive[x]]
    return active


def _peel_promote(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    cand: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Promote peel at level ``k + 1`` over ``cand``: a candidate
    survives with ``> k`` supporters among the surviving candidates and
    the vertices of coreness ``> k``.  Returns the sorted survivors."""
    alive = np.zeros(coreness.size, dtype=np.int64)
    alive[cand] = 1
    return _peel(
        pool, indptr, indices, row_len, coreness, cand, k, k + 1, alive, tag
    )


def _peel_demote(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    cand: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Demote peel at level ``k`` over ``cand``: a vertex keeps level
    ``k`` while it has ``>= k`` supporters of effective level ``>= k``
    (coreness ``> k``, or coreness ``k`` and not yet dropped).  Returns
    the sorted dropped vertices."""
    alive = (coreness == k).astype(np.int64)
    survivors = set(
        _peel(pool, indptr, indices, row_len, coreness, cand, k, k, alive, tag)
    )
    return [x for x in sorted(cand) if x not in survivors]


def _apply_level(
    pool: SimulatedPool,
    coreness: np.ndarray,
    vertices: list[int],
    level: int,
    tag: str,
) -> None:
    """Write ``level`` into every vertex's coreness slot (disjoint)."""

    def assign(x, ctx) -> None:
        xi = int(x)
        ctx.write(("coreness", xi))
        coreness[xi] = level

    pool.parallel_for(sorted(vertices), assign, label=f"dyn_apply:{tag}")


# ----------------------------------------------------------------------
# phase orchestration
# ----------------------------------------------------------------------


def _group_by_level(
    coreness: np.ndarray,
    edges: list[tuple[int, int]],
    seeds: set[int],
    dirty_levels: set[int],
) -> dict[int, set[int]]:
    """Map current level ``k`` to the repair roots at that level.

    Every pending edge re-registers at its *current* ``min`` level each
    round (levels move between rounds), and marks it dirty so the
    verification sweep covers it even when the worklist finds nothing.
    """
    level_roots: dict[int, set[int]] = {}
    for u, v in edges:
        k = int(min(coreness[u], coreness[v]))
        dirty_levels.add(k)
        for x in (u, v):
            if int(coreness[x]) == k:
                level_roots.setdefault(k, set()).add(x)
    for x in seeds:
        level_roots.setdefault(int(coreness[x]), set()).add(x)
    return level_roots


def _demote_phase(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    deleted: list[tuple[int, int]],
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Worklist demotion rounds to quiescence; returns rounds run."""
    seeds: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        level_roots = _group_by_level(coreness, deleted, seeds, dirty_levels)
        seeds = set()
        any_change = False
        for k in sorted(level_roots, reverse=True):
            if k < 1:
                continue
            roots = sorted(x for x in level_roots[k] if int(coreness[x]) == k)
            if not roots:
                continue
            with pool.phase(f"dynamic.demote:level-{k}"):
                cand = _collect_subcore(
                    pool, indptr, indices, row_len, coreness, roots, k, f"d{k}"
                )
                droppedv = _peel_demote(
                    pool, indptr, indices, row_len, coreness, cand, k, f"d{k}"
                )
                if droppedv:
                    _apply_level(pool, coreness, droppedv, k - 1, f"d{k}")
            if droppedv:
                any_change = True
                dirty_levels.update((k - 1, k))
                changed.update(droppedv)
                seeds.update(droppedv)
        if not any_change:
            return rounds


def _promote_phase(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    inserted: list[tuple[int, int]],
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Worklist promotion rounds to quiescence; returns rounds run."""
    seeds: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        level_roots = _group_by_level(coreness, inserted, seeds, dirty_levels)
        seeds = set()
        any_change = False
        for k in sorted(level_roots):
            roots = sorted(x for x in level_roots[k] if int(coreness[x]) == k)
            if not roots:
                continue
            with pool.phase(f"dynamic.promote:level-{k}"):
                cand = _collect_subcore(
                    pool, indptr, indices, row_len, coreness, roots, k, f"i{k}"
                )
                survivors = _peel_promote(
                    pool, indptr, indices, row_len, coreness, cand, k, f"i{k}"
                )
                if survivors:
                    _apply_level(pool, coreness, survivors, k + 1, f"i{k}")
            if survivors:
                any_change = True
                dirty_levels.update((k, k + 1))
                changed.update(survivors)
                seeds.update(survivors)
        if not any_change:
            return rounds


def _verify_demote(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Full-level demote sweeps over dirty levels until quiescent."""
    sweeps = 0
    while True:
        sweeps += 1
        any_change = False
        for k in sorted(dirty_levels, reverse=True):
            if k < 1:
                continue
            cand = [int(x) for x in np.flatnonzero(coreness == k)]
            if not cand:
                continue
            with pool.phase(f"dynamic.verify-demote:level-{k}"):
                droppedv = _peel_demote(
                    pool, indptr, indices, row_len, coreness, cand, k, f"v{k}"
                )
                if droppedv:
                    _apply_level(pool, coreness, droppedv, k - 1, f"v{k}")
            if droppedv:
                any_change = True
                dirty_levels.add(k - 1)
                changed.update(droppedv)
        if not any_change:
            return sweeps


def _verify_promote(
    pool: SimulatedPool,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_len: np.ndarray,
    coreness: np.ndarray,
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Full-level promote sweeps over dirty levels until quiescent."""
    sweeps = 0
    while True:
        sweeps += 1
        any_change = False
        for k in sorted(dirty_levels):
            cand = [int(x) for x in np.flatnonzero(coreness == k)]
            if not cand:
                continue
            with pool.phase(f"dynamic.verify-promote:level-{k}"):
                survivors = _peel_promote(
                    pool, indptr, indices, row_len, coreness, cand, k, f"v{k}"
                )
                if survivors:
                    _apply_level(pool, coreness, survivors, k + 1, f"v{k}")
            if survivors:
                any_change = True
                dirty_levels.add(k + 1)
                changed.update(survivors)
        if not any_change:
            return sweeps


def batch_repair(
    acsr,
    coreness: np.ndarray,
    inserted: list[tuple[int, int]],
    deleted: list[tuple[int, int]],
    pool: SimulatedPool,
) -> tuple[set[int], int]:
    """Repair ``coreness`` in place after a batch of applied mutations.

    ``acsr`` is the already-mutated adjacency (``DynamicCSR`` or any
    object exposing ``indptr`` / ``indices`` / ``lens``); ``inserted``
    and ``deleted`` are the canonical edge lists that were actually
    applied.  Returns ``(changed_vertices, worklist_rounds)``.
    """
    indptr = acsr.indptr
    indices = acsr.indices
    row_len = acsr.lens
    changed: set[int] = set()
    dirty_levels: set[int] = set()
    rounds = 0
    if deleted:
        rounds += _demote_phase(
            pool, indptr, indices, row_len, coreness, deleted,
            changed, dirty_levels,
        )
        _verify_demote(
            pool, indptr, indices, row_len, coreness, changed, dirty_levels
        )
    if inserted:
        rounds += _promote_phase(
            pool, indptr, indices, row_len, coreness, inserted,
            changed, dirty_levels,
        )
        _verify_promote(
            pool, indptr, indices, row_len, coreness, changed, dirty_levels
        )
    return changed, rounds
