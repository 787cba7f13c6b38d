"""Determinism regression: results are bit-identical across thread counts.

The simulated substrate executes virtual threads sequentially, so every
parallel kernel must produce *exactly* the same output no matter how
many virtual threads the pool is configured with — the thread count may
change the simulated clock (more parallelism, shorter span) but never
the answer.  A divergence here means some kernel's result depends on
the work partition, i.e. a real scheduling hazard the race detector
models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.parallel.scheduler import SimulatedPool
from repro.search.pbks import pbks_search
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

THREADS = (1, 2, 4, 8)


def _graph():
    return powerlaw_cluster(150, 3, 0.3, seed=21)


def _hcd_snapshot(hcd):
    return (
        hcd.node_coreness.tolist(),
        hcd.parent.tolist(),
        hcd.tid.tolist(),
    )


@pytest.mark.parametrize("use_waitfree", [True, False])
def test_phcd_identical_across_thread_counts(use_waitfree):
    graph = _graph()
    snapshots = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        coreness = pkc_core_decomposition(graph, pool)
        hcd = phcd_build_hcd(
            graph, coreness, pool, use_waitfree=use_waitfree
        )
        snapshots.append((coreness.tolist(), _hcd_snapshot(hcd)))
    assert all(s == snapshots[0] for s in snapshots[1:])


def test_pbks_identical_across_thread_counts():
    graph = _graph()
    picks = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        coreness = pkc_core_decomposition(graph, pool)
        hcd = phcd_build_hcd(graph, coreness, pool)
        result = pbks_search(
            graph, coreness, hcd, "internal_density", pool
        )
        picks.append(
            (
                result.best_node,
                result.best_k,
                result.best_score,
                result.scores.tolist(),
            )
        )
    assert all(p == picks[0] for p in picks[1:])


def test_waitfree_unionfind_identical_across_thread_counts():
    graph = erdos_renyi(140, 0.05, seed=8)
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    outcomes = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        uf = SimulatedWaitFreeUnionFind(
            np.arange(140), failure_rate=0.2, seed=5
        )
        pool.parallel_for(
            edges,
            lambda e, ctx: uf.union(e[0], e[1], ctx),
            label="det_uf_union",
        )
        pivots = pool.parallel_for(
            list(range(140)),
            lambda v, ctx: uf.get_pivot(v, ctx),
            label="det_uf_pivot",
        )
        comps = pool.parallel_for(
            list(range(140)),
            lambda v, ctx: uf.find(v, ctx),
            label="det_uf_find",
        )
        outcomes.append((list(pivots), list(comps)))
    assert all(o == outcomes[0] for o in outcomes[1:])


def test_serve_batch_results_identical_across_thread_counts(tmp_path):
    """Batched serving answers and the whole replay report are
    bit-identical at every thread count (the HCDServe determinism bar:
    work-unit latencies, cache stats, and query results may not depend
    on the work partition)."""
    from repro.serve import (
        HCDService,
        QueryPlanner,
        SnapshotCatalog,
        SnapshotExecutor,
        build_snapshot,
        normalize_request,
        synthetic_trace,
    )

    graph = _graph()
    catalog = SnapshotCatalog(tmp_path)
    catalog.publish(build_snapshot(graph, threads=4, name="det"))

    requests = [
        {"kind": "pbks", "metric": "average_degree"},
        {"kind": "pbks", "metric": "clustering_coefficient"},
        {"kind": "densest"},
        {"kind": "best_k", "metric": "internal_density"},
        {"kind": "influential", "k": 2, "r": 3, "weights": "coreness"},
    ]
    plan = QueryPlanner().plan(
        [(i, normalize_request(r)) for i, r in enumerate(requests)]
    )
    trace = synthetic_trace(48, seed=3)

    batch_results = []
    replays = []
    for threads in THREADS:
        snapshot = catalog.open("det")
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=threads))
        batch_results.append(executor.execute(plan))
        report = HCDService(catalog, "det", threads=threads).serve(trace)
        signature = report.as_dict()
        # the pool clock is the one legitimately thread-dependent field
        signature.pop("sim_clock")
        signature.pop("threads")
        signature["records"] = [r.as_dict() for r in report.records]
        replays.append(signature)

    assert all(r == batch_results[0] for r in batch_results[1:])
    assert all(r == replays[0] for r in replays[1:])


# ----------------------------------------------------------------------
# work-balanced construction kernels: bit-identical to the seed semantics
# ----------------------------------------------------------------------

GUARD_THREADS = (1, 2, 4, 8, 16)


def _star_beside_clique():
    """One giant tree node (the star's 1-shell) next to a 29-core.

    The star holds most of the vertices in a single node, so at every
    thread count > 1 the type-A segmented reduction splits that node's
    segments over several threads and the gather must sum them.
    """
    from repro.graph.graph import Graph

    leaves = 400
    edges = [(0, i) for i in range(1, leaves)]
    edges += [
        (leaves + i, leaves + j) for i in range(30) for j in range(i + 1, 30)
    ]
    edges.append((1, leaves))
    return Graph.from_edges(np.array(edges), num_vertices=leaves + 30)


def _guard_graphs():
    return {
        "powerlaw": powerlaw_cluster(300, 3, 0.4, seed=4),
        "star_clique": _star_beside_clique(),
    }


def _reference_rank(coreness):
    """Definition 4 directly: vertices ordered by (coreness, id)."""
    n = coreness.size
    vsort = np.lexsort((np.arange(n), coreness))
    rank = np.empty(n, dtype=np.int64)
    rank[vsort] = np.arange(n)
    kmax = int(coreness.max())
    shells = [np.flatnonzero(coreness == k) for k in range(kmax + 1)]
    return rank, vsort, shells


def _reference_type_a(hcd, counts):
    """Algorithm 4 per vertex, summed over each node's original core."""
    per_node = np.zeros((hcd.num_nodes, 3))
    for v in range(hcd.num_vertices):
        node = int(hcd.tid[v])
        gt, eq, lt = int(counts.gt[v]), int(counts.eq[v]), int(counts.lt[v])
        per_node[node] += (1.0, gt + 0.5 * eq, lt - gt)
    return np.array(
        [per_node[hcd.subtree_nodes(i)].sum(axis=0) for i in range(hcd.num_nodes)]
    )


@pytest.mark.parametrize("name", ["powerlaw", "star_clique"])
def test_vertex_rank_matches_definition_at_every_thread_count(name):
    from repro.core.decomposition import core_decomposition
    from repro.core.vertex_rank import compute_vertex_rank

    graph = _guard_graphs()[name]
    coreness = core_decomposition(graph)
    rank, vsort, shells = _reference_rank(coreness)
    for threads in GUARD_THREADS:
        result = compute_vertex_rank(graph, coreness, SimulatedPool(threads))
        assert result.rank.tolist() == rank.tolist()
        assert result.vsort.tolist() == vsort.tolist()
        assert len(result.shells) == len(shells)
        for got, want in zip(result.shells, shells):
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", ["powerlaw", "star_clique"])
@pytest.mark.parametrize("need_type_b", [False, True])
def test_pbks_type_a_columns_match_per_vertex_sums(name, need_type_b):
    from repro.core.decomposition import core_decomposition
    from repro.core.lcps import lcps_build_hcd
    from repro.search.pbks import pbks_node_values
    from repro.search.preprocessing import preprocess_neighbor_counts

    graph = _guard_graphs()[name]
    coreness = core_decomposition(graph)
    hcd = lcps_build_hcd(graph, coreness)
    counts = preprocess_neighbor_counts(graph, coreness, SimulatedPool())
    expected = _reference_type_a(hcd, counts)
    matrices = []
    for threads in GUARD_THREADS:
        values = pbks_node_values(
            graph, coreness, hcd, SimulatedPool(threads),
            counts=counts, need_type_b=need_type_b,
        )
        assert values[:, :3].tobytes() == expected.tobytes()
        matrices.append(values.tobytes())
    assert all(m == matrices[0] for m in matrices[1:])


def test_star_clique_giant_node_spans_several_threads():
    """The guard graph really exercises the multi-segment path: one node
    holds most members, in many segments, so any cost split cuts it."""
    from repro.core.decomposition import core_decomposition
    from repro.core.lcps import lcps_build_hcd
    from repro.search.pbks import _SEGMENT

    graph = _star_beside_clique()
    hcd = lcps_build_hcd(graph, core_decomposition(graph))
    offsets, members = hcd.member_csr()
    largest = int(np.diff(offsets).max())
    assert largest > members.size / 2
    assert largest > 4 * _SEGMENT


@pytest.mark.parametrize("name", ["powerlaw", "star_clique"])
def test_pbks_answers_identical_to_bks_at_every_thread_count(name):
    from repro.core.decomposition import core_decomposition
    from repro.core.lcps import lcps_build_hcd
    from repro.search.bks import bks_search

    graph = _guard_graphs()[name]
    coreness = core_decomposition(graph)
    hcd = lcps_build_hcd(graph, coreness)
    for metric in ("average_degree", "conductance", "clustering_coefficient"):
        want = bks_search(graph, coreness, hcd, metric)
        for threads in GUARD_THREADS:
            got = pbks_search(graph, coreness, hcd, metric, SimulatedPool(threads))
            assert (got.best_k, got.best_score) == (want.best_k, want.best_score)
            assert sorted(got.best_members().tolist()) == sorted(
                want.best_members().tolist()
            )
