"""The three benchmark workloads, their inputs, timed passes and oracles.

Inputs are generated, so the program sees nothing else: the graphs of
``construct-web`` and ``churn-social`` and the edit batches come from the
seed; the read traces and the ``sharded-web`` graph are fixed (see
``TRACE_SEED`` and ``ShardedWeb.GRAPH_SEED``).  A workload exposes

* ``setup()`` — everything before the first timed pass (its wall time
  is the ``setup_s`` metric); it runs once per instance, and a run sets
  up several instances one after another and keeps the last;
* ``prepare(i)`` — untimed per-pass inputs (a fresh pool, a batch);
* ``run(job)`` — the timed pass;
* ``account(job, out)`` — the pass's operations and simulated cost,
  read after the clock stops;
* ``check(job, out)`` — the oracle, outside the timed region: the
  number of the pass's operations that failed or disagree with it.

Why these three: ``construct-web`` is dominated by peeling and hierarchy
construction on a deep, skewed graph and searches with a thin type-A
pass; ``churn-social`` serves type-B reads from a cold cache on a flat,
triangle-rich graph between writes (dynamic repair, delta publish); and
``sharded-web`` is the only path through the simulated cluster.  An
optimisation of one layer should move its own workload and leave the
others unchanged.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster import SimCluster, distributed_core_decomposition, shard_graph
from repro.core.decomposition import core_decomposition
from repro.core.lcps import lcps_build_hcd
from repro.core.phcd import phcd_build_hcd
from repro.dynamic.maintenance import DynamicGraph
from repro.graph.generators import powerlaw_cluster, rmat
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import search_best_core
from repro.search.bks import bks_search
from repro.serve import (
    DynamicServingFeed,
    HCDService,
    SnapshotCatalog,
    SnapshotExecutor,
    normalize_request,
    synthetic_trace,
)

from spans import region_totals

__all__ = ["WORKLOADS", "PassStats", "make_workload"]

THREADS = 4
#: type-A metric of the construct pass (Figure 7's end-to-end PBKS-A)
TYPE_A_METRIC = "average_degree"
#: open-loop arrival gap (work units) at which no request is shed
MEAN_GAP = 1e5
#: The read traces do not vary with the seed, the graphs do.  Tail
#: latency is set by how many requests arrive while the few cold shared
#: passes run; with a per-seed trace p99 swings twofold between seeds.
TRACE_SEED = 7
#: one query of each kind, for the cold ``run_query`` probes
PROBE_QUERIES = {
    "pbks_a": {"kind": "pbks", "metric": "conductance"},
    "pbks_b": {"kind": "pbks", "metric": "clustering_coefficient"},
    "best_k_a": {"kind": "best_k", "metric": "conductance"},
    "best_k_b": {"kind": "best_k", "metric": "clustering_coefficient"},
    "densest": {"kind": "densest"},
    "influential": {"kind": "influential", "k": 2, "r": 3, "weights": "degree"},
}


@dataclass
class PassStats:
    """What one timed pass did, read after the clock stopped."""

    ops: int                  # operations attempted in the pass
    sim: float                # simulated elapsed time of the pass
    regions: int              # parallel/serial regions closed
    work: float               # charged work units (RegionStats.work_total)
    latencies: list[float] = field(default_factory=list)  # work units per op


def _pool_stats(pools, cursors=None) -> tuple[int, float, float]:
    """``(regions, work, work units)`` closed on ``pools`` since ``cursors``."""
    regions = 0
    work = wu = 0.0
    for index, pool in enumerate(pools):
        closed = pool.regions[cursors[index] if cursors else 0 :]
        total, atomics, _ = region_totals(closed)
        regions += len(closed)
        work += total
        wu += total + atomics
    return regions, work, wu


class _Workload:
    """Shared plumbing: sizes, the seed, and oracle wall times."""

    name = ""
    SIZES: dict[str, dict] = {}
    #: passes every untraced run makes; the work-unit latencies and the
    #: sim clock come from exactly these, so they repeat for a seed
    FIXED_PASSES = 3

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.size = self.SIZES["small" if small else "full"]
        self.workdir = workdir
        #: oracle call name -> wall seconds of each call (baseline timings)
        self.oracle_seconds: dict[str, list[float]] = {}
        self.edges = 0
        self._tmp: str | None = None

    def _timed_oracle(self, name: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.oracle_seconds.setdefault(name, []).append(
            time.perf_counter() - start
        )
        return result

    def _fresh_catalog(self) -> SnapshotCatalog:
        """A snapshot catalog in a new temporary directory under ``workdir``."""
        self.close()
        self._tmp = tempfile.mkdtemp(prefix="catalog-", dir=self.workdir)
        return SnapshotCatalog(self._tmp)

    def close(self) -> None:
        """Remove the catalog directory, if set-up made one."""
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def probes(self) -> dict[str, float]:
        """Per-layer measurements made outside the passes (traced runs)."""
        return {}


# ----------------------------------------------------------------------
# construct-web
# ----------------------------------------------------------------------


class ConstructWeb(_Workload):
    """Raw edges to best type-A core: PKC, rank, PHCD, preprocessing, PBKS."""

    name = "construct-web"
    SIZES = {
        "full": {"scale": 15, "edge_factor": 6},
        "small": {"scale": 9, "edge_factor": 6},
    }

    def setup(self) -> None:
        graph = rmat(self.size["scale"], self.size["edge_factor"], seed=self.seed)
        self.num_vertices = graph.num_vertices
        self.edge_array = graph.edge_array()
        self.edges = graph.num_edges
        self._oracle = None

    def prepare(self, index: int) -> SimulatedPool:
        return SimulatedPool(threads=THREADS)

    def run(self, pool: SimulatedPool):
        graph = Graph.from_edges(self.edge_array, num_vertices=self.num_vertices)
        result, deco = search_best_core(graph, TYPE_A_METRIC, pool=pool)
        return graph, result, deco

    def account(self, pool: SimulatedPool, out) -> PassStats:
        regions, work, wu = _pool_stats([pool])
        return PassStats(ops=1, sim=pool.clock, regions=regions, work=work,
                         latencies=[wu])

    def oracle(self, graph: Graph):
        """Serial stack: BZ coreness, LCPS hierarchy, BKS answer."""
        if self._oracle is None:
            coreness = self._timed_oracle("bz", core_decomposition, graph)
            hcd = self._timed_oracle("lcps", lcps_build_hcd, graph, coreness)
            answer = bks_search(graph, coreness, hcd, TYPE_A_METRIC)
            self._oracle = (coreness, hcd.canonical_form(), _answer_key(answer))
        return self._oracle

    def check(self, pool, out) -> int:
        graph, result, deco = out
        coreness, form, answer = self.oracle(graph)
        ok = (
            np.array_equal(deco.coreness, coreness)
            and deco.hcd.canonical_form() == form
            and _answer_key(result) == answer
        )
        return 0 if ok else 1


def _answer_key(result) -> tuple:
    """Node-id-free identity of a search answer."""
    return (
        int(result.best_k),
        float(result.best_score),
        tuple(int(v) for v in np.sort(result.best_members())),
    )


# ----------------------------------------------------------------------
# churn-social
# ----------------------------------------------------------------------


@dataclass
class ChurnRound:
    """One round's edits and reads, and where the pool stood before it."""

    index: int
    insertions: list[tuple[int, int]]
    deletions: list[tuple[int, int]]
    trace: list[dict]
    mutations_before: int
    clock_mark: float
    region_cursor: int


class ChurnSocial(_Workload):
    """Rounds of batch repair + delta publish + refresh + a short read trace."""

    name = "churn-social"
    SIZES = {
        "full": {"n": 4000, "edits": 50, "reads": 250},
        "small": {"n": 300, "edits": 8, "reads": 60},
    }
    SNAPSHOT = "churn"
    #: Repair cost varies with the batch and grows over the first rounds as
    #: random insertions flatten the graph.  Over ten seeds the
    #: interquartile range of the mean sim clock of five rounds was 8% of
    #: its median, of ten rounds 4%.
    FIXED_PASSES = 10

    def setup(self) -> None:
        graph = powerlaw_cluster(self.size["n"], 4, 0.5, seed=self.seed)
        self.edges = graph.num_edges
        self.catalog = self._fresh_catalog()
        self.pool = SimulatedPool(threads=THREADS)
        self.dyn = DynamicGraph(graph)
        self.feed = DynamicServingFeed(
            self.dyn, self.catalog, self.SNAPSHOT, pool=self.pool
        )
        self.feed.publish()
        self.service = HCDService(self.catalog, self.SNAPSHOT, pool=self.pool)

    def prepare(self, index: int) -> ChurnRound:
        """Absent-edge insertions and present-edge deletions, from the seed."""
        rng = np.random.default_rng([self.seed, index])
        n = self.dyn.num_vertices
        edits = self.size["edits"]
        insertions: set[tuple[int, int]] = set()
        while len(insertions) < edits:
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v and not self.dyn.has_edge(u, v):
                insertions.add((min(u, v), max(u, v)))
        present = self.dyn.to_graph().edge_array()
        picks = rng.choice(len(present), edits, replace=False)
        deletions = [(int(present[i][0]), int(present[i][1])) for i in sorted(picks)]
        trace = synthetic_trace(
            self.size["reads"], seed=TRACE_SEED + index, mean_gap=MEAN_GAP
        )
        return ChurnRound(
            index=index,
            insertions=sorted(insertions),
            deletions=deletions,
            trace=trace,
            mutations_before=self.dyn.mutation_count,
            clock_mark=self.pool.clock,
            region_cursor=len(self.pool.regions),
        )

    def run(self, job: ChurnRound):
        version = self.feed.apply_batch(job.insertions, job.deletions)
        self.service.refresh()
        return version, self.service.serve(job.trace, refresh=False)

    def account(self, job: ChurnRound, out) -> PassStats:
        regions, work, _ = _pool_stats([self.pool], [job.region_cursor])
        mutations = len(job.insertions) + len(job.deletions)
        return PassStats(
            ops=mutations + len(job.trace),
            sim=self.pool.clock - job.clock_mark,
            regions=regions,
            work=work,
            latencies=out[1].latencies,
        )

    def check(self, job: ChurnRound, out) -> int:
        """Every edit applied; repaired coreness equals BZ; the published
        hierarchy equals a fresh PHCD; every request was answered, and in the
        first round each answer equals an uncached, unshared recomputation."""
        version, report = out
        mutations = len(job.insertions) + len(job.deletions)
        graph = self.dyn.to_graph()
        coreness = self._timed_oracle("bz", core_decomposition, graph)
        fresh = phcd_build_hcd(graph, coreness, SimulatedPool(threads=THREADS))
        ok = (
            self.dyn.mutation_count - job.mutations_before == mutations
            and version is not None
            and self.service.snapshot.version == version
            and np.array_equal(self.dyn.coreness, coreness)
            and self.service.snapshot.hcd.canonical_form() == fresh.canonical_form()
        )
        failed = 0 if ok else mutations
        failed += len(job.trace) - len(report.results)
        if job.index == 0:
            executor = SnapshotExecutor(
                self.service.snapshot, SimulatedPool(threads=THREADS),
                share_passes=False,
            )
            queries = {}
            for entry in job.trace:
                query = normalize_request(entry)
                queries[query.fingerprint] = query
            expected = {fp: executor.run_query(q) for fp, q in queries.items()}
            failed += sum(
                expected.get(answer.fingerprint) != answer
                for answer in report.results.values()
            )
        return failed

    def probes(self) -> dict[str, float]:
        """Cold ``run_query`` wall time per query kind, one fresh executor each."""
        out = {}
        for label, request in PROBE_QUERIES.items():
            executor = SnapshotExecutor(
                self.service.snapshot, SimulatedPool(threads=THREADS)
            )
            query = normalize_request(request)
            start = time.perf_counter()
            executor.run_query(query)
            out[f"serve.exec_{label}_s"] = time.perf_counter() - start
        return out


# ----------------------------------------------------------------------
# sharded-web
# ----------------------------------------------------------------------


class ShardedWeb(_Workload):
    """Distributed core decomposition of a label-propagation-sharded graph."""

    name = "sharded-web"
    SIZES = {
        "full": {"scale": 13, "edge_factor": 8, "shards": 4},
        "small": {"scale": 9, "edge_factor": 8, "shards": 4},
    }
    #: The graph does not vary with the seed.  Each superstep costs as much
    #: as the shard with the deepest local peeling, and between R-MAT seeds
    #: that swings the sim clock by 30% (interquartile range over 20 seeds).
    GRAPH_SEED = 0

    def setup(self) -> None:
        self.graph = rmat(
            self.size["scale"], self.size["edge_factor"], seed=self.GRAPH_SEED
        )
        self.edges = self.graph.num_edges
        self.sharded = shard_graph(self.graph, self.size["shards"], "lp")
        self._oracle = None

    def prepare(self, index: int) -> SimCluster:
        return SimCluster(self.size["shards"], threads=THREADS)

    def run(self, cluster: SimCluster):
        return distributed_core_decomposition(self.graph, cluster, self.sharded)

    def account(self, cluster: SimCluster, report) -> PassStats:
        regions, work, wu = _pool_stats(cluster.pools())
        return PassStats(ops=1, sim=cluster.clock, regions=regions, work=work,
                         latencies=[wu])

    def check(self, cluster, report) -> int:
        if self._oracle is None:
            self._oracle = self._timed_oracle("bz", core_decomposition, self.graph)
        return 0 if np.array_equal(report.coreness, self._oracle) else 1


WORKLOADS = {
    cls.name: cls for cls in (ConstructWeb, ChurnSocial, ShardedWeb)
}


def make_workload(name: str, seed: int, workdir: Path, small: bool = False) -> _Workload:
    """Instantiate a workload by name; temporary files go under ``workdir``."""
    return WORKLOADS[name](seed, small, workdir)
