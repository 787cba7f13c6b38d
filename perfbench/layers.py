"""Which public calls the traced pass wraps, and how spans become metrics.

Every workload's traced pass wraps the same targets; a layer a workload
does not call leaves no spans and reports 0.  Per-pass quantities are
summed within one traced pass and reported as the median over passes.
"""

from __future__ import annotations

import math
import statistics

from repro.cluster import SimCluster
from repro.cluster import decomposition as cluster_decomposition
from repro.cluster import shard as cluster_shard
from repro.core import phcd, pkc, vertex_rank
from repro.dynamic.maintenance import DynamicGraph
from repro.graph.graph import Graph
from repro.search import best_k, pbks, preprocessing
from repro.serve import DynamicServingFeed, HCDService, SnapshotCatalog
from repro.serve import snapshot
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

from spans import Span, Target

__all__ = ["TARGETS", "PER_LAYER", "TraceData", "per_layer_metrics"]


def _report_counters(report) -> dict[str, float]:
    return {
        "hit_rate": float(report.cache.get("hit_rate", 0.0)),
        "coalesced": float(report.coalesced),
        "batches": float(report.batches),
        "shed": float(report.shed),
        "requests": float(len(report.records)),
    }


def _batch_counters(report) -> dict[str, float]:
    return {
        "changed": float(report.changed),
        "rounds": float(report.rounds),
        "applied": float(report.applied),
    }


def _distributed_counters(report) -> dict[str, float]:
    return {
        "supersteps": float(report.supersteps),
        "local_rounds": float(report.local_rounds),
        "messages": float(report.messages),
        "bytes": float(report.bytes_sent),
        "compute_clock": float(report.compute_clock),
        "comms_clock": float(report.comms_clock),
    }


TARGETS = [
    Target(Graph, "from_edges", "graph.from_edges"),
    Target(pkc, "pkc_core_decomposition", "core.pkc", regions=True),
    Target(vertex_rank, "compute_vertex_rank", "core.vertex_rank"),
    Target(phcd, "phcd_build_hcd", "core.phcd", regions=True),
    Target(SimulatedWaitFreeUnionFind, "find", "unionfind.find", tally=True),
    Target(SimulatedWaitFreeUnionFind, "union", "unionfind.union", tally=True),
    Target(preprocessing, "preprocess_neighbor_counts", "search.preprocess",
           regions=True),
    Target(pbks, "pbks_search", "search.pbks_a"),
    Target(pbks, "pbks_type_b_contributions", "search.pbks_b", regions=True),
    Target(best_k, "compute_level_values", "search.level_values"),
    Target(snapshot, "snapshot_from_dynamic", "serve.delta_build"),
    Target(SnapshotCatalog, "publish", "serve.publish"),
    Target(SnapshotCatalog, "open", "serve.open"),
    Target(HCDService, "serve", "serve.serve", extract=_report_counters),
    Target(HCDService, "answer", "serve.answer"),
    Target(HCDService, "refresh", "serve.refresh"),
    Target(DynamicServingFeed, "publish", "serve.feed_publish"),
    Target(DynamicGraph, "apply_batch", "dynamic.apply_batch", regions=True,
           extract=_batch_counters),
    Target(cluster_shard, "shard_graph", "cluster.shard",
           extract=lambda sharded: {"edge_cut": float(sharded.edge_cut)}),
    Target(cluster_decomposition, "distributed_core_decomposition",
           "cluster.decompose", extract=_distributed_counters),
    Target(SimCluster, "superstep", "cluster.superstep"),
]


class TraceData:
    """A traced run's spans and tallies, plus the untraced reference."""

    def __init__(self, spans: list[Span], tallies: dict, passes: int,
                 plain_walls: list[float], traced_walls: list[float],
                 extra: dict[str, float]) -> None:
        self.spans = spans
        self.tallies = tallies
        self.passes = passes
        self.plain_walls = plain_walls
        self.traced_walls = traced_walls
        self.extra = extra

    def _per_pass(self, name: str, value) -> list[float]:
        sums = [0.0] * self.passes
        for span in self.spans:
            if span.name == name and span.phase == "pass":
                sums[span.pass_index] += value(span)
        return sums

    def pass_median(self, name: str, value=lambda s: s.seconds) -> float:
        """Per-pass sum of ``value`` over spans called ``name``; median."""
        return statistics.median(self._per_pass(name, value))

    def counter(self, name: str, key: str) -> float:
        return self.pass_median(name, lambda s: s.counters.get(key, 0.0))

    def ratio(self, name: str, key: str, over: tuple[str, ...]) -> float:
        """Per-pass counter ``key`` over the summed seconds of ``over``; median."""
        counts = self._per_pass(name, lambda s: s.counters.get(key, 0.0))
        seconds = [0.0] * self.passes
        for other in over:
            for i, value in enumerate(self._per_pass(other, lambda s: s.seconds)):
                seconds[i] += value
        return statistics.median(
            c / s if s > 0 else 0.0 for c, s in zip(counts, seconds)
        )

    def calls(self, name: str, phases: tuple[str, ...] = ("pass",)) -> list[float]:
        return [s.seconds for s in self.spans
                if s.name == name and s.phase in phases]

    def call_median(self, name: str, phases: tuple[str, ...]) -> float:
        durations = self.calls(name, phases)
        return statistics.median(durations) if durations else 0.0

    def call_percentile_ms(self, name: str, q: float) -> float:
        durations = sorted(self.calls(name))
        if not durations:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(durations)))
        return 1e3 * durations[rank - 1]

    def call_count(self, name: str) -> float:
        return statistics.median(self._per_pass(name, lambda s: 1.0))

    def tally(self, name: str, field: int) -> float:
        return statistics.median(
            self.tallies.get((i, name), [0, 0.0])[field] for i in range(self.passes)
        )


ALL = ("setup", "prepare", "pass")

#: (name, unit, better, how it is computed from a TraceData)
PER_LAYER = [
    ("graph.from_edges_s", "s", "lower", lambda t: t.pass_median("graph.from_edges")),
    ("core.pkc_s", "s", "lower", lambda t: t.pass_median("core.pkc")),
    ("core.pkc_sim", "sim", "lower", lambda t: t.pass_median("core.pkc", lambda s: s.sim)),
    ("core.pkc_work", "wu", "lower", lambda t: t.pass_median("core.pkc", lambda s: s.work)),
    ("core.pkc_atomics", "count", "lower",
     lambda t: t.pass_median("core.pkc", lambda s: s.atomics)),
    ("core.pkc_contention", "sim", "lower",
     lambda t: t.pass_median("core.pkc", lambda s: s.contention)),
    ("core.vertex_rank_s", "s", "lower", lambda t: t.pass_median("core.vertex_rank")),
    ("core.phcd_s", "s", "lower", lambda t: t.pass_median("core.phcd")),
    ("core.phcd_sim", "sim", "lower", lambda t: t.pass_median("core.phcd", lambda s: s.sim)),
    ("core.phcd_work", "wu", "lower",
     lambda t: t.pass_median("core.phcd", lambda s: s.work)),
    ("core.phcd_atomics", "count", "lower",
     lambda t: t.pass_median("core.phcd", lambda s: s.atomics)),
    ("core.phcd_contention", "sim", "lower",
     lambda t: t.pass_median("core.phcd", lambda s: s.contention)),
    ("core.bz_s", "s", "lower", lambda t: t.extra.get("core.bz_s", 0.0)),
    ("core.lcps_s", "s", "lower", lambda t: t.extra.get("core.lcps_s", 0.0)),
    ("unionfind.find_calls", "count", "lower", lambda t: t.tally("unionfind.find", 0)),
    ("unionfind.union_calls", "count", "lower", lambda t: t.tally("unionfind.union", 0)),
    ("unionfind.find_s", "s", "lower", lambda t: t.tally("unionfind.find", 1)),
    ("parallel.regions", "count", "lower", lambda t: t.extra["parallel.regions"]),
    ("parallel.work", "wu", "lower", lambda t: t.extra["parallel.work"]),
    ("parallel.ns_per_work", "ns/wu", "lower",
     lambda t: 1e9 * statistics.median(t.plain_walls) / t.extra["parallel.work"]
     if t.extra["parallel.work"] else 0.0),
    ("search.preprocess_s", "s", "lower", lambda t: t.pass_median("search.preprocess")),
    ("search.preprocess_work", "wu", "lower",
     lambda t: t.pass_median("search.preprocess", lambda s: s.work)),
    ("search.pbks_a_s", "s", "lower", lambda t: t.pass_median("search.pbks_a")),
    ("search.pbks_b_s", "s", "lower", lambda t: t.pass_median("search.pbks_b")),
    ("search.pbks_b_work", "wu", "lower",
     lambda t: t.pass_median("search.pbks_b", lambda s: s.work)),
    ("search.level_values_s", "s", "lower", lambda t: t.pass_median("search.level_values")),
    *[
        (f"serve.exec_{kind}_s", "s", "lower",
         lambda t, kind=kind: t.extra.get(f"serve.exec_{kind}_s", 0.0))
        for kind in ("pbks_a", "pbks_b", "best_k_a", "best_k_b", "densest", "influential")
    ],
    ("serve.answer_p50_ms", "ms", "lower",
     lambda t: t.call_percentile_ms("serve.answer", 50)),
    ("serve.answer_p99_ms", "ms", "lower",
     lambda t: t.call_percentile_ms("serve.answer", 99)),
    ("serve.answer_calls", "count", "lower", lambda t: t.call_count("serve.answer")),
    ("serve.hit_rate", "ratio", "higher", lambda t: t.counter("serve.serve", "hit_rate")),
    ("serve.coalesced", "count", "higher", lambda t: t.counter("serve.serve", "coalesced")),
    ("serve.batches", "count", "lower", lambda t: t.counter("serve.serve", "batches")),
    ("serve.shed", "count", "lower", lambda t: t.counter("serve.serve", "shed")),
    ("serve.queries_per_s", "req/s", "higher",
     lambda t: t.ratio("serve.serve", "requests", ("serve.serve",))),
    ("serve.publish_s", "s", "lower", lambda t: t.call_median("serve.publish", ALL)),
    ("serve.open_s", "s", "lower", lambda t: t.call_median("serve.open", ALL)),
    ("serve.delta_publish_s", "s", "lower", lambda t: t.pass_median("serve.feed_publish")),
    ("serve.delta_build_s", "s", "lower", lambda t: t.pass_median("serve.delta_build")),
    ("serve.refresh_s", "s", "lower", lambda t: t.pass_median("serve.refresh")),
    ("dynamic.apply_batch_s", "s", "lower", lambda t: t.pass_median("dynamic.apply_batch")),
    ("dynamic.apply_batch_sim", "sim", "lower",
     lambda t: t.pass_median("dynamic.apply_batch", lambda s: s.sim)),
    ("dynamic.apply_batch_work", "wu", "lower",
     lambda t: t.pass_median("dynamic.apply_batch", lambda s: s.work)),
    ("dynamic.changed", "count", "lower", lambda t: t.counter("dynamic.apply_batch", "changed")),
    ("dynamic.rounds", "count", "lower", lambda t: t.counter("dynamic.apply_batch", "rounds")),
    ("dynamic.mutations_per_s", "edits/s", "higher",
     lambda t: t.ratio("dynamic.apply_batch", "applied",
                       ("dynamic.apply_batch", "serve.feed_publish"))),
    ("cluster.shard_s", "s", "lower", lambda t: t.call_median("cluster.shard", ("setup",))),
    ("cluster.edge_cut", "count", "lower",
     lambda t: statistics.median(
         [s.counters["edge_cut"] for s in t.spans if s.name == "cluster.shard"] or [0.0])),
    ("cluster.decompose_s", "s", "lower", lambda t: t.pass_median("cluster.decompose")),
    ("cluster.superstep_p50_ms", "ms", "lower",
     lambda t: t.call_percentile_ms("cluster.superstep", 50)),
    ("cluster.superstep_max_ms", "ms", "lower",
     lambda t: t.call_percentile_ms("cluster.superstep", 100)),
    *[
        (f"cluster.{key}", unit, "lower",
         lambda t, key=key: t.counter("cluster.decompose", key))
        for key, unit in (("supersteps", "count"), ("local_rounds", "count"),
                          ("messages", "count"), ("bytes", "B"),
                          ("compute_clock", "sim"), ("comms_clock", "sim"))
    ],
    ("wall.edges_per_s", "edges/s", "higher", lambda t: t.extra["wall.edges_per_s"]),
    ("wall.ops_per_s", "ops/s", "higher", lambda t: t.extra["wall.ops_per_s"]),
    ("bench.trace_overhead_frac", "ratio", "lower",
     lambda t: statistics.median(t.traced_walls) / statistics.median(t.plain_walls) - 1.0),
]


def per_layer_metrics(data: TraceData) -> dict[str, dict]:
    """Every per-layer metric of one traced run, by name."""
    return {
        name: {"value": float(compute(data)), "unit": unit}
        for name, unit, _, compute in PER_LAYER
    }
