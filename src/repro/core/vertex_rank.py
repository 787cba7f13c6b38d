"""Parallel vertex-rank computation (paper Algorithm 1).

The *vertex rank* (Definition 4) orders vertices by ``(coreness, id)``.
Algorithm 1 computes it in O(n) work: each thread bins its slice of
vertices by coreness into per-thread bins ``HL[p][k]``; concatenating
``HL[1..p][k]`` yields the k-shell ``H_k`` in ascending-id order, and
concatenating the shells yields ``Vsort``, whose positions are the
ranks.  The same pass therefore also materializes every k-shell, which
PHCD consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty

__all__ = ["VertexRankResult", "compute_vertex_rank"]


@dataclass
class VertexRankResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    rank:
        ``rank[v]`` is the position of ``v`` in the ``(coreness, id)``
        order; lower rank = lower coreness (Definition 4).
    shells:
        ``shells[k]`` is the k-shell ``H_k`` as an ascending-id array.
    vsort:
        All vertices sorted by vertex rank (the concatenated shells).
    """

    rank: np.ndarray
    shells: list[np.ndarray]
    vsort: np.ndarray

    @property
    def kmax(self) -> int:
        """Largest coreness present (index of the last shell)."""
        return len(self.shells) - 1


def compute_vertex_rank(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
) -> VertexRankResult:
    """Run Algorithm 1 on ``pool``; O(n) total work.

    The per-thread bin layout ``HL[p][k]`` of the paper is reproduced:
    static chunking assigns each virtual thread a contiguous ascending-id
    slice (line 2), each thread bins its vertices by coreness (lines
    3-6), a prefix sum over the bin sizes places every bin in ``Vsort``
    and the threads copy the bins there (lines 7-9; each shell is a view
    of ``Vsort``), and ranks are positions in ``Vsort`` (lines 10-11).
    """
    n = graph.num_vertices
    coreness = np.asarray(coreness, dtype=np.int64)
    kmax = int(coreness.max()) if n else 0
    p = pool.threads
    # HL[t][k]: vertices of thread t's slice with coreness k, ascending id.
    bins: list[list[list[int]]] = [
        [[] for _ in range(kmax + 1)] for _ in range(p)
    ]

    def bin_vertex(v: int, ctx) -> None:
        ctx.charge(1)
        # The append targets the thread's own bin array; the paper
        # marks it atomic because the bins are shared storage, but no
        # other thread touches HL[p], so it never contends.
        ctx.atomic(("HL", ctx.thread_id, int(coreness[v])), contended=False)
        bins[ctx.thread_id][int(coreness[v])].append(v)

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), bin_vertex, label="vertex_rank:bin")

    # Lines 7-9: H_k = HL[1][k] + ... + HL[p][k] and Vsort = H_0 + ... +
    # H_kmax, so bin (k, t) starts in Vsort at the exclusive prefix sum
    # of the bin sizes in k-major, t-minor order.  One item per shell
    # scans its p bin sizes (row k of bin_off, |H_k| in column p); a
    # scan over the shell sizes then places every shell.
    bin_off = np.zeros((kmax + 1, p + 1), dtype=np.int64)

    def scan_shell(k: int, ctx) -> None:
        ctx.charge(p)
        ctx.write(("bin_off", int(k)))
        bin_off[k] = np.cumsum([0] + [len(bins[t][k]) for t in range(p)])

    with pool.phase("vertex-rank"):
        pool.parallel_for(
            range(kmax + 1), scan_shell, label="vertex_rank:offsets"
        )
        with pool.serial_region("vertex_rank:shell_offsets") as ctx:
            ctx.charge(kmax + 1)
    shell_start = np.zeros(kmax + 2, dtype=np.int64)
    np.cumsum(bin_off[:, p], out=shell_start[1:])
    # the non-empty bins in (k, t) order, and where each starts in Vsort
    starts = (shell_start[:-1, None] + bin_off[:, :p]).ravel()
    full = np.flatnonzero(np.diff(bin_off, axis=1).ravel())
    bin_start = np.append(starts[full], n)
    flat_bins = [bins[i % p][i // p] for i in full.tolist()]

    # Each thread fills its own contiguous slice of Vsort from the bins
    # that cover it, after a binary search for the bin holding its
    # first position; it steps over no empty bin, so it pays at most
    # one bin boundary per position.
    vsort = san_empty(n, np.int64, name="vsort")

    def fill(chunk: range, ctx) -> None:
        start, end = chunk.start, chunk.stop
        if start == end:
            return
        b = int(np.searchsorted(bin_start, start, side="right")) - 1
        lo, hi, src = int(bin_start[b]), int(bin_start[b + 1]), flat_bins[b]
        for i in range(start, end):
            while i >= hi:
                ctx.charge(1)
                b += 1
                lo, hi, src = hi, int(bin_start[b + 1]), flat_bins[b]
            ctx.write(("vsort", int(i)))
            vsort[i] = src[i - lo]

    with pool.phase("vertex-rank"):
        pool.parallel_for(pool.partition(n), fill, label="vertex_rank:shells")
    shells = [
        vsort[shell_start[k] : shell_start[k + 1]] for k in range(kmax + 1)
    ]

    # Lines 10-11: r(v) = position of v in Vsort.
    rank = san_empty(n, np.int64, name="rank")

    def assign_rank(i: int, ctx) -> None:
        # vsort is a permutation, so rank slots are written exactly
        # once; the detector proves word-disjointness at runtime, the
        # lint cannot prove the bijection statically
        ctx.write(("rank", int(vsort[i])))
        rank[vsort[i]] = i  # sani: ok - permutation scatter, recorded above

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), assign_rank, label="vertex_rank:rank")
    return VertexRankResult(rank=rank, shells=shells, vsort=vsort)
