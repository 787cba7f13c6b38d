"""Tests for the simulated-multicore scheduler and cost model."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.parallel.context import ThreadContext
from repro.parallel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.parallel.scheduler import SimulatedPool


class TestPartitioning:
    def test_static_partition_covers_all(self):
        pool = SimulatedPool(threads=4)
        ranges = pool.partition(10)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(10))

    def test_static_partition_balanced(self):
        pool = SimulatedPool(threads=3)
        sizes = [len(r) for r in pool.partition(10)]
        assert sizes == [4, 3, 3]

    def test_partition_more_threads_than_items(self):
        pool = SimulatedPool(threads=8)
        sizes = [len(r) for r in pool.partition(3)]
        assert sum(sizes) == 3

    def test_dynamic_deal_is_fixed_cyclic(self):
        # 'dynamic' is OpenMP schedule(static, grain): chunk c goes to
        # thread c % p, decided before any item runs
        pool = SimulatedPool(threads=3)
        buckets = pool._dynamic_assignment(20, grain=4)
        assert buckets[0] == [0, 1, 2, 3, 12, 13, 14, 15]
        assert buckets[1] == [4, 5, 6, 7, 16, 17, 18, 19]
        assert buckets[2] == [8, 9, 10, 11]

    def test_dynamic_assignment_covers_all(self):
        pool = SimulatedPool(threads=3)
        buckets = pool._dynamic_assignment(20, grain=4)
        flat = sorted(i for b in buckets for i in b)
        assert flat == list(range(20))

    def test_dynamic_bad_grain(self):
        pool = SimulatedPool(threads=2)
        with pytest.raises(SchedulerError):
            pool.parallel_for([1], lambda x, c: x, chunking="dynamic", grain=0)


class TestParallelFor:
    def test_results_in_item_order(self):
        pool = SimulatedPool(threads=4)
        out = pool.parallel_for(list(range(17)), lambda x, ctx: x * 2)
        assert out == [2 * i for i in range(17)]

    def test_dynamic_results_in_item_order(self):
        pool = SimulatedPool(threads=4)
        out = pool.parallel_for(
            list(range(17)), lambda x, ctx: x + 1, chunking="dynamic", grain=2
        )
        assert out == [i + 1 for i in range(17)]

    def test_unknown_chunking(self):
        pool = SimulatedPool(threads=2)
        with pytest.raises(SchedulerError):
            pool.parallel_for([1], lambda x, c: x, chunking="guided")

    def test_nested_region_rejected(self):
        pool = SimulatedPool(threads=2)

        def nested(x, ctx):
            pool.parallel_for([1], lambda y, c: y)

        with pytest.raises(SchedulerError):
            pool.parallel_for([1], nested)

    def test_threads_validation(self):
        with pytest.raises(SchedulerError):
            SimulatedPool(threads=0)

    def test_same_results_any_thread_count(self):
        def work(x, ctx):
            ctx.charge(x)
            return x * x

        expected = [i * i for i in range(31)]
        for p in (1, 2, 5, 16):
            assert SimulatedPool(threads=p).parallel_for(
                list(range(31)), work
            ) == expected


class TestClock:
    def test_clock_accumulates(self):
        pool = SimulatedPool(threads=1)
        pool.parallel_for([1, 2], lambda x, ctx: ctx.charge(5))
        first = pool.clock
        assert first > 0
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1))
        assert pool.clock > first

    def test_region_elapsed_is_max_thread(self):
        # two threads, one does 100 work, the other 1 -> elapsed ~ 100
        cm = CostModel(op_cost=1.0, spawn_cost=0.0, barrier_cost=0.0)
        pool = SimulatedPool(threads=2, cost_model=cm)

        def work(x, ctx):
            ctx.charge(100 if ctx.thread_id == 0 else 1)

        pool.parallel_for([0, 1], work)
        assert pool.clock == pytest.approx(100.0)

    def test_more_threads_faster_on_balanced_work(self):
        def work(x, ctx):
            ctx.charge(50)

        t1 = SimulatedPool(threads=1)
        t8 = SimulatedPool(threads=8)
        t1.parallel_for(list(range(64)), work)
        t8.parallel_for(list(range(64)), work)
        assert t8.clock < t1.clock

    def test_reset(self):
        pool = SimulatedPool(threads=1)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1))
        pool.reset()
        assert pool.clock == 0.0
        assert pool.regions == []

    def test_reset_detaches_observer(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_region_begin(self, label, contexts):
                self.seen.append(label)

            def on_region_end(self, label, contexts):
                pass

        pool = SimulatedPool(threads=1)
        observer = Observer()
        pool.set_observer(observer)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="first")
        pool.reset()
        # construction state: no observer, no phases, no regions
        assert pool.observer is None
        assert pool.phase_stack == ()
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="second")
        assert observer.seen == ["first"]

    def test_reset_can_keep_observer(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_region_begin(self, label, contexts):
                self.seen.append(label)

            def on_region_end(self, label, contexts):
                pass

        pool = SimulatedPool(threads=1)
        observer = Observer()
        pool.set_observer(observer)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="first")
        pool.reset(detach_observer=False)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="second")
        assert pool.observer is observer
        assert observer.seen == ["first", "second"]

    def test_reset_clears_open_phase_stack(self):
        pool = SimulatedPool(threads=1)
        with pool.phase("outer"):
            assert pool.phase_stack == ("outer",)
            pool.reset()
            assert pool.phase_stack == ()
        # the exiting with-block must not underflow the cleared stack
        assert pool.phase_stack == ()

    def test_mark_elapsed(self):
        pool = SimulatedPool(threads=1)
        mark = pool.mark()
        pool.parallel_for([1], lambda x, ctx: ctx.charge(3))
        assert pool.elapsed_since(mark) == pool.clock

    def test_serial_region(self):
        pool = SimulatedPool(threads=4)
        with pool.serial_region("setup") as ctx:
            ctx.charge(42)
        assert pool.clock == pytest.approx(42.0)
        assert pool.regions[-1].label == "setup"

    def test_serial_region_nested_rejected(self):
        pool = SimulatedPool(threads=1)
        with pytest.raises(SchedulerError):
            with pool.serial_region():
                with pool.serial_region():
                    pass


class TestContention:
    def test_contended_atomics_penalized(self):
        cm = CostModel(spawn_cost=0.0, barrier_cost=0.0)
        pool = SimulatedPool(threads=4, cost_model=cm)

        def work(x, ctx):
            ctx.atomic("hot")  # all threads hit the same location

        pool.parallel_for(list(range(40)), work)
        region = pool.regions[-1]
        assert region.contention_penalty > 0

    def test_uncontended_atomics_not_penalized(self):
        cm = CostModel(spawn_cost=0.0, barrier_cost=0.0)
        pool = SimulatedPool(threads=4, cost_model=cm)

        def work(x, ctx):
            ctx.atomic("relaxed", contended=False)

        pool.parallel_for(list(range(40)), work)
        assert pool.regions[-1].contention_penalty == 0

    def test_single_thread_never_contends(self):
        pool = SimulatedPool(threads=1)

        def work(x, ctx):
            ctx.atomic("hot")

        pool.parallel_for(list(range(10)), work)
        assert pool.regions[-1].contention_penalty == 0

    def test_distinct_locations_no_penalty(self):
        cm = CostModel(spawn_cost=0.0, barrier_cost=0.0)
        pool = SimulatedPool(threads=4, cost_model=cm)
        pool.parallel_for(
            list(range(16)), lambda x, ctx: ctx.atomic(("loc", x))
        )
        assert pool.regions[-1].contention_penalty == 0


class TestCostModel:
    def test_scaled(self):
        scaled = DEFAULT_COST_MODEL.scaled(2.0)
        assert scaled.op_cost == 2 * DEFAULT_COST_MODEL.op_cost
        assert scaled.barrier_cost == 2 * DEFAULT_COST_MODEL.barrier_cost

    def test_context_local_time(self):
        ctx = ThreadContext(0, CostModel(op_cost=1.0, atomic_cost=2.0))
        ctx.charge(10)
        ctx.atomic("x")
        # atomic adds 1 work + 2 atomic surcharge
        assert ctx.local_time == pytest.approx(10 + 1 + 2)

    def test_region_stats_fields(self):
        pool = SimulatedPool(threads=2)
        pool.parallel_for([1, 2, 3], lambda x, ctx: ctx.charge(1), label="lbl")
        region = pool.regions[-1]
        assert region.label == "lbl"
        assert region.items == 3
        assert region.threads == 2
        assert region.work_total == pytest.approx(3)


def _prefix(costs):
    return np.concatenate([[0], np.cumsum(costs)])


class TestCostPartition:
    """``partition(count, prefix)``: contiguous ranges of near-equal cost."""

    def _check_cover(self, ranges, count, threads):
        assert len(ranges) == threads
        assert [i for r in ranges for i in r] == list(range(count))
        assert ranges[0].start == 0
        assert ranges[-1].stop == count
        for left, right in zip(ranges, ranges[1:]):
            assert left.stop == right.start  # contiguous and monotone
            assert left.start <= left.stop

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 8, 16])
    def test_each_index_exactly_once(self, threads):
        rng = np.random.default_rng(threads)
        costs = rng.integers(0, 50, size=200)
        ranges = SimulatedPool(threads=threads).partition(200, _prefix(costs))
        self._check_cover(ranges, 200, threads)

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_each_range_within_one_item_of_an_equal_share(self, threads):
        rng = np.random.default_rng(7)
        costs = rng.pareto(1.5, size=500) * 10
        prefix = _prefix(costs)
        ranges = SimulatedPool(threads=threads).partition(500, prefix)
        share = prefix[-1] / threads
        for r in ranges:
            assert prefix[r.stop] - prefix[r.start] <= share + costs.max()

    def test_balances_skewed_rows_better_than_count_split(self):
        costs = np.array([1000] * 10 + [1] * 990)
        pool = SimulatedPool(threads=4)
        prefix = _prefix(costs)

        def worst(ranges):
            return max(prefix[r.stop] - prefix[r.start] for r in ranges)

        assert worst(pool.partition(1000, prefix)) < worst(
            pool.partition(1000)
        ) / 2

    def test_fewer_items_than_threads(self):
        ranges = SimulatedPool(threads=8).partition(3, _prefix([5, 1, 9]))
        self._check_cover(ranges, 3, 8)
        assert sum(1 for r in ranges if len(r)) <= 3

    def test_zero_items(self):
        ranges = SimulatedPool(threads=4).partition(0, [0])
        self._check_cover(ranges, 0, 4)

    def test_all_zero_costs_fall_back_to_count_split(self):
        pool = SimulatedPool(threads=3)
        assert pool.partition(10, np.zeros(11)) == pool.partition(10)

    def test_one_item_heavier_than_the_rest_combined(self):
        costs = [1, 1, 1, 1000, 1, 1, 1]
        ranges = SimulatedPool(threads=4).partition(7, _prefix(costs))
        self._check_cover(ranges, 7, 4)
        holder = [r for r in ranges if 3 in r][0]
        # the heavy item's range holds nothing after it
        assert holder.stop == 4

    def test_offset_prefix_is_relative(self):
        pool = SimulatedPool(threads=4)
        prefix = _prefix([3, 1, 4, 1, 5, 9, 2, 6])
        assert pool.partition(8, prefix + 100) == pool.partition(8, prefix)

    def test_wrong_prefix_length_rejected(self):
        with pytest.raises(SchedulerError):
            SimulatedPool(threads=2).partition(5, [0, 1, 2])

    def test_decreasing_prefix_rejected(self):
        with pytest.raises(SchedulerError):
            SimulatedPool(threads=2).partition(2, [0, 5, 3])

    def test_ranges_drive_a_chunked_region(self):
        pool = SimulatedPool(threads=4)
        out = np.zeros(40, dtype=np.int64)

        def fill(chunk, ctx):
            start, end = chunk.start, chunk.stop
            for i in range(start, end):
                ctx.write(("out", i))
                out[i] = i

        pool.parallel_for(pool.partition(40, _prefix([1] * 40)), fill)
        assert out.tolist() == list(range(40))
        assert pool.last_region.items == 4


def test_preprocess_elapsed_near_balanced_on_rmat():
    """Row-cost partition: ``pbks:preprocess`` on a skewed R-MAT graph
    costs at most 1.1x an even share of its work plus the overheads."""
    from repro.core.decomposition import core_decomposition
    from repro.graph.generators import rmat
    from repro.search.preprocessing import preprocess_neighbor_counts

    graph = rmat(12, 6, seed=1)
    coreness = core_decomposition(graph)
    pool = SimulatedPool(threads=4)
    preprocess_neighbor_counts(graph, coreness, pool)
    (region,) = [r for r in pool.regions if r.label == "pbks:preprocess"]
    cost = pool.cost_model
    overheads = 4 * cost.spawn_cost + cost.barrier_cost
    assert region.work_total == graph.num_vertices + 2 * graph.num_edges
    assert region.elapsed <= 1.1 * (
        region.work_total * cost.op_cost / 4 + overheads
    )
