"""The shared Algorithm 2 driver behind PHCD, truss and nucleus.

PHCD (vertices), the truss hierarchy (edges) and the nucleus hierarchy
(triangles) share one union-find driver.  The cost model is the
paper's, so a refactor of that driver must leave every charge in place:
the golden figures pin ``pool.clock`` (compared bit for bit), the number
of parallel regions and the forest size at 1 and 4 threads.  A change
that moves any of them is a change to the cost model and must update
the table on purpose.  Malformed level arrays must fail with a named
error in every builder.
"""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.graph.generators import complete_graph, powerlaw_cluster, rmat
from repro.nucleus import TriangleIndex, nucleus_decomposition, nucleus_hierarchy
from repro.parallel.scheduler import SimulatedPool
from repro.truss import EdgeIndex, truss_decomposition, truss_hierarchy

#: (builder, threads) -> (pool.clock, regions, forest nodes)
GOLDEN = {
    ("phcd-waitfree", 1): (224168.2999999936, 169, 2901),
    ("phcd-waitfree", 4): (63659.600000000326, 169, 2901),
    ("phcd-pivot", 1): (224168.2999999936, 169, 2901),
    ("phcd-pivot", 4): (90883.60000000033, 169, 2901),
    ("truss", 1): (34875.70000000175, 18, 19),
    ("truss", 4): (17768.999999999833, 18, 19),
    ("nucleus", 1): (22789.70000000038, 18, 18),
    ("nucleus", 4): (11858.299999999927, 18, 18),
}


@pytest.fixture(scope="module")
def inputs():
    core_graph = rmat(13, 6, seed=3)
    coreness = pkc_core_decomposition(core_graph, SimulatedPool(threads=1))
    truss_graph = powerlaw_cluster(300, 5, 0.6, seed=7)
    edges = EdgeIndex(truss_graph)
    trussness = truss_decomposition(truss_graph, edges)
    nucleus_graph = powerlaw_cluster(150, 6, 0.8, seed=11)
    triangles = TriangleIndex(nucleus_graph)
    theta = nucleus_decomposition(nucleus_graph, triangles)
    return {
        "phcd-waitfree": lambda pool: phcd_build_hcd(
            core_graph, coreness, pool, use_waitfree=True
        ),
        "phcd-pivot": lambda pool: phcd_build_hcd(
            core_graph, coreness, pool, use_waitfree=False
        ),
        "truss": lambda pool: truss_hierarchy(
            truss_graph, trussness, pool, index=edges
        ),
        "nucleus": lambda pool: nucleus_hierarchy(
            nucleus_graph, theta, pool, index=triangles
        ),
    }


@pytest.mark.parametrize("builder,threads", sorted(GOLDEN))
def test_builder_clock_is_pinned(inputs, builder, threads):
    pool = SimulatedPool(threads=threads)
    forest = inputs[builder](pool)
    clock, regions, nodes = GOLDEN[(builder, threads)]
    assert pool.clock == clock
    assert len(pool.regions) == regions
    assert forest.num_nodes == nodes


#: builder -> (build(graph, levels), levels of K5 and their floor)
BUILDERS = {
    "phcd": (
        lambda g, levels: phcd_build_hcd(g, levels, SimulatedPool()),
        lambda g: np.full(g.num_vertices, 4),
        0,
    ),
    "truss": (
        lambda g, levels: truss_hierarchy(g, levels, SimulatedPool()),
        lambda g: truss_decomposition(g),
        2,
    ),
    "nucleus": (
        lambda g, levels: nucleus_hierarchy(g, levels, SimulatedPool()),
        lambda g: nucleus_decomposition(g),
        0,
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize(
    "fault", ["three-short", "one-long", "two-dimensional", "below-floor"]
)
def test_bad_levels_raise_hierarchy_error(builder, fault):
    build, levels_of, floor = BUILDERS[builder]
    g = complete_graph(5)
    levels = np.asarray(levels_of(g), dtype=np.int64)
    bad = {
        "three-short": levels[:-3],
        "one-long": np.append(levels, levels[0]),
        "two-dimensional": levels.reshape(1, -1),
        "below-floor": np.where(np.arange(levels.size) == 1, floor - 1, levels),
    }[fault]
    with pytest.raises(HierarchyError):
        build(g, bad)


def test_all_zero_trussness_is_refused():
    g = complete_graph(4)
    index = EdgeIndex(g)
    with pytest.raises(HierarchyError, match="below the floor 2"):
        truss_hierarchy(g, np.zeros(len(index), dtype=np.int64), index=index)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_good_levels_build(builder):
    build, levels_of, _ = BUILDERS[builder]
    g = complete_graph(5)
    forest = build(g, levels_of(g))
    assert forest.num_nodes == 1
