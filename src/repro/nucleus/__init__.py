"""(3,4)-nucleus decomposition and its parallel hierarchy.

Closes the gap the paper names in Section VII: hierarchy construction
for nucleus decomposition had no parallel solution — here it runs on
the same union-find/pivot framework as PHCD.
"""

from repro.nucleus.decomposition import (
    TriangleIndex,
    nucleus_decomposition,
    triangle_supports,
)
from repro.nucleus.hierarchy import nucleus_hierarchy

__all__ = [
    "TriangleIndex",
    "triangle_supports",
    "nucleus_decomposition",
    "nucleus_hierarchy",
]
