"""Per-vertex activation thresholds.

An assignment is a plain tuple of non-negative ints, one per vertex id.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadParam, SizeMismatch
from .graph import Graph


def constant_threshold(g: Graph, k: int) -> tuple[int, ...]:
    if k < 0:
        raise BadParam("constant threshold must be non-negative")
    return (k,) * g.vertex_count


def majority_threshold(g: Graph) -> tuple[int, ...]:
    """theta(v) = ceil(d(v)/2)."""
    return tuple((len(a) + 1) // 2 for a in g.adjacency)


def strict_majority_threshold(g: Graph) -> tuple[int, ...]:
    """theta(v) = ceil((d(v)+1)/2); 2 on 3-regular graphs, 3 on 4-regular ones."""
    return tuple((len(a) + 2) // 2 for a in g.adjacency)


def check_thresholds(g: Graph, theta: Sequence[int]) -> tuple[int, ...]:
    """`theta` as a tuple, after checking that it has one non-negative value
    per vertex of `g` (the length first, then the sign)."""
    values = tuple(theta)
    if len(values) != g.vertex_count:
        raise SizeMismatch(
            f"{len(values)} thresholds for a graph on {g.vertex_count} vertices"
        )
    if min(values, default=0) < 0:
        raise BadParam("thresholds must be non-negative")
    return values
