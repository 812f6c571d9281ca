"""Per-vertex activation thresholds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadParam, SizeMismatch
from .graph import Graph


@dataclass(frozen=True)
class ThresholdAssignment:
    values: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.values):
            raise BadParam("thresholds must be non-negative")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> int:
        return self.values[v]


def constant_threshold(g: Graph, k: int) -> ThresholdAssignment:
    if k < 0:
        raise BadParam("constant threshold must be non-negative")
    return ThresholdAssignment((k,) * g.vertex_count)


def majority_threshold(g: Graph) -> ThresholdAssignment:
    """theta(v) = ceil(d(v)/2)."""
    return ThresholdAssignment(tuple((len(a) + 1) // 2 for a in g.adjacency))


def strict_majority_threshold(g: Graph) -> ThresholdAssignment:
    """theta(v) = ceil((d(v)+1)/2); 2 on 3-regular graphs, 3 on 4-regular ones."""
    return ThresholdAssignment(tuple((len(a) + 2) // 2 for a in g.adjacency))


def check_thresholds(g: Graph, theta: ThresholdAssignment | Sequence[int]) -> tuple[int, ...]:
    """Validate that a threshold assignment fits `g`; returns the raw tuple."""
    values = theta.values if isinstance(theta, ThresholdAssignment) else tuple(theta)
    if len(values) != g.vertex_count:
        raise SizeMismatch(
            f"{len(values)} thresholds for a graph on {g.vertex_count} vertices"
        )
    if any(t < 0 for t in values):
        raise BadParam("thresholds must be non-negative")
    return values
