"""Closed-form lower and upper bounds on the minimum influencing seed size.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activation import is_connected
from .errors import BadParam
from .families import check_torus
from .graph import Graph


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    lower_source: str  # lemma3 | flocchini_a | flocchini_b | construction
    upper_source: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise BadParam(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def lower_bound_lemma(g: Graph, k: int) -> int:
    """Degree-counting lower bound for constant threshold k on a connected graph.

    In any activation order each edge leads forward from exactly one end, and
    a non-seed vertex has at most Delta - k forward edges, a seed at most
    Delta, so |E| <= (Delta - k)|V| + k|S|. One more unit is free when a
    vertex has degree below Delta, or when k < Delta (the last vertex has no
    forward edge against an allowance of at least Delta - k >= 1); then
    |S| >= (|E| - (Delta - k)|V| + 1) / k. On a Delta-regular graph with
    k >= Delta the +1 is dropped. Returns the ceiling, floored at 1: with
    k >= 1 the empty seed activates nothing.
    """
    if k < 1:
        raise BadParam("constant threshold k must be >= 1")
    if g.vertex_count == 0 or not is_connected(g):
        raise BadParam("lower bound requires a connected non-empty graph")
    degrees = [len(a) for a in g.adjacency]
    delta = max(degrees)
    slack = k < delta or min(degrees) < delta
    num = sum(degrees) // 2 - (delta - k) * g.vertex_count + slack
    return max(1, _ceil_div(num, k))


def cubic_seed_size(p: int) -> int:
    """ceil((p+1)/2): the minimum seed at threshold 2 of a cycle permutation
    graph on two p-cycles (Theorem 3) and of P(p, s) (Theorem 4)."""
    return (p + 2) // 2


def tss_lower_bound_torus(m: int, n: int) -> int:
    """ceil((mn+1)/3): the strict-majority lower bound on any m x n torus,
    whose parameters are checked as the torus cordalis's, the widest domain."""
    check_torus("cordalis", m, n)
    return _ceil_div(m * n + 1, 3)


def flocchini_upper(m: int, n: int, variant: str) -> int:
    """Strip-seeding upper bounds for the three torus variants.

    cordalis: ceil(m/3)(n+1); mesh and serpentinus take the better of the two
    symmetric forms.
    """
    check_torus(variant, m, n)
    if variant == "cordalis":
        return _ceil_div(m, 3) * (n + 1)
    return min(_ceil_div(m, 3) * (n + 1), _ceil_div(n, 3) * (m + 1))


def torus_bounds(m: int, n: int, variant: str) -> BoundsReport:
    upper = flocchini_upper(m, n, variant)  # checks the variant's domain first
    source = "flocchini_a" if variant == "cordalis" else "flocchini_b"
    return BoundsReport(
        lower=tss_lower_bound_torus(m, n),
        upper=upper,
        lower_source=source,
        upper_source=source,
    )
