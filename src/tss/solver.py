"""Exact minimum-seed search on small instances by size-ascending enumeration.

Monotonicity of the closure makes the search sound: if a seed fails, every
subset of it fails, so the first size with any influencing seed is the
optimum. Each size is a depth-first walk over the candidates in
lexicographic order. A tree node keeps the closed active set of its prefix,
so adding one vertex only cascades from that vertex: just the neighbours of
newly active vertices are re-tested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .bounds import lower_bound_lemma
from .errors import BadParam, TooLarge
from .graph import Graph, is_connected
from .thresholds import ThresholdAssignment, check_thresholds

Thresholds = ThresholdAssignment | Sequence[int]


@dataclass(frozen=True)
class SolveLimits:
    max_vertices: int = 24
    time_budget_s: float | None = None
    max_size: int | None = None

    def __post_init__(self) -> None:
        # `not x >= 0` also rejects a NaN time budget
        if not self.max_vertices >= 0:
            raise BadParam(f"max_vertices must be non-negative, got {self.max_vertices}")
        if self.max_size is not None and not self.max_size >= 0:
            raise BadParam(f"max_size must be non-negative, got {self.max_size}")
        if self.time_budget_s is not None and not self.time_budget_s >= 0:
            raise BadParam(f"time_budget_s must be non-negative, got {self.time_budget_s}")


@dataclass(frozen=True)
class SolveResult:
    optimum: int | None
    witness: frozenset[int] | None
    nodes_explored: int
    status: str  # "optimal" | "budget_exceeded"


@dataclass(frozen=True)
class OptimalityCheck:
    status: str  # "confirmed" | "refuted" | "inconclusive"
    witness: frozenset[int] | None = None
    reason: str | None = None
    nodes_explored: int = 0


def _cascade(masks: Sequence[int], theta: Sequence[int], active: int, front: int) -> int:
    """Closed active set grown from `active` as a bitmask.

    `front` must hold every inactive vertex that may now meet its threshold:
    all of them for a fresh closure, or the inactive neighbours of the newly
    added vertices when `active` was closed before they were added.
    """
    while front:
        newly = 0
        reach = 0
        while front:
            low = front & -front
            front ^= low
            w = low.bit_length() - 1
            if (masks[w] & active).bit_count() >= theta[w]:
                newly |= low
                reach |= masks[w]
        active |= newly
        front = reach & ~active
    return active


def _prepare(g: Graph, theta: Thresholds, limits: SolveLimits):
    th = check_thresholds(g, theta)
    if g.vertex_count > limits.max_vertices:
        raise TooLarge(
            f"{g.vertex_count} vertices exceeds the limit of {limits.max_vertices}"
        )
    if g.vertex_count == 0 or not is_connected(g):
        raise BadParam("solver requires a connected non-empty graph")
    forced = tuple(v for v, a in enumerate(g.adjacency) if th[v] > len(a))
    return th, forced


def _search_size(
    g: Graph,
    th: Sequence[int],
    forced: Sequence[int],
    k: int,
    deadline: float | None,
    counter: list[int],
) -> frozenset[int] | None:
    """Lexicographically first influencing seed of size k, or None.

    Candidates are forced-vertices plus k-|forced| others; merging a fixed
    sorted set into lexicographically ordered combinations preserves the lex
    order of the merged tuples. The walk visits the leaves (candidates) in
    the order of `itertools.combinations`, and `counter` counts them.
    """
    if k < len(forced):
        return None
    masks = g.neighbor_masks
    full = g.full_mask
    forced_mask = 0
    for v in forced:
        forced_mask |= 1 << v
    rest = [v for v in g.vertices() if not (forced_mask >> v) & 1]
    picks: list[int] = []  # the witness's non-forced vertices, deepest first

    def tick() -> None:
        counter[0] += 1
        if deadline is not None and counter[0] % 1024 == 0 and time.monotonic() > deadline:
            raise TimeoutError

    def walk(active: int, start: int, todo: int) -> bool:
        for i in range(start, len(rest) - todo + 1):
            v = rest[i]
            grown = active | 1 << v
            closed = _cascade(masks, th, grown, masks[v] & ~grown)
            if todo > 1:
                found = walk(closed, i + 1, todo - 1)
            else:
                tick()
                found = closed == full
            if found:
                picks.append(v)
                return True
        return False

    base = _cascade(masks, th, forced_mask, full & ~forced_mask)
    if k == len(forced):
        tick()
        found = base == full
    else:
        found = walk(base, 0, k - len(forced))
    return frozenset(forced) | frozenset(picks) if found else None


def exact_min_seed(g: Graph, theta: Thresholds, limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Smallest influencing seed, with a deterministic lex-least witness."""
    th, forced = _prepare(g, theta, limits)
    deadline = None
    if limits.time_budget_s is not None:
        deadline = time.monotonic() + limits.time_budget_s
    floor = len(forced)
    if all(t == th[0] for t in th) and th[0] >= 1:
        floor = max(floor, lower_bound_lemma(g, th[0]))
    top = g.vertex_count if limits.max_size is None else min(limits.max_size, g.vertex_count)
    counter = [0]
    for k in range(floor, top + 1):
        try:
            witness = _search_size(g, th, forced, k, deadline, counter)
        except TimeoutError:
            return SolveResult(None, None, counter[0], "budget_exceeded")
        if witness is not None:
            return SolveResult(k, witness, counter[0], "optimal")
    return SolveResult(None, None, counter[0], "budget_exceeded")


def verify_optimality(
    g: Graph,
    theta: Thresholds,
    claimed: int,
    limits: SolveLimits = SolveLimits(),
) -> OptimalityCheck:
    """Check a claimed optimum: confirmed, refuted with a smaller witness, or
    inconclusive (budget ran out, or no seed of the claimed size works)."""
    if claimed < 0:
        raise BadParam("claimed optimum must be non-negative")
    th, forced = _prepare(g, theta, limits)
    deadline = None
    if limits.time_budget_s is not None:
        deadline = time.monotonic() + limits.time_budget_s
    counter = [0]
    try:
        if claimed > 0:
            smaller = _search_size(g, th, forced, claimed - 1, deadline, counter)
            if smaller is not None:
                return OptimalityCheck("refuted", witness=smaller, nodes_explored=counter[0])
        at_claim = _search_size(g, th, forced, claimed, deadline, counter)
    except TimeoutError:
        return OptimalityCheck(
            "inconclusive", reason="time budget exceeded", nodes_explored=counter[0]
        )
    if at_claim is None:
        return OptimalityCheck(
            "inconclusive",
            reason=f"no influencing seed of size {claimed} exists; true optimum is larger",
            nodes_explored=counter[0],
        )
    return OptimalityCheck("confirmed", witness=at_claim, nodes_explored=counter[0])
