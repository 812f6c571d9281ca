"""Exact minimum-seed search on small instances by size-ascending enumeration.

Monotonicity of the closure makes the search sound: if a seed fails, every
subset of it fails, so the first size with any influencing seed is the
optimum. Each size is a depth-first walk over the candidates in
lexicographic order. A tree node keeps the closed active set of its prefix,
so adding one vertex only cascades from that vertex: just the neighbours of
newly active vertices are re-tested.

Two proofs cut the work without changing any witness. No size below a proven
floor (the forced vertices, or `lower_bound_lemma` under a constant
threshold) is searched. On a circulant labelling, where the thresholds are
constant and v -> v+1 (mod N) maps every edge to an edge, a rotation carries
any influencing seed to one that contains vertex 0, so the lexicographically
first influencing seed of each size k >= 1 contains 0 and only candidates
with 0 are walked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .bounds import lower_bound_lemma
from .errors import BadParam, TooLarge
from .graph import Graph, is_connected
from .thresholds import check_thresholds


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
    status: str  # "optimal" | "above_max_size" | "budget_exceeded"


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


def _prepare(g: Graph, theta: Sequence[int], limits: SolveLimits):
    """(thresholds, forced vertices, whether the labelling is a circulant)."""
    th = check_thresholds(g, theta)
    if g.vertex_count > limits.max_vertices:
        raise TooLarge(
            f"{g.vertex_count} vertices exceeds the limit of {limits.max_vertices}"
        )
    if g.vertex_count == 0 or not is_connected(g):
        raise BadParam("solver requires a connected non-empty graph")
    forced = tuple(v for v, a in enumerate(g.adjacency) if th[v] > len(a))
    n, masks = g.vertex_count, g.neighbor_masks
    circulant = all(t == th[0] for t in th) and all(
        masks[(u + 1) % n] >> (v + 1) % n & 1 for u, a in enumerate(g.adjacency) for v in a
    )
    return th, forced, circulant


def _floor(g: Graph, th: Sequence[int], forced: Sequence[int]) -> tuple[int, str]:
    """A proven lower bound on the optimum and the name of its source."""
    if all(t == th[0] for t in th) and th[0] >= 1:
        lemma = lower_bound_lemma(g, th[0])
        if lemma >= len(forced):
            return lemma, "lemma3"
    return len(forced), "forced-vertex"


def _search_size(
    g: Graph,
    th: Sequence[int],
    forced: Sequence[int],
    anchor: bool,
    k: int,
    deadline: float | None,
    counter: list[int],
) -> frozenset[int] | None:
    """Lexicographically first influencing seed of size k, or None.

    Candidates are a fixed set (the forced vertices, plus vertex 0 when
    `anchor` holds and k >= 1) plus k-|fixed| others; merging a fixed sorted
    set into lexicographically ordered combinations preserves the lex order
    of the merged tuples. The walk visits the leaves (candidates) in the
    order of `itertools.combinations`, and `counter` counts them.
    """
    fixed = sorted({0, *forced}) if anchor and k else forced
    if k < len(fixed):
        return None
    masks = g.neighbor_masks
    full = g.full_mask
    fixed_mask = 0
    for v in fixed:
        fixed_mask |= 1 << v
    rest = [v for v in g.vertices() if not (fixed_mask >> v) & 1]
    picks: list[int] = []  # the witness's non-fixed vertices, deepest first

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

    base = _cascade(masks, th, fixed_mask, full & ~fixed_mask)
    if k == len(fixed):
        tick()
        found = base == full
    else:
        found = walk(base, 0, k - len(fixed))
    return frozenset(fixed) | frozenset(picks) if found else None


def exact_min_seed(
    g: Graph, theta: Sequence[int], limits: SolveLimits = SolveLimits()
) -> SolveResult:
    """Smallest influencing seed, with a deterministic lex-least witness.
    Status "above_max_size": the floor or a finished search ruled out every
    size up to `limits.max_size`; "budget_exceeded": the time budget ran out."""
    th, forced, anchor = _prepare(g, theta, limits)
    deadline = None
    if limits.time_budget_s is not None:
        deadline = time.monotonic() + limits.time_budget_s
    floor, _ = _floor(g, th, forced)
    top = g.vertex_count if limits.max_size is None else min(limits.max_size, g.vertex_count)
    counter = [0]
    for k in range(floor, top + 1):
        try:
            witness = _search_size(g, th, forced, anchor, k, deadline, counter)
        except TimeoutError:
            return SolveResult(None, None, counter[0], "budget_exceeded")
        if witness is not None:
            return SolveResult(k, witness, counter[0], "optimal")
    return SolveResult(None, None, counter[0], "above_max_size")


def verify_optimality(
    g: Graph,
    theta: Sequence[int],
    claimed: int,
    limits: SolveLimits = SolveLimits(),
) -> OptimalityCheck:
    """Check a claimed optimum: confirmed, refuted with a smaller witness, or
    inconclusive (budget ran out, or no seed of the claimed size works).

    A claim below the floor is inconclusive without a search; a claim at the
    floor is confirmed by one seed of its size, and `reason` names the bound
    that rules out the size below."""
    if claimed < 0:
        raise BadParam("claimed optimum must be non-negative")
    th, forced, anchor = _prepare(g, theta, limits)
    floor, source = _floor(g, th, forced)
    if claimed < floor:
        return OptimalityCheck(
            "inconclusive",
            reason=f"size {claimed} is below the {source} lower bound {floor}; "
            "true optimum is larger",
        )
    deadline = None
    if limits.time_budget_s is not None:
        deadline = time.monotonic() + limits.time_budget_s
    counter = [0]
    reason = None
    try:
        if claimed > floor:
            smaller = _search_size(g, th, forced, anchor, claimed - 1, deadline, counter)
            if smaller is not None:
                return OptimalityCheck("refuted", witness=smaller, nodes_explored=counter[0])
        elif claimed > 0:
            reason = f"size {claimed - 1} is below the {source} lower bound {floor}"
        at_claim = _search_size(g, th, forced, anchor, claimed, deadline, counter)
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
    return OptimalityCheck(
        "confirmed", witness=at_claim, reason=reason, nodes_explored=counter[0]
    )
