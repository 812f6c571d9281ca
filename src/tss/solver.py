"""Exact minimum-seed search on small instances by size-ascending enumeration.

Monotonicity of the closure makes the search sound: if a seed fails, every
subset of it fails, so the first size with any influencing seed is the
optimum. Each size is a depth-first walk over the candidates in
lexicographic order. A tree node keeps the closed active set of its prefix,
so adding one vertex only cascades from that vertex: just the neighbours of
newly active vertices are re-tested.

Five proofs cut the work without changing any witness. No size below a
proven floor (the forced vertices, or `lower_bound_lemma` under a constant
threshold) is searched. Under constant thresholds, when some divisor d of N
makes both v -> v - v%d + (v+1)%d (a step within each block of d ids) and
v -> v+d (mod N) map every edge to an edge, the two translations reach every
vertex from 0 and carry any influencing seed to one that contains vertex 0,
so the lexicographically first influencing seed of each size k >= 1 contains
0 and only candidates with 0 are walked; d = N is a circulant labelling (the
torus cordalis) and d = n the row-major m x n mesh. And a tree node whose
still inactive vertices need more edges among themselves than they have,
counted after the best remaining picks by the acyclic-orientation argument
of `lower_bound_lemma` (Ackerman, Ben-Zwi and Wolfovitz, TCS 2010), is cut
with every candidate below it, none of which influences. The same test
stops a node's loop at the first pick whose suffix it rules out: with the
picks drawn from later and later suffixes the best picks only get worse, so
every later suffix is ruled out too. And a sibling dominates: let u < v be
picks at a node with prefix P, where u's subtree held no influencing
candidate, and let w be in closure(P + u). Every candidate P + v + Y with w
in {v} + Y is covered by P + u + ({v} + Y - w), which lies in u's subtree
and whose closure contains the first one's, so neither influences. Such a
w is banned, without a cascade, as a later sibling of u and as a pick
anywhere below one.

Two shortcuts look alike but are unsound, since `verify_optimality`
searches size claimed-1 without knowing that no smaller seed exists, and a
seed of that size may need redundant picks. A pick that its node's prefix
already activates is not skipped on that ground: it becomes banned only
once a sibling has been tried, whose closure contains the node's active
set. And a node is not cut because fewer inactive vertices than picks are
left, since redundant picks fill the seed; only the bound cuts, and never
when it is already met. On the path 0-1-2 with thresholds (2, 0, 0), {0}
activates every vertex, so the claim 3 is refuted only by a seed of size 2
whose second pick is already active.

`nodes_explored` counts the candidates (leaves) the walk reaches.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from typing import Sequence

from .activation import is_connected
from .bounds import lower_bound_lemma
from .errors import BadParam
from .graph import Graph, check_vertex_limit
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
    """(thresholds, forced vertices, whether vertex 0 may anchor every candidate)."""
    th = check_thresholds(g, theta)
    check_vertex_limit(g.vertex_count, limits.max_vertices)
    if g.vertex_count == 0 or not is_connected(g):
        raise BadParam("solver requires a connected non-empty graph")
    forced = tuple(v for v, a in enumerate(g.adjacency) if th[v] > len(a))
    return th, forced, all(t == th[0] for t in th) and _translates(g)


def _translates(g: Graph) -> bool:
    """Whether, for some divisor d >= 2 of N, v -> v - v%d + (v+1)%d and
    v -> v+d (mod N) both map every edge to an edge (d = 1 gives the same
    pair of maps as d = N)."""
    n, masks = g.vertex_count, g.neighbor_masks

    def keeps(image: list[int]) -> bool:
        return all(masks[image[u]] >> image[v] & 1 for u, a in enumerate(g.adjacency) for v in a)

    return any(
        keeps([v - v % d + (v + 1) % d for v in range(n)])
        and keeps([(v + d) % n for v in range(n)])
        for d in range(2, n + 1)
        if n % d == 0
    )


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
    order of `itertools.combinations`, skipping those that a proof rules out.
    `counter` holds [leaves reached, tree nodes visited]; the deadline is
    read every 1,024 tree nodes, inner nodes and leaves alike.

    A node with closed active set A, inactive set U = V - A and `todo`
    picks left from the eligible vertices L = U & rest[start:] is cut when
    no choice of picks can influence. Each w in U needs r(w) = th[w] -
    |N(w) & A| >= 1 more active neighbours (A is closed). Orient each edge
    of G[U] away from its earlier-activated end: every w in U that is not
    picked has in-degree at least r(w), so influence needs
    sum_U r - (the todo largest r over L) <= |E(G[U])|. `excess` carries
    2 (sum_U r - |E(G[U])|) = 2 (sum_U th - |E| + |E(G[A])|), the edges
    between A and U cancelling, and `drop` updates it as A grows. The walk
    applies the test to L = U & rest[i:] - banned for each first pick
    rest[i], and loops only up to the last i that it does not rule out.
    `banned` is the union of the closed sets of every sibling tried so far,
    at this level and at every level above.
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

    def tick(leaf: int) -> None:
        counter[0] += leaf
        counter[1] += 1
        if deadline is not None and counter[1] % 1024 == 0 and time.monotonic() > deadline:
            raise TimeoutError

    def drop(active: int, closed: int) -> int:
        """How much `excess` falls as A grows from `active` to `closed`."""
        fall = 0
        newly = closed & ~active
        while newly:
            low = newly & -newly
            newly ^= low
            w = low.bit_length() - 1
            fall += 2 * th[w] - (masks[w] & active).bit_count() - (masks[w] & closed).bit_count()
        return fall

    def walk(active: int, start: int, todo: int, excess: int, banned: int) -> bool:
        tick(0)
        # Scan back from the end for the last first pick whose suffix can
        # still meet the bound; `top` holds the todo largest r over the
        # eligible vertices of rest[stop:] in ascending order, `total` their sum.
        stop, top, total, skip = len(rest), [], 0, active | banned
        while excess > 2 * total:
            if stop == start:
                return False
            stop -= 1
            w = rest[stop]
            if not skip >> w & 1:
                r = th[w] - (masks[w] & active).bit_count()
                insort(top, r)
                total += r
                if len(top) > todo:
                    total -= top.pop(0)
        for i in range(start, min(stop, len(rest) - todo) + 1):
            v = rest[i]
            if banned >> v & 1:
                continue
            grown = active | 1 << v
            closed = _cascade(masks, th, grown, masks[v] & ~grown)
            if todo > 1:
                found = walk(closed, i + 1, todo - 1, excess - drop(active, closed), banned)
            else:
                tick(1)
                found = closed == full
            if found:
                picks.append(v)
                return True
            banned |= closed
        return False

    base = _cascade(masks, th, fixed_mask, full & ~fixed_mask)
    if k == len(fixed):
        tick(1)
        found = base == full
    else:
        excess = 2 * sum(th) - sum(map(len, g.adjacency)) - drop(0, base)
        found = walk(base, 0, k - len(fixed), excess, 0)
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
    counter = [0, 0]
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
    counter = [0, 0]
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
