"""Threshold activation dynamics: parallel closure, traces, sequential runs, connectivity.

A vertex v activates once at least theta(v) of its neighbors are active;
active vertices never deactivate, so the final active set is the least fixed
point containing the seed and is independent of update order.

The parallel rounds, the sequential rule, the check of a claimed order and
`is_connected` (threshold 1 from the seed {0}, which activates exactly the
component of vertex 0) share one engine: it counts down each vertex's need,
theta(v) minus its active neighbours, and a vertex fires when its need first
reaches 0, so no round is rescanned. `_start` checks the engine's inputs once,
the thresholds before the seed. Rounds are plain lists; only `parallel_trace`
turns them into frozensets, and `extract_convinced_sequence` sorts each list
in place. The exact solver keeps its bitmask cascade, as its walk needs each
closed set as a mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DuplicateVertex, SeedOverlap, VertexOutOfRange
from .graph import Graph
from .thresholds import check_thresholds


@dataclass(frozen=True)
class ActivationTrace:
    seed: frozenset[int]
    rounds: tuple[frozenset[int], ...]  # round t = vertices newly active at step t
    final: frozenset[int]

    def to_dict(self) -> dict:
        return {
            "seed": sorted(self.seed),
            "rounds": [sorted(r) for r in self.rounds],
            "final_size": len(self.final),
        }


@dataclass(frozen=True)
class SequenceValidation:
    ok: bool
    full_influence: bool
    failing_position: int | None = None  # 1-based position of the first violation
    active_neighbors: int | None = None
    required: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_seed(g: Graph, seed: Iterable[int]) -> frozenset[int]:
    s = frozenset(seed)
    for v in s:
        if not 0 <= v < g.vertex_count:
            raise VertexOutOfRange(f"seed vertex {v} not in 0..{g.vertex_count - 1}")
    return s


def _start(
    g: Graph, theta: Sequence[int], seed: Iterable[int]
) -> tuple[tuple[int, ...], frozenset[int], list[int], list[int]]:
    """The checked thresholds and seed, each vertex's need once the seed is
    active, and the first frontier.

    A vertex fires when a decrement takes its need to exactly 0, so at most
    once. Seed vertices are set to 0 beforehand and never fire; vertices of
    threshold 0 never reach 0 by a decrement, so they join the frontier here.
    """
    th = check_thresholds(g, theta)
    s = _check_seed(g, seed)
    adj = g.adjacency
    need = list(th)
    first = []
    if 0 in th:
        first = [v for v in range(g.vertex_count) if not th[v] and v not in s]
    for v in s:
        need[v] = 0
    for v in s:
        for w in adj[v]:
            need[w] -= 1
            if not need[w]:
                first.append(w)
    return th, s, need, first


def _run_rounds(
    g: Graph, theta: Sequence[int], seed: Iterable[int]
) -> tuple[frozenset[int], list[list[int]]]:
    """The checked seed and the rounds of the parallel process, each a list
    without repeats; round t holds the vertices that fire once every vertex of
    round t-1 is active (round 1: once the seed is)."""
    adj = g.adjacency
    _, s, need, current = _start(g, theta, seed)
    rounds = []
    while current:
        rounds.append(current)
        nxt = []
        for v in current:
            for w in adj[v]:
                need[w] -= 1
                if not need[w]:
                    nxt.append(w)
        current = nxt
    return s, rounds


def is_connected(g: Graph) -> bool:
    """Whether `g` is connected; the empty graph is."""
    n = g.vertex_count
    return not n or sum(map(len, _run_rounds(g, (1,) * n, (0,))[1])) == n - 1


def closure(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> frozenset[int]:
    """Final active set of the parallel process started from `seed`."""
    s, rounds = _run_rounds(g, theta, seed)
    return s.union(*rounds)


def parallel_trace(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> ActivationTrace:
    """Round-by-round record of the parallel process."""
    s, rounds = _run_rounds(g, theta, seed)
    return ActivationTrace(s, tuple(map(frozenset, rounds)), s.union(*rounds))


def is_influencing(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> bool:
    return len(closure(g, theta, seed)) == g.vertex_count


def sequential_closure(
    g: Graph, theta: Sequence[int], seed: Iterable[int], rng_seed: int
) -> frozenset[int]:
    """Run the one-vertex-at-a-time rule to exhaustion.

    Each step activates an eligible vertex drawn uniformly by
    random.Random(rng_seed); the final set always equals the parallel closure.
    """
    pick = random.Random(rng_seed).randrange
    adj = g.adjacency
    _, s, need, eligible = _start(g, theta, seed)
    fired = []
    while eligible:
        i = pick(len(eligible))
        eligible[i], eligible[-1] = eligible[-1], eligible[i]
        v = eligible.pop()
        fired.append(v)
        for w in adj[v]:
            need[w] -= 1
            if not need[w]:
                eligible.append(w)
    return s.union(fired)


def validate_convinced_sequence(
    g: Graph,
    theta: Sequence[int],
    seed: Iterable[int],
    order: Sequence[int],
) -> SequenceValidation:
    """Check that `order` is a legal sequential activation order from `seed`.

    Position p (1-based) is legal when order[p-1] has at least theta(v) active
    neighbors among seed plus the earlier entries. full_influence additionally
    requires seed plus the whole sequence to cover V(g).
    """
    th, s, need, _ = _start(g, theta, seed)
    seen: set[int] = set()
    for v in order:
        if not 0 <= v < g.vertex_count:
            raise VertexOutOfRange(f"sequence vertex {v} not in 0..{g.vertex_count - 1}")
        if v in s:
            raise SeedOverlap(f"sequence vertex {v} is already in the seed")
        if v in seen:
            raise DuplicateVertex(f"sequence lists vertex {v} twice")
        seen.add(v)
    adj = g.adjacency
    for pos, v in enumerate(order, start=1):
        if need[v] > 0:
            return SequenceValidation(
                ok=False,
                full_influence=False,
                failing_position=pos,
                active_neighbors=th[v] - need[v],
                required=th[v],
            )
        for w in adj[v]:
            need[w] -= 1
    return SequenceValidation(ok=True, full_influence=len(s) + len(order) == g.vertex_count)


def extract_convinced_sequence(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> list[int]:
    """A valid convinced sequence covering everything the seed influences.

    The parallel rounds flattened, ascending ids within a round; vertices
    inside one round only depend on earlier rounds, so any within-round order
    is legal.
    """
    out: list[int] = []
    for r in _run_rounds(g, theta, seed)[1]:
        r.sort()
        out += r
    return out
