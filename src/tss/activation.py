"""Threshold activation dynamics: parallel closure, traces, sequential runs.

A vertex v activates once at least theta(v) of its neighbors are active;
active vertices never deactivate, so the final active set is the least fixed
point containing the seed and is independent of update order.

The parallel rounds, the sequential rule and the check of a claimed order
share one engine: it counts down each vertex's need, theta(v) minus its
active neighbours, and a vertex fires when its need first reaches 0, so no
round is rescanned or sorted. The exact solver keeps its bitmask cascade.
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


def _start(g: Graph, theta: tuple[int, ...], seed: frozenset[int]) -> tuple[list[int], list[int]]:
    """Each vertex's need once `seed` is active, and the first frontier.

    A vertex fires when a decrement takes its need to exactly 0, so at most
    once. Seed vertices are set to 0 beforehand and never fire; vertices of
    threshold 0 never reach 0 by a decrement, so they join the frontier here.
    """
    adj = g.adjacency
    need = list(theta)
    first = []
    if 0 in theta:
        first = [v for v in range(g.vertex_count) if not theta[v] and v not in seed]
    for v in seed:
        need[v] = 0
    for v in seed:
        for w in adj[v]:
            need[w] -= 1
            if not need[w]:
                first.append(w)
    return need, first


def _run_rounds(g: Graph, theta: tuple[int, ...], seed: frozenset[int]):
    """Parallel process as (rounds, final); round t holds the vertices that
    fire once every vertex of round t-1 is active (round 1: once the seed is)."""
    adj = g.adjacency
    need, current = _start(g, theta, seed)
    rounds: list[frozenset[int]] = []
    while current:
        rounds.append(frozenset(current))
        nxt = []
        for v in current:
            for w in adj[v]:
                need[w] -= 1
                if not need[w]:
                    nxt.append(w)
        current = nxt
    return rounds, seed.union(*rounds)


def closure(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> frozenset[int]:
    """Final active set of the parallel process started from `seed`."""
    th = check_thresholds(g, theta)
    s = _check_seed(g, seed)
    _, final = _run_rounds(g, th, s)
    return final


def parallel_trace(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> ActivationTrace:
    """Round-by-round record of the parallel process."""
    th = check_thresholds(g, theta)
    s = _check_seed(g, seed)
    rounds, final = _run_rounds(g, th, s)
    return ActivationTrace(s, tuple(rounds), final)


def is_influencing(g: Graph, theta: Sequence[int], seed: Iterable[int]) -> bool:
    return len(closure(g, theta, seed)) == g.vertex_count


def sequential_closure(
    g: Graph, theta: Sequence[int], seed: Iterable[int], rng_seed: int
) -> frozenset[int]:
    """Run the one-vertex-at-a-time rule to exhaustion.

    Each step activates an eligible vertex drawn uniformly by
    random.Random(rng_seed); the final set always equals the parallel closure.
    """
    th = check_thresholds(g, theta)
    s = _check_seed(g, seed)
    pick = random.Random(rng_seed).randrange
    adj = g.adjacency
    need, eligible = _start(g, th, s)
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
    th = check_thresholds(g, theta)
    s = _check_seed(g, seed)
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
    need, _ = _start(g, th, s)
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

    Flattens the parallel trace round by round; vertices inside one round only
    depend on earlier rounds, so any within-round order is legal.
    """
    trace = parallel_trace(g, theta, seed)
    out: list[int] = []
    for r in trace.rounds:
        out.extend(sorted(r))
    return out
