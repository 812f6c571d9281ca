"""Immutable undirected simple graphs with 0-based contiguous vertex ids.

Display labels (e.g. "v3" or "(2,5)") live in an optional label map; every
algorithm in this package works on the integer ids only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NoReturn

from .errors import BadParam, DuplicateLabel, SelfLoop, VertexOutOfRange

GRAPH_FORMAT = "tss-graph-v1"


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # canonical (min,max) pairs, sorted, deduplicated
    labels: dict[int, str] | None = field(default=None, compare=False)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

    def vertices(self) -> range:
        return range(self.vertex_count)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.vertex_count - 1}")
        return len(self.adjacency[v])

    def label_of(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)


def build_graph(
    vertex_count: int,
    edge_list: Iterable[tuple[int, int]],
    labels: Mapping[int, str] | None = None,
) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Edges are deduplicated as unordered pairs; self-loops and out-of-range
    endpoints are rejected, as is a label map that is not a bijection.
    """
    if vertex_count < 0:
        raise BadParam("vertex_count must be non-negative")
    canon = set()
    for u, v in edge_list:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        for w in (u, v):
            if not 0 <= w < vertex_count:
                raise VertexOutOfRange(f"vertex {w} not in 0..{vertex_count - 1}")
        canon.add((u, v) if u < v else (v, u))
    label_map: dict[int, str] | None = None
    if labels is not None:
        label_map = dict(labels)
        for v in label_map:
            if not 0 <= v < vertex_count:
                raise VertexOutOfRange(f"label for unknown vertex {v}")
        if len(label_map) != vertex_count:
            raise DuplicateLabel("label map must cover every vertex exactly once")
        if len(set(label_map.values())) != vertex_count:
            raise DuplicateLabel("label values must be distinct")
    return Graph(vertex_count, tuple(sorted(canon)), label_map)


def _graph_from_neighbours(nbrs: list[tuple[int, ...]], labels: dict[int, str]) -> Graph:
    """Graph whose vertex v has the neighbour tuple nbrs[v].

    Trusts its caller and checks nothing: every tuple must be sorted, free of
    repeats, loops and out-of-range ids, the relation must be symmetric, and
    `labels` must be a bijection. The canonical `edges` are read off the
    tuples (each pair from its lower end), and the tuples themselves become
    the `adjacency` cache.
    """
    adjacency = tuple(nbrs)
    edges = tuple([(u, v) for u, a in enumerate(adjacency) for v in a if u < v])
    g = Graph(len(adjacency), edges, labels)
    g.__dict__["adjacency"] = adjacency
    return g


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `keep` plus the old-id -> new-id map."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.vertex_count:
            raise VertexOutOfRange(f"vertex {v} not in 0..{g.vertex_count - 1}")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    labels = None
    if g.labels is not None:
        labels = {remap[old]: g.labels[old] for old in kept}
    return build_graph(len(kept), edges, labels), remap


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    seen = bytearray(g.vertex_count)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == g.vertex_count


def graph_to_json(g: Graph, thresholds: Iterable[int] | None = None) -> str:
    doc: dict = {
        "format": GRAPH_FORMAT,
        "n": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.labels is not None:
        doc["labels"] = {str(v): lab for v, lab in sorted(g.labels.items())}
    if thresholds is not None:
        doc["thresholds"] = list(thresholds)
    return json.dumps(doc)


def _wrong_type(what: str, value: object, kind: str = "an integer") -> NoReturn:
    raise BadParam(f"{what} must be {kind}, got {json.dumps(value)}")


def int_list(values: Iterable, what: str) -> list[int]:
    """`values` as a list of ints; a value whose type is not exactly int
    (a float, a string or a bool) is a BadParam, never coerced."""
    return [x if type(x) is int else _wrong_type(what, x) for x in values]


def graph_from_json(text: str) -> tuple[Graph, list[int] | None]:
    """Parse a tss-graph-v1 document; returns the graph and optional thresholds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParam(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != GRAPH_FORMAT:
        raise BadParam(f"expected a {GRAPH_FORMAT} document")
    try:
        n = doc["n"]
        if type(n) is not int:
            _wrong_type("n", n)
        edges = [
            (u, v) if type(u) is int and type(v) is int else _wrong_type("edge endpoint", [u, v])
            for u, v in doc["edges"]
        ]
        labels = None
        if doc.get("labels") is not None:
            labels = {
                i if str(i := int(k)) == k else _wrong_type("label key", k, "a canonical integer"):
                v if type(v) is str else _wrong_type("label", v, "a string")
                for k, v in doc["labels"].items()
            }
        thresholds = None
        if doc.get("thresholds") is not None:
            thresholds = int_list(doc["thresholds"], "threshold")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadParam(f"malformed graph document: {exc}") from exc
    if thresholds is not None and len(thresholds) != n:
        raise BadParam("thresholds array length must equal n")
    return build_graph(n, edges, labels), thresholds


def graph_to_dot(g: Graph, active: Iterable[int] | None = None, name: str = "G") -> str:
    """DOT text; vertices in `active` are drawn filled."""
    act = set(active) if active is not None else set()
    lines = [f"graph {name} {{"]
    for v in g.vertices():
        attrs = [f'label="{g.label_of(v)}"']
        if v in act:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray")
        lines.append(f'  {v} [{", ".join(attrs)}];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
