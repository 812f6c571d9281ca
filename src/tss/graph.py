"""Immutable undirected simple graphs with 0-based contiguous vertex ids.

A graph is stored as its sorted neighbour tuples; the canonical edge list
is read off them only when `edges` is asked for (by the JSON and DOT
writers). `build_graph` validates an edge list in one pass.

Display labels (e.g. "v3" or "(2,5)") live in an optional label map; every
algorithm in this package works on the integer ids only.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Iterable, Mapping, NoReturn

from .errors import BadParam, DuplicateLabel, SelfLoop, TooLarge, VertexOutOfRange

GRAPH_FORMAT = "tss-graph-v1"
# Largest vertex count a graph document or a family constructor accepts.
# Every engine allocates per-vertex arrays, so a larger count is refused
# before anything is built. The graphs in the tests and the benchmark have at
# most about 15,000 vertices.
MAX_VERTICES = 10_000_000


@dataclass(frozen=True)
class Graph:
    """Vertex v is adjacent to `neighbours[v]`, given sorted, repeat-free, loop-free,
    in range and symmetric (unchecked). Equal tuples mean equal vertex count
    and edge set; labels are ignored."""

    # `neighbours` only feeds the constructor; read the tuples as `adjacency`.
    # It and `neighbor_masks` stay cached properties because
    # perfbench/tracing.py times them through their `.func`.
    neighbours: tuple[tuple[int, ...], ...]
    labels: Mapping[int, str] | None = field(default=None, compare=False)
    vertex_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", len(self.neighbours))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self.neighbours

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        return tuple([sum(1 << w for w in a) for a in self.adjacency])

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical (min, max) pairs in ascending order."""
        return tuple([(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v])

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
        label = self.labels.get(v) if self.labels else None
        return str(v) if label is None else label


def check_vertex_count(count: int, what: str) -> None:
    """Refuse a graph on more than MAX_VERTICES vertices; `what` names the
    quantity that gives `count` in the message."""
    if count > MAX_VERTICES:
        raise BadParam(f"{what} = {count} is above the limit of {MAX_VERTICES} vertices")


def check_vertex_limit(count: int, limit: int) -> None:
    """Refuse a graph on more than a caller's `limit` vertices (the solver's
    `max_vertices`) with TooLarge."""
    if count > limit:
        raise TooLarge(f"{count} vertices exceeds the limit of {limit}")


def build_graph(
    vertex_count: int,
    edge_list: Iterable[tuple[int, int]],
    labels: Mapping[int, str] | Iterable[tuple[int, str]] | None = None,
) -> Graph:
    """Validate an edge list and build its Graph in one pass.

    Endpoints must be of type int (not bool), in range and distinct;
    repeated and reversed pairs name one edge. Labels, a mapping or
    (vertex, label) pairs, are read into a new dict and must be a bijection.
    """
    if vertex_count < 0:
        raise BadParam("vertex_count must be non-negative")
    # A vertex's list is made at its first edge, so a sparse document costs
    # one pointer per vertex, not one list.
    nbrs: list[list[int] | None] = [None] * vertex_count
    for u, v in edge_list:
        if type(u) is not int or type(v) is not int:
            _wrong_type("edge endpoint", [u, v])
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            w = v if 0 <= u < vertex_count else u
            raise VertexOutOfRange(f"vertex {w} not in 0..{vertex_count - 1}")
        a = nbrs[u]
        if a is None:
            nbrs[u] = [v]
        else:
            a.append(v)
        a = nbrs[v]
        if a is None:
            nbrs[v] = [u]
        else:
            a.append(u)
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
    return Graph(tuple([tuple(sorted(set(a))) if a else () for a in nbrs]), label_map)


def _gc_paused(fn):
    """`fn` run with CPython's cyclic garbage collector paused; the collector's
    earlier state is restored afterwards, so a caller that had it off keeps it
    off. Reading or writing a graph document makes tens of thousands of lists
    and tuples and no reference cycle, so each collection their allocation
    would set off scans the caller's whole heap and can free nothing."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_gc_paused
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
    raise BadParam(f"{what} must be {kind}, got {json.dumps(value, default=repr)}")


def int_list(values: Iterable, what: str) -> list[int]:
    """`values` as a list of ints; a value whose type is not exactly int
    (a float, a string or a bool) is a BadParam, never coerced."""
    return [x if type(x) is int else _wrong_type(what, x) for x in values]


def _label_pairs(raw) -> Iterable[tuple[int, str]]:
    """A document's `labels` object as (vertex, label) pairs.

    Keys are parsed and checked for canonical form, and the labels' types
    read, in bulk; only when that finds a fault does a pass entry by entry
    run, to name the first faulty entry.
    """
    if type(raw) is dict:
        try:
            keys = list(map(int, raw))
            canonical = list(map(str, keys)) == list(raw)
        except ValueError:
            canonical = False
        if canonical and set(map(type, raw.values())) <= {str}:
            return zip(keys, raw.values())
    for k, v in raw.items():
        if str(int(k)) != k:
            _wrong_type("label key", k, "a canonical integer")
        if type(v) is not str:
            _wrong_type("label", v, "a string")
    raise AssertionError("labels failed a bulk check that every entry passes")


@_gc_paused
def graph_from_json(
    text: str, max_vertices: int = MAX_VERTICES
) -> tuple[Graph, list[int] | None]:
    """Parse a tss-graph-v1 document; returns the graph and optional thresholds.
    A document on more than `max_vertices` vertices is refused before anything
    is built."""
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
        check_vertex_count(n, "n")
        check_vertex_limit(n, max_vertices)
        labels = None
        if doc.get("labels") is not None:
            labels = _label_pairs(doc["labels"])
        thresholds = None
        if doc.get("thresholds") is not None:
            thresholds = int_list(doc["thresholds"], "threshold")
            if len(thresholds) != n:
                raise BadParam("thresholds array length must equal n")
        return build_graph(n, doc["edges"], labels), thresholds
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadParam(f"malformed graph document: {exc}") from exc


def graph_to_dot(g: Graph, active: Iterable[int] | None = None) -> str:
    """DOT text; vertices in `active` are drawn filled."""
    act = set(active) if active is not None else set()
    lines = ["graph G {"]
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
