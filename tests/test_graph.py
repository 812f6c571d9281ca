import functools
import json
import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    BadParam,
    DuplicateLabel,
    SelfLoop,
    VertexOutOfRange,
    build_graph,
    cycle,
    cycle_permutation,
    generalized_petersen,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_connected,
    path,
    toroidal_mesh,
    torus_cordalis,
    torus_serpentinus,
)
from tss.graph import GRAPH_FORMAT, MAX_VERTICES, Graph
from helpers import naive_canonical, random_connected_graph


def test_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.vertex_count == 3
    assert len(g.edges) == 3
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0)])


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        build_graph(2, [(0, 2)])
    g = build_graph(2, [(0, 1)])
    with pytest.raises(VertexOutOfRange):
        g.degree(5)


def test_negative_vertex_count():
    with pytest.raises(BadParam):
        build_graph(-1, [])


def test_edges_deduplicated():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_labels_must_be_bijection():
    build_graph(2, [(0, 1)], {0: "a", 1: "b"})
    with pytest.raises(DuplicateLabel):
        build_graph(2, [(0, 1)], {0: "a", 1: "a"})
    with pytest.raises(DuplicateLabel):
        build_graph(2, [(0, 1)], {0: "a"})
    with pytest.raises(VertexOutOfRange):
        build_graph(2, [(0, 1)], {0: "a", 5: "b"})


def test_petersen_is_cubic():
    g = generalized_petersen(5, 2)
    assert g.vertex_count == 10
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_cordalis_4x3_is_quartic():
    g = torus_cordalis(4, 3)
    assert all(g.degree(v) == 4 for v in g.vertices())


def test_handshake_on_random_graphs():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng, 15)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * len(g.edges)


def test_petersen_outer_cycle_induces_c5():
    g = generalized_petersen(5, 2)
    outer = tuple((u, v) for u, v in g.edges if v < 5)
    assert outer == cycle(5).edges


def test_is_connected():
    assert is_connected(cycle(4))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))


def test_json_round_trip():
    g = generalized_petersen(5, 2)
    back, thresholds = graph_from_json(graph_to_json(g))
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.labels == g.labels
    assert thresholds is None


def test_json_with_thresholds():
    g = cycle(3)
    back, thresholds = graph_from_json(graph_to_json(g, [2, 2, 2]))
    assert thresholds == [2, 2, 2]
    assert back.edges == g.edges


def test_json_rejects_garbage():
    with pytest.raises(BadParam):
        graph_from_json("not json")
    with pytest.raises(BadParam):
        graph_from_json('{"format": "something-else", "n": 1, "edges": []}')
    for doc in [
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "thresholds": [1]}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "thresholds": 2}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1, 1]]}',
        '{"format": "tss-graph-v1", "edges": [[0, 1]]}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {"0": 5, "1": [1]}}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {" 1": "a", "+0": "b"}}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {"0": "a", "01": "b"}}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {"-0": "a", "1": "b"}}',
        '{"format": "tss-graph-v1", "n": 11, "edges": [[0, 1]], "labels": {"1_0": "a"}}',
        '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {"0": "a", "x": "b"}}',
    ]:
        with pytest.raises(BadParam):
            graph_from_json(doc)


def test_json_vertex_cap_rejects_before_allocating():
    tracemalloc.start()
    try:
        for n in (MAX_VERTICES + 1, 10**12, 10**100):
            with pytest.raises(BadParam, match="above the limit"):
                graph_from_json('{"format": "tss-graph-v1", "n": %d, "edges": []}' % n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    g, _ = graph_from_json('{"format": "tss-graph-v1", "n": %d, "edges": []}' % 1000)
    assert g.vertex_count == 1000


@pytest.mark.parametrize("bad", ["true", "1.7", '"3"', "3.0"])
def test_json_rejects_non_integer_numbers(bad):
    docs = [
        '{"format": "tss-graph-v1", "n": %s, "edges": [[0, 1]]}',
        '{"format": "tss-graph-v1", "n": 4, "edges": [[0, %s]]}',
        '{"format": "tss-graph-v1", "n": 4, "edges": [[%s, 0]]}',
        '{"format": "tss-graph-v1", "n": 4, "edges": [[0, 1]], "thresholds": [1, %s, 1, 1]}',
    ]
    for doc in docs:
        with pytest.raises(BadParam, match="must be an integer"):
            graph_from_json(doc % bad)


def test_dot_output():
    g = build_graph(2, [(0, 1)], {0: "a", 1: "b"})
    dot = graph_to_dot(g, active=[1])
    assert "0 -- 1;" in dot
    assert 'label="a"' in dot
    assert "style=filled" in dot


def test_label_of_looks_a_label_up_once():
    class CountingLabels(Mapping):  # like TorusLabels: `in` would call __getitem__ too
        def __init__(self, labels):
            self.labels, self.lookups = labels, 0

        def __getitem__(self, v):
            self.lookups += 1
            return self.labels[v]

        def __iter__(self):
            return iter(self.labels)

        def __len__(self):
            return len(self.labels)

    labels = CountingLabels({0: "a", 1: "b"})
    g = Graph(((1,), (0,)), labels)
    assert [g.label_of(v) for v in (0, 1, 2)] == ["a", "b", "2"]
    assert labels.lookups == 3
    assert build_graph(3, [(0, 1)]).label_of(2) == "2"


@st.composite
def _edge_lists(draw):
    """(n, edge list with repeated and reversed pairs, labels or None); ids
    up to n + 3 are never named, so some vertices are isolated."""
    n = draw(st.integers(0, 12))
    edges = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=25))
        if edges:
            again = draw(st.lists(st.sampled_from(edges), max_size=10))
            edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]
    n += draw(st.integers(0, 3))
    labels = None
    if draw(st.booleans()):
        labels = {v: f"L{p}" for v, p in enumerate(draw(st.permutations(range(n))))}
    return n, draw(st.permutations(edges)), labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_edge_lists())
def test_loader_matches_naive_canonicalisation(case):
    n, edge_list, labels = case
    pairs, nbrs = naive_canonical(n, edge_list)
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    doc = {"format": GRAPH_FORMAT, "n": n, "edges": [list(e) for e in edge_list]}
    if labels is not None:
        doc["labels"] = {str(v): lab for v, lab in labels.items()}
    canonical = build_graph(n, pairs)
    repeats = build_graph(n, sorted([*pairs, *pairs[::2]]), labels)  # sorted, with repeats
    for g in (build_graph(n, edge_list, labels), graph_from_json(json.dumps(doc))[0], repeats):
        assert g.vertex_count == n
        assert g.adjacency == nbrs
        assert g.edges == pairs
        assert g.neighbor_masks == tuple(masks)
        assert g.labels == labels
        assert g == canonical and hash(g) == hash(canonical)
        assert g != build_graph(n + 1, pairs)
        if n >= 2 and len(pairs) < n * (n - 1) // 2:
            missing = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs)
            assert g != build_graph(n, [*pairs, missing])


@pytest.mark.parametrize(
    "edge, build_error, json_error",
    [
        ([1, 1], SelfLoop, SelfLoop),
        ([-1, 0], VertexOutOfRange, VertexOutOfRange),
        ([0, 3], VertexOutOfRange, VertexOutOfRange),
        ([True, 1], BadParam, BadParam),
        ([1.5, 1], BadParam, BadParam),
        (["3", 1], BadParam, BadParam),
        ([0, 1, 2], ValueError, BadParam),  # unpacking a non-pair fails in Python
    ],
)
def test_each_bad_edge_rejected_by_both_loaders(edge, build_error, json_error):
    edges = [[0, 1], edge, [1, 2]]
    with pytest.raises(build_error):
        build_graph(3, [tuple(e) for e in edges])
    with pytest.raises(json_error):
        graph_from_json(json.dumps({"format": GRAPH_FORMAT, "n": 3, "edges": edges}))


def test_build_graph_rejects_endpoints_that_are_not_json_values():
    with pytest.raises(BadParam, match=r"got \[0, \"Fraction\(1, 1\)\"\]"):
        build_graph(2, [(0, Fraction(1))])


@pytest.mark.parametrize(
    "g",
    [path(5), cycle(6), cycle_permutation(5, (2, 0, 4, 1, 3)), generalized_petersen(7, 2),
     toroidal_mesh(4, 5), torus_cordalis(4, 5), torus_serpentinus(4, 5)],
    ids=["path", "cycle", "cp", "gpg", "mesh", "cordalis", "serpentinus"],
)
def test_json_round_trip_every_family(g):
    back, _ = graph_from_json(graph_to_json(g))
    assert back == g and hash(back) == hash(g)
    assert back.adjacency == g.adjacency and dict(back.labels) == dict(g.labels)


def test_adjacency_and_masks_stay_cached_properties():
    # perfbench/tracing.py times these two by wrapping their `.func` in a new
    # cached_property; a plain attribute or property would break traced runs.
    for name in ("adjacency", "neighbor_masks"):
        assert isinstance(Graph.__dict__[name], functools.cached_property)
