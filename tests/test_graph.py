import random
import tracemalloc
from collections.abc import Mapping

import pytest

from tss import (
    BadParam,
    DuplicateLabel,
    SelfLoop,
    VertexOutOfRange,
    build_graph,
    cycle,
    generalized_petersen,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_connected,
    torus_cordalis,
)
from tss.graph import MAX_VERTICES, Graph
from helpers import random_connected_graph


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
    g = Graph(2, ((0, 1),), labels)
    assert [g.label_of(v) for v in (0, 1, 2)] == ["a", "b", "2"]
    assert labels.lookups == 3
    assert build_graph(3, [(0, 1)]).label_of(2) == "2"
