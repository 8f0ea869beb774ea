"""Hypothesis property tests: ``mode="csr"`` equals ``mode="list"``, bit for bit.

The CSR ports of the indexed searches
(:mod:`repro.graph.shortest_paths`) claim to be *bit-identical* to the
list-adjacency loops: same distances,
same settled maps — contents **and** insertion order — and therefore the
same operation counts.  The argument is that both loops push the same
(dist, vertex) multiset in the same order with IEEE-identical float64 sums,
so the heap pop sequences coincide exactly.  These tests generate random
connected graphs — including **tie-heavy** ones whose weights come from a
tiny pool of exactly-representable dyadic values, so equal-distance pop
races actually occur, and **string-vertex** ones, so the dense-id interning
layer is exercised too — and assert exact (``==``) equality per search.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import (
    indexed_ball,
    indexed_bidirectional_cutoff,
    indexed_cutoff_excluding_edge,
    indexed_dijkstra_with_cutoff,
    indexed_sssp,
)
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def connected_indexed_graphs(draw, max_vertices: int = 16):
    """A small connected :class:`IndexedGraph`: tree backbone plus extras.

    ``tie_heavy`` draws every weight from :data:`TIE_HEAVY_WEIGHTS` so that
    equal path sums (the regime where heap tie-breaking could diverge)
    actually occur; ``string_vertices`` routes construction through the
    interning layer with non-integer labels.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    tie_heavy = draw(st.booleans())
    string_vertices = draw(st.booleans())
    if tie_heavy:
        weights = st.sampled_from(TIE_HEAVY_WEIGHTS)
    else:
        weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    label = (lambda i: f"v{i}") if string_vertices else (lambda i: i)
    graph = WeightedGraph(vertices=[label(i) for i in range(n)])
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        graph.add_edge(label(parent), label(v), draw(weights))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(label(u), label(v)):
            graph.add_edge(label(u), label(v), draw(weights))
    return IndexedGraph.from_weighted_graph(graph)


@st.composite
def search_cases(draw):
    """(graph, source_id, target_id, cutoff) with ids guaranteed in range."""
    graph = draw(connected_indexed_graphs())
    n = graph.number_of_vertices
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    cutoff = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    return graph, source, target, cutoff


@pytest.mark.parametrize("other_mode", ["csr"])
@settings(max_examples=80, deadline=None)
@given(case=search_cases())
def test_bounded_single_pair_identical(other_mode, case):
    """Bounded cutoff search: distance and settled map (order included) match."""
    graph, source, target, cutoff = case
    list_dist, list_settled = indexed_dijkstra_with_cutoff(
        graph, source, target, cutoff, mode="list"
    )
    csr_dist, csr_settled = indexed_dijkstra_with_cutoff(
        graph, source, target, cutoff, mode=other_mode
    )
    assert list_dist == csr_dist or (math.isinf(list_dist) and math.isinf(csr_dist))
    assert list(list_settled.items()) == list(csr_settled.items())


@pytest.mark.parametrize("other_mode", ["csr"])
@settings(max_examples=80, deadline=None)
@given(case=search_cases())
def test_bidirectional_cutoff_identical(other_mode, case):
    """Meet-in-the-middle search: distance and both settled maps match."""
    graph, source, target, cutoff = case
    list_result = indexed_bidirectional_cutoff(graph, source, target, cutoff, mode="list")
    csr_result = indexed_bidirectional_cutoff(graph, source, target, cutoff, mode=other_mode)
    assert list_result[1] == csr_result[1]
    assert list_result[2] == csr_result[2]
    if math.isinf(list_result[0]):
        assert math.isinf(csr_result[0])
    else:
        assert list_result[0] == csr_result[0]


@pytest.mark.parametrize("other_mode", ["csr"])
@settings(max_examples=60, deadline=None)
@given(case=search_cases())
def test_ball_identical(other_mode, case):
    """Radius-bounded ball harvest: identical contents and insertion order."""
    graph, source, _, radius = case
    list_ball = indexed_ball(graph, source, radius, mode="list")
    csr_ball = indexed_ball(graph, source, radius, mode=other_mode)
    assert list(list_ball.items()) == list(csr_ball.items())


@pytest.mark.parametrize("other_mode", ["csr"])
@settings(max_examples=60, deadline=None)
@given(case=search_cases(), edge_seed=st.integers(min_value=0, max_value=10**6))
def test_excluded_edge_search_identical(other_mode, case, edge_seed):
    """Deleted-edge bounded search: distance and settle count match."""
    graph, source, target, cutoff = case
    edges = list(graph.edges())
    uid, vid, _ = edges[edge_seed % len(edges)]
    list_result = indexed_cutoff_excluding_edge(
        graph, source, target, cutoff, excluded=(uid, vid), mode="list"
    )
    csr_result = indexed_cutoff_excluding_edge(
        graph, source, target, cutoff, excluded=(uid, vid), mode=other_mode
    )
    assert list_result == csr_result or (
        math.isinf(list_result[0])
        and math.isinf(csr_result[0])
        and list_result[1] == csr_result[1]
    )


@pytest.mark.parametrize("other_mode", ["csr"])
@settings(max_examples=60, deadline=None)
@given(graph=connected_indexed_graphs(), source_seed=st.integers(min_value=0, max_value=10**6))
def test_sssp_identical(other_mode, graph, source_seed):
    """Full SSSP sweep: dist, parent and the stale-inclusive settle count match."""
    source = source_seed % graph.number_of_vertices
    list_dist, list_parent, list_settles = indexed_sssp(graph, source, mode="list")
    csr_dist, csr_parent, csr_settles = indexed_sssp(graph, source, mode=other_mode)
    assert list_dist == csr_dist
    assert list_parent == csr_parent
    assert list_settles == csr_settles


def test_unknown_mode_rejected():
    base = WeightedGraph(vertices=[0, 1])
    base.add_edge(0, 1, 1.0)
    graph = IndexedGraph.from_weighted_graph(base)
    with pytest.raises(ValueError, match="unknown search mode"):
        indexed_dijkstra_with_cutoff(graph, 0, 1, 5.0, mode="dense")
    with pytest.raises(ValueError, match="unknown search mode"):
        indexed_bidirectional_cutoff(graph, 0, 1, 5.0, mode="dense")
    with pytest.raises(ValueError, match="unknown search mode"):
        indexed_ball(graph, 0, 5.0, mode="dense")
    with pytest.raises(ValueError, match="unknown search mode"):
        indexed_sssp(graph, 0, mode="dense")
