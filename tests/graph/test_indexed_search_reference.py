"""Hypothesis property tests: every indexed search equals the seed dict reference.

Each ``indexed_*`` search in :mod:`repro.graph.shortest_paths` has exactly
one kernel; the seed dict searches over a
:class:`~repro.graph.weighted_graph.WeightedGraph` (:func:`dijkstra`,
:func:`dijkstra_with_cutoff_stats`, :func:`pair_distance`,
:func:`single_source_distances`) are the reference oracles it is pinned
against.  The graphs include **tie-heavy** ones whose weights come from a
tiny pool of exactly-representable dyadic values, so equal-distance pop
races actually occur, and **string-vertex** ones, so the dense-id interning
layer is exercised too.

Single-direction searches compare distances exactly (``==``): with
positive weights, ``fl(d + w) > d``, so the settled float distances are the
unique fixpoint of ``d(v) = min_u fl(d(u) + w(u, v))`` whatever order ties
pop in.  The bidirectional search reports a meeting sum ``d_f + d_b`` that
associates differently from the one-sided sums, so it is compared exactly
on dyadic draws and with ``math.isclose(rel_tol=1e-12)`` otherwise,
skipping draws within 1e-9 of the cutoff.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings, strategies as st

from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import (
    dijkstra,
    dijkstra_with_cutoff_stats,
    indexed_ball,
    indexed_bidirectional_cutoff,
    indexed_cutoff_excluding_edge,
    indexed_dijkstra_with_cutoff,
    indexed_sssp,
    pair_distance,
    single_source_distances,
)
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)

#: Relative tolerance for the bidirectional meeting sum on non-dyadic draws.
REL_TOL = 1e-12

#: Non-dyadic draws whose reference distance is this close to the cutoff are
#: skipped: a meeting sum one ulp across the cutoff flips the verdict.
CUTOFF_MARGIN = 1e-9


@st.composite
def connected_graphs(draw, max_vertices: int = 16):
    """``(base, indexed, tie_heavy)``: a small connected graph and its index.

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
    return graph, IndexedGraph.from_weighted_graph(graph), tie_heavy


@st.composite
def search_cases(draw):
    """``(base, indexed, tie_heavy, source_id, target_id, cutoff)``."""
    base, graph, tie_heavy = draw(connected_graphs())
    n = graph.number_of_vertices
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    cutoff = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    return base, graph, tie_heavy, source, target, cutoff


def _bounded(distance: float, cutoff: float) -> float:
    """The reference verdict of a cutoff search: the distance or ``inf``."""
    return distance if distance <= cutoff else math.inf


def _reference_ids(base: WeightedGraph, graph: IndexedGraph, source: int) -> dict[int, float]:
    """Seed single-source distances from ``source``, keyed by dense id."""
    return {
        graph.id_of(vertex): distance
        for vertex, distance in single_source_distances(base, graph.vertex_of(source)).items()
    }


@settings(max_examples=80, deadline=None)
@given(case=search_cases())
def test_bounded_single_pair_matches_reference(case):
    """Bounded cutoff search: the seed distance, and only exact settled entries."""
    base, graph, _, source, target, cutoff = case
    distance, settled = indexed_dijkstra_with_cutoff(graph, source, target, cutoff)
    ref_distance, ref_settles = dijkstra_with_cutoff_stats(
        base, graph.vertex_of(source), graph.vertex_of(target), cutoff
    )
    assert distance == ref_distance
    reference = _reference_ids(base, graph, source)
    assert all(settled[vid] == reference[vid] for vid in settled)
    if math.isinf(distance):
        # No early exit: both searches settle the whole cutoff ball.
        assert set(settled) == {vid for vid, d in reference.items() if d <= cutoff}
        assert len(settled) == ref_settles
    else:
        # Early exit at the target: every strictly closer vertex is settled,
        # and nothing farther (ties with the target may pop either way).
        assert {vid for vid, d in reference.items() if d < distance} <= set(settled)
        assert all(d <= distance for d in settled.values())


@settings(max_examples=80, deadline=None)
@given(case=search_cases())
def test_bidirectional_cutoff_matches_reference(case):
    """Meet-in-the-middle search: the seed pair distance under the cutoff."""
    base, graph, tie_heavy, source, target, cutoff = case
    reference = pair_distance(base, graph.vertex_of(source), graph.vertex_of(target))
    distance, settled_f, settled_b = indexed_bidirectional_cutoff(
        graph, source, target, cutoff
    )
    if tie_heavy:
        assert distance == _bounded(reference, cutoff)
    else:
        assume(abs(reference - cutoff) > CUTOFF_MARGIN)
        if reference <= cutoff:
            assert math.isclose(distance, reference, rel_tol=REL_TOL)
        else:
            assert math.isinf(distance)
    forward = _reference_ids(base, graph, source)
    backward = _reference_ids(base, graph, target)
    assert all(settled_f[vid] == forward[vid] for vid in settled_f)
    assert all(settled_b[vid] == backward[vid] for vid in settled_b)


@settings(max_examples=60, deadline=None)
@given(case=search_cases())
def test_ball_matches_reference(case):
    """Radius-bounded ball: exactly the seed vertices within the radius."""
    base, graph, _, source, _, radius = case
    ball = indexed_ball(graph, source, radius)
    reference = _reference_ids(base, graph, source)
    assert ball == {vid: d for vid, d in reference.items() if d <= radius}


@settings(max_examples=60, deadline=None)
@given(case=search_cases(), edge_seed=st.integers(min_value=0, max_value=10**6))
def test_excluded_edge_search_matches_reference(case, edge_seed):
    """Deleted-edge bounded search: the seed distance on a copy without the edge."""
    base, graph, _, source, target, cutoff = case
    edges = list(graph.edges())
    uid, vid, _ = edges[edge_seed % len(edges)]
    distance, _ = indexed_cutoff_excluding_edge(
        graph, source, target, cutoff, excluded=(uid, vid)
    )
    removed = base.copy()
    removed.remove_edge(graph.vertex_of(uid), graph.vertex_of(vid))
    reference = pair_distance(removed, graph.vertex_of(source), graph.vertex_of(target))
    assert distance == _bounded(reference, cutoff)


@settings(max_examples=60, deadline=None)
@given(graph_case=connected_graphs(), source_seed=st.integers(min_value=0, max_value=10**6))
def test_sssp_matches_reference(graph_case, source_seed):
    """Full SSSP sweep: seed distances, and every parent is a shortest-path step."""
    base, graph, _ = graph_case
    source = source_seed % graph.number_of_vertices
    dist, parent, settles = indexed_sssp(graph, source)
    ref_dist, _ = dijkstra(base, graph.vertex_of(source))
    assert dist == [ref_dist[graph.vertex_of(vid)] for vid in range(len(dist))]
    assert parent[source] == -1
    for vid, previous in enumerate(parent):
        if vid != source:
            assert dist[vid] == dist[previous] + graph.weight_ids(previous, vid)
    assert settles >= graph.number_of_vertices
