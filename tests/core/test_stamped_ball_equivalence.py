"""Hypothesis property tests: the stamped ball kernel is row-order blind.

The band-parallel builder filters inline on its *live* ``(weight,
neighbour)`` rows — appended in canonical order, so weight-sorted with
ties in insertion order — while pool workers filter on
``_csr_as_pairs(mirror.finalize())`` — weight-sorted with ties by
neighbour id.  Both feed :func:`repro.graph.shortest_paths.stamped_ball`,
and the claim is that the two row orders are indistinguishable: same
settle sequence, same distances, same packed coverage harvest and same
candidate verdicts, equal also to the dict ball :func:`indexed_ball`.
Weights come from a tiny dyadic pool so equal-distance pop races actually
occur.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parallel_greedy import _csr_as_pairs, _filter_groups, parallel_greedy_spanner
from repro.experiments.harness import fork_available
from repro.graph.indexed_graph import IndexedGraph
from repro.graph.shortest_paths import indexed_ball, stamped_ball, stamped_scratch
from repro.graph.weighted_graph import WeightedGraph

#: Small pool of dyadic weights: maximal ties, exact float arithmetic.
TIE_HEAVY_WEIGHTS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def tie_heavy_graphs(draw, max_vertices: int = 16) -> WeightedGraph:
    """A small random graph (possibly disconnected) with tie-heavy weights."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = WeightedGraph(vertices=range(n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.sampled_from(TIE_HEAVY_WEIGHTS)))
    return graph


def _both_row_orders(graph: WeightedGraph):
    """Live insertion-order rows and the CSR-derived rows of one edge set."""
    mirror = IndexedGraph(vertices=graph.vertices())
    live: list[list[tuple[float, int]]] = [[] for _ in range(mirror.number_of_vertices)]
    for u, v, weight in graph.edges_sorted_by_weight():
        uid, vid = mirror.id_of(u), mirror.id_of(v)
        mirror.append_edge_unchecked_ids(uid, vid, weight)
        live[uid].append((weight, vid))
        live[vid].append((weight, uid))
    return mirror, live, _csr_as_pairs(mirror.finalize())


def _ball(rows, source, radius):
    dist, stamp, genbox = stamped_scratch(len(rows))
    genbox[0] += 1
    gen = genbox[0]
    settled = stamped_ball(rows, source, radius, dist, stamp, gen)
    return [(vertex, dist[vertex]) for vertex in settled]


@settings(max_examples=120, deadline=None)
@given(
    graph=tie_heavy_graphs(),
    data=st.data(),
    radius=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 8.0, 100.0]),
)
def test_live_and_csr_rows_settle_identically(graph, data, radius):
    mirror, live, csr_rows = _both_row_orders(graph)
    n = mirror.number_of_vertices
    source = data.draw(st.integers(0, n - 1))
    expected = list(indexed_ball(mirror, source, radius).items())
    assert _ball(live, source, radius) == expected
    assert _ball(csr_rows, source, radius) == expected


@settings(max_examples=120, deadline=None)
@given(graph=tie_heavy_graphs(), data=st.data(), t=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_live_and_csr_rows_filter_identically(graph, data, t):
    mirror, live, csr_rows = _both_row_orders(graph)
    n = mirror.number_of_vertices
    groups = []
    for source in sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))):
        weights = sorted(data.draw(st.lists(st.sampled_from(TIE_HEAVY_WEIGHTS), min_size=1, max_size=4)))
        items = [
            (index, data.draw(st.integers(0, n - 1)), weight)
            for index, weight in enumerate(weights)
        ]
        groups.append((source, items))
    # (candidates, settles, packed harvest) — the whole shard result.
    assert _filter_groups(live, groups, t) == _filter_groups(csr_rows, groups, t)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_inline_and_pool_builds_match_on_tie_heavy_graph():
    """workers=1 filters on live rows, workers=2 on published CSR snapshots:
    byte-identical spanners and equal deterministic counters."""
    import random

    rng = random.Random(7)
    graph = WeightedGraph(vertices=range(120))
    for _ in range(900):
        u, v = rng.randrange(120), rng.randrange(120)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice(TIE_HEAVY_WEIGHTS))
    one = parallel_greedy_spanner(graph, 2.0, workers=1, bands=6)
    two = parallel_greedy_spanner(graph, 2.0, workers=2, bands=6)
    assert list(one.subgraph.edges()) == list(two.subgraph.edges())
    assert two.metadata["build_shared_memory"] == 1.0
    fanout_fields = {"build_workers", "build_shared_memory", "build_pool_fallbacks"}
    for field, value in one.metadata.items():
        if field not in fanout_fields:
            assert two.metadata[field] == value, field
