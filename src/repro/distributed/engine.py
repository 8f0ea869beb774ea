"""The indexed overlay engine: distributed protocols on dense integer ids.

The seed simulators in this package run every protocol through hash-dict
graphs — one :class:`~repro.distributed.network.Message` dataclass per send,
one dict lookup per edge, one full dict-Dijkstra per routing destination.
That tops out around ``n = 400`` while the *construction* side of the
repository (PRs 1–3) builds spanners at ``n = 2·10⁴``.  This module closes
the gap: each protocol is re-expressed over the flat parallel adjacency
arrays of :class:`~repro.graph.indexed_graph.IndexedGraph`, with per-vertex
state in flat lists indexed by dense id.

The engine is **observationally identical** to the reference simulators, tie
for tie: :func:`indexed_overlay` mirrors the dict graph's per-vertex
neighbour order (see :meth:`IndexedGraph.from_incidence_of`), and
:func:`indexed_flood` replays the event queue with the same
``(arrival_time, send_sequence)`` keys the reference
:class:`~repro.distributed.network.Network` uses, so message counts,
communication cost, completion time, delivery times and first-delivery
parents all match bit for bit — the property tests in
``tests/distributed/test_engine_equivalence.py`` assert exactly that, on
tie-heavy weights where the ordering actually matters.

The routing and synchronizer protocols need no event queue at all; their
indexed kernels (:func:`~repro.graph.shortest_paths.indexed_sssp` and
friends) live in :mod:`repro.graph.shortest_paths` and are consumed by
:mod:`repro.distributed.routing` / :mod:`repro.distributed.synchronizer`
directly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

from repro.graph.indexed_graph import IndexedGraph
from repro.graph.weighted_graph import WeightedGraph


class EventQueue:
    """The shared ``(time, sequence, *payload)`` heap of the distributed engines.

    Push ``(time, sequence) + payload`` and bump the sequence, so
    simultaneous events replay in creation order: the event order is total
    and every chaos replay in :mod:`repro.distributed.resilient` is
    reproducible tie for tie.  :meth:`drop` advances the sequence *without*
    pushing — a lost message must still consume its sequence number or the
    replay timeline of every later event would shift.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def sequence(self) -> int:
        """The next sequence number to be consumed."""
        return self._sequence

    def push(self, time: float, *payload: Any) -> None:
        """Enqueue ``(time, sequence, *payload)`` and advance the sequence."""
        heapq.heappush(self._heap, (time, self._sequence) + payload)
        self._sequence += 1

    def drop(self) -> None:
        """Consume a sequence number without enqueuing anything."""
        self._sequence += 1

    def pop(self) -> tuple:
        """Dequeue and return the earliest ``(time, sequence, *payload)``."""
        return heapq.heappop(self._heap)


def indexed_overlay(overlay: WeightedGraph) -> IndexedGraph:
    """Return the indexed mirror of ``overlay`` used by the protocol engines.

    Ids follow ``overlay.vertices()`` order and each vertex's adjacency
    preserves ``overlay.incident()`` order — the property the flood replay
    relies on for exact tie-for-tie equivalence with the reference
    simulator.
    """
    return IndexedGraph.from_incidence_of(overlay)


@dataclass
class FloodRun:
    """Outcome of one indexed flood: statistics plus the first-delivery tree.

    Attributes
    ----------
    messages, cost:
        Number of messages sent and their total weighted communication cost.
    completion_time:
        Arrival time of the last delivered message (including redundant
        ones) — the reference simulator's ``completion_time``.
    events:
        Number of message deliveries processed (every message is delivered,
        including redundant ones).
    delivery:
        ``delivery[v]`` is the first-delivery time of vertex id ``v``
        (``0.0`` for the source, ``math.inf`` if never reached).
    parent:
        ``parent[v]`` is the id the first message to reach ``v`` came from
        (``-1`` for the source and unreached vertices) — the flood tree the
        echo convergecast runs over.
    """

    messages: int
    cost: float
    completion_time: float
    events: int
    delivery: list[float]
    parent: list[int]


def indexed_flood(indexed: IndexedGraph, source: int) -> FloodRun:
    """Flood from ``source`` over ``indexed``: the reference protocol, replayed.

    Protocol (identical to :func:`repro.distributed.broadcast.flood_broadcast`
    run through the reference :class:`Network`):

    * the source sends to every neighbour at time 0;
    * a vertex receiving the message *for the first time* forwards it to
      every neighbour except the sender it received from; later receipts are
      dropped;
    * a message over an edge of weight ``w`` costs ``w`` and arrives ``w``
      time later.

    Messages are processed in ``(arrival_time, send_sequence)`` order —
    exactly the reference event queue's key, with ``send_sequence`` assigned
    in the same order because the adjacency mirrors the dict graph's
    neighbour order.  Equal-time races therefore resolve identically, which
    is what makes the two engines' statistics (and flood trees) comparable
    bit for bit.
    """
    neighbour_ids, neighbour_weights = indexed.adjacency_arrays()
    n = indexed.number_of_vertices
    inf = math.inf
    delivery = [inf] * n
    parent = [-1] * n
    delivery[source] = 0.0

    queue = EventQueue()
    messages = 0
    cost = 0.0
    now = 0.0
    events = 0

    for neighbour, weight in zip(neighbour_ids[source], neighbour_weights[source]):
        queue.push(weight, source, neighbour)
        messages += 1
        cost += weight

    while len(queue):
        arrival, _, sender, vertex = queue.pop()
        now = arrival
        events += 1
        if delivery[vertex] != inf:
            continue  # redundant receipt: the reference handler drops it too
        delivery[vertex] = arrival
        parent[vertex] = sender
        for neighbour, weight in zip(neighbour_ids[vertex], neighbour_weights[vertex]):
            if neighbour != sender:
                queue.push(arrival + weight, vertex, neighbour)
                messages += 1
                cost += weight

    return FloodRun(
        messages=messages,
        cost=cost,
        completion_time=now,
        events=events,
        delivery=delivery,
        parent=parent,
    )


@dataclass(frozen=True)
class EchoResult:
    """Cost of the echo (convergecast) phase over a flood tree.

    One acknowledgement travels up every tree edge; an internal vertex
    forwards its ack only after hearing from all of its children, so the
    completion time is the depth-aggregated maximum, not just twice the
    flood delay.
    """

    messages: int
    cost: float
    completion_time: float


def echo_convergecast(
    indexed: IndexedGraph, source: int, flood: FloodRun
) -> EchoResult:
    """Ack every flood delivery back up the flood tree of ``flood``.

    Pure accounting over the tree (no event queue needed): each non-source
    reached vertex sends exactly one ack along its first-delivery parent
    edge, departing once the vertex itself is delivered *and* all of its
    tree children's acks have arrived.  Works identically on reference and
    indexed flood runs because both expose the same flood tree.
    """
    delivery = flood.delivery
    parent = flood.parent
    inf = math.inf
    reached = [v for v in range(len(delivery)) if not math.isinf(delivery[v])]

    # ``ready[v]``: earliest time v can release its own ack — its delivery
    # time, raised by every child ack's arrival.  Children always deliver
    # strictly later than their parent (positive weights), so scanning the
    # reached vertices in decreasing delivery time visits each subtree
    # bottom-up.
    ready = {v: delivery[v] for v in reached}
    messages = 0
    cost = 0.0
    for v in sorted(reached, key=lambda v: delivery[v], reverse=True):
        up = parent[v]
        if up < 0:
            continue  # the source acks nobody
        weight = indexed.weight_ids(v, up)
        messages += 1
        cost += weight
        arrival = ready[v] + weight
        if arrival > ready[up]:
            ready[up] = arrival
    completion = ready[source] if reached else 0.0
    return EchoResult(messages=messages, cost=cost, completion_time=completion)
