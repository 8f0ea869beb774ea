"""Property test for the sequence-number law of :class:`EventQueue`.

The chaos replays of :mod:`repro.distributed.resilient` rely on a total
``(time, sequence)`` event order in which a dropped message still consumes
its sequence number.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.distributed.engine import EventQueue

#: Exactly-representable dyadic keys: maximal ties, no float rounding noise.
TIE_HEAVY_KEYS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.sampled_from(TIE_HEAVY_KEYS), st.booleans()), max_size=40
    )
)
def test_event_queue_replay_order(events):
    """Pops drain in ``(time, sequence)`` order; ``drop`` burns a sequence slot.

    ``drop`` must consume a sequence number without enqueuing — the replay
    law that keeps lost-message timelines aligned with the reference
    simulator's.  The model assigns the same sequence numbers by hand.
    """
    queue = EventQueue()
    model: list[tuple[float, int, str]] = []
    sequence = 0
    for time, dropped in events:
        if dropped:
            queue.drop()
        else:
            queue.push(time, f"payload-{sequence}")
            model.append((time, sequence, f"payload-{sequence}"))
        sequence += 1
    assert queue.sequence == sequence
    assert len(queue) == len(model)
    drained = [queue.pop() for _ in range(len(queue))]
    assert drained == sorted(model)
