"""Crash interleavings of the durable job queue.

A scripted session (submit, claim, complete, fail-to-retry, lease reclaim,
quarantine from a claim and from a failure) is replayed once per filesystem
commit step.  Replay ``k`` kills the process at step ``k``: the ``k``-th
``os.rename``/``os.replace``/``os.link``/``os.unlink`` raises a
``BaseException`` and so does every later one, as nothing runs after a real
crash.  A fresh :class:`JobQueue` opened on the same root must then find
every job exactly once, in the state it had before or after the interrupted
operation, and must never hand a job out twice or resurrect a finished one.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.errors import JobNotFoundError
from repro.service.queue import TERMINAL_STATES, JobQueue

COMMIT_STEPS = ("rename", "replace", "link", "unlink")
REAL_STEPS = {name: getattr(os, name) for name in COMMIT_STEPS}

SPEC_A = {"workload": {"kind": "geometric", "n": 10}, "stretch": 1.5}
SPEC_B = {"workload": {"kind": "geometric", "n": 11}, "stretch": 2.0}


class Crash(BaseException):
    """The injected process death (not an ``Exception``: nothing catches it)."""


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class CrashInjector:
    """Counts commit steps; from step ``crash_at`` on, every step raises."""

    def __init__(self, monkeypatch) -> None:
        self.steps = 0
        self.crash_at: int | None = None
        for name, real in REAL_STEPS.items():
            monkeypatch.setattr(os, name, self._wrap(name, real))

    def _wrap(self, name, real):
        def step(*args, **kwargs):
            if self.crash_at is not None and self.steps >= self.crash_at:
                raise Crash(name)
            self.steps += 1
            return real(*args, **kwargs)

        return step


def _submit(spec, **options):
    return lambda queue, clock, claimed: queue.submit(spec, **options)


def _claim(worker):
    def operation(queue, clock, claimed):
        claimed[worker] = queue.claim(worker)

    return operation


def _complete(worker):
    return lambda queue, clock, claimed: queue.complete(
        claimed[worker].job_id, worker, {"tier": "mst"}
    )


def _fail(worker):
    return lambda queue, clock, claimed: queue.fail(
        claimed[worker].job_id, worker, f"Traceback: {worker} failed"
    )


def _advance(seconds):
    def operation(queue, clock, claimed):
        clock.now += seconds

    return operation


#: The scripted session: one operation per entry, each at most one transition
#: per job, so "before or after the operation" names two states.
SESSION = [
    _submit(SPEC_A),
    _claim("w1"),
    _complete("w1"),
    _submit(SPEC_B, lease_seconds=1.0),
    _claim("w2"),
    _fail("w2"),  # attempt 1 of 3: back to pending
    _claim("w3"),  # attempt 2; w3 then dies silently
    _advance(2.0),
    _claim("w4"),  # lease reclaim, attempt 3; w4 dies too
    _advance(2.0),
    _claim("w5"),  # attempt 4 > 3: quarantined by the claim
    _submit(SPEC_A, max_attempts=1),
    _claim("w6"),
    _fail("w6"),  # attempt 1 of 1: quarantined by the failure
    _submit(SPEC_A),
    _claim("w7"),
]


def _run(queue, clock, operations):
    claimed: dict = {}
    for operation in operations:
        operation(queue, clock, claimed)
        yield


def _states(queue: JobQueue) -> dict[str, str]:
    return {job.job_id: job.state for job in queue.list_jobs()}


def _reference_run(root, monkeypatch):
    """Run the session uncrashed: the step span and job states of each operation."""
    injector = CrashInjector(monkeypatch)
    clock = FakeClock()
    queue = JobQueue(root, clock=clock)
    spans, before = [], {}
    first = injector.steps
    for _ in _run(queue, clock, SESSION):
        after = _states(queue)
        spans.append((first, injector.steps, before, after))
        first, before = injector.steps, after
    return injector.steps, spans


def test_the_session_covers_every_commit_kind(tmp_path, monkeypatch):
    seen: set[str] = set()
    for name, real in REAL_STEPS.items():

        def step(*args, _name=name, _real=real, **kwargs):
            seen.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(os, name, step)
    clock = FakeClock()
    queue = JobQueue(tmp_path, clock=clock)
    for _ in _run(queue, clock, SESSION):
        pass
    assert seen == set(COMMIT_STEPS)
    assert sorted(_states(queue).values()) == [
        "done", "quarantined", "quarantined", "running",
    ]


def _check_recovered(root, clock_now, before, after):
    queue = JobQueue(root, clock=FakeClock(clock_now))
    listed = queue.list_jobs()
    ids = [job.job_id for job in listed]
    assert len(ids) == len(set(ids)), f"a job is listed twice: {ids}"
    states = {job.job_id: job.state for job in listed}
    # Jobs the operation created may be absent; every earlier one must stay.
    assert set(before) <= set(states) <= set(before) | set(after)
    for job_id, state in states.items():
        assert state in {before.get(job_id), after.get(job_id)}, (job_id, state)
        assert queue.get(job_id).state == state
    for job_id in set(after) - set(states):
        with pytest.raises(JobNotFoundError):
            queue.get(job_id)
    claimed = []
    while (job := queue.claim("survivor")) is not None:
        assert job.job_id not in claimed, f"{job.job_id} claimed twice"
        assert states[job.job_id] not in TERMINAL_STATES, f"{job.job_id} came back"
        claimed.append(job.job_id)
        assert len(claimed) <= len(states)
    for job_id, state in _states(queue).items():
        if states[job_id] in TERMINAL_STATES:
            assert state == states[job_id]
        if state in TERMINAL_STATES:
            # A finished job keeps one record: no live copy or token beside it.
            leftovers = [path.name for path in (Path(root) / "jobs").glob(f"{job_id}.json*")]
            assert not leftovers, leftovers


def test_a_crash_at_any_commit_step_loses_and_duplicates_nothing(tmp_path, monkeypatch):
    total, spans = _reference_run(tmp_path / "reference", monkeypatch)
    assert total > 30
    for crash_at in range(total):
        before, after = next(
            (before, after) for first, last, before, after in spans
            if first <= crash_at < last
        )
        root = tmp_path / f"crash-{crash_at}"
        injector = CrashInjector(monkeypatch)
        injector.crash_at = crash_at
        clock = FakeClock()
        queue = JobQueue(root, clock=clock)
        with pytest.raises(Crash):
            for _ in _run(queue, clock, SESSION):
                pass
        injector.crash_at = None
        _check_recovered(root, clock.now, before, after)
