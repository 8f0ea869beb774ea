"""Lease/heartbeat and quarantine laws of the durable job queue.

Every test drives :class:`repro.service.queue.JobQueue` with an injected
fake clock — lease expiry is a statement about timestamps, not about how
long pytest slept.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import JobNotFoundError, JobStateError, StaleLeaseError
from repro.errors import InvalidStretchError
from repro.service.queue import DEFAULT_MAX_ATTEMPTS, Job, JobQueue


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    return JobQueue(tmp_path, clock=clock)


SPEC = {"workload": {"kind": "geometric", "n": 10}, "stretch": 1.5}


def test_submit_persists_a_pending_record(queue, tmp_path):
    job = queue.submit(SPEC)
    assert job.state == "pending"
    on_disk = json.loads((tmp_path / "jobs" / f"{job.job_id}.json").read_text())
    assert on_disk["state"] == "pending"
    assert on_disk["spec"] == SPEC
    assert on_disk["attempts"] == 0


def test_resubmitting_the_same_spec_yields_a_new_job(queue):
    first = queue.submit(SPEC)
    second = queue.submit(SPEC)
    assert first.job_id != second.job_id
    assert first.job_id.rsplit("-", 1)[0] == second.job_id.rsplit("-", 1)[0]


def test_claim_is_exclusive(queue):
    job = queue.submit(SPEC)
    claimed = queue.claim("worker-a")
    assert claimed is not None and claimed.job_id == job.job_id
    assert claimed.state == "running"
    assert claimed.attempts == 1
    # The lease is live, so a second claimer finds nothing.
    assert queue.claim("worker-b") is None


def test_complete_transitions_to_done(queue):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    done = queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    assert done.state == "done"
    assert done.result == {"tier": "mst"}
    assert done.worker_id is None
    # Terminal states are terminal.
    with pytest.raises(StaleLeaseError):
        queue.complete(job.job_id, "worker-a", {})


def test_fail_retries_until_the_attempt_cap_then_quarantines(queue):
    job = queue.submit(SPEC, max_attempts=2)
    queue.claim("worker-a")
    failed = queue.fail(job.job_id, "worker-a", "Traceback: boom 1")
    assert failed.state == "pending"
    assert failed.error == "Traceback: boom 1"
    queue.claim("worker-a")
    quarantined = queue.fail(job.job_id, "worker-a", "Traceback: boom 2")
    assert quarantined.state == "quarantined"
    assert quarantined.error == "Traceback: boom 2"
    assert queue.counters["quarantined"] == 1
    assert queue.claim("worker-a") is None


def test_expired_lease_is_reclaimed_with_attempt_bump(queue, clock):
    job = queue.submit(SPEC, lease_seconds=30.0)
    queue.claim("worker-a")
    clock.advance(10.0)
    assert queue.claim("worker-b") is None  # lease still live
    clock.advance(25.0)
    reclaimed = queue.claim("worker-b")
    assert reclaimed is not None and reclaimed.job_id == job.job_id
    assert reclaimed.worker_id == "worker-b"
    assert reclaimed.attempts == 2
    assert queue.counters["lease_reclaims"] == 1


def test_heartbeat_extends_the_lease(queue, clock):
    queue.submit(SPEC, lease_seconds=30.0)
    job = queue.claim("worker-a")
    clock.advance(25.0)
    queue.beat(job.job_id, "worker-a")
    clock.advance(25.0)
    # 50s since claim but only 25s since the beat: still owned.
    assert queue.claim("worker-b") is None


def test_losing_the_lease_makes_the_old_owner_stale(queue, clock):
    queue.submit(SPEC, lease_seconds=30.0)
    job = queue.claim("worker-a")
    clock.advance(31.0)
    queue.claim("worker-b")
    with pytest.raises(StaleLeaseError):
        queue.beat(job.job_id, "worker-a")
    with pytest.raises(StaleLeaseError):
        queue.complete(job.job_id, "worker-a", {})


def test_repeated_silent_worker_death_quarantines_the_poison_job(queue, clock):
    job = queue.submit(SPEC, lease_seconds=1.0)
    for attempt in range(DEFAULT_MAX_ATTEMPTS):
        claimed = queue.claim(f"worker-{attempt}")
        assert claimed is not None
        clock.advance(2.0)  # the worker dies without a word every time
    assert queue.claim("worker-last") is None
    record = queue.get(job.job_id)
    assert record.state == "quarantined"
    assert "worker death suspected" in (record.error or "")
    assert queue.counters["quarantined"] == 1
    assert queue.counters["lease_reclaims"] == DEFAULT_MAX_ATTEMPTS - 1


def test_orphaned_claim_file_is_recovered(queue, tmp_path):
    job = queue.submit(SPEC)
    path = tmp_path / "jobs" / f"{job.job_id}.json"
    # Simulate a claimer that crashed between rename and restore.
    os.rename(path, path.with_name(path.name + ".claim-crashed"))
    assert not path.exists()
    claimed = queue.claim("worker-a")
    assert claimed is not None and claimed.job_id == job.job_id
    assert path.exists()
    assert not list((tmp_path / "jobs").glob("*.claim-*"))


def test_get_unknown_job_raises(queue):
    with pytest.raises(JobNotFoundError):
        queue.get("job-missing-0000")


def test_illegal_transition_raises(queue, clock):
    job = queue.submit(SPEC)
    record = queue.get(job.job_id)
    with pytest.raises(JobStateError):
        queue._transition(record, "done", "cannot skip running")


def test_list_jobs_filters_by_state(queue):
    first = queue.submit(SPEC)
    queue.submit(SPEC)
    queue.claim("worker-a")
    assert [j.job_id for j in queue.list_jobs(state="running")] == [first.job_id]
    assert len(queue.list_jobs()) == 2


def test_records_survive_reopening_the_queue(queue, tmp_path, clock):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    reopened = JobQueue(tmp_path, clock=clock)
    record = reopened.get(job.job_id)
    assert record.state == "done"
    assert record.result == {"tier": "mst"}
    assert isinstance(record, Job)


@pytest.mark.parametrize(
    "stretch",
    [0.5, float("nan"), "abc", None],
    ids=["below-one", "nan", "string", "missing"],
)
def test_submit_rejects_an_invalid_stretch_before_writing(queue, tmp_path, stretch):
    spec = {"workload": SPEC["workload"]}
    if stretch is not None:
        spec["stretch"] = stretch
    with pytest.raises(InvalidStretchError):
        queue.submit(spec)
    assert not [path for path in (tmp_path / "jobs").rglob("*") if path.is_file()]


def test_submit_accepts_an_infinite_stretch(queue):
    assert queue.submit({"workload": SPEC["workload"], "stretch": float("inf")}).state == "pending"


def test_racing_submitters_of_one_spec_get_distinct_jobs(tmp_path, clock):
    first_queue = JobQueue(tmp_path, clock=clock)
    second_queue = JobQueue(tmp_path, clock=clock)
    # Both submitters pass the existence probe: only the create can decide.
    second_queue._id_is_taken = lambda job_id, listed: False
    first = first_queue.submit(SPEC)
    second = second_queue.submit(SPEC)
    assert first.job_id != second.job_id
    assert first_queue.get(first.job_id).submitted_at == first.submitted_at
    assert first_queue.get(second.job_id).job_id == second.job_id
    assert len(first_queue.list_jobs()) == 2


def test_finished_records_leave_the_live_directory(queue, tmp_path):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    jobs_dir = tmp_path / "jobs"
    assert not (jobs_dir / f"{job.job_id}.json").exists()
    assert json.loads((jobs_dir / "done" / f"{job.job_id}.json").read_text())["state"] == "done"
    assert [j.job_id for j in queue.list_jobs(state="done")] == [job.job_id]
    assert queue.list_jobs(state=("pending", "running")) == []


def test_list_jobs_accepts_several_states_in_job_id_order(queue):
    first = queue.submit(SPEC, max_attempts=1)
    second = queue.submit(SPEC)
    third = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.fail(first.job_id, "worker-a", "boom")  # quarantined
    queue.claim("worker-a")
    queue.complete(second.job_id, "worker-a", {})
    listed = queue.list_jobs(state=("quarantined", "pending", "done"))
    assert [j.job_id for j in listed] == [first.job_id, second.job_id, third.job_id]
    assert [j.state for j in listed] == ["quarantined", "done", "pending"]


def test_a_claim_writes_its_record_once(queue, monkeypatch):
    import repro.service.queue as queue_module

    queue.submit(SPEC)
    writes = []
    real_write = queue_module.atomic_write_json
    monkeypatch.setattr(
        queue_module,
        "atomic_write_json",
        lambda path, document: (writes.append(document["state"]), real_write(path, document)),
    )
    claimed = queue.claim("worker-a")
    assert writes == ["running"]
    assert queue.get(claimed.job_id).state == "running"


def test_orphan_sweep_drops_a_token_whose_job_is_already_terminal(queue, tmp_path):
    job = queue.submit(SPEC, max_attempts=1)
    queue.claim("worker-a")
    queue.fail(job.job_id, "worker-a", "boom")
    # A claimer that quarantined the job and died before unlinking its token.
    token = tmp_path / "jobs" / f"{job.job_id}.json.claim-crashed"
    token.write_text(json.dumps(dict(queue.get(job.job_id).as_dict(), state="pending")))
    assert queue.claim("worker-b") is None
    assert not token.exists()
    assert not (tmp_path / "jobs" / f"{job.job_id}.json").exists()
    assert [j.state for j in queue.list_jobs()] == ["quarantined"]


def test_a_terminal_record_stranded_at_its_live_path_is_moved(queue, tmp_path, clock):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    record = queue.get(job.job_id)
    record.state = "done"
    # A crash between the terminal write and its rename.
    live = tmp_path / "jobs" / f"{job.job_id}.json"
    live.write_text(json.dumps(record.as_dict()))
    assert queue.claim("worker-b") is None
    assert not live.exists()
    assert (tmp_path / "jobs" / "done" / f"{job.job_id}.json").exists()
    assert JobQueue(tmp_path, clock=clock).get(job.job_id).state == "done"


def _legacy_record(job_id, state, **extra):
    record = Job(job_id=job_id, spec=SPEC, state=state, submitted_at=1.0, updated_at=1.0)
    for name, value in extra.items():
        setattr(record, name, value)
    return record.as_dict()


def test_opening_a_flat_legacy_root_moves_only_terminal_records(tmp_path, clock):
    jobs_dir = tmp_path / "jobs"
    jobs_dir.mkdir()
    states = {
        "job-aaaaaaaaaaaa-0000": ("done", {"result": {"tier": "mst"}}),
        "job-aaaaaaaaaaaa-0001": ("pending", {}),
        "job-bbbbbbbbbbbb-0000": ("quarantined", {"error": "Traceback: boom"}),
        "job-cccccccccccc-0000": ("running", {"worker_id": "w", "heartbeat": 1000.0}),
    }
    for job_id, (state, extra) in states.items():
        (jobs_dir / f"{job_id}.json").write_text(json.dumps(_legacy_record(job_id, state, **extra)))
    queue = JobQueue(tmp_path, clock=clock)
    assert sorted(p.name for p in jobs_dir.glob("job-*.json")) == [
        "job-aaaaaaaaaaaa-0001.json",
        "job-cccccccccccc-0000.json",
    ]
    assert (jobs_dir / "done" / "job-aaaaaaaaaaaa-0000.json").exists()
    assert (jobs_dir / "quarantined" / "job-bbbbbbbbbbbb-0000.json").exists()
    assert [(j.job_id, j.state) for j in queue.list_jobs()] == [
        (job_id, state) for job_id, (state, _) in sorted(states.items())
    ]
    for job_id, (state, _) in states.items():
        assert queue.get(job_id).state == state


def test_a_claim_reads_only_live_records_after_many_completions(queue, monkeypatch):
    for _ in range(300):
        queue.submit(SPEC)
        claimed = queue.claim("worker-a")
        queue.complete(claimed.job_id, "worker-a", {})
    live = queue.submit(SPEC)
    scanned = []
    real_list_jobs = queue.list_jobs

    def spy(state=None):
        jobs = real_list_jobs(state=state)
        scanned.append(len(jobs))
        return jobs

    monkeypatch.setattr(queue, "list_jobs", spy)
    assert queue.claim("worker-a").job_id == live.job_id
    assert scanned == [1]


def test_resubmissions_take_consecutive_ids_and_never_reuse_a_finished_one(queue):
    ids = []
    for round_index in range(13):
        ids.append(queue.submit(SPEC).job_id)
        if round_index % 3 == 0:  # some finish, some stay live
            claimed = queue.claim("worker-a")
            queue.complete(claimed.job_id, "worker-a", {})
    assert [job_id.rsplit("-", 1)[1] for job_id in ids] == [f"{i:04d}" for i in range(13)]
    assert sorted(job.job_id for job in queue.list_jobs()) == ids


def test_opening_a_queue_leaves_claim_tokens_to_the_claim_sweep(queue, tmp_path, clock):
    job = queue.submit(SPEC)
    live = tmp_path / "jobs" / f"{job.job_id}.json"
    # A claimer (live or crashed, the opener cannot tell) holds the token.
    token = live.with_name(live.name + ".claim-worker-a")
    os.rename(live, token)
    reopened = JobQueue(tmp_path, clock=clock)
    assert token.exists() and not live.exists()
    assert reopened.get(job.job_id).state == "pending"
    assert [j.job_id for j in reopened.list_jobs()] == [job.job_id]
    assert reopened.claim("worker-b").job_id == job.job_id
    assert not token.exists()


def test_a_live_record_beside_a_terminal_one_is_stale(queue, tmp_path):
    job = queue.submit(SPEC)
    queue.claim("worker-a")
    queue.complete(job.job_id, "worker-a", {"tier": "mst"})
    # A worker that lost the job writes its running record back after the
    # terminal rename committed it.
    ghost = dict(queue.get(job.job_id).as_dict(), state="running", worker_id="worker-b",
                 heartbeat=0.0, result=None)
    (tmp_path / "jobs" / f"{job.job_id}.json").write_text(json.dumps(ghost))
    assert queue.claim("worker-c") is None
    assert queue.list_jobs(state=("pending", "running")) == []
    assert [j.state for j in queue.list_jobs()] == ["done"]
    assert queue.get(job.job_id).state == "done"
