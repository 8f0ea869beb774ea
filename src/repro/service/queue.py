"""Durable job queue: crash-safe JSON records with lease-based claims.

Every job is one JSON file, rewritten *atomically* (write-temp-then-
``os.replace``, :func:`repro.graph.io.atomic_write_json`) on every state
transition — a reader never observes a half-written record, and a worker
crash mid-transition leaves the previous complete record in place.

The lifecycle state machine::

    pending ──claim──▶ running ──complete──▶ done
       ▲                  │
       │                  ├─fail (attempts < max)──▶ pending   (retried)
       │                  ├─fail (attempts = max)──▶ quarantined
       └──lease expired───┘        (poison job, traceback kept)

Live jobs (``pending`` and ``running``) sit at ``<root>/jobs/<id>.json``;
a terminal record (``done``, ``failed``, ``quarantined``) is written there
first and then renamed to ``<root>/jobs/<state>/<id>.json`` — that rename is
its commit point, and from then on the terminal record wins over any live
copy a racing worker writes back.  A claim therefore reads only the live
jobs, however many have finished.

Claims are **exclusive by rename**: a claimer renames ``<id>.json`` to a
worker-tagged claim token, and ``os.rename`` hands the file to exactly one
renamer — the loser gets ``FileNotFoundError`` and moves on.  The winner
keeps the token until its own ``running`` (or ``quarantined``) record has
landed, then unlinks it, so a claim costs one record write.  Readers read
the record inside a token; only ``claim()`` runs the orphan sweep, which
renames a token back unless the job's record already exists (live or
terminal) — healing a claimer that died holding it.  A worker
that dies *after* claiming simply stops heartbeating: its lease
(``heartbeat + lease_seconds``) expires and the next claimer re-runs the
job, bumping ``attempts``.  A job that keeps killing its workers (or keeps
raising) is quarantined after ``max_attempts`` with the captured traceback,
so one poison job can never wedge the queue.

The wall clock is injectable (``clock=``) so the lease/heartbeat laws are
tested with a fake clock instead of sleeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import (
    InvalidStretchError,
    JobNotFoundError,
    JobStateError,
    StaleLeaseError,
)
from repro.graph.io import atomic_create_json, atomic_write_json

SCHEMA_VERSION = 1

#: The legal lifecycle states.
JOB_STATES = ("pending", "running", "done", "failed", "quarantined")

#: States whose records leave the live directory for ``jobs/<state>/``.
TERMINAL_STATES = ("done", "failed", "quarantined")

#: Legal transitions of the lifecycle state machine (from -> allowed to).
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    "pending": ("running", "quarantined"),
    "running": ("done", "pending", "failed", "quarantined", "running"),
    "done": (),
    "failed": (),
    "quarantined": (),
}

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_MAX_ATTEMPTS = 3


@dataclass
class Job:
    """One durable job record (the exact JSON shape on disk).

    Attributes
    ----------
    job_id:
        Stable identifier, ``job-<spec digest>-<sequence>``.
    spec:
        What to build: ``workload`` (a bench workload description dict),
        ``chain`` (fallback builder chain), ``stretch``, ``params`` and
        ``budget_seconds`` (the time budget; ``None`` = unbounded).
    state:
        One of :data:`JOB_STATES`.
    attempts:
        Number of times the job has been claimed (including reclaims of
        expired leases).
    max_attempts:
        Quarantine threshold: a job claimed more than this many times
        without completing is poison.
    lease_seconds / worker_id / heartbeat:
        The lease law: while ``state == "running"``, the claim is owned by
        ``worker_id`` until ``heartbeat + lease_seconds``; past that any
        claimer may steal the job.
    error:
        The captured traceback of the last failure (kept through
        quarantine so ``repro service status`` can surface it).
    result:
        The completion record (artifact key, tier served, cache hit, ...).
    """

    job_id: str
    spec: dict
    state: str = "pending"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    worker_id: Optional[str] = None
    heartbeat: Optional[float] = None
    submitted_at: float = 0.0
    updated_at: float = 0.0
    error: Optional[str] = None
    result: Optional[dict] = None
    history: list[str] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def lease_expired(self, now: float) -> bool:
        """True when the running claim's lease has lapsed at time ``now``."""
        if self.state != "running" or self.heartbeat is None:
            return False
        return now > self.heartbeat + self.lease_seconds

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def spec_digest(spec: dict) -> str:
    """Short stable digest of a job spec (canonical-JSON sha256 prefix)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _check_stretch(spec: dict) -> None:
    """Raise :class:`InvalidStretchError` unless ``spec["stretch"]`` is a real ``t ≥ 1``.

    The registry's rule: NaN is rejected (it fails every ordered comparison)
    and ``inf`` is allowed.  Checked at submit, so a bad request is refused
    before anything is written instead of being served or retried by a worker.
    """
    stretch = spec.get("stretch")
    if (
        isinstance(stretch, bool)
        or not isinstance(stretch, numbers.Real)
        or math.isnan(stretch)
        or stretch < 1
    ):
        raise InvalidStretchError(f"stretch must be a real number >= 1, got {stretch!r}")


class JobQueue:
    """The durable queue over ``<root>/jobs/`` records."""

    def __init__(
        self,
        root: str | Path,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        for state in TERMINAL_STATES:
            (self.jobs_dir / state).mkdir(parents=True, exist_ok=True)
        self.clock = clock
        #: Counters of supervision events (read by the service bench):
        #: ``lease_reclaims`` — expired leases re-claimed, ``quarantined`` —
        #: poison jobs fenced off.
        self.counters: dict[str, int] = {"lease_reclaims": 0, "quarantined": 0}
        # Move terminal records found at their live path into their state
        # directory: migrates the flat pre-directory layout and heals a crash
        # between a terminal write and its rename.  Claim tokens are left to
        # claim()'s orphan sweep.
        self._live_records()

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _terminal_path(self, job_id: str, state: str) -> Path:
        return self.jobs_dir / state / f"{job_id}.json"

    @staticmethod
    def _load(path: Path) -> Job:
        return Job.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def _try_load(self, path: Path) -> Optional[Job]:
        try:
            return self._load(path)
        except FileNotFoundError:
            return None

    def _write(self, job: Job) -> None:
        job.updated_at = self.clock()
        atomic_write_json(self._path(job.job_id), job.as_dict())
        if job.state in TERMINAL_STATES:
            self._retire(job)

    def _retire(self, job: Job) -> None:
        """Commit a terminal record: rename it out of the live directory."""
        try:
            os.rename(self._path(job.job_id), self._terminal_path(job.job_id, job.state))
        except FileNotFoundError:
            pass  # another opener moved it first

    def _is_finished(self, job_id: str) -> bool:
        """True once ``job_id`` has a committed terminal record."""
        return any(self._terminal_path(job_id, state).exists() for state in TERMINAL_STATES)

    def _live_records(self) -> list[Job]:
        """The pending and running records, read from one listing.

        A record a claimer holds in its ``*.claim-<worker>`` token counts
        (the live path wins when both exist), so a job stranded mid-claim is
        still listed.  A terminal record met at its live path is retired.  A
        job that already has a terminal record is finished: a live record
        beside it (written back by a worker that lost the job) is stale and
        skipped, so every state filter agrees with :meth:`get`.
        """
        found: dict[str, Job] = {}
        names = sorted(os.listdir(self.jobs_dir), key=lambda name: ".claim-" in name)
        for name in names:  # live records before claim tokens
            if not name.startswith("job-") or not (
                name.endswith(".json") or ".json.claim-" in name
            ):
                continue
            job_id = name.split(".json")[0]
            if job_id in found or self._is_finished(job_id):
                continue
            job = self._try_load(self.jobs_dir / name)
            if job is None:
                continue  # claimed, released or retired since the listing
            if job.state in TERMINAL_STATES:
                self._retire(job)
            else:
                found[job_id] = job
        return list(found.values())

    def get(self, job_id: str) -> Job:
        """Load one job record; :class:`JobNotFoundError` if absent.

        The committed terminal record wins.  It is read *after* the live
        one: a record only leaves its live path for a claim token or its
        terminal path, so a reader racing the terminal rename still finds
        it.  A live path emptied by a claim is covered by the token, and
        read again in case the claimer released the token meanwhile.
        """
        path = self._path(job_id)
        live = self._try_load(path)
        if live is None:
            for token in self.jobs_dir.glob(f"{job_id}.json.claim-*"):
                live = self._try_load(token)
                if live is not None:
                    break
            else:
                live = self._try_load(path)
        for state in TERMINAL_STATES:
            terminal = self._try_load(self._terminal_path(job_id, state))
            if terminal is not None:
                return terminal
        if live is None:
            raise JobNotFoundError(job_id)
        return live

    def list_jobs(self, state: Union[str, Iterable[str], None] = None) -> list[Job]:
        """All job records in job-id order, optionally filtered by state(s).

        Reads the live directory (where every record waits before its
        terminal rename) and ``jobs/<state>/`` only for the requested
        terminal states.  A job seen in both, because it finished between
        the two reads, is reported once, in its terminal state.
        """
        if state is None:
            states: tuple[str, ...] = JOB_STATES
        elif isinstance(state, str):
            states = (state,)
        else:
            states = tuple(state)
        found = {job.job_id: job for job in self._live_records()}
        for terminal in TERMINAL_STATES:
            if terminal not in states:
                continue
            for path in (self.jobs_dir / terminal).glob("job-*.json"):
                job = self._load(path)
                found[job.job_id] = job
        return [found[job_id] for job_id in sorted(found) if found[job_id].state in states]

    def _id_is_taken(self, job_id: str, listed: set[str]) -> bool:
        """True when ``job_id`` has a live record, a claim token or a terminal record.

        ``listed`` holds the job ids named in one listing of the live
        directory (records and tokens).
        """
        return job_id in listed or self._is_finished(job_id)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _transition(self, job: Job, new_state: str, note: str) -> None:
        if new_state not in JOB_STATES:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[job.state]:
            raise JobStateError(
                f"illegal transition {job.state!r} -> {new_state!r} for job "
                f"{job.job_id!r}"
            )
        job.state = new_state
        job.history.append(f"{self.clock():.3f} {note}")
        self._write(job)

    def submit(
        self,
        spec: dict,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> Job:
        """Persist a new pending job; returns the durable record.

        The job id embeds the spec digest plus a sequence number, so
        resubmitting an identical spec yields a *new* job (which may then be
        served straight from the artifact cache).  The record is created
        with :func:`atomic_create_json`, which never overwrites: of two
        submitters racing to one id, the loser moves on to the next sequence.
        (A listing that misses a job held in a claim token can still reuse
        its id; docs/SERVICE.md "Submission" describes that window.)
        A stretch that is not a real number ``>= 1`` raises
        :class:`InvalidStretchError` before anything is written.
        """
        _check_stretch(spec)
        digest = spec_digest(spec)
        now = self.clock()
        job = Job(
            job_id="",
            spec=dict(spec),
            max_attempts=int(max_attempts),
            lease_seconds=float(lease_seconds),
            submitted_at=now,
        )
        job.history.append(f"{now:.3f} submitted")
        listed = {name.split(".json")[0] for name in os.listdir(self.jobs_dir)}
        sequence = 0
        while True:
            job.job_id = f"job-{digest}-{sequence:04d}"
            sequence += 1
            if self._id_is_taken(job.job_id, listed):
                continue
            job.updated_at = self.clock()
            if atomic_create_json(self._path(job.job_id), job.as_dict()):
                return job

    def _try_exclusive(self, job_id: str, worker_id: str) -> Optional[tuple[Job, Path]]:
        """Win the claim race by renaming the record to a claim token, or return None.

        ``os.rename`` gives the file to exactly one renamer.  The winner
        keeps the token (it carries the full record) until its own next
        record has landed at the live path, then unlinks it; a crash before
        that is healed by :meth:`_recover_orphaned_claims`.
        """
        path = self._path(job_id)
        token = path.with_name(path.name + f".claim-{worker_id}")
        try:
            os.rename(path, token)
            return self._load(token), token
        except FileNotFoundError:
            return None  # another claimer won the rename race

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass  # the orphan sweep already removed the stale token

    def _recover_orphaned_claims(self) -> None:
        """Restore records stranded mid-claim by a claimer crash.

        A token is stale once its job has a record again, at the live path
        or at a terminal path (a claimer that quarantined the job and died
        before unlinking its token); only a token with no record is renamed
        back.  The sweep cannot tell a crashed claimer's token from one a
        live claimer still holds, so only :meth:`claim` runs it.
        """
        for token in self.jobs_dir.glob("job-*.json.claim-*"):
            job_id = token.name.split(".json.claim-")[0]
            if self._path(job_id).exists() or self._is_finished(job_id):
                self._unlink(token)
                continue
            try:
                os.rename(token, self._path(job_id))
            except FileNotFoundError:
                pass

    def claim(self, worker_id: str) -> Optional[Job]:
        """Claim the next runnable job for ``worker_id``, or return ``None``.

        Runnable means ``pending``, or ``running`` with an expired lease
        (the previous worker is presumed dead — SIGKILL leaves no
        traceback, only silence).  Claims scan only the live records, in
        job-id order, so the oldest submission of a spec wins ties
        deterministically.  A job whose attempts exceed ``max_attempts`` is
        quarantined instead of claimed — poison jobs are fenced off, not
        retried forever.
        """
        self._recover_orphaned_claims()
        now = self.clock()
        for candidate in self.list_jobs(state=("pending", "running")):
            reclaimed = candidate.lease_expired(now)
            if candidate.state != "pending" and not reclaimed:
                continue
            won = self._try_exclusive(candidate.job_id, worker_id)
            if won is None:
                continue  # another claimer won the rename race
            job, token = won
            # Re-check under the exclusive claim: the record may have moved.
            reclaimed = job.lease_expired(now)
            if job.state != "pending" and not reclaimed:
                try:
                    os.rename(token, self._path(job.job_id))
                except FileNotFoundError:
                    pass
                continue
            job.attempts += 1
            if job.attempts > job.max_attempts:
                job.error = job.error or (
                    f"lease expired {job.attempts - 1} times with no "
                    "completion (worker death suspected); no traceback — "
                    "the worker died without reporting"
                )
                job.worker_id = None
                job.heartbeat = None
                self.counters["quarantined"] += 1
                self._transition(
                    job, "quarantined", f"quarantined after {job.attempts} attempts"
                )
                self._unlink(token)
                continue
            if reclaimed:
                self.counters["lease_reclaims"] += 1
                note = (
                    f"lease of {job.worker_id} expired; reclaimed by {worker_id} "
                    f"(attempt {job.attempts})"
                )
            else:
                note = f"claimed by {worker_id} (attempt {job.attempts})"
            job.worker_id = worker_id
            job.heartbeat = now
            self._transition(job, "running", note)
            self._unlink(token)
            return job
        return None

    def _owned(self, job_id: str, worker_id: str) -> Job:
        job = self.get(job_id)
        if job.state != "running" or job.worker_id != worker_id:
            raise StaleLeaseError(job_id, worker_id, job.worker_id)
        return job

    def beat(self, job_id: str, worker_id: str) -> Job:
        """Refresh the lease heartbeat; :class:`StaleLeaseError` if lost."""
        job = self._owned(job_id, worker_id)
        job.heartbeat = self.clock()
        self._write(job)
        return job

    def complete(self, job_id: str, worker_id: str, result: dict) -> Job:
        """Transition the owned job to ``done`` with its result record."""
        job = self._owned(job_id, worker_id)
        job.result = dict(result)
        job.worker_id = None
        job.heartbeat = None
        self._transition(job, "done", f"completed by {worker_id}")
        return job

    def fail(self, job_id: str, worker_id: str, traceback_text: str) -> Job:
        """Record a failure: retry (→ pending) or quarantine at the cap.

        The traceback is stored verbatim on the record either way, so the
        CLI surfaces the real exception even for jobs that later succeed on
        retry.
        """
        job = self._owned(job_id, worker_id)
        job.error = traceback_text
        job.worker_id = None
        job.heartbeat = None
        if job.attempts >= job.max_attempts:
            self.counters["quarantined"] += 1
            self._transition(
                job,
                "quarantined",
                f"failed on attempt {job.attempts}/{job.max_attempts}: quarantined",
            )
        else:
            self._transition(
                job,
                "pending",
                f"failed on attempt {job.attempts}/{job.max_attempts}: will retry",
            )
        return job
