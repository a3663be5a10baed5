"""Job lifecycle and the persistent spool that makes the queue durable.

A :class:`Job` is one accepted submission: an ordered list of
:class:`~repro.engine.spec.RunSpec` plus its lifecycle state
(``queued`` → ``running`` → ``done``/``failed``), counters, an
append-only event log that ``GET /jobs/{id}/events`` streams live, and —
once finished — the per-spec results.

Every state transition is written through :class:`JobStore` to one JSON
file per job (``{id}.job.json``) by the result cache's atomic writer,
so a record gets the mode a plain ``open()`` would give it and the
queue survives restarts: on boot the server re-enqueues every job the
previous process accepted but never finished, and finished jobs keep
answering ``GET /jobs/{id}`` forever.  SIGTERM drain leans on the same
property — in-flight jobs run to completion and their final write
persists the results before the process exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import uuid
from pathlib import Path

from repro.engine.cache import _write_atomic
from repro.engine.scheduler import Counters
from repro.engine.spec import RunSpec

#: states a job can be observed in; terminal ones never change again
STATES = ("queued", "running", "done", "failed")
TERMINAL = frozenset({"done", "failed"})


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


class Job:
    """One accepted submission, observable while it runs."""

    __slots__ = (
        "id", "label", "specs", "state", "created", "started", "finished",
        "error", "counters", "runs", "events", "_flag",
    )

    def __init__(self, specs: list[RunSpec], label: str | None = None,
                 job_id: str | None = None, created: float | None = None):
        self.id = job_id or new_job_id()
        self.label = label
        self.specs = list(specs)
        self.state = "queued"
        self.created = time.time() if created is None else created
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        #: the job's sweep counters plus the specs it borrowed from
        #: identical jobs in flight
        self.counters = {**Counters().to_dict(), "n_coalesced": 0}
        #: per-spec result entries, submission-ordered, populated on done
        self.runs: list[dict] = []
        #: append-only progress lines (the /events stream)
        self.events: list[str] = []
        self._flag: asyncio.Event | None = None

    # -- live observation --------------------------------------------------------

    def emit(self, line: str) -> None:
        """Append one progress line and wake every events-stream reader.

        Must be called on the event-loop thread (the engine's progress
        callback marshals through ``loop.call_soon_threadsafe``).
        """
        self.events.append(line)
        if self._flag is not None:
            self._flag.set()

    async def wait_events(self, seen: int) -> None:
        """Block until there are more than ``seen`` event lines, or the
        job reaches a terminal state.

        Appends happen on the loop thread and the re-check after
        ``clear()`` is synchronous, so wakeups cannot be lost.
        """
        if self._flag is None:
            self._flag = asyncio.Event()
        if seen < len(self.events) or self.state in TERMINAL:
            return
        self._flag.clear()
        if seen < len(self.events) or self.state in TERMINAL:
            return
        await self._flag.wait()

    # -- transitions -------------------------------------------------------------

    def mark_running(self) -> None:
        self.state = "running"
        self.started = time.time()
        self.emit(f"job {self.id}: running ({len(self.specs)} specs)")

    def finish_ok(self, runs: list[dict]) -> None:
        self.runs = runs
        self.state = "done"
        self.finished = time.time()
        c = self.counters
        line = (
            f"job {self.id}: done — {c['n_cached']} cached, "
            f"{c['n_executed']} executed, {c['n_forked']} forked, "
            f"{c['n_coalesced']} coalesced"
        )
        if c["n_screened"] or c["n_promoted"]:
            line += (
                f", {c['n_screened']} screened / "
                f"{c['n_promoted']} promoted"
            )
        self.emit(line)

    def finish_failed(self, error: str) -> None:
        self.error = error
        self.state = "failed"
        self.finished = time.time()
        self.emit(f"job {self.id}: failed — {error}")

    # -- persistence -------------------------------------------------------------

    def to_record(self) -> dict:
        """The spool-file representation (specs as plain dicts)."""
        return {
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "counters": dict(self.counters),
            "specs": [s.to_dict() for s in self.specs],
            "runs": self.runs,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        job = cls(
            specs=[RunSpec.from_dict(d) for d in record["specs"]],
            label=record.get("label"),
            job_id=record["id"],
            created=record.get("created"),
        )
        job.state = record.get("state", "queued")
        job.started = record.get("started")
        job.finished = record.get("finished")
        job.error = record.get("error")
        job.counters.update(record.get("counters") or {})
        job.runs = record.get("runs") or []
        return job

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.state}, {len(self.specs)} specs)"


class JobStore:
    """One JSON file per job under the spool directory, written
    atomically on every state transition."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()

    def path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.job.json"

    def save(self, job: Job) -> Path:
        path = self.path_for(job.id)
        _write_atomic(path, json.dumps(job.to_record(), sort_keys=True).encode())
        return path

    def load_all(self) -> list[Job]:
        """Every readable job record, oldest first; unreadable or
        half-written files are skipped (the atomic writer makes those
        rare, but a spool shared with an older format must not wedge
        boot)."""
        jobs = []
        try:
            paths = sorted(self.root.glob("*.job.json"))
        except OSError:
            return []
        for path in paths:
            try:
                with open(path, encoding="utf-8") as fh:
                    jobs.append(Job.from_record(json.load(fh)))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        jobs.sort(key=lambda j: j.created)
        return jobs

    def __repr__(self) -> str:
        return f"JobStore({str(self.root)!r})"
