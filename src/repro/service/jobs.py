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

A job's documents are written as compact JSON, and each spec is dumped
once: by the first spool write, at accept, as
:meth:`RunSpec.canonical_json`, which every later record and the done
document splice in as text.  The results are dumped once too, when the
job finishes (:attr:`Job.runs_json`).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import uuid
from pathlib import Path

from repro.engine.cache import _write_atomic, sweep_orphans
from repro.engine.scheduler import Counters
from repro.engine.spec import RunSpec

#: job states that never change again (a job is otherwise "queued" or
#: "running")
TERMINAL = frozenset({"done", "failed"})


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def splice(doc: dict, **members: str) -> str:
    """A non-empty ``doc`` as compact JSON, with ``members`` (name ->
    text that is already JSON) appended."""
    head = json.dumps(doc, separators=(",", ":"))[:-1]
    return head + "".join(f',"{name}":{text}' for name, text in members.items()) + "}"


class Job:
    """One accepted submission, observable while it runs."""

    __slots__ = (
        "id",
        "label",
        "specs",
        "state",
        "created",
        "started",
        "finished",
        "error",
        "counters",
        "runs_json",
        "events",
        "_flag",
    )

    def __init__(
        self,
        specs: list[RunSpec],
        label: str | None = None,
        job_id: str | None = None,
        created: float | None = None,
    ):
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
        #: the per-spec result entries as one JSON array, in submission
        #: order; empty until done
        self.runs_json = "[]"
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

    @property
    def runs(self) -> list[dict]:
        """The result entries as a client reads them: ``key``, ``label``,
        ``spec`` and ``stats`` per unique spec."""
        return json.loads(self.runs_json)

    def finish_ok(self, runs: list[tuple[RunSpec, dict]]) -> None:
        """Done, with each unique spec paired with its stats dict, in
        submission order."""
        entries = ",".join(
            splice(
                {"key": spec.key(), "label": spec.label(), "stats": stats},
                spec=spec.canonical_json(),
            )
            for spec, stats in runs
        )
        self.runs_json = f"[{entries}]"
        self.state = "done"
        self.finished = time.time()
        c = self.counters
        line = (
            f"job {self.id}: done — {c['n_cached']} cached, "
            f"{c['n_executed']} executed, {c['n_forked']} forked, "
            f"{c['n_coalesced']} coalesced"
        )
        if c["n_screened"] or c["n_promoted"]:
            line += f", {c['n_screened']} screened / {c['n_promoted']} promoted"
        self.emit(line)

    def finish_failed(self, error: str) -> None:
        self.error = error
        self.state = "failed"
        self.finished = time.time()
        self.emit(f"job {self.id}: failed — {error}")

    # -- persistence -------------------------------------------------------------

    def record_json(self) -> str:
        """The spool-file representation: the job's fields, ``specs``
        (each spec's document) and ``runs``."""
        specs = ",".join(s.canonical_json() for s in self.specs)
        return splice(
            {
                "id": self.id,
                "label": self.label,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "error": self.error,
                "counters": self.counters,
            },
            specs=f"[{specs}]",
            runs=self.runs_json,
        )

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
        job.runs_json = json.dumps(record.get("runs") or [], separators=(",", ":"))
        return job

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.state}, {len(self.specs)} specs)"


class JobStore:
    """One JSON file per job under the spool directory, written
    atomically on every state transition.  A writer killed mid-write
    leaves a ``*.tmp`` file behind; :meth:`load_all` sweeps the stale
    ones (see :func:`~repro.engine.cache.sweep_orphans`)."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()

    def path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.job.json"

    def save(self, job: Job) -> Path:
        path = self.path_for(job.id)
        _write_atomic(path, job.record_json().encode("utf-8"))
        return path

    def load_all(self) -> list[Job]:
        """Every readable job record, oldest first; unreadable or
        half-written files are skipped (the atomic writer makes those
        rare, but a spool shared with an older format must not wedge
        boot).  The server calls this once, at boot, so it is also where
        orphaned temp files go."""
        sweep_orphans(self.root)
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
