"""Execution layer: run a batch of specs as tasks through one loop.

:class:`Engine` is the single entry point every experiment driver uses:
``engine.map(specs)`` dedupes the batch, serves what it can from the
in-memory memo and the on-disk cache, runs the misses, and returns a
:class:`SweepResult` keyed by spec in *submission* order, regardless of
completion order, so results are byte-identical for any worker count.
That lookup step is :meth:`Engine.resolve`; the batch's ``"hybrid"``
specs go to :func:`repro.router.hybrid.route_grid` as one grid instead,
which resolves their analytic screens and promoted cycle cells through
the same step.

A planner turns the misses into tasks: a *cold* cell, or one task per
warm-up group.  Groups exist only under ``fork_warmup``: cycle misses
sharing a :meth:`~repro.engine.spec.RunSpec.warmup_key` evolve
identically until measurement starts, and differ only in their measured
commit budget, so a member's run to its budget is a prefix of a
sibling's run to any larger one.  A group runs on one machine
(:mod:`repro.engine.snapshot`): a *lead* warms it up once and snapshots
the boundary for the cache, a *tail* restores the group's cached
snapshot once, and either then runs the measured region once, through
every member's budget.  Forked results stay byte-identical to cold runs;
only the wall clock changes.

One ``wait(FIRST_COMPLETED)`` loop runs the tasks on one
:class:`~concurrent.futures.ProcessPoolExecutor`, or in this process when
at most one task is worth a worker (``workers=1``, a one-cell batch or
one group, the analytic backend).  Each result is recorded once, as its
task lands — memo, cache write, counters, progress event — so an
interrupted sweep resumes from what already landed; a group's members
land together.  A tail whose snapshot cannot be restored re-warms its
group as a lead, whose snapshot replaces the bad file.  Pool workers
exchange plain dicts (``RunSpec.to_dict`` / ``SimStats.to_dict``, the
cache's representation); in-process tasks call the :class:`RunSpec`
methods directly.
"""

from __future__ import annotations

import copy
import os
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.engine import snapshot
from repro.engine.backends import get_backend
from repro.engine.cache import ResultCache
from repro.engine.spec import RunSpec
from repro.stats.counters import SimStats

#: overrides the default worker count (CLI ``--workers`` wins over this)
WORKERS_ENV = "REPRO_WORKERS"

_warned_bad_workers = False


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument > ``$REPRO_WORKERS`` > ``os.cpu_count()``.

    A malformed or non-positive ``$REPRO_WORKERS`` warns once — naming
    the bad value, mirroring ``REPRO_SCALE``'s precedent — and falls
    back to ``os.cpu_count()`` (it used to be swallowed silently, which
    made ``REPRO_WORKERS=fuor`` look like a deliberate all-cores run).
    """
    global _warned_bad_workers
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
            if workers is not None and workers < 1:
                workers = None
            if workers is None and not _warned_bad_workers:
                warnings.warn(
                    f"{WORKERS_ENV}={env!r} is not a positive integer; "
                    "using os.cpu_count()",
                    RuntimeWarning,
                    stacklevel=2,
                )
                _warned_bad_workers = True
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _lead(specs: Sequence[RunSpec]):
    """Pay the group's warm-up once, snapshot the boundary, then measure
    every member on the same machine: ``(snapshot, [stats])``.  Capture
    is non-destructive, so each result is bit-identical to a cold
    ``execute()``."""
    snap, proc = snapshot.capture_warmup(specs[0])
    return snap, snapshot.measure_group(proc, specs)


# The three pool entry points.  They stay module-level (the pool pickles
# them by reference) and are looked up when a task is submitted.


def _execute_payload(spec_dict: dict) -> dict:
    """Worker side of a cold cell."""
    return RunSpec.from_dict(spec_dict).execute().to_dict()


def _warmup_payload(spec_dicts: list[dict]) -> tuple[bytes, list[dict]]:
    """Worker side of a lead: ``(snapshot_bytes, [stats_dict])``."""
    snap, stats = _lead([RunSpec.from_dict(d) for d in spec_dicts])
    return snap.to_bytes(), [s.to_dict() for s in stats]


def _tail_payload(spec_dicts: list[dict], snap_path: str) -> list[dict]:
    """Worker side of a tail: restore the group's snapshot from its cache
    file once and measure every member."""
    snap = snapshot.Snapshot.from_bytes(Path(snap_path).read_bytes())
    specs = [RunSpec.from_dict(d) for d in spec_dicts]
    return [s.to_dict() for s in snapshot.run_tail(specs, snap)]


@dataclass
class Counters:
    """How a batch's results were produced: the one counter record.

    :class:`Engine` keeps lifetime totals in one, and a
    :class:`SweepResult` carries their difference across its ``map``
    call.  The sweep JSON, the job counters and ``/metrics`` all
    serialize it with :meth:`to_dict`.
    """

    n_cached: int = 0  #: served from the memo or the on-disk cache
    n_executed: int = 0  #: simulated, forked cells included
    n_forked: int = 0  #: measured from a warm-up another run paid for
    warmup_cycles_saved: int = 0  #: warm-up cycles those cells skipped
    n_screened: int = 0  #: routed cells answered analytically
    n_promoted: int = 0  #: routed cells answered by the cycle backend
    #: event-horizon skips: fresh simulations only in the engine's totals;
    #: every returned result, cache hits included, in a sweep's
    ff_jumps: int = 0
    ff_cycles_skipped: int = 0

    def __add__(self, other: Counters) -> Counters:
        return Counters(**{k: v + getattr(other, k) for k, v in vars(self).items()})

    def __sub__(self, other: Counters) -> Counters:
        return Counters(**{k: v - getattr(other, k) for k, v in vars(self).items()})

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))


class _ReadsCounters:
    """``obj.n_cached`` and every other counter name read ``obj.counters``."""

    counters: Counters

    def __getattr__(self, name: str):
        if name in Counters.__dataclass_fields__:
            return getattr(self.counters, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class SweepResult(dict, _ReadsCounters):
    """``RunSpec -> SimStats`` in submission order, plus :attr:`counters`.

    When the batch contained ``"hybrid"`` specs, the counters include
    the routed cells' underlying sub-fidelity runs — a hybrid cell costs
    one analytic run plus, if promoted, one cycle run, so ``n_cached +
    n_executed`` may exceed ``n_runs`` — and :attr:`router` maps each
    routed spec to its routing provenance (``fidelity``, ``reason``, the
    IPC interval, the error model's content key).
    """

    def __init__(self, items, counters: Counters):
        super().__init__(items)
        self.counters = replace(
            counters,
            ff_jumps=sum(s.ff_jumps for s in self.values()),
            ff_cycles_skipped=sum(s.ff_cycles_skipped for s in self.values()),
        )
        #: ``RunSpec -> provenance dict`` for routed specs (empty otherwise)
        self.router: dict[RunSpec, dict] = {}

    @property
    def n_runs(self) -> int:
        return len(self)


class _Task(NamedTuple):
    """One unit of work: ``kind`` is ``"cold"`` (one spec), ``"lead"`` or
    ``"tail"`` (a warm-up group's misses in submission order); ``key`` is
    the group's warmup_key and ``snap`` a tail's cached snapshot."""

    kind: str
    specs: tuple[RunSpec, ...]
    key: str | None = None
    snap: snapshot.Snapshot | None = None


def _pool_worthy(task: _Task) -> bool:
    return get_backend(task.specs[0].backend).process_pool_worthwhile


def _run_here(task: _Task):
    """Run ``task`` in this process: ``(snapshot_bytes, [stats])``, with
    a lead's snapshot as bytes and ``None`` for the other kinds."""
    if task.kind == "cold":
        return None, [task.specs[0].execute()]
    if task.kind == "tail":
        return None, snapshot.run_tail(task.specs, task.snap)
    snap, stats = _lead(task.specs)
    return snap.to_bytes(), stats


def _decode(task: _Task, fut):
    """A pool task's result, in the shape :func:`_run_here` returns."""
    if task.kind == "cold":
        data, stats = None, [fut.result()]
    elif task.kind == "tail":
        data, stats = None, fut.result()
    else:
        data, stats = fut.result()
    return data, [SimStats.from_dict(d) for d in stats]


class Engine(_ReadsCounters):
    """Schedules batches of :class:`RunSpec` over workers and caches.

    ``workers=None`` defers to ``$REPRO_WORKERS`` / ``os.cpu_count()`` at
    each ``map`` call; ``workers=1`` executes serially in-process.
    ``cache=None`` disables persistence (an in-memory memo still dedupes
    repeat specs within this engine's lifetime).

    ``fork_warmup=N`` enables forked sweeps: cycle-backend misses sharing
    a :meth:`~repro.engine.spec.RunSpec.warmup_key` in groups of at least
    ``N`` (floor 2) simulate their common warm-up once and their measured
    region once, through every member's budget; a group of any size forks
    when the cache already holds its warm-up snapshot.
    ``fork_warmup=None`` (default) keeps every cell cold.

    ``progress`` is an optional ``callback(event, spec)`` invoked as each
    result lands — ``event`` is one of ``"cached"``, ``"executed"``,
    ``"forked"``, or for hybrid specs ``"screened"`` / ``"promoted"`` —
    so long-running maps can be observed live (the job server streams
    these as ``/jobs/{id}/events`` lines).  Callbacks run on the
    scheduling thread between result arrivals; a raising callback is
    swallowed, because observability must never corrupt a sweep.

    :attr:`counters` holds the lifetime totals over every ``map`` call
    (``engine.n_cached`` and the other counter names read it).  Calls to
    ``map`` on one engine must not overlap, because each
    :class:`SweepResult`'s counters are the difference of those totals
    across its call; the job server gives each of its workers an engine.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
        fork_warmup: int | None = None,
        progress: Callable[[str, RunSpec], None] | None = None,
    ):
        self.workers = workers
        self.cache = cache
        self.fork_warmup = fork_warmup
        self.progress = progress
        self._memo: dict[RunSpec, SimStats] = {}
        self.counters = Counters()

    @classmethod
    def serial(cls) -> "Engine":
        """One worker, no persistent cache: the unit-test default."""
        return cls(workers=1, cache=None)

    def map(self, specs: Iterable[RunSpec]) -> SweepResult:
        """Run every spec; return results keyed by spec, input-ordered."""
        before = copy.copy(self.counters)
        unique = list(dict.fromkeys(specs))
        done: dict[RunSpec, SimStats] = {}
        plain: list[RunSpec] = []
        hybrid: list[RunSpec] = []
        for spec in unique:
            (hybrid if spec.backend == "hybrid" else plain).append(spec)
        self.resolve(plain, done)
        router: dict[RunSpec, dict] = {}
        if hybrid:
            # Hybrid specs are routed as one grid: which cells deserve
            # cycle fidelity is a function of the grid, not of any single
            # spec.  They bypass the memo/cache on purpose — both
            # underlying fidelities are cached under their own keys, and
            # re-deriving the routing from them (microseconds) is what
            # keeps warm and cold hybrid sweeps byte-identical even when
            # the promote budget changed in between.
            from repro.router.hybrid import route_grid

            router = route_grid(hybrid, self, done)
        result = SweepResult(
            ((spec, done[spec]) for spec in unique), self.counters - before
        )
        result.router = router
        return result

    def resolve(
        self, specs: Iterable[RunSpec], done: dict[RunSpec, SimStats]
    ) -> None:
        """Set ``done[spec]`` for each of the distinct ``specs``: from the
        memo, then the cache, then the executor loop for the misses.
        Every result is counted and emitted as it lands."""
        misses: list[RunSpec] = []
        for spec in specs:
            hit = self._memo.get(spec)
            if hit is None and self.cache is not None:
                hit = self.cache.get(spec)
                if hit is not None:
                    self._memo[spec] = hit  # spare later maps the disk read
            if hit is None:
                misses.append(spec)
                continue
            # hand out a copy: SimStats is mutable, and a caller touching
            # a counter must not corrupt future hits
            done[spec] = hit.copy()
            self.counters.n_cached += 1
            self._emit("cached", spec)
        if misses:
            self._execute(misses, done)

    def run(self, spec: RunSpec) -> SimStats:
        """Convenience: one spec through the same memo/cache path."""
        return self.map([spec])[spec]

    # -- internals ---------------------------------------------------------------

    def _plan(self, misses: list[RunSpec]) -> deque[_Task]:
        """Turn the batch's misses into tasks: one per warm-up group, a
        tail when the cache holds the group's snapshot, else a lead; and
        a cold task per other cell.  A group smaller than the fork
        threshold runs cold, unless the cache holds a snapshot of it that
        does not parse: then a lead re-warms it and replaces the file."""
        groups: dict[str, list[RunSpec]] = {}
        cold: list[RunSpec] = []
        for spec in misses:
            if (
                self.fork_warmup
                and spec.backend == "cycle"
                and spec.run_kwargs()["warmup_commits"] > 0
            ):
                groups.setdefault(spec.warmup_key(), []).append(spec)
            else:
                cold.append(spec)
        tasks: deque[_Task] = deque()
        threshold = max(2, int(self.fork_warmup or 0))
        for key, members in groups.items():
            data = None if self.cache is None else self.cache.get_snapshot(key)
            try:
                snap = None if data is None else snapshot.Snapshot.from_bytes(data)
            except snapshot.SnapshotError:
                snap = None  # stale format or corrupt header: re-warm
            if snap is not None:
                tasks.append(_Task("tail", tuple(members), key, snap))
            elif data is not None or len(members) >= threshold:
                tasks.append(_Task("lead", tuple(members), key))
            else:
                cold.extend(members)
        tasks.extend(_Task("cold", (s,)) for s in cold)
        return tasks

    def _execute(
        self, misses: list[RunSpec], done: dict[RunSpec, SimStats]
    ) -> None:
        """Run the batch's misses through the one executor loop."""
        ready = self._plan(misses)
        n_workers = min(
            resolve_workers(self.workers), sum(map(_pool_worthy, ready))
        )
        pool = (
            ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
        )
        running: dict = {}

        def land(task: _Task, outcome: Callable[[], tuple]) -> None:
            try:
                data, stats = outcome()
            except (snapshot.SnapshotError, OSError):
                if task.kind != "tail":
                    raise
                # a stale, foreign, corrupt or vanished snapshot says
                # nothing about the cells: the group re-warms, and the
                # lead's snapshot replaces the bad file
                ready.append(task._replace(kind="lead", snap=None))
                return
            if task.kind == "lead":
                snap = snapshot.Snapshot.from_bytes(data)
                if self.cache is not None:
                    self.cache.put_snapshot(task.key, data)
            else:
                snap = task.snap
            for i, (spec, result) in enumerate(zip(task.specs, stats)):
                # a lead's first member paid the warm-up
                paid = task.kind == "lead" and i == 0
                done[spec] = self._record(spec, result, None if paid else snap)

        try:
            while ready or running:
                while ready:
                    task = ready.popleft()
                    if pool is not None and _pool_worthy(task):
                        running[self._submit(pool, task)] = task
                    else:
                        land(task, partial(_run_here, task))
                if running:
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    # land every result that arrived before raising a
                    # sibling's error (a killed worker fails them all)
                    for fut in sorted(
                        finished, key=lambda f: f.exception() is not None
                    ):
                        task = running.pop(fut)
                        land(task, partial(_decode, task, fut))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def _submit(self, pool: ProcessPoolExecutor, task: _Task):
        if task.kind == "cold":
            return pool.submit(_execute_payload, task.specs[0].to_dict())
        spec_dicts = [s.to_dict() for s in task.specs]
        if task.kind == "lead":
            return pool.submit(_warmup_payload, spec_dicts)
        # a tail's worker reads the snapshot from its cache file (pickling
        # a path beats pickling the snapshot)
        path = str(self.cache.snapshot_path(task.key))
        return pool.submit(_tail_payload, spec_dicts, path)

    def _record(self, spec: RunSpec, stats: SimStats, restored=None) -> SimStats:
        """Land one fresh result: memo, cache write, counters, progress
        event.  ``restored`` is the snapshot of the warm-up a forked cell
        skipped."""
        self._memo[spec] = stats.copy()  # isolate from the caller
        if self.cache is not None:
            self.cache.put(spec, stats)
        c = self.counters
        c.n_executed += 1
        c.ff_jumps += stats.ff_jumps
        c.ff_cycles_skipped += stats.ff_cycles_skipped
        if restored is not None:
            c.n_forked += 1
            c.warmup_cycles_saved += restored.meta["cycle"]
        self._emit("executed" if restored is None else "forked", spec)
        return stats

    def _emit(self, event: str, spec: RunSpec) -> None:
        if self.progress is None:
            return
        try:
            self.progress(event, spec)
        except Exception:
            pass  # observability must never corrupt a sweep


def submit(
    specs: Iterable[RunSpec], engine: Engine | None = None
) -> SweepResult:
    """Run a batch on ``engine``, or serially with no cache when omitted."""
    return (engine or Engine.serial()).map(specs)
