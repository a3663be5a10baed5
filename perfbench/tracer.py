"""Out-of-program tracer for the benchmark's traced run.

The simulator is instrumented from outside: :func:`install` replaces the
public entry points of each layer (and the worker payloads the engine
ships to its pool) with timing wrappers, so no file under ``src/`` knows
it is being traced.  Pool workers are forked after :func:`install`, so
they inherit the wrappers; each worker spills what it recorded to its own
JSONL file when a task ends and the pass merges those files.

Two kinds of call are recorded:

* **spans** — layer boundaries (a map call, a cache read, one analytic
  solve): name, start, end, parent span and run id, kept in memory and
  written as JSONL when the pass ends;
* **hot calls** — per-cycle stage ticks, memory accesses, wrong-path
  blocks and spec hashing run millions of times, so they are folded into
  per-name totals instead of one span each.

Every wrapped call, span or hot, charges its duration to its caller, so
the self time of a name is its total time minus the time of the wrapped
calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path

_now = time.perf_counter

#: enclosing spans whose ``Processor.run`` calls are warm-up regions
WARMUP_SPANS = ("kernel.warmup", "engine.snapshot.warmup")


class Tracer:
    """Spans, per-name call totals and counters of one traced pass."""

    def __init__(self, run_id: str, spill_dir: str | os.PathLike):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []   # (name, start, end, id, parent, pid)
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.stack: list[list] = []    # open frames: [child_s]
        self.cur_id: int | None = None
        self.cur_name: str | None = None
        self.boundary: float | None = None  # last warm-up/measured split
        self.on = True
        self._seq = 0

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up before a
        workload's measured region), worker spill files included."""
        self.spans, self.totals, self.counts = [], {}, {}
        if self.spill_dir.is_dir():
            for path in self.spill_dir.glob("*.jsonl"):
                path.unlink()

    # -- recording ---------------------------------------------------------

    def _close(self, name, t0, t1, frame, span_id, parent_id) -> None:
        dur = t1 - t0
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if span_id is not None:
            self.spans.append((name, t0, t1, span_id, parent_id, self.pid))

    def _open_span(self, name):
        self._seq += 1
        span_id = self.pid * 10_000_000 + self._seq
        parent = (self.cur_id, self.cur_name)
        self.cur_id, self.cur_name = span_id, name
        return span_id, parent

    def wrap(self, name: str, fn, hot: bool = False, after=None):
        """``fn`` timed under ``name``; ``after(result, args)`` may add
        counts from the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer.stack.append(frame)
            if hot:
                span_id = parent = None
            else:
                span_id, parent = tracer._open_span(name)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                tracer.stack.pop()
                if not hot:
                    tracer.cur_id, tracer.cur_name = parent
                tracer._close(name, t0, t1, frame, span_id,
                              parent[0] if parent else None)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = [0.0]
        self.stack.append(frame)
        span_id, parent = self._open_span(name)
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self.stack.pop()
            self.cur_id, self.cur_name = parent
            self._close(name, t0, t1, frame, span_id, parent[0])

    def count(self, name: str, n: float = 1) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Charge a measured interval to ``name`` without a frame (used
        for the warm-up/measured split inside one ``Processor.run``)."""
        if not self.on:
            return
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += seconds
        tot[2] += seconds

    # -- pool workers ------------------------------------------------------

    def enter_worker(self) -> None:
        """First call in a forked worker: drop what the parent had
        recorded before the fork (it is the parent's to report)."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.totals, self.counts = [], {}, {}
            self.stack = []

    def spill(self) -> None:
        """Append this worker's records to its spill file and forget them."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps({
                "spans": self.spans, "totals": self.totals,
                "counts": self.counts,
            }) + "\n")
        self.spans, self.totals, self.counts = [], {}, {}

    def merge_spills(self) -> None:
        """Fold every worker's spill file into this (parent) tracer."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                doc = json.loads(line)
                self.spans.extend(tuple(s) for s in doc["spans"])
                for name, (calls, total, own) in doc["totals"].items():
                    tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                    tot[0] += calls
                    tot[1] += total
                    tot[2] += own
                for name, n in doc["counts"].items():
                    self.counts[name] = self.counts.get(name, 0) + n
            path.unlink()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, span_id, parent, pid in sorted(
                self.spans, key=lambda s: s[1]
            ):
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "id": span_id,
                    "parent": parent, "run": self.run_id, "pid": pid,
                }) + "\n")


class NullTracer:
    """The untraced run's stand-in: the same calls, no recording."""

    on = False

    def reset(self) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``repro`` in ``tracer``."""
    from repro.core import stages
    from repro.core.processor import Processor
    from repro.engine import scheduler, snapshot
    from repro.engine.cache import ResultCache
    from repro.engine.spec import RunSpec
    from repro.model import analytic
    from repro.router import hybrid
    from repro.workloads.spec import WorkloadSpec
    from repro.workloads.wrongpath import WrongPathGenerator

    wrap = tracer.wrap

    def wrap_memory(proc):
        mem = proc.mem
        mem.load = wrap("memory.load", mem.load, hot=True)
        mem.store = wrap("memory.store", mem.store, hot=True)
        return proc

    # repro.workloads
    WorkloadSpec.playlists = wrap("workloads.playlists", WorkloadSpec.playlists)
    next_block = WrongPathGenerator.next_block

    def counted_next_block(self, n):
        if self._pool is None:
            tracer.count("workloads.wrongpath_pools")
        return next_block(self, n)

    WrongPathGenerator.next_block = wrap(
        "workloads.wrongpath", counted_next_block, hot=True)

    # repro.core (and the memory path of every machine it builds)
    instantiate = wrap("core.instantiate", RunSpec.instantiate)

    def traced_instantiate(self):
        proc, kwargs = instantiate(self)
        wrap_memory(proc)
        return proc, kwargs

    RunSpec.instantiate = traced_instantiate
    for cls in (stages.WritebackStage, stages.CommitStage,
                stages.DecoupledIssueStage, stages.UnifiedIssueStage,
                stages.StoreDrainStage, stages.DispatchStage,
                stages.FetchStage):
        short = cls.name.split("/")[0]
        cls.tick = wrap(f"core.stage.{short}", cls.tick, hot=True)

    reset_stats = Processor.reset_stats

    def marked_reset_stats(self):
        tracer.boundary = _now()
        return reset_stats(self)

    Processor.reset_stats = marked_reset_stats
    run = wrap("core.run", Processor.run, hot=True)

    def split_run(self, *args, **kwargs):
        warm_ctx = tracer.cur_name in WARMUP_SPANS
        tracer.boundary = None
        t0 = _now()
        result = run(self, *args, **kwargs)
        t1 = _now()
        if warm_ctx:
            tracer.add_time("core.warmup", t1 - t0)
        elif kwargs.get("warmup_commits") and tracer.boundary is not None:
            tracer.add_time("core.warmup", tracer.boundary - t0)
            tracer.add_time("core.measured", t1 - tracer.boundary)
        else:
            tracer.add_time("core.measured", t1 - t0)
        return result

    Processor.run = split_run

    # repro.engine
    RunSpec.key = wrap("engine.spec.key", RunSpec.key, hot=True)
    RunSpec.execute = wrap("engine.execute", RunSpec.execute)
    scheduler.Engine.map = wrap("engine.map", scheduler.Engine.map)

    def count_hit(result, _args):
        tracer.count("engine.cache.gets")
        if result is not None:
            tracer.count("engine.cache.hits")

    ResultCache.get = wrap("engine.cache.get", ResultCache.get, after=count_hit)
    ResultCache.put = wrap("engine.cache.put", ResultCache.put)
    ResultCache.get_snapshot = wrap(
        "engine.cache.get_snapshot", ResultCache.get_snapshot)
    ResultCache.put_snapshot = wrap(
        "engine.cache.put_snapshot", ResultCache.put_snapshot)
    snapshot.capture_warmup = wrap(
        "engine.snapshot.warmup", snapshot.capture_warmup)
    snapshot.run_tail = wrap("engine.snapshot.tail", snapshot.run_tail)
    snapshot.Snapshot.capture = classmethod(wrap(
        "engine.snapshot.capture", snapshot.Snapshot.capture.__func__))
    restore = wrap("engine.snapshot.restore", snapshot.Snapshot.restore)
    snapshot.Snapshot.restore = (
        lambda self, spec: wrap_memory(restore(self, spec)))
    to_bytes = snapshot.Snapshot.to_bytes

    def counted_to_bytes(self):
        data = to_bytes(self)
        tracer.count("engine.snapshot.bytes_serialized", len(data))
        return data

    snapshot.Snapshot.to_bytes = counted_to_bytes
    for name in ("_execute_payload", "_warmup_payload", "_tail_payload"):
        task = wrap("engine.worker_task", getattr(scheduler, name))

        def worker_task(*args, _task=task):
            tracer.enter_worker()
            try:
                return _task(*args)
            finally:
                tracer.spill()

        # pickled by reference: the pool must find this very object
        # under the original module-level name
        functools.update_wrapper(worker_task, getattr(scheduler, name))
        setattr(scheduler, name, worker_task)

    # repro.model
    analytic.AnalyticBackend.run = wrap(
        "model.run", analytic.AnalyticBackend.run)
    analytic.characterize = wrap("model.characterize", analytic.characterize)
    analytic.solve = wrap("model.solve", analytic.solve)

    # repro.router
    hybrid.route_grid = wrap("router.route", hybrid.route_grid)
    hybrid.load_model = wrap("router.load_model", hybrid.load_model)
    hybrid.select_promotions = wrap(
        "router.select", hybrid.select_promotions)
