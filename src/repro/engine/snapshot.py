"""Checkpoint/restore: full-fidelity machine snapshots and forking.

A :class:`Snapshot` freezes a mid-run cycle machine — the complete
:class:`~repro.core.state.MachineState`: every thread context (rename
files, queues, ROB, predictor, wrong-path generator cursor), the composed
memory hierarchy (tag/LRU/dirty arrays, MSHR occupancy, bus schedule,
prefetcher training state) and the in-flight completion-event heap — and
restores it **bit-identically**: running a restored machine to completion
produces exactly the statistics and final machine state an unbroken run
would have (``tests/test_snapshot.py`` gates this differentially, the
same way the idle-cycle fast-forward is gated).

What is *not* serialized, and why that is safe:

* **Trace playlists** — multi-megabyte but fully deterministic in
  ``(workload, seed)`` (crc32-derived RNG seeding in
  :mod:`repro.workloads.synth`), so contexts pickle only their cursors
  and :meth:`restore` re-synthesises the playlists from the spec.
* **Wrong-path pools** — a pure function of the per-thread seed
  (:class:`~repro.workloads.wrongpath.WrongPathGenerator` rebuilds them
  lazily); only the cyclic-stream cursor is state.
* **Accessor wrappers** — a profiler may shadow the memory system's
  ``load``/``store`` with instance-level closures (perfbench's tracer
  does), and a closure cannot cross a pickle;
  ``MemorySystem.__getstate__`` drops them, so the restored machine runs
  the class methods the wrappers called.

The payload is a zlib-compressed highest-protocol pickle behind a JSON
meta header (format, spec version, capture cycle, fork key).  Snapshots
interoperate only within one :data:`SNAPSHOT_FORMAT` /
:data:`~repro.engine.spec.SPEC_VERSION` pair — a mismatch reads as
:class:`SnapshotError`, which cache layers treat as a miss.  A payload
that fails to decompress or unpickle raises :class:`SnapshotError` from
:meth:`Snapshot.restore`, and the scheduler re-warms the group.

Forking (the scheduler's warm-up amortization) runs each warm-up group
on one machine.  Specs that share a :meth:`~repro.engine.spec.RunSpec.
warmup_key` differ only in their measured commit budget, so a run to one
budget is a prefix of a run to any larger one.  :func:`measure_group`
runs a group's measured region once, through every member's budget in
ascending order, on a machine at the group's warm-up boundary.  That
machine comes from :func:`capture_warmup`, which pays the warm-up once
and snapshots the boundary for the cache, or from :func:`run_tail`,
which restores a cached snapshot once.  So a snapshot serves a later
invocation that adds a budget to a group, and ``repro-sim run
--snapshot/--restore``; the members of one map never wait on one.
"""

from __future__ import annotations

import json
import pickle
import zlib
from collections.abc import Sequence

from repro.core.processor import Processor
from repro.core.state import MachineState
from repro.engine.spec import SPEC_VERSION, RunSpec
from repro.stats.counters import SimStats

#: bump when the snapshot payload layout changes incompatibly
SNAPSHOT_FORMAT = 1

_MAGIC = b"repro-snap\n"


class SnapshotError(ValueError):
    """A snapshot could not be parsed or does not match the given spec."""


class Snapshot:
    """One frozen machine state, with enough metadata to validate reuse."""

    __slots__ = ("meta", "payload")

    def __init__(self, meta: dict, payload: bytes):
        self.meta = meta
        self.payload = payload

    # -- capture ----------------------------------------------------------------

    @classmethod
    def capture(cls, proc: Processor, spec: RunSpec | None = None) -> "Snapshot":
        """Freeze ``proc``'s complete machine state (non-destructively:
        the processor keeps running unaffected).

        ``spec`` stamps the snapshot with the spec's identity and fork
        key so :meth:`restore` can refuse a mismatched reuse; omit it
        only for ad-hoc captures of hand-built machines.
        """
        payload = zlib.compress(
            pickle.dumps(proc.state, protocol=pickle.HIGHEST_PROTOCOL)
        )
        meta = {
            "format": SNAPSHOT_FORMAT,
            "spec_version": SPEC_VERSION,
            "spec_key": spec.key() if spec is not None else None,
            "warmup_key": spec.warmup_key() if spec is not None else None,
            "cycle": proc.state.cycle,
            "total_committed": proc.state.total_committed,
            "ff_jumps": proc.ff_jumps,
            "ff_cycles_skipped": proc.ff_cycles_skipped,
        }
        return cls(meta, payload)

    # -- (de)serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        return _MAGIC + header + b"\n" + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Parse a serialized snapshot (header only — the pickled state
        stays compressed until :meth:`restore` needs it)."""
        if not data.startswith(_MAGIC):
            raise SnapshotError("not a repro-sim snapshot (bad magic)")
        try:
            header, payload = data[len(_MAGIC):].split(b"\n", 1)
            meta = json.loads(header.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"corrupt snapshot header: {exc}") from None
        if not isinstance(meta, dict) or meta.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"snapshot format {meta.get('format')!r} != "
                f"{SNAPSHOT_FORMAT} (incompatible writer)"
            )
        if meta.get("spec_version") != SPEC_VERSION:
            raise SnapshotError(
                f"snapshot spec_version {meta.get('spec_version')!r} != "
                f"{SPEC_VERSION} (stale semantics)"
            )
        return cls(meta, payload)

    # -- restore ----------------------------------------------------------------

    def restore(self, spec: RunSpec) -> Processor:
        """Thaw a fresh, independent :class:`Processor` continuing from
        this snapshot under ``spec``.

        ``spec`` must share the snapshot's fork key (everything that
        shapes the machine up to the capture point: workload, seed,
        machine/memory configuration, warm-up budget, scale); only the
        measured-region budget may differ.  Each call unpickles its own
        state, so one snapshot can fan out to many diverging tails.
        """
        want = self.meta.get("warmup_key")
        if want is not None and spec.warmup_key() != want:
            raise SnapshotError(
                f"snapshot was captured for warmup_key {want} but "
                f"{spec.label()!r} has {spec.warmup_key()} — the specs "
                "diverge before the capture point"
            )
        try:
            state = pickle.loads(zlib.decompress(self.payload))
        except (zlib.error, pickle.UnpicklingError, EOFError) as exc:
            # from_bytes validates only the header; a truncated or
            # corrupt payload surfaces here
            raise SnapshotError(f"corrupt snapshot payload: {exc}") from None
        if not isinstance(state, MachineState):
            raise SnapshotError(
                f"snapshot payload is {type(state).__name__}, "
                "not a MachineState"
            )
        state.rebind_playlists(spec.playlists())
        # the fast-forward diagnostics travel inside the pickled SimStats
        # (the header copies are informational only)
        return Processor.from_state(state)


# -- forking helpers (the scheduler's warmup amortization) ----------------------


def capture_warmup(spec: RunSpec) -> tuple[Snapshot, Processor]:
    """Simulate ``spec``'s warm-up region once and snapshot the machine
    at the measured-region boundary (statistics freshly zeroed, exactly
    the state an unbroken run would measure from).

    Returns ``(snapshot, processor)`` — the live processor can keep
    running its own measured region (capture is non-destructive), so the
    cell that paid for the warm-up need not pay again to restore.
    """
    proc, kwargs = spec.instantiate()
    warmup = kwargs.get("warmup_commits", 0)
    if warmup:
        proc.run(max_commits=warmup, max_cycles=None)
        proc.reset_stats()
    return Snapshot.capture(proc, spec=spec), proc


def measure_group(proc: Processor, specs: Sequence[RunSpec]) -> list[SimStats]:
    """Run the measured region of every spec of one warm-up group on
    ``proc``, a machine at the group's warm-up boundary: one
    :meth:`Processor.run` to the largest budget, with the statistics
    copied at each member's own.

    Returns one result per spec, in order, each bit-identical to the
    spec's ``execute()``.
    """
    if len({spec.warmup_key() for spec in specs}) != 1:
        raise ValueError("the specs do not share one warm-up boundary")
    runs = [spec.run_kwargs() for spec in specs]
    return proc.run(
        max_commits=[kwargs["max_commits"] for kwargs in runs],
        max_cycles=runs[0]["max_cycles"],
    )


def run_tail(specs: Sequence[RunSpec], snap: Snapshot) -> list[SimStats]:
    """Restore ``snap`` once and measure every spec of its warm-up group
    (see :func:`measure_group`), skipping the warm-up.

    Bit-identical to each spec's ``execute()`` when the snapshot sits at
    the group's warm-up boundary (the differential suite's core claim).
    """
    return measure_group(snap.restore(specs[0]), specs)
