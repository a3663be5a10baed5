"""The cycle-accurate multithreaded decoupled access/execute machine.

One :class:`Processor` models the whole machine of the paper's Figure 2:
replicated per-thread front ends and queues
(:class:`~repro.core.context.ThreadContext`), shared issue slots and
functional units (4 AP + 4 EP), and a shared memory system.

Since the staged-kernel refactor the ``Processor`` is a thin *scheduler*:
all machine state lives in an explicit
:class:`~repro.core.state.MachineState` and each per-cycle phase is a
:class:`~repro.core.stages.Stage` object; the stage list is composed from
the :class:`~repro.core.config.MachineConfig` (decoupled vs. unified issue
are two stage variants, not branches).  Per-cycle phase order — later
phases see earlier phases' effects in the same cycle, which models the
natural pipeline flow:

1. **writeback** — functional-unit and memory completions set scoreboard
   bits; branches resolve, mispredictions squash (walk-back recovery);
2. **commit** — per-thread in-order graduation from the ROB;
3. **issue** — in-order per-unit issue, all threads competing round-robin
   for the 4+4 slots (the paper's "full simultaneous issue"); issue-slot
   breakdown and perceived-latency accounting happen here;
4. **store drain** — committed stores perform their cache writes;
5. **dispatch** — steer, rename, allocate queue/ROB/SAQ entries;
6. **fetch** — two threads per cycle (I-COUNT policy), up to 8 instructions
   each, stopping at a predicted-taken branch; mispredicted branches switch
   the thread onto a synthetic wrong path until they resolve.

**Event-horizon fast-forward.**  Under long L2 latencies the machine
spends most cycles stalled: issue-queue heads wait on in-flight memory or
functional-unit events, or retry against a structurally refusing memory
system, and no fetch, dispatch, commit or store drain can make progress.
``run()`` computes the **event horizon** of such a window — the minimum
over every stage's :meth:`~repro.core.stages.Stage.next_wake_cycle`, the
next completion event and the deadlock/cycle-limit caps — and jumps
``cycle`` straight to it, bulk-replaying the skipped empty issue slots,
perceived-latency stalls and memory-refusal retries.  Because each stage
reports its *own* earliest wake (rather than a binary all-idle vote), the
jump also fires in partially idle windows: all issue heads blocked on
in-flight misses while a store head retries against a pinned set, or one
thread sleeping through another's structural stall.  The resulting
statistics are *bit-identical* to the cycle-by-cycle walk — enforced by a
differential test over the Figure-3 grid and randomized partial-idle
scenarios — because a window is only entered when each skipped cycle is
provably a pure function of its round-robin phase.  ``step()`` always
advances exactly one cycle, so cycle-granular tooling (e.g.
:class:`~repro.stats.tracing.Tracer`) is unaffected; pass
``fast_forward=False`` to ``run()`` to force the per-cycle walk
everywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import MachineConfig
from repro.core.state import MachineState
from repro.core.stages import build_stages
from repro.isa.trace import Trace
from repro.stats.counters import SimStats


#: jumps shorter than this are declined — the wake scan costs about as
#: much as walking a couple of cycles, so tiny windows aren't worth it
#: (purely a throughput heuristic: walking is bit-identical to jumping)
_MIN_JUMP = 8


class SimulationError(RuntimeError):
    """Raised when the pipeline stops making forward progress."""


class Processor:
    """Thin scheduler over a stage list and a shared machine state."""

    def __init__(
        self,
        cfg: MachineConfig,
        playlists: list[list[Trace]],
        seed: int = 0,
        wrap: bool = True,
    ):
        self.cfg = cfg
        self.state = MachineState(cfg, playlists, seed=seed, wrap=wrap)
        self.stages = build_stages(cfg)
        self._finish_init()

    def _finish_init(self) -> None:
        """Shared tail of ``__init__`` and :meth:`from_state`."""
        # bound tick methods in pipeline order, resolved once at build
        # time — run()'s inlined cycle loop calls these directly instead
        # of re-resolving six .tick attributes per simulated cycle
        self._ticks = tuple(s.tick for s in self.stages)
        self._wakes = tuple(s.next_wake_cycle for s in self.stages)
        self._skips = tuple(s.skip for s in self.stages)

    @classmethod
    def from_state(cls, state: MachineState) -> "Processor":
        """Adopt an existing (e.g. snapshot-restored) machine state.

        The stage list is rebuilt from ``state.cfg`` — stages are
        stateless by construction (round-robin pointers and all other
        dynamic state live in the :class:`MachineState`), so a processor
        adopted mid-run continues exactly where the state left off.
        """
        proc = cls.__new__(cls)
        proc.cfg = state.cfg
        proc.state = state
        proc.stages = build_stages(state.cfg)
        proc._finish_init()
        return proc

    # -- state passthroughs (the public reading surface predates the
    # -- staged kernel; tests, examples and the tracer all use these) ----------

    @property
    def mem(self):
        return self.state.mem

    @property
    def threads(self):
        return self.state.threads

    @property
    def stats(self) -> SimStats:
        return self.state.stats

    @property
    def cycle(self) -> int:
        return self.state.cycle

    @property
    def total_committed(self) -> int:
        return self.state.total_committed

    @property
    def ff_jumps(self) -> int:
        """Event-horizon jumps taken in the current measured region (lives
        in :class:`SimStats`, so it resets, pickles and forks with the
        rest of the statistics)."""
        return self.state.stats.ff_jumps

    @property
    def ff_cycles_skipped(self) -> int:
        """Cycles bulk-jumped (rather than walked) in the current region."""
        return self.state.stats.ff_cycles_skipped

    @property
    def deadlock_cycles(self) -> int:
        """Cycles without a commit before declaring deadlock (defaults to
        ``cfg.deadlock_cycles``; assignable per instance)."""
        return self.state.deadlock_cycles

    @deadlock_cycles.setter
    def deadlock_cycles(self, value: int) -> None:
        self.state.deadlock_cycles = value

    # ---------------------------------------------------------------- main loop

    def step(self) -> None:
        """Advance the machine by exactly one cycle."""
        st = self.state
        st.mem.begin_cycle()
        for stage in self.stages:
            stage.tick(st)
        st.cycle += 1
        st.stats.cycles += 1
        if st.cycle - st.last_commit_cycle > st.deadlock_cycles:
            self._raise_deadlock()

    def _raise_deadlock(self) -> None:
        st = self.state
        raise SimulationError(
            f"no commits for {st.deadlock_cycles} cycles at cycle "
            f"{st.cycle}; pipeline state is wedged"
        )

    def _fast_forward(self, cycle_limit: int | None) -> int:
        """Attempt one event-horizon jump; returns the cycles skipped (0
        when some stage could act this very cycle).

        The horizon is the minimum of every stage's ``next_wake_cycle``,
        the next completion event, the caller's cycle limit and the
        deadlock horizon.  Skipped cycles count toward the deadlock
        watchdog: reaching its horizon raises exactly the
        :class:`SimulationError` the per-cycle walk would have raised, at
        the same cycle, with the same statistics attributed.

        A jump shorter than ``_MIN_JUMP`` cycles is declined before the
        stage scan: the wake probes (which touch cache tags and MSHR
        files) cost about as much as walking a couple of cycles, so on
        event-dense workloads — short latencies, many threads with
        staggered in-flight misses — the O(1) heap peek alone rejects
        the attempt and the walk proceeds untaxed.  Walking and jumping
        are bit-identical by contract, so this threshold is purely a
        throughput heuristic.
        """
        st = self.state
        now = st.cycle
        floor = now + _MIN_JUMP
        target = st.last_commit_cycle + st.deadlock_cycles + 1
        events = st.events
        if events:
            # the earliest pending completion: one O(1) heap peek per
            # jump attempt (the heap root is the minimum by the heap
            # invariant; no rescan of the event list)
            nxt = events[0][0]
            if nxt <= now:
                return 0  # a due event means writeback work this cycle
            if nxt < target:
                target = nxt
        if cycle_limit is not None and cycle_limit < target:
            target = cycle_limit
        if target < floor:
            return 0
        for wake in self._wakes:
            w = wake(st)
            if w is None:
                continue
            if w < floor:
                return 0
            if w < target:
                target = w
        k = target - now
        for skip in self._skips:
            skip(st, k)
        st.cycle = target
        stats = st.stats
        stats.cycles += k
        stats.ff_jumps += 1
        stats.ff_cycles_skipped += k
        if target - st.last_commit_cycle > st.deadlock_cycles:
            self._raise_deadlock()
        return k

    def finished(self) -> bool:
        """True when a finite (non-wrapping) run has fully drained."""
        st = self.state
        if st.events:
            return False
        decoupled = self.cfg.decoupled
        for t in st.threads:
            if not t.exhausted or t.wrong_path:
                return False
            if t.rob or t.fetch_buf:
                return False
            if decoupled:
                if t.aq.q or t.iq.q:
                    return False
            elif t.uq.q:
                return False
            if t.saq.q:
                return False
        return True

    def reset_stats(self) -> None:
        """Zero every statistic (used at the warm-up boundary)."""
        st = self.state
        st.stats = SimStats()
        st.mem.reset_stats()
        for t in st.threads:
            t.committed = 0
        st.last_commit_cycle = st.cycle

    def run(
        self,
        max_commits: int | Sequence[int] | None = None,
        max_cycles: int | None = 2_000_000,
        warmup_commits: int = 0,
        fast_forward: bool = True,
    ) -> SimStats | list[SimStats]:
        """Run the machine and return the (finalised) statistics.

        Args:
            max_commits: stop after this many post-warm-up commits.  A
                sequence of budgets runs the measured region once, to the
                largest, and returns a list: the statistics at each
                budget, in the order given.  Each equals the result of a
                run to that budget alone, because such a run is a prefix
                of a run to any larger budget: the loop carries its idle
                hint across each stop and keeps the one cycle limit set
                when the region starts.
            max_cycles: hard cycle bound (post warm-up).
            warmup_commits: commits to execute (and discard) before the
                measured region starts.
            fast_forward: jump over provably idle windows (statistics are
                bit-identical either way; disable only to measure or to
                differentially test the per-cycle walk).
        """
        if max_commits is None and max_cycles is None:
            raise ValueError("need at least one stop condition")
        st = self.state
        if warmup_commits:
            # the warm-up loop intentionally ignores finite-drain: a
            # finite program too short for its warm-up budget hits the
            # deadlock horizon, exactly like the pre-inlined loop did
            self._run_region(
                st.total_committed + warmup_commits, None, fast_forward,
                finite=False,
            )
            self.reset_stats()
        cycle_limit = st.cycle + max_cycles if max_cycles else None
        if not isinstance(max_commits, Sequence):
            commit_target = (
                st.total_committed + max_commits if max_commits else None
            )
            self._run_region(
                commit_target, cycle_limit, fast_forward, finite=st.finite
            )
            return self.snapshot()
        start = st.total_committed
        idle_hint = False
        out: list = [None] * len(max_commits)
        for i in sorted(range(len(max_commits)), key=max_commits.__getitem__):
            idle_hint = self._run_region(
                start + max_commits[i], cycle_limit, fast_forward, st.finite,
                idle_hint,
            )
            out[i] = self.snapshot().copy()
        return out

    def _run_region(
        self,
        commit_target: int | None,
        cycle_limit: int | None,
        fast_forward: bool,
        finite: bool,
        idle_hint: bool = False,
    ) -> bool:
        """The hot cycle loop of one region (warm-up or measured).

        Semantically ``while not done: step()`` plus idle-window jumps,
        with ``step()`` and the idle hint inlined: per simulated cycle
        the factored version paid two method calls, twelve stats
        attribute reads and six ``.tick`` attribute resolutions — all
        loop-invariant. The hint, one sum of five stats counters taken
        before and after the cycle, lets a jump be tried only after a
        cycle that moved no instruction, so busy cycles pay an integer
        sum, not a full scan. ``step()`` stays the reference
        single-cycle entry point for tracers and tests.

        Returns the hint at the stop, so that a run through several
        commit budgets continues exactly as a run to the last one would.
        """
        st = self.state
        mem = st.mem
        fast = self._fast_forward
        t0, t1, t2, t3, t4, t5 = self._ticks
        while True:
            if (
                commit_target is not None
                and st.total_committed >= commit_target
            ):
                return idle_hint
            if cycle_limit is not None and st.cycle >= cycle_limit:
                return idle_hint
            if finite and self.finished():
                return idle_hint
            if idle_hint and fast_forward and fast(cycle_limit):
                idle_hint = False
                continue
            stats = st.stats
            before = (
                stats.fetched + stats.dispatched + stats.issued
                + stats.committed + stats.stores
            )
            # -- inlined step() --
            mem._ports_used = 0
            t0(st)
            t1(st)
            t2(st)
            t3(st)
            t4(st)
            t5(st)
            st.cycle += 1
            stats.cycles += 1
            if st.cycle - st.last_commit_cycle > st.deadlock_cycles:
                self._raise_deadlock()
            idle_hint = before == (
                stats.fetched + stats.dispatched + stats.issued
                + stats.committed + stats.stores
            )

    def snapshot(self) -> SimStats:
        """Finalise and return the statistics object."""
        st = self.state
        stats = st.stats
        stats.bus_utilization = st.mem.bus_utilization(stats.cycles)
        stats.line_fills = st.mem.fills
        stats.writebacks = st.mem.writebacks
        stats.mshr_alloc_failures = st.mem.mshrs.alloc_failures
        stats.blocked_requests = st.mem.blocked_requests
        stats.level_stats = st.mem.level_stats()
        stats.prefetch_fills = st.mem.prefetch_fills
        stats.prefetch_hits = st.mem.prefetch_hits
        stats.prefetch_dropped = st.mem.prefetch_dropped
        stats.committed_per_thread = {
            t.tid: t.committed for t in st.threads
        }
        return stats

    # -- diagnostics ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural invariants (used by the property tests)."""
        for t in self.state.threads:
            t.rename.check_invariants()
            seqs = [d.seq for d in t.rob]
            assert seqs == sorted(seqs), "ROB out of program order"
            for q in (t.aq.q, t.iq.q, t.uq.q, t.saq.q):
                s = [d.seq for d in q]
                assert s == sorted(s), "queue out of program order"
