"""Composable pipeline stages.

Each phase of the old monolithic ``Processor.step()`` is one :class:`Stage`
operating on a shared :class:`~repro.core.state.MachineState`.  The
scheduler ticks the stages in pipeline order (writeback, commit, issue,
store drain, dispatch, fetch — later stages see earlier stages' effects in
the same cycle, modelling the natural pipeline flow), and the decoupled
vs. unified machines differ only in which issue-stage variant the list
contains — not in branches inside a monolith.

Every stage also answers two questions for the event-horizon fast-forward:

* :meth:`Stage.next_wake_cycle` — the earliest future cycle at which this
  stage's tick could possibly change machine state, ``None`` meaning "only
  a completion event (or another stage acting first) can wake me", and the
  current cycle meaning "I might act right now — do not skip".  The
  contract is conservative: a stage may only report a future wake when
  every tick before it would provably be a pure no-op **except** for
  per-cycle statistics that :meth:`Stage.skip` knows how to bulk-replay.
  Operand-wait stalls report ``None`` (the producer's completion event
  bounds the window); structural memory refusals — a load or store head
  retrying against a pinned L1 set or exhausted MSHR file — report the
  refusal's own wake cycle from
  :meth:`~repro.memory.hierarchy.MemorySystem.refusal_wake`, which is what
  lets the horizon fire in *partially* idle windows.
* :meth:`Stage.skip` — replay the stage's per-cycle side effects for ``k``
  skipped cycles in bulk.  For most stages that is nothing; the issue
  stages bulk-attribute empty issue slots and perceived-latency stalls per
  round-robin phase, issue/dispatch advance their round-robin pointers by
  ``k``, and issue/store-drain bulk-replay the refusal counters their
  blocked memory accesses would have incremented every cycle.  ``skip``
  must leave the machine bit-identical to ``k`` individual ticks
  (enforced by ``tests/test_fast_forward.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.state import MachineState
from repro.core.context import ThreadContext
from repro.isa.instruction import (
    DynInst,
    ST_COMPLETED,
    ST_ISSUED,
    ST_SQUASHED,
)
from repro.isa.opclass import OpClass, Unit
from repro.memory.hierarchy import S_BLOCKED, S_HIT, S_MISS
from repro.stats.counters import (
    SLOT_IDLE,
    SLOT_OTHER,
    SLOT_USEFUL,
    SLOT_WAIT_FU,
    SLOT_WAIT_MEM,
    SLOT_WRONG_PATH,
)

_OP_LOAD_F = OpClass.LOAD_F
_UNIT_EP = Unit.EP


class Stage:
    """One pipeline phase; stateless — all machine state lives in the
    :class:`MachineState` passed to every call."""

    __slots__ = ()
    name = "stage"

    def tick(self, st: MachineState) -> None:
        """Advance this stage by one cycle."""
        raise NotImplementedError

    def next_wake_cycle(self, st: MachineState):
        """Earliest future cycle at which ticking could change machine
        state: ``None`` = only an event can wake this stage, ``st.cycle``
        = it might act right now (the conservative default)."""
        return st.cycle

    def skip(self, st: MachineState, k: int) -> None:
        """Bulk-replay the side effects of ``k`` skipped ticks."""


# ------------------------------------------------------------------- writeback


class WritebackStage(Stage):
    """Drain due completion events: scoreboard updates, branch resolution
    and (on mispredictions) walk-back squash recovery."""

    __slots__ = ()
    name = "writeback"

    def tick(self, st: MachineState) -> None:
        events = st.events
        now = st.cycle
        threads = st.threads
        while events and events[0][0] <= now:
            inst = heappop(events)[2]
            t = threads[inst.thread]
            if inst.state == ST_SQUASHED:
                # zombie: squashed while in flight; reclaim its register
                t.rename.free(inst.pdest)
                continue
            inst.state = ST_COMPLETED
            inst.complete_cycle = now
            p = inst.pdest
            if p >= 0:
                t.rename.ready[p] = 1
            if inst.static.is_branch and not inst.wrong_path:
                t.unresolved_branches -= 1
                if inst.pred_taken != inst.static.taken:
                    self._squash(st, t, inst)

    def _squash(self, st: MachineState, t: ThreadContext, branch: DynInst) -> None:
        """Walk-back recovery from a mispredicted branch."""
        stats = st.stats
        stats.squashes += 1
        seq = branch.seq
        t.fetch_buf.clear()
        t.resume_from(seq)
        if st.cfg.decoupled:
            t.aq.squash_tail(seq)
            t.iq.squash_tail(seq)
        else:
            t.uq.squash_tail(seq)
        t.saq.squash_tail(seq)
        rob = t.rob
        rename = t.rename
        while rob and rob[-1].seq > seq:
            d = rob.pop()
            stats.squashed_instructions += 1
            if d.static.is_branch:
                t.unresolved_branches -= 1
                t.branch_resume.pop(d.seq, None)
            if d.pdest >= 0:
                rename.undo_rename(d.static.dest, d.pdest, d.old_pdest)
                if d.state != ST_ISSUED:
                    # not in flight: reclaim now; in-flight registers are
                    # reclaimed when their completion event drains
                    rename.free(d.pdest)
            d.state = ST_SQUASHED

    def next_wake_cycle(self, st: MachineState):
        # a due event means work this very cycle; future events are the
        # horizon's own cap, so there is nothing to report beyond that
        events = st.events
        return st.cycle if events and events[0][0] <= st.cycle else None


# ---------------------------------------------------------------------- commit


class CommitStage(Stage):
    """Per-thread in-order graduation from the ROB."""

    __slots__ = ()
    name = "commit"

    def tick(self, st: MachineState) -> None:
        stats = st.stats
        width = st.cfg.commit_width
        total = 0
        for t in st.threads:
            rob = t.rob
            if not rob or rob[0].state != ST_COMPLETED:
                continue
            n = width
            rename = t.rename
            ready = rename.ready
            ap_regs = rename.ap_regs
            free_ap = rename.free_ap
            free_ep = rename.free_ep
            committed = 0
            while n and rob:
                d = rob[0]
                if d.state != ST_COMPLETED:
                    break
                if d.pdata >= 0 and not ready[d.pdata]:
                    break  # store whose data is not yet available
                if d.static.is_store:
                    d.store_ready = True
                rob.popleft()
                old = d.old_pdest
                if old >= 0:
                    (free_ep if old >= ap_regs else free_ap).append(old)
                committed += 1
                n -= 1
            if committed:
                t.committed += committed
                total += committed
        if total:
            stats.committed += total
            st.total_committed += total
            st.last_commit_cycle = st.cycle

    def next_wake_cycle(self, st: MachineState):
        # a ROB head becomes committable only through a completion event
        # (instruction completion or a store's data register turning
        # ready), so commit either acts now or sleeps until an event
        for t in st.threads:
            rob = t.rob
            if not rob:
                continue
            d = rob[0]
            if d.state == ST_COMPLETED and (
                d.pdata < 0 or t.rename.ready[d.pdata]
            ):
                return st.cycle
        return None


# ----------------------------------------------------------------------- issue


def _blocked_reason(t: ThreadContext, d: DynInst):
    """Why a queue head cannot issue for operand reasons, or ``None``.

    Returns ``(slot_category, load, consumer)`` when some renamed source is
    not ready — the only blocking class that is a pure function of machine
    state (structural blocks touch the memory system and mutate counters).
    """
    rename = t.rename
    ready = rename.ready
    for p in d.psrcs:
        if not ready[p]:
            prod = rename.producer[p]
            if prod is not None and prod.load_miss and prod.state == ST_ISSUED:
                return (SLOT_WAIT_MEM, prod, d)
            return (SLOT_WAIT_FU, None, d)
    return None


#: Sentinel wake value: the head could act (or mutate memory state) this
#: very cycle, so the issue stage must not be skipped over.
_ACT = -1


def _issue_head_wake(st: MachineState, t: ThreadContext, d: DynInst):
    """How long the issue stage can provably ignore queue head ``d``.

    Returns ``None`` when only a completion event can unblock it (operand
    waits, store-to-load forwarding waiting on the store's data register),
    :data:`_ACT` when ticking could issue it or otherwise mutate memory
    state, or ``(wake_cycle, mshr_file)`` — the result of
    :meth:`~repro.memory.hierarchy.MemorySystem.refusal_wake` — when the
    head is a load the memory system structurally refuses until at least
    ``wake_cycle`` (each skipped retry is replayed by :meth:`_IssueStage.skip`).
    """
    if _blocked_reason(t, d) is not None:
        return None
    s = d.static
    if not s.is_load:
        return _ACT
    fwd = t.saq.find_older_match(s.addr, d.seq)
    if fwd is not None:
        if fwd.pdata >= 0 and not t.rename.ready[fwd.pdata]:
            return None  # the store's data arrives with an event
        return _ACT      # forwarding would succeed: the load issues
    return st.mem.refusal_wake(t.salted(s.addr), st.cycle, t.tid) or _ACT


def _issue_load(st: MachineState, t: ThreadContext, d: DynInst, now: int) -> int:
    """Start load ``d``'s access at cycle ``now``: forward from the
    youngest older store to its address, or claim an L1 port and access
    the memory system.

    Returns the cycle the loaded value is ready, or ``-1`` when the load
    cannot issue this cycle (the forwarding store's data is not ready,
    every port is taken, or the memory system refused the access); the
    issue stage then records the head as ``SLOT_OTHER``.  An issued load
    is counted, and marked ``load_miss`` when it did not hit.
    """
    s = d.static
    stats = st.stats
    mem = st.mem
    fwd = t.saq.find_older_match(s.addr, d.seq)
    if fwd is not None:
        if fwd.pdata >= 0 and not t.rename.ready[fwd.pdata]:
            return -1
        # store-to-load forwarding: completes like a hit
        if not d.wrong_path:
            if s.op == _OP_LOAD_F:
                stats.loads_fp += 1
            else:
                stats.loads_int += 1
        return now + 1 + mem.hit_latency
    if mem._ports_used >= mem.ports:
        return -1
    status, when = mem.load(t.salted(s.addr), now, t.tid)
    if status == S_BLOCKED:
        return -1
    mem._ports_used += 1
    if status != S_HIT:
        d.load_miss = True
    if not d.wrong_path:
        if s.op == _OP_LOAD_F:
            stats.loads_fp += 1
            if status == S_MISS:
                stats.load_misses_fp += 1
            elif status != S_HIT:
                stats.load_merged_fp += 1
        else:
            stats.loads_int += 1
            if status == S_MISS:
                stats.load_misses_int += 1
            elif status != S_HIT:
                stats.load_merged_int += 1
    return when + 1  # +1: address generation


def _account_slots(
    st: MachineState, unit: int, free: int, blocked: list, times: int = 1
) -> None:
    """Attribute empty issue slots and perceived-latency stall cycles.

    ``times`` repeats the identical per-cycle attribution — used by the
    fast-forward to bulk-account a run of cycles that share one blocked
    snapshot and round-robin phase.
    """
    stats = st.stats
    counts = stats.slot_counts[unit]
    if blocked:
        k = len(blocked)
        for s in range(free):
            counts[blocked[s % k][0]] += times
    else:
        counts[SLOT_IDLE] += free * times
    # Perceived latency: one stall cycle per consumer blocked on an
    # outstanding load miss while a free slot exists (paper section 3.2),
    # bounded by the number of free slots.
    attributed = 0
    for reason, load, consumer in blocked:
        if attributed >= free:
            break
        if (
            reason == SLOT_WAIT_MEM
            and load is not None
            and not load.wrong_path
            and not consumer.wrong_path
        ):
            if load.static.op == _OP_LOAD_F:
                stats.perceived_stall_fp += times
            else:
                stats.perceived_stall_int += times
            attributed += 1


class _IssueStage(Stage):
    """Shared skeleton of the two issue variants: round-robin rotation,
    wake computation (the earliest cycle any queue head could issue or
    change shape) and bulk slot/refusal accounting over a
    fast-forward window."""

    __slots__ = ()

    def _wake_heads(self, t: ThreadContext):
        """Yield the queue heads of one thread — exactly the instructions
        :meth:`tick` would evaluate first per queue."""
        raise NotImplementedError

    def next_wake_cycle(self, st: MachineState):
        wake = None
        for t in st.threads:
            for d in self._wake_heads(t):
                w = _issue_head_wake(st, t, d)
                if w is None:
                    continue
                if w is _ACT:
                    return st.cycle
                c = w[0]
                if wake is None or c < wake:
                    wake = c
        return wake

    def _probe(self, st: MachineState, start: int) -> list[list]:
        """Blocked-head snapshot per unit (indexed by :class:`Unit`) for
        one round-robin phase, mirroring the visiting order of
        :meth:`tick` when nothing can issue (the fast-forward eligibility
        condition).  A head with all operands ready inside a window is a
        structurally refused (or forwarding-data-blocked) load; tick
        records it as ``(SLOT_OTHER, None, head)``."""
        threads = st.threads
        n = len(threads)
        blocked: list[list] = [[], []]
        for i in range(n):
            t = threads[(start + i) % n]
            for d in self._wake_heads(t):
                r = _blocked_reason(t, d)
                blocked[d.unit].append(
                    r if r is not None else (SLOT_OTHER, None, d)
                )
        return blocked

    def skip(self, st: MachineState, k: int) -> None:
        n = len(st.threads)
        start = st.rr_issue
        cfg = st.cfg
        # phase i (cycles start+i, start+i+n, ...) recurs ceil((k-i)/n) times
        for i in range(min(n, k)):
            times = (k - i + n - 1) // n
            ap_blocked, ep_blocked = self._probe(st, (start + i) % n)
            _account_slots(st, 0, cfg.ap_width, ap_blocked, times)
            _account_slots(st, 1, cfg.ep_width, ep_blocked, times)
        st.rr_issue = (start + k) % n
        # Structurally refused loads re-probed the memory system once per
        # cycle per head (issue widths never exhaust inside a window, so
        # every thread's heads were visited every cycle regardless
        # of round-robin phase): replay those k refusals per head.
        mem = st.mem
        for t in st.threads:
            for d in self._wake_heads(t):
                w = _issue_head_wake(st, t, d)
                if w is not None and w is not _ACT:
                    mem.replay_refusals(w[1], k)


class DecoupledIssueStage(_IssueStage):
    """In-order issue from the per-thread AP/EP queue pair — the paper's
    decoupling mechanism; all threads compete round-robin for the slots."""

    __slots__ = ()
    name = "issue/decoupled"

    def _wake_heads(self, t: ThreadContext):
        if t.aq.q:
            yield t.aq.q[0]
        if t.iq.q:
            yield t.iq.q[0]

    def tick(self, st: MachineState) -> None:
        # Each queue head is issued inline: its readiness scan (p ends as
        # the first unready source, or -1; a head that waits is classified
        # by _blocked_reason), its completion event and its state.  Only
        # loads leave the loop, for _issue_load; the EP never addresses
        # memory, so its loop has no load path.  Issue-slot counts are
        # summed per unit and added once, and _account_slots runs only
        # when a free slot meets a blocked head.
        cfg = st.cfg
        now = st.cycle
        threads = st.threads
        n = len(threads)
        start = st.rr_issue
        st.rr_issue = (start + 1) % n
        stats = st.stats
        events = st.events
        evseq = st.evseq
        order = threads[start:] + threads[:start] if start else threads

        width = free = cfg.ap_width
        blocked: list = []
        wrong = 0
        done = now + cfg.ap_latency
        for t in order:
            q = t.aq.q
            if not q:
                continue
            ready = t.rename.ready
            while q:
                d = q[0]
                for p in d.psrcs:
                    if not ready[p]:
                        break
                else:
                    p = -1
                if p >= 0:
                    blocked.append(_blocked_reason(t, d))
                    break
                if d.static.is_load:
                    when = _issue_load(st, t, d, now)
                    if when < 0:
                        blocked.append((SLOT_OTHER, None, d))
                        break
                else:
                    when = done
                q.popleft()
                evseq += 1
                heappush(events, (when, evseq, d))
                d.state = ST_ISSUED
                d.issue_cycle = now
                if d.wrong_path:
                    wrong += 1
                elif d.seq > t.last_ap_seq:
                    t.last_ap_seq = d.seq
                free -= 1
                if not free:
                    break
            if not free:
                break
        row = stats.slot_counts[0]
        issued = width - free
        if issued:
            stats.issued += issued
            row[SLOT_USEFUL] += issued - wrong
            if wrong:
                row[SLOT_WRONG_PATH] += wrong
                stats.issued_wrong_path += wrong
        if free:
            if blocked:
                _account_slots(st, 0, free, blocked)
            else:
                row[SLOT_IDLE] += free

        width = free = cfg.ep_width
        blocked = []
        wrong = 0
        done = now + cfg.ep_latency
        slip_total = 0
        for t in order:
            q = t.iq.q
            if not q:
                continue
            ready = t.rename.ready
            while q:
                d = q[0]
                for p in d.psrcs:
                    if not ready[p]:
                        break
                else:
                    p = -1
                if p >= 0:
                    blocked.append(_blocked_reason(t, d))
                    break
                q.popleft()
                evseq += 1
                heappush(events, (done, evseq, d))
                d.state = ST_ISSUED
                d.issue_cycle = now
                if d.wrong_path:
                    wrong += 1
                else:
                    # slip: how far the AP's issue point runs ahead
                    slip = t.last_ap_seq - d.seq
                    if slip > 0:
                        slip_total += slip
                free -= 1
                if not free:
                    break
            if not free:
                break
        row = stats.slot_counts[1]
        issued = width - free
        if issued:
            stats.issued += issued
            row[SLOT_USEFUL] += issued - wrong
            if wrong:
                row[SLOT_WRONG_PATH] += wrong
                stats.issued_wrong_path += wrong
            # one slip sample per correct-path EP issue
            stats.slip_total += slip_total
            stats.slip_samples += issued - wrong
        if free:
            if blocked:
                _account_slots(st, 1, free, blocked)
            else:
                row[SLOT_IDLE] += free
        st.evseq = evseq


class UnifiedIssueStage(_IssueStage):
    """The paper's degenerate baseline: one unified in-order queue per
    thread feeds both units, so a stalled head blocks everything younger."""

    __slots__ = ()
    name = "issue/unified"

    def _wake_heads(self, t: ThreadContext):
        if t.uq.q:
            yield t.uq.q[0]

    def tick(self, st: MachineState) -> None:
        # DecoupledIssueStage.tick's inline issue over one queue that
        # feeds both units: a head waits for a free slot of its own unit
        cfg = st.cfg
        now = st.cycle
        threads = st.threads
        n = len(threads)
        start = st.rr_issue
        st.rr_issue = (start + 1) % n
        stats = st.stats
        events = st.events
        evseq = st.evseq
        ap_width = ap_free = cfg.ap_width
        ep_width = ep_free = cfg.ep_width
        ap_done = now + cfg.ap_latency
        ep_done = now + cfg.ep_latency
        ap_blocked: list = []
        ep_blocked: list = []
        ap_wrong = ep_wrong = 0
        slip_total = 0
        for t in threads[start:] + threads[:start] if start else threads:
            if not ap_free and not ep_free:
                break
            q = t.uq.q
            if not q:
                continue
            ready = t.rename.ready
            while q:
                d = q[0]
                ep = d.unit == _UNIT_EP
                if ep:
                    if not ep_free:
                        break
                elif not ap_free:
                    break
                for p in d.psrcs:
                    if not ready[p]:
                        break
                else:
                    p = -1
                if p >= 0:
                    (ep_blocked if ep else ap_blocked).append(
                        _blocked_reason(t, d)
                    )
                    break
                if ep:
                    when = ep_done
                elif d.static.is_load:
                    when = _issue_load(st, t, d, now)
                    if when < 0:
                        ap_blocked.append((SLOT_OTHER, None, d))
                        break
                else:
                    when = ap_done
                q.popleft()
                evseq += 1
                heappush(events, (when, evseq, d))
                d.state = ST_ISSUED
                d.issue_cycle = now
                if ep:
                    ep_free -= 1
                    if d.wrong_path:
                        ep_wrong += 1
                    else:
                        slip = t.last_ap_seq - d.seq
                        if slip > 0:
                            slip_total += slip
                else:
                    ap_free -= 1
                    if d.wrong_path:
                        ap_wrong += 1
                    elif d.seq > t.last_ap_seq:
                        t.last_ap_seq = d.seq
        st.evseq = evseq
        counts = stats.slot_counts
        row = counts[0]
        row[SLOT_USEFUL] += ap_width - ap_free - ap_wrong
        if ap_wrong:
            row[SLOT_WRONG_PATH] += ap_wrong
        if ap_free:
            if ap_blocked:
                _account_slots(st, 0, ap_free, ap_blocked)
            else:
                row[SLOT_IDLE] += ap_free
        row = counts[1]
        row[SLOT_USEFUL] += ep_width - ep_free - ep_wrong
        if ep_wrong:
            row[SLOT_WRONG_PATH] += ep_wrong
        if ep_free:
            if ep_blocked:
                _account_slots(st, 1, ep_free, ep_blocked)
            else:
                row[SLOT_IDLE] += ep_free
        issued = ap_width - ap_free + ep_width - ep_free
        if issued:
            stats.issued += issued
            if ap_wrong or ep_wrong:
                stats.issued_wrong_path += ap_wrong + ep_wrong
            stats.slip_total += slip_total
            stats.slip_samples += ep_width - ep_free - ep_wrong


# ----------------------------------------------------------------- store drain


class StoreDrainStage(Stage):
    """Committed stores perform their cache writes in SAQ order."""

    __slots__ = ()
    name = "store-drain"

    def tick(self, st: MachineState) -> None:
        mem = st.mem
        now = st.cycle
        stats = st.stats
        ports = mem.ports
        for t in st.threads:
            saq = t.saq
            while saq.q:
                d = saq.q[0]
                if not d.store_ready or d.mem_done:
                    break
                if mem._ports_used >= ports:
                    return
                status, _when = mem.store(t.salted(d.static.addr), now, t.tid)
                if status == S_BLOCKED:
                    break
                mem._ports_used += 1
                d.mem_done = True
                saq.release_head()
                stats.stores += 1
                if status == S_MISS:
                    stats.store_misses += 1
                elif status != S_HIT:
                    stats.store_merged += 1

    def next_wake_cycle(self, st: MachineState):
        # A drainable head whose write would be *performed* pins the stage
        # to the current cycle; one the memory system structurally refuses
        # only wakes it at the refusal's own horizon — the per-cycle retry
        # counters are bulk-replayed by skip(). A head that is not yet
        # drainable sleeps until commit marks it ready (another stage).
        wake = None
        now = st.cycle
        mem = st.mem
        for t in st.threads:
            q = t.saq.q
            if not q:
                continue
            d = q[0]
            if not d.store_ready or d.mem_done:
                continue
            r = mem.refusal_wake(t.salted(d.static.addr), now, t.tid)
            if r is None:
                return now
            c = r[0]
            if wake is None or c < wake:
                wake = c
        return wake

    def skip(self, st: MachineState, k: int) -> None:
        # every refused drainable head retried once per cycle (ports are
        # never exhausted inside a window, so tick reached every thread)
        mem = st.mem
        now = st.cycle
        for t in st.threads:
            q = t.saq.q
            if not q:
                continue
            d = q[0]
            if not d.store_ready or d.mem_done:
                continue
            r = mem.refusal_wake(t.salted(d.static.addr), now, t.tid)
            if r is not None:
                mem.replay_refusals(r[1], k)


# -------------------------------------------------------------------- dispatch


class DispatchStage(Stage):
    """Steer, rename and allocate queue/ROB/SAQ entries, round-robin
    across threads within the shared dispatch bandwidth."""

    __slots__ = ()
    name = "dispatch"

    @staticmethod
    def can_dispatch(st: MachineState, t: ThreadContext, d: DynInst) -> bool:
        cfg = st.cfg
        if len(t.rob) >= cfg.rob_size:
            return False
        s = d.static
        if s.is_branch and t.unresolved_branches >= cfg.max_unresolved_branches:
            return False
        if s.is_store:
            saq = t.saq
            if len(saq.q) >= saq.capacity:
                return False
        if cfg.decoupled:
            q = t.iq if d.unit == _UNIT_EP else t.aq
        else:
            q = t.uq
        if len(q.q) >= q.capacity:
            return False
        dest = s.dest
        if dest is not None and not t.rename.can_rename_dest(dest):
            return False
        return True

    def tick(self, st: MachineState) -> None:
        # can_dispatch's checks and the dispatch itself, inlined, with
        # RenameFile.rename_inst making the rename check and the rename
        # in one call.  can_dispatch stays for next_wake_cycle; the
        # fast-forward differential suite keeps the two in lockstep.
        cfg = st.cfg
        budget = cfg.dispatch_width
        threads = st.threads
        n = len(threads)
        start = st.rr_dispatch
        st.rr_dispatch = (start + 1) % n
        rob_size = cfg.rob_size
        max_branches = cfg.max_unresolved_branches
        decoupled = cfg.decoupled
        dispatched = 0
        for t in threads[start:] + threads[:start] if start else threads:
            buf = t.fetch_buf
            if not buf:
                continue
            rob = t.rob
            rename = t.rename
            while buf:
                if len(rob) >= rob_size:
                    break
                d = buf[0]
                s = d.static
                if s.is_branch:
                    if t.unresolved_branches >= max_branches:
                        break
                elif s.is_store:
                    saq = t.saq
                    if len(saq.q) >= saq.capacity:
                        break
                if not decoupled:
                    q = t.uq
                elif d.unit == _UNIT_EP:
                    q = t.iq
                else:
                    q = t.aq
                if len(q.q) >= q.capacity:
                    break
                if not rename.rename_inst(d):
                    break
                buf.popleft()
                q.q.append(d)
                if s.is_branch:
                    t.unresolved_branches += 1
                elif s.is_store:
                    saq.push(d)
                rob.append(d)
                dispatched += 1
                budget -= 1
                if not budget:
                    break
            if not budget:
                break
        if dispatched:
            st.stats.dispatched += dispatched

    def next_wake_cycle(self, st: MachineState):
        # every dispatch obstacle (full ROB/queue/SAQ, branch limit,
        # rename pressure, empty fetch buffer) clears only through
        # another stage acting, so dispatch either acts now or sleeps
        for t in st.threads:
            buf = t.fetch_buf
            if buf and self.can_dispatch(st, t, buf[0]):
                return st.cycle
        return None

    def skip(self, st: MachineState, k: int) -> None:
        # the round-robin pointer rotates every cycle, progress or not
        st.rr_dispatch = (st.rr_dispatch + k) % len(st.threads)


# ----------------------------------------------------------------------- fetch


class FetchStage(Stage):
    """I-COUNT thread selection, up to ``fetch_threads`` per cycle, each
    fetching up to ``fetch_width`` instructions and stopping at a
    predicted-taken branch; mispredicted branches switch the thread onto a
    synthetic wrong path until they resolve."""

    __slots__ = ()
    name = "fetch"

    @staticmethod
    def _fetch_thread(st: MachineState, t: ThreadContext) -> None:
        # The trace walk is inlined (ThreadContext.advance stays the
        # reference implementation): per fetched instruction the split
        # version paid a __getitem__, a __len__ and an advance() call.
        # Every fetched instruction takes one sequence number, so the
        # fetch count is the distance the thread's seq moved.
        cfg = st.cfg
        buf = t.fetch_buf
        n = cfg.fetch_buffer - len(buf)
        if n > cfg.fetch_width:
            n = cfg.fetch_width
        now = st.cycle
        tid = t.tid
        seq = first = t.seq
        pos = t.pos
        insts = t.trace._insts
        tlen = len(insts)
        wrong_path = t.wrong_path
        wp_fetched = 0
        while n > 0:
            n -= 1
            if wrong_path:
                d = DynInst(t.next_wp_inst(), tid, seq, True)
                seq += 1
                d.fetch_cycle = now
                buf.append(d)
                wp_fetched += 1
                continue
            if pos >= tlen:  # exhausted (finite program)
                break
            s = insts[pos]
            d = DynInst(s, tid, seq, False)
            seq += 1
            d.fetch_cycle = now
            buf.append(d)
            pos += 1
            if pos >= tlen and (t.wrap or t.play_idx + 1 < len(t.playlist)):
                playlist = t.playlist
                t.play_idx = play_idx = (t.play_idx + 1) % len(playlist)
                t.trace = trace = playlist[play_idx]
                insts = trace._insts
                tlen = len(insts)
                pos = 0
            if s.is_branch:
                stats = st.stats
                pred = t.bht.predict_and_update(s.pc, s.taken)
                d.pred_taken = pred
                stats.branches += 1
                if pred != s.taken:
                    stats.branch_mispredicts += 1
                    t.wrong_path = wrong_path = True
                    # mark_resume, from the already-advanced locals
                    t.branch_resume[d.seq] = (t.play_idx, pos)
                if pred:
                    break  # a predicted-taken branch ends the fetch group
        t.pos = pos
        t.seq = seq
        if seq != first:
            stats = st.stats
            stats.fetched += seq - first
            if wp_fetched:
                stats.fetched_wrong_path += wp_fetched

    def tick(self, st: MachineState) -> None:
        cfg = st.cfg
        threads = st.threads
        n = len(threads)
        buffer = cfg.fetch_buffer
        if n == 1:
            # no competition: skip candidate selection entirely
            t = threads[0]
            if len(t.fetch_buf) < buffer:
                self._fetch_thread(st, t)
            return
        # Candidates in I-COUNT order: fewest buffered instructions first,
        # ties in rotation order from this cycle's start thread (the "rr"
        # policy keeps only the rotation).  One int per candidate encodes
        # both keys, and threads[tid] is thread tid, so the key also
        # names the thread: (key + start) % n.
        start = st.cycle % n
        per_buffered = n if cfg.fetch_policy == "icount" else 0
        keys = []
        for t in threads:
            b = len(t.fetch_buf)
            if b < buffer:
                keys.append(b * per_buffered + (t.tid - start) % n)
        keys.sort()
        for key in keys[: cfg.fetch_threads]:
            self._fetch_thread(st, threads[(key + start) % n])

    def next_wake_cycle(self, st: MachineState):
        # buffer space opens only when dispatch drains it; a thread with
        # room always fetches at least one instruction, so fetch either
        # acts now or sleeps until another stage moves
        buffer = st.cfg.fetch_buffer
        for t in st.threads:
            if len(t.fetch_buf) < buffer and (t.wrong_path or not t.exhausted):
                return st.cycle
        return None


# ----------------------------------------------------------------- composition


def build_stages(cfg) -> tuple[Stage, ...]:
    """The stage list for one machine configuration, in pipeline order."""
    issue: _IssueStage = (
        DecoupledIssueStage() if cfg.decoupled else UnifiedIssueStage()
    )
    return (
        WritebackStage(),
        CommitStage(),
        issue,
        StoreDrainStage(),
        DispatchStage(),
        FetchStage(),
    )


__all__ = [
    "Stage",
    "WritebackStage",
    "CommitStage",
    "DecoupledIssueStage",
    "UnifiedIssueStage",
    "StoreDrainStage",
    "DispatchStage",
    "FetchStage",
    "build_stages",
]
