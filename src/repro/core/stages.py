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

_OP_BRANCH = OpClass.BRANCH
_OP_LOAD_F = OpClass.LOAD_F
_OP_LOAD_I = OpClass.LOAD_I
_OP_STORE_F = OpClass.STORE_F
_OP_STORE_I = OpClass.STORE_I
_UNIT_AP = Unit.AP
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
            if inst.static.op == _OP_BRANCH and not inst.wrong_path:
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
            if d.static.op == _OP_BRANCH:
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
            n = width
            rob = t.rob
            if not rob:
                continue
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
    op = s.op
    if op != _OP_LOAD_F and op != _OP_LOAD_I:
        return _ACT
    fwd = t.saq.find_older_match(s.addr, d.seq)
    if fwd is not None:
        if fwd.pdata >= 0 and not t.rename.ready[fwd.pdata]:
            return None  # the store's data arrives with an event
        return _ACT      # forwarding would succeed: the load issues
    return st.mem.refusal_wake(t.salted(s.addr), st.cycle, t.tid) or _ACT


def _try_issue(st: MachineState, t: ThreadContext, d: DynInst, now: int):
    """Attempt to issue one instruction.

    Returns ``None`` on success, else ``(slot_category, load, consumer)``
    describing why the queue head is blocked.
    """
    # operand scan: inlined copy of _blocked_reason (the hottest call site;
    # the fast-forward differential test enforces the two stay in lockstep)
    rename = t.rename
    ready = rename.ready
    for p in d.psrcs:
        if not ready[p]:
            prod = rename.producer[p]
            if prod is not None and prod.load_miss and prod.state == ST_ISSUED:
                return (SLOT_WAIT_MEM, prod, d)
            return (SLOT_WAIT_FU, None, d)
    s = d.static
    op = s.op
    stats = st.stats
    # each site below pushes its completion event onto ``st.events``
    # inline: one method call per issued instruction adds up
    if op == _OP_LOAD_F or op == _OP_LOAD_I:
        mem = st.mem
        fwd = t.saq.find_older_match(s.addr, d.seq)
        if fwd is not None:
            if fwd.pdata >= 0 and not ready[fwd.pdata]:
                return (SLOT_OTHER, None, d)
            # store-to-load forwarding: completes like a hit
            when = now + 1 + mem.hit_latency
            if not d.wrong_path:
                if op == _OP_LOAD_F:
                    stats.loads_fp += 1
                else:
                    stats.loads_int += 1
        else:
            if mem._ports_used >= mem.ports:
                return (SLOT_OTHER, None, d)
            status, when = mem.load(t.salted(s.addr), now, t.tid)
            if status == S_BLOCKED:
                return (SLOT_OTHER, None, d)
            mem._ports_used += 1
            when += 1  # +1: address generation
            if status != S_HIT:
                d.load_miss = True
            if not d.wrong_path:
                if op == _OP_LOAD_F:
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
    elif d.unit == _UNIT_AP:
        # IALU, BRANCH, ITOF, store address generation
        when = now + st.cfg.ap_latency
    else:
        # FALU, FTOI
        when = now + st.cfg.ep_latency
    evseq = st.evseq + 1
    st.evseq = evseq
    heappush(st.events, (when, evseq, d))
    d.state = ST_ISSUED
    d.issue_cycle = now
    stats.issued += 1
    unit = int(d.unit)
    if d.wrong_path:
        stats.issued_wrong_path += 1
        stats.slot_counts[unit][SLOT_WRONG_PATH] += 1
    else:
        stats.slot_counts[unit][SLOT_USEFUL] += 1
        if unit == 1:
            # slip: how far the AP's issue point runs ahead of the EP's
            slip = t.last_ap_seq - d.seq
            if slip > 0:
                stats.slip_total += slip
            stats.slip_samples += 1
        elif d.seq > t.last_ap_seq:
            t.last_ap_seq = d.seq
    return None


def _account_slots(
    st: MachineState, unit: int, free: int, blocked: list, times: int = 1
) -> None:
    """Attribute empty issue slots and perceived-latency stall cycles.

    ``times`` repeats the identical per-cycle attribution — used by the
    fast-forward to bulk-account a run of cycles that share one blocked
    snapshot and round-robin phase.
    """
    stats = st.stats
    if free <= 0:
        return
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
    wake computation (the earliest cycle any width-gated queue head could
    issue or change shape) and bulk slot/refusal accounting over a
    fast-forward window."""

    __slots__ = ()

    def _wake_heads(self, st: MachineState, t: ThreadContext):
        """Yield the width-gated queue heads of one thread — exactly the
        instructions :meth:`tick` would evaluate first per queue."""
        raise NotImplementedError

    def next_wake_cycle(self, st: MachineState):
        wake = None
        for t in st.threads:
            for d in self._wake_heads(st, t):
                w = _issue_head_wake(st, t, d)
                if w is None:
                    continue
                if w is _ACT:
                    return st.cycle
                c = w[0]
                if wake is None or c < wake:
                    wake = c
        return wake

    def _probe(self, st: MachineState, start: int) -> tuple[list, list]:
        """Blocked-head snapshot per unit for one round-robin phase,
        mirroring the visiting order of :meth:`tick` when nothing can
        issue (the fast-forward eligibility condition)."""
        raise NotImplementedError

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
        # every thread's gated heads were visited every cycle regardless
        # of round-robin phase): replay those k refusals per head.
        mem = st.mem
        for t in st.threads:
            for d in self._wake_heads(st, t):
                w = _issue_head_wake(st, t, d)
                if w is not None and w is not _ACT:
                    mem.replay_refusals(w[1], k)


class DecoupledIssueStage(_IssueStage):
    """In-order issue from the per-thread AP/EP queue pair — the paper's
    decoupling mechanism; all threads compete round-robin for the slots."""

    __slots__ = ()
    name = "issue/decoupled"

    def _wake_heads(self, st: MachineState, t: ThreadContext):
        cfg = st.cfg
        if cfg.ap_width and t.aq.q:
            yield t.aq.q[0]
        if cfg.ep_width and t.iq.q:
            yield t.iq.q[0]

    def tick(self, st: MachineState) -> None:
        cfg = st.cfg
        now = st.cycle
        threads = st.threads
        n = len(threads)
        start = st.rr_issue
        st.rr_issue = (start + 1) % n
        ap_free = cfg.ap_width
        ap_blocked: list = []
        for i in range(n):
            if not ap_free:
                break
            t = threads[(start + i) % n]
            q = t.aq.q
            while ap_free and q:
                res = _try_issue(st, t, q[0], now)
                if res is None:
                    q.popleft()
                    ap_free -= 1
                else:
                    ap_blocked.append(res)
                    break
        ep_free = cfg.ep_width
        ep_blocked: list = []
        for i in range(n):
            if not ep_free:
                break
            t = threads[(start + i) % n]
            q = t.iq.q
            while ep_free and q:
                res = _try_issue(st, t, q[0], now)
                if res is None:
                    q.popleft()
                    ep_free -= 1
                else:
                    ep_blocked.append(res)
                    break
        _account_slots(st, 0, ap_free, ap_blocked)
        _account_slots(st, 1, ep_free, ep_blocked)

    def _probe(self, st: MachineState, start: int) -> tuple[list, list]:
        threads = st.threads
        n = len(threads)
        cfg = st.cfg
        ap_blocked: list = []
        ep_blocked: list = []
        # a head with all operands ready inside a window is a structurally
        # refused (or forwarding-data-blocked) load; tick records it as
        # (SLOT_OTHER, None, head), exactly what _try_issue returns
        if cfg.ap_width:
            for i in range(n):
                t = threads[(start + i) % n]
                q = t.aq.q
                if q:
                    d = q[0]
                    r = _blocked_reason(t, d)
                    ap_blocked.append(r if r is not None else (SLOT_OTHER, None, d))
        if cfg.ep_width:
            for i in range(n):
                t = threads[(start + i) % n]
                q = t.iq.q
                if q:
                    d = q[0]
                    r = _blocked_reason(t, d)
                    ep_blocked.append(r if r is not None else (SLOT_OTHER, None, d))
        return ap_blocked, ep_blocked


class UnifiedIssueStage(_IssueStage):
    """The paper's degenerate baseline: one unified in-order queue per
    thread feeds both units, so a stalled head blocks everything younger."""

    __slots__ = ()
    name = "issue/unified"

    def _wake_heads(self, st: MachineState, t: ThreadContext):
        q = t.uq.q
        if q:
            d = q[0]
            cfg = st.cfg
            if cfg.ap_width if d.unit == _UNIT_AP else cfg.ep_width:
                yield d

    def tick(self, st: MachineState) -> None:
        cfg = st.cfg
        now = st.cycle
        threads = st.threads
        n = len(threads)
        start = st.rr_issue
        st.rr_issue = (start + 1) % n
        ap_free = cfg.ap_width
        ep_free = cfg.ep_width
        ap_blocked: list = []
        ep_blocked: list = []
        for i in range(n):
            if not ap_free and not ep_free:
                break
            t = threads[(start + i) % n]
            q = t.uq.q
            while q:
                d = q[0]
                if d.unit == _UNIT_AP:
                    if not ap_free:
                        break
                elif not ep_free:
                    break
                res = _try_issue(st, t, d, now)
                if res is None:
                    q.popleft()
                    if d.unit == _UNIT_AP:
                        ap_free -= 1
                    else:
                        ep_free -= 1
                else:
                    if d.unit == _UNIT_AP:
                        ap_blocked.append(res)
                    else:
                        ep_blocked.append(res)
                    break
        _account_slots(st, 0, ap_free, ap_blocked)
        _account_slots(st, 1, ep_free, ep_blocked)

    def _probe(self, st: MachineState, start: int) -> tuple[list, list]:
        threads = st.threads
        n = len(threads)
        cfg = st.cfg
        ap_blocked: list = []
        ep_blocked: list = []
        if cfg.ap_width or cfg.ep_width:
            for i in range(n):
                t = threads[(start + i) % n]
                q = t.uq.q
                if not q:
                    continue
                d = q[0]
                if d.unit == _UNIT_AP:
                    if cfg.ap_width:
                        r = _blocked_reason(t, d)
                        ap_blocked.append(
                            r if r is not None else (SLOT_OTHER, None, d)
                        )
                elif cfg.ep_width:
                    r = _blocked_reason(t, d)
                    ep_blocked.append(
                        r if r is not None else (SLOT_OTHER, None, d)
                    )
        return ap_blocked, ep_blocked


# ----------------------------------------------------------------- store drain


class StoreDrainStage(Stage):
    """Committed stores perform their cache writes in SAQ order."""

    __slots__ = ()
    name = "store-drain"

    def tick(self, st: MachineState) -> None:
        mem = st.mem
        now = st.cycle
        stats = st.stats
        for t in st.threads:
            saq = t.saq
            while saq.q:
                d = saq.q[0]
                if not d.store_ready or d.mem_done:
                    break
                if not mem.port_available():
                    return
                status, _when = mem.store(t.salted(d.static.addr), now, t.tid)
                if status == S_BLOCKED:
                    break
                mem.claim_port()
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
        op = s.op
        if op == _OP_BRANCH and t.unresolved_branches >= cfg.max_unresolved_branches:
            return False
        if op == _OP_STORE_F or op == _OP_STORE_I:
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
        # can_dispatch's checks and the dispatch itself, inlined with the
        # per-tick config hoisted into locals: this is the hottest stage
        # on busy workloads.  can_dispatch stays for next_wake_cycle; the
        # fast-forward differential suite keeps the two copies of its
        # checks in lockstep.
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
        for i in range(n):
            if not budget:
                break
            t = threads[(start + i) % n]
            buf = t.fetch_buf
            if not buf:
                continue
            rob = t.rob
            rename = t.rename
            saq = t.saq
            while budget and buf:
                d = buf[0]
                if len(rob) >= rob_size:
                    break
                s = d.static
                op = s.op
                is_store = op == _OP_STORE_F or op == _OP_STORE_I
                if (
                    op == _OP_BRANCH
                    and t.unresolved_branches >= max_branches
                ):
                    break
                if is_store and len(saq.q) >= saq.capacity:
                    break
                if decoupled:
                    q = t.iq if d.unit == _UNIT_EP else t.aq
                else:
                    q = t.uq
                if len(q.q) >= q.capacity:
                    break
                dest = s.dest
                if dest is not None and not rename.can_rename_dest(dest):
                    break
                buf.popleft()
                if is_store:
                    srcs = s.srcs
                    d.psrcs = rename.srcs_of(srcs[:1])
                    if len(srcs) > 1:
                        data = srcs[1]
                        if data != 31 and data != 63:  # hardwired zeros
                            d.pdata = rename.map[data]
                    saq.push(d)
                else:
                    d.psrcs = rename.srcs_of(s.srcs)
                if dest is not None:
                    pdest, d.old_pdest = rename.rename_dest(dest)
                    d.pdest = pdest
                    if pdest >= 0:
                        rename.producer[pdest] = d
                if op == _OP_BRANCH:
                    t.unresolved_branches += 1
                q.q.append(d)
                rob.append(d)
                dispatched += 1
                budget -= 1
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
        cfg = st.cfg
        stats = st.stats
        buf = t.fetch_buf
        buf_append = buf.append
        n = min(cfg.fetch_width, cfg.fetch_buffer - len(buf))
        now = st.cycle
        tid = t.tid
        fetched = 0
        wp_fetched = 0
        trace = t.trace
        insts = trace._insts
        tlen = len(insts)
        playlist = t.playlist
        wrap = t.wrap
        bht = t.bht
        seq = t.seq
        pos = t.pos
        while n > 0:
            if t.wrong_path:
                s = t.next_wp_inst()
                d = DynInst(s, tid, seq, True)
                seq += 1
                d.fetch_cycle = now
                buf_append(d)
                fetched += 1
                wp_fetched += 1
                n -= 1
                continue
            if pos >= tlen:  # exhausted (finite program)
                break
            s = insts[pos]
            d = DynInst(s, tid, seq, False)
            seq += 1
            d.fetch_cycle = now
            pos += 1
            if pos >= tlen and (wrap or t.play_idx + 1 < len(playlist)):
                play_idx = (t.play_idx + 1) % len(playlist)
                t.play_idx = play_idx
                trace = playlist[play_idx]
                t.trace = trace
                insts = trace._insts
                tlen = len(insts)
                pos = 0
            buf_append(d)
            fetched += 1
            n -= 1
            if s.op == _OP_BRANCH:
                pred = bht.predict_and_update(s.pc, s.taken)
                d.pred_taken = pred
                stats.branches += 1
                if pred != s.taken:
                    stats.branch_mispredicts += 1
                    t.wrong_path = True
                    # mark_resume, from the already-advanced locals
                    t.branch_resume[d.seq] = (t.play_idx, pos)
                if pred:
                    break  # a predicted-taken branch ends the fetch group
        t.pos = pos
        t.seq = seq
        if fetched:
            stats.fetched += fetched
            if wp_fetched:
                stats.fetched_wrong_path += wp_fetched

    def tick(self, st: MachineState) -> None:
        cfg = st.cfg
        threads = st.threads
        n = len(threads)
        buffer = cfg.fetch_buffer
        if n == 1 and cfg.fetch_threads > 0:
            # no competition: skip candidate selection entirely
            t = threads[0]
            if len(t.fetch_buf) < buffer:
                self._fetch_thread(st, t)
            return
        cands = [t for t in threads if len(t.fetch_buf) < buffer]
        if not cands:
            return
        start = st.cycle % n
        if cfg.fetch_policy == "icount":
            cands.sort(key=lambda t: (len(t.fetch_buf), (t.tid - start) % n))
        else:
            cands.sort(key=lambda t: (t.tid - start) % n)
        for t in cands[: cfg.fetch_threads]:
            self._fetch_thread(st, t)

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
