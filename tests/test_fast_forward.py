"""Differential tests: event-horizon fast-forward vs per-cycle stepping.

The staged kernel's fast-forward must be *bit-identical* to the plain
cycle-by-cycle walk — same cycle counts, same issue-slot attribution, same
perceived-latency stalls, same refusal counters, same everything
``SimStats.comparable_dict()`` can see (only the scheduler's own
``ff_jumps``/``ff_cycles_skipped`` diagnostics may differ between modes).
These tests drive the Figure-3 grid plus randomized full-idle and
partial-idle configurations through both stepping modes in chunks, calling
``check_invariants()`` between chunks, and assert exact equality of the
comparable statistics dictionaries.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import MachineConfig, paper_config
from repro.core.processor import Processor, SimulationError
from repro.core.stages import (
    DecoupledIssueStage,
    UnifiedIssueStage,
    build_stages,
)
from repro.engine.spec import RunSpec
from repro.workloads.spec import WorkloadSpec


def run_checked(spec: RunSpec, fast_forward: bool, slices: int = 6):
    """Execute a spec in commit-budget slices, checking structural
    invariants between slices; returns ``(proc, final_stats)``."""
    proc, kw = spec.instantiate()
    total = kw["max_commits"]
    warmup = kw["warmup_commits"]
    per_slice = max(1, total // slices)
    stats = None
    first = True
    while True:
        done = stats.committed if stats is not None else 0
        remaining = total - done
        if remaining <= 0:
            break
        stats = proc.run(
            max_commits=min(per_slice, remaining),
            warmup_commits=warmup if first else 0,
            max_cycles=kw["max_cycles"],
            fast_forward=fast_forward,
        )
        first = False
        proc.check_invariants()
    return proc, stats


def assert_differential(spec: RunSpec) -> Processor:
    """Run ``spec`` both ways and assert bit-identical statistics."""
    proc_ff, stats_ff = run_checked(spec, fast_forward=True)
    proc_step, stats_step = run_checked(spec, fast_forward=False)
    assert proc_step.ff_cycles_skipped == 0
    d_ff, d_step = stats_ff.comparable_dict(), stats_step.comparable_dict()
    diff = {
        k: (d_ff[k], d_step[k]) for k in d_ff if d_ff[k] != d_step[k]
    }
    assert not diff, f"fast-forward diverged from stepping on {spec.label()}: {diff}"
    assert proc_ff.cycle == proc_step.cycle
    return proc_ff


# Small budgets: the differential property holds cycle-for-cycle, so short
# runs exercise it as strictly as long ones while keeping tier-1 fast.
_BUDGET = dict(commits_per_thread=1200, warmup_per_thread=400, scale=1.0,
               seg_instrs=4000)


class TestFigure3Grid:
    """The paper's Figure-3 grid: 1-6 threads, decoupled, L2 = 16."""

    @pytest.mark.parametrize("n_threads", [1, 2, 3, 4, 5, 6])
    def test_bit_identical(self, n_threads):
        assert_differential(
            RunSpec.multiprogrammed(n_threads, l2_latency=16, **_BUDGET)
        )


class TestRandomizedConfigs:
    """Two seeded-random machine configurations (the issue's satellite)."""

    @pytest.mark.parametrize("draw", [0, 1])
    def test_bit_identical(self, draw):
        rng = random.Random(0x20260729 + draw)
        spec = RunSpec.multiprogrammed(
            rng.choice([1, 2, 3]),
            l2_latency=rng.choice([32, 64, 128, 256]),
            decoupled=rng.random() < 0.5,
            seed=rng.randrange(100),
            commits_per_thread=1000,
            warmup_per_thread=300,
            scale=1.0,
            seg_instrs=4000,
            iq_size=rng.choice([16, 48, 96]),
            mshrs=rng.choice([4, 16, 32]),
            fetch_threads=rng.choice([1, 2]),
        )
        assert_differential(spec)


class TestIdleHeavyWorkloads:
    """Where the fast-forward actually earns its keep: long-latency
    machines that idle most cycles must still match exactly."""

    def test_fig1_long_latency_single(self):
        proc = assert_differential(
            RunSpec.single("su2cor", l2_latency=256, scale=1.0,
                           commits=4000, warmup=1000)
        )
        assert proc.ff_cycles_skipped > 0  # the windows really were taken

    def test_non_decoupled_long_latency(self):
        proc = assert_differential(
            RunSpec.multiprogrammed(2, l2_latency=128, decoupled=False,
                                    commits_per_thread=1500,
                                    warmup_per_thread=300,
                                    scale=1.0, seg_instrs=4000)
        )
        assert proc.ff_cycles_skipped > 0


class TestPrefetcherConfigs:
    """Miss-triggered prefetchers mutate MSHR/bus state only inside
    demand accesses, so fast-forward must stay bit-identical with them
    enabled — on both the classic and a finite-L2 hierarchy."""

    @pytest.mark.parametrize("preset", ["nextline", "stream"])
    def test_bit_identical_with_prefetch(self, preset):
        from repro.memory.spec import mem_preset

        proc = assert_differential(
            RunSpec.single("su2cor", l2_latency=128, scale=1.0,
                           commits=3000, warmup=800,
                           mem=mem_preset(preset))
        )
        assert proc.ff_cycles_skipped > 0          # windows still taken
        assert proc.mem.prefetch_fills > 0         # prefetcher really ran

    def test_bit_identical_finite_l2(self):
        from repro.memory.spec import mem_preset

        assert_differential(
            RunSpec.multiprogrammed(2, l2_latency=64,
                                    mem=mem_preset("l2_small"),
                                    commits_per_thread=1200,
                                    warmup_per_thread=300,
                                    scale=1.0, seg_instrs=4000)
        )


class TestPartialIdleWindows:
    """The event-horizon tentpole: jumps must fire (and stay
    bit-identical) in windows where some stage is *not* operand-blocked —
    issue heads retrying against exhausted MSHR files, store heads
    retrying against pinned L1 sets — which the old all-quiescent
    protocol walked cycle by cycle."""

    def test_mshr_starved_threads_skip(self):
        """With 2 MSHRs and 4 memory-hungry threads, most stall windows
        contain a structurally refused load head; the horizon must still
        fire there and the refusal counters must match the walk's."""
        spec = RunSpec.multiprogrammed(
            4, l2_latency=128, mshrs=2, commits_per_thread=900,
            warmup_per_thread=200, scale=1.0, seg_instrs=4000,
        )
        proc = assert_differential(spec)
        assert proc.ff_cycles_skipped > 0
        assert proc.stats.blocked_requests > 0  # refusals really happened

    def test_store_drain_refusal_skip(self):
        """Same property on the unified machine, where the store drain's
        retries against a long-latency hierarchy dominate."""
        spec = RunSpec.multiprogrammed(
            2, l2_latency=256, decoupled=False, mshrs=4,
            commits_per_thread=900, warmup_per_thread=200,
            scale=1.0, seg_instrs=4000,
        )
        proc = assert_differential(spec)
        assert proc.ff_cycles_skipped > 0


class TestRandomizedPartialIdle:
    """Seeded-random partial-idle scenarios over exotic hierarchies: a
    finite banked L2, a stream prefetcher, split per-thread L1 slices and
    mixed decoupled/unified machines."""

    @pytest.mark.parametrize("draw", [0, 1, 2, 3])
    def test_bit_identical(self, draw):
        from repro.memory.spec import mem_preset

        rng = random.Random(0x20260807 + draw)
        mem = [
            mem_preset("l2_small").override("L2.banks", 2),
            mem_preset("classic").override("L1.shared", False),
            mem_preset("stream"),
            mem_preset("l2_small").override("prefetch_kind", "nextline"),
        ][draw]
        spec = RunSpec.multiprogrammed(
            rng.choice([2, 3, 4]),
            l2_latency=rng.choice([64, 128, 256]),
            decoupled=rng.random() < 0.5,
            mshrs=rng.choice([2, 4]),
            seed=rng.randrange(100),
            mem=mem,
            commits_per_thread=800,
            warmup_per_thread=200,
            scale=1.0,
            seg_instrs=4000,
        )
        proc = assert_differential(spec)
        assert proc.ff_cycles_skipped > 0


class TestDeadlockEquivalence:
    """The deadlock horizon must fire at the same cycle, with the same
    statistics, whether reached by stepping or by a fast-forward jump."""

    def _machine(self):
        cfg = paper_config(1, decoupled=True, l2_latency=500,
                           deadlock_cycles=60)
        playlists = WorkloadSpec.single("tomcatv", seg_instrs=2000).playlists(0)
        return Processor(cfg, playlists, seed=0)

    def test_same_cycle_and_stats(self):
        outcomes = []
        skipped = []
        for ff in (True, False):
            proc = self._machine()
            with pytest.raises(SimulationError) as exc:
                proc.run(max_commits=2000, max_cycles=1_000_000,
                         fast_forward=ff)
            outcomes.append(
                (proc.cycle, proc.stats.comparable_dict(), str(exc.value))
            )
            skipped.append(proc.ff_cycles_skipped)
        assert outcomes[0] == outcomes[1]
        # the jump really crossed part of the no-commit window — i.e. the
        # watchdog tripped at the same cycle *because* skipped cycles
        # count toward the threshold, not because no jump happened
        assert skipped[0] > 0
        assert skipped[1] == 0

    def test_structural_deadlock_same_cycle(self):
        """A machine wedged on *structural* refusals (every MSHR held by
        fills that outlive the deadlock horizon) must trip the watchdog at
        the same cycle with fast-forward on and off — the partial-idle
        jump may never leap over the threshold."""
        cfg = paper_config(2, decoupled=True, l2_latency=2000, mshrs=2,
                           deadlock_cycles=80)
        outcomes = []
        for ff in (True, False):
            workload = WorkloadSpec.rotation(
                2, names=["su2cor", "tomcatv"], seg_instrs=2000
            )
            proc = Processor(cfg, workload.playlists(0), seed=0)
            with pytest.raises(SimulationError) as exc:
                proc.run(max_commits=4000, max_cycles=1_000_000,
                         fast_forward=ff)
            outcomes.append(
                (proc.cycle, proc.stats.comparable_dict(), str(exc.value))
            )
        assert outcomes[0] == outcomes[1]


class TestFiniteProgramDrain:
    """Finite (non-wrapping) runs must drain to the same final state."""

    def test_finished_identical(self):
        from repro.isa.instruction import StaticInst
        from repro.isa.opclass import OpClass
        from repro.isa.trace import Trace

        insts = []
        pc = 0x1000
        for i in range(40):
            insts.append(StaticInst(pc, OpClass.LOAD_F, dest=40 + (i % 4),
                                    srcs=(2,), addr=0x2000 + 64 * i))
            insts.append(StaticInst(pc + 4, OpClass.FALU, dest=36,
                                    srcs=(36, 40 + (i % 4))))
            pc += 8
        tr = Trace(insts, name="ff-drain")
        results = []
        for ff in (True, False):
            cfg = MachineConfig(l2_latency=200)
            proc = Processor(cfg, [[tr]], wrap=False)
            stats = proc.run(max_cycles=50_000, fast_forward=ff)
            assert proc.finished()
            results.append(stats.comparable_dict())
        assert results[0] == results[1]


class TestStagedKernelComposition:
    """The stage list is composed from the config, not branched at tick."""

    def test_decoupled_stage_list(self):
        stages = build_stages(MachineConfig(decoupled=True))
        assert any(isinstance(s, DecoupledIssueStage) for s in stages)
        assert not any(isinstance(s, UnifiedIssueStage) for s in stages)

    def test_unified_stage_list(self):
        stages = build_stages(MachineConfig(decoupled=False))
        assert any(isinstance(s, UnifiedIssueStage) for s in stages)
        assert not any(isinstance(s, DecoupledIssueStage) for s in stages)

    def test_stage_order(self):
        names = [s.name for s in build_stages(MachineConfig())]
        assert names == [
            "writeback", "commit", "issue/decoupled", "store-drain",
            "dispatch", "fetch",
        ]

    def test_deadlock_cycles_from_config(self):
        cfg = MachineConfig(deadlock_cycles=123)
        workload = WorkloadSpec.single("tomcatv", seg_instrs=1000)
        proc = Processor(cfg, workload.playlists(0))
        assert proc.deadlock_cycles == 123
        proc.deadlock_cycles = 456  # per-instance override still allowed
        assert proc.state.deadlock_cycles == 456

    def test_deadlock_cycles_validated(self):
        with pytest.raises(ValueError):
            MachineConfig(deadlock_cycles=0)

    def test_finished_ignores_queues_of_other_mode(self):
        """finished() must only inspect the queues the configured mode
        actually uses (satellite fix: it used to touch all of them)."""
        from repro.isa.instruction import DynInst, StaticInst
        from repro.isa.opclass import OpClass
        from repro.isa.trace import Trace

        tr = Trace([StaticInst(0x1000, OpClass.IALU, dest=4, srcs=(4,))],
                   name="one")
        cfg = MachineConfig(decoupled=False)
        proc = Processor(cfg, [[tr]], wrap=False)
        proc.run(max_cycles=1000)
        assert proc.finished()
        # junk in the decoupled-mode queues is invisible to a unified machine
        ghost = DynInst(tr[0], 0, 999, False)
        proc.threads[0].aq.push(ghost)
        proc.threads[0].iq.push(ghost)
        assert proc.finished()
