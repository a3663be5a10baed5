"""Mean-value/queueing solver: the ``"analytic"`` backend.

Predicts IPC, perceived load-miss latency, bus utilization and the
per-unit issue-slot breakdown for one :class:`~repro.engine.spec.RunSpec`
from a timing-free workload characterization
(:mod:`repro.model.charwalk`) plus the machine configuration — in
under a millisecond per run instead of the cycle kernel's seconds
(0.38-0.39 ms per 1-thread spec and 0.71-0.83 ms per 4-thread spec at
``REPRO_SCALE=0.1``, walks already built, on a 2-vCPU x86 host).

The model is a damped fixed point over aggregate useful IPC ``x``:

1. **Miss traffic.** Line fills per cycle ``lam = x * phi`` (``phi`` =
   fills per instruction from the walk); bus occupancy per line ``B =
   line_bytes / bus_bytes_per_cycle`` plus the dirty-victim write-back
   ratio gives utilization ``rho``, and an M/D/1 term ``rho*B/(2(1-rho))``
   adds queueing delay to the miss round trip
   ``L_m = C_MISS_FIXED + l2_latency + B + Wq``.
2. **Merged misses.** Walk hits whose line age (per-thread instructions)
   is inside the in-flight window ``L_m / CPI_t`` — capped at the run-
   ahead distance, since in-order issue cannot start a load past a
   stalled consumer — are re-classified as secondary misses, so miss
   *ratios* grow with latency and decoupling exactly as the lockup-free
   cache's do, and their consumers pay only the *residual* fill time.
3. **Slip ceiling (decoupled).** The AP can run ahead of the EP until a
   window resource fills: the EP instruction queue (``iq_size/f_ep``),
   the spare physical registers, the ROB, the SAQ, or — usually binding —
   the unresolved-branch limit (``max_unresolved_branches/f_branch``).
   FTOI loss-of-decoupling events collapse the slip, capping it at half
   the inter-FTOI distance. Perceived FP latency is
   ``max(0, L_m - slip/IPC_t)``; integer (index) loads hide only their
   software-pipelined scheduling distance. Non-decoupled machines hide
   only the static load-to-use distance (``ND_USE_FRAC * iter_len``).
4. **Memory CPI.** Loads issue in back-to-back bursts before the first
   consumer can block, so fill latencies within a burst overlap and only
   one stall per *cluster* is exposed: ``c_mem = kappa * einv *
   (phi_c*(L_m - hide_c) + residual_c)`` summed over load classes, with
   ``einv`` the measured clusters-per-fill ratio and ``kappa`` a
   per-mode calibration constant. The same quantity divided by the miss
   rate *is* the paper's perceived-latency statistic.
5. **SMT sharing.** Issue, dispatch, fetch, L1-port and commit widths are
   shared demands (``f_u * T / width``); aggregate throughput is
   additionally capped by the bus (``1/(B*phi*(1+wb))``) and the MSHR
   file (``mshrs/(L_m*phi)``, Little's law again).

Calibration: the ``CAL`` constants below were fitted against the cycle
backend over the paper's Figure-4 grid (``repro-sim conformance`` reports
the current error; DESIGN.md documents the tolerances and the refresh
workflow). Everything else is first-principles from the config and walk.
"""

from __future__ import annotations

from repro.engine.backends import Backend, register_backend
from repro.model.charwalk import (
    CLS_LOAD_FP,
    CLS_LOAD_INT,
    CLS_STORE,
    WorkloadCharacter,
    characterize,
)
from repro.stats.counters import (
    SLOT_IDLE,
    SLOT_OTHER,
    SLOT_USEFUL,
    SLOT_WAIT_FU,
    SLOT_WAIT_MEM,
    SLOT_WRONG_PATH,
    SimStats,
)

#: calibration constants (fitted once against the cycle backend on the
#: Figure-4 grid; see DESIGN.md "Validation methodology")
CAL = {
    # fixed per-miss overhead beyond L2 latency + bus transfer
    # (address generation + fill-to-wakeup + drain asymmetries)
    "C_MISS_FIXED": 6.0,
    # memory-stall scaling, per mode
    "KAPPA_DEC": 1.05,
    "KAPPA_ND": 1.35,
    # slip collapse: achieved slip <= LOD_SLIP_FRAC * inter-FTOI distance
    "LOD_SLIP_FRAC": 0.5,
    # non-decoupled static load-to-use distance, as a fraction of the
    # inner-loop body length
    "ND_USE_FRAC": 0.35,
    # in-order EP chain ILP beyond the raw chain count (restart overlap)
    "EP_CHAIN_BOOST": 1.2,
    # branch misprediction penalty (redirect + refill), cycles
    "BR_PENALTY": 8.0,
    # wrong-path instructions issued per misprediction (slot pollution)
    "WP_ISSUE_PER_MP": 6.0,
    # fraction of the slip window the AP sustains on average (queue
    # occupancy never sits exactly at the ceiling)
    "SLIP_OCCUPANCY": 0.74,
}

_EPS = 1e-9
_MAX_ITER = 200
_DAMP = 0.5
_TOL = 1e-6


# -- merged secondary misses --------------------------------------------------
# A walk hit whose line age ``a`` (per-thread instructions) satisfies
# ``a * cpi_t < l_miss`` would have found the line still in flight: a
# merged miss whose consumer waits the *residual* fill time
# ``l_miss - a*cpi_t`` minus whatever the run-ahead hides. In-order issue
# also caps the window at the run-ahead distance (instructions): a load
# further behind the stalled consumer than that never issues while the
# line is still in flight. Bucket ``b`` holds ages in ``[2**(b-1), 2**b)``;
# buckets fully inside the window count whole (evaluated at their
# midpoint), the straddling bucket linearly. Both helpers return
# per-instruction values, 0 for a window of at most one instruction.


def _reuse_table(hist) -> tuple:
    """The non-empty buckets of one reuse histogram, ascending, as
    ``(lo, hi, count, hi - lo, midpoint)`` floats."""
    table = []
    for b, count in enumerate(hist):
        if count:
            lo = 0.0 if b == 0 else float(1 << (b - 1))
            hi = float(1 << b)
            table.append((lo, hi, float(count), hi - lo, (lo + hi) / 2.0))
    return tuple(table)


def _residual_stall(table, window: float, l_miss: float, cpi_t: float,
                    hide: float, n: int) -> float:
    """Stall cycles per instruction of the merged misses in ``window``."""
    if window <= 1.0:
        return 0.0
    stall = 0.0
    for lo, hi, count, width, mid in table:
        if lo >= window:
            break
        if hi <= window:
            stall += count * max(0.0, l_miss - mid * cpi_t - hide)
        else:
            mid = (lo + window) / 2.0
            stall += (count * ((window - lo) / width)
                      * max(0.0, l_miss - mid * cpi_t - hide))
    return stall / n


def _merged(table, window: float, n: int) -> float:
    """Merged misses per instruction in ``window``."""
    if window <= 1.0:
        return 0.0
    merged = 0.0
    for lo, hi, count, width, _ in table:
        if lo >= window:
            break
        merged += count if hi <= window else count * ((window - lo) / width)
    return merged / n


class AnalyticSolution:
    """All solved quantities for one spec (pre-SimStats synthesis)."""

    __slots__ = (
        "ipc", "l_miss", "rho", "perceived_fp", "perceived_int",
        "merged_fp", "merged_int", "merged_st", "slip", "cpi_parts",
    )


def solve(spec, cfg, char: WorkloadCharacter) -> AnalyticSolution:
    """Run the fixed point for one spec; returns the solved quantities."""
    n = max(1, char.instrs)
    T = cfg.n_threads
    f = char.f
    f_ep = f["falu"] + f["ftoi"]
    f_ap = 1.0 - f_ep
    f_mem = f["load_fp"] + f["load_int"] + f["store"]
    f_apdest = f["ialu"] + f["load_int"] + f["ftoi"]
    f_epdest = f["falu"] + f["load_fp"] + f["itof"]
    mp = char.mispredicts / n

    phi_fp = char.fills_fp / n
    phi_int = char.fills_int / n
    phi_st = char.fills_st / n
    phi = phi_fp + phi_int + phi_st
    fills = char.fills_fp + char.fills_int + char.fills_st
    wb_ratio = char.writebacks / max(1, fills)
    #: prefetch fills per instruction: pure interconnect traffic (their
    #: latency is hidden by definition; their *usefulness* already shows
    #: up as reduced demand fills and short-age reuse entries)
    pf = char.prefetch_fills / n

    ms = cfg.memory()
    fifo_bus = ms.interconnect.policy == "fifo"
    # whole cycles per line transfer, mirroring Bus.cycles_per_line —
    # a fractional B would under-price occupancy for widths that do not
    # divide (or exceed) the line size
    B = float(max(1, -(-cfg.line_bytes // ms.interconnect.bytes_per_cycle)))
    # expected fill-service latency through the level stack: every fill
    # pays the levels it visits (walk-measured reach fractions), a miss
    # past the last level pays the backing-store latency — the classic
    # infinite L2 reduces to exactly cfg.l2_latency
    L2 = 0.0
    reach = float(fills)
    for k, lvl in enumerate(ms.levels[1:]):
        L2 += lvl.hit_latency * (reach / fills if fills else 1.0)
        reach = float(char.outer_misses[k]) if k < len(char.outer_misses) else 0.0
    L2 += ms.memory_latency * (reach / fills if fills else 0.0)
    l0 = ms.levels[0]
    kappa = CAL["KAPPA_DEC"] if cfg.decoupled else CAL["KAPPA_ND"]
    # exposed-stall fraction: one stall per load-fill cluster
    einv = char.load_fill_clusters / max(1, char.fills_fp + char.fills_int)
    einv = min(1.0, max(0.05, einv))

    # dependence-limited EP rate per thread (chains of ep_latency ops;
    # chain restarts from freshly loaded values overlap, which buys a
    # little more ILP than the chain count alone — hence the boost)
    r_chain = min(
        float(cfg.ep_width),
        CAL["EP_CHAIN_BOOST"] * char.ep_chains / cfg.ep_latency,
    )

    # slip window (instructions the AP can run ahead), decoupled only
    if cfg.decoupled:
        windows = [
            cfg.iq_size / max(f_ep, _EPS),
            cfg.saq_size / max(f["store"], _EPS),
            (cfg.ap_regs - 32) / max(f_apdest, _EPS),
            (cfg.ep_regs - 32) / max(f_epdest, _EPS),
            float(cfg.rob_size),
            cfg.max_unresolved_branches / max(f["branch"], _EPS),
        ]
        slip_ceiling = CAL["SLIP_OCCUPANCY"] * min(windows)
        if char.lod_per_instr > 0:
            d_lod = 1.0 / char.lod_per_instr
            slip_ceiling = min(slip_ceiling, CAL["LOD_SLIP_FRAC"] * d_lod)
    else:
        slip_ceiling = 0.0

    # hard throughput caps independent of the fixed point
    fetch_rate = min(T, cfg.fetch_threads) * cfg.fetch_width
    #: interconnect lines per instruction: demand fills + write-backs +
    #: prefetch fills all occupy the shared bus
    traffic = phi * (1.0 + wb_ratio) + pf
    caps = [
        cfg.ap_width / max(f_ap, _EPS),
        cfg.ep_width / max(f_ep, _EPS),
        float(cfg.dispatch_width),
        l0.ports / max(f_mem, _EPS),
        float(fetch_rate),
        float(cfg.commit_width * T),
    ]
    if traffic > 0 and fifo_bus:
        caps.append(1.0 / (B * traffic))
    cap = min(caps)
    x = min(float(T), cap)

    # -- loop invariants ---------------------------------------------------
    # Every floating-point operation below keeps the order it had when
    # these were computed inside the loop, so results are bit-identical
    # (tests/test_pinned_solver.py).
    decoupled = cfg.decoupled
    l_fixed = CAL["C_MISS_FIXED"] + L2 + B
    # run-ahead distance (instructions); a load further behind than this
    # never issues while its line is in flight
    run_ahead = (
        slip_ceiling if decoupled else CAL["ND_USE_FRAC"] * char.iter_len
    )
    int_use_dist = char.int_use_dist
    reuse_fp = _reuse_table(char.reuse[CLS_LOAD_FP])
    reuse_int = _reuse_table(char.reuse[CLS_LOAD_INT])
    c_issue = max(
        f_ap * T / cfg.ap_width,
        f_ep * T / cfg.ep_width,
        f_ep / max(r_chain, _EPS),
        T / cfg.dispatch_width,
        f_mem * T / cfg.l1_ports,
        T / fetch_rate,
        1.0 / cfg.commit_width,
    )
    c_br = mp * CAL["BR_PENALTY"]
    mshrs = l0.mshrs if phi > 0 else None

    for _ in range(_MAX_ITER):
        x_t = x / T
        cpi_t = 1.0 / max(x_t, _EPS)

        # -- miss round trip under bus + MSHR contention -------------------
        rho = min(0.98, x * traffic * B)
        wq = rho * B / (2.0 * max(1.0 - rho, 0.02)) if fifo_bus else 0.0
        l_miss = l_fixed + wq

        # -- run-ahead hiding ----------------------------------------------
        hide_fp = run_ahead * cpi_t
        hide_int = int_use_dist * cpi_t
        if not decoupled:
            hide_int = max(hide_int, hide_fp)

        # -- residual stall of merged secondary misses ----------------------
        window = min(l_miss / max(cpi_t, _EPS), run_ahead)
        resid_fp = _residual_stall(reuse_fp, window, l_miss, cpi_t, hide_fp, n)
        resid_int = _residual_stall(
            reuse_int, window, l_miss, cpi_t, hide_int, n
        )

        # -- exposed memory stall -------------------------------------------
        # A burst of loads issues back-to-back before the first consumer
        # can block, so their fill latencies overlap: only one stall per
        # *cluster* is exposed (einv = clusters per load fill).
        p_prim_fp = max(0.0, l_miss - hide_fp)
        p_prim_int = max(0.0, l_miss - hide_int)
        stall_fp = (phi_fp * p_prim_fp + resid_fp) * einv
        stall_int = (phi_int * p_prim_int + resid_int) * einv

        # -- CPI assembly ---------------------------------------------------
        c_mem = kappa * (stall_fp + stall_int)
        x_new = T / (c_issue + c_mem + c_br)

        # shared-resource ceilings (bus and MSHR by Little's law)
        x_new = min(x_new, cap)
        if mshrs is not None:
            x_new = min(x_new, mshrs / (l_miss * phi))

        if abs(x_new - x) < _TOL:
            x = x_new
            break
        x = (1.0 - _DAMP) * x + _DAMP * x_new

    # merged secondary misses at the last iterate's window; stores drain
    # post-commit and never block the window, so theirs is uncapped
    merged_fp = _merged(reuse_fp, window, n)
    merged_int = _merged(reuse_int, window, n)
    merged_st = _merged(
        _reuse_table(char.reuse[CLS_STORE]), l_miss / max(cpi_t, _EPS), n
    )

    sol = AnalyticSolution()
    sol.ipc = x
    sol.l_miss = l_miss
    sol.rho = min(1.0, x * traffic * B)
    # the perceived-latency statistic averages consumer stall cycles over
    # all misses (primary + merged), which is exactly stall / miss-rate
    sol.perceived_fp = stall_fp / max(phi_fp + merged_fp, _EPS)
    sol.perceived_int = stall_int / max(phi_int + merged_int, _EPS)
    sol.merged_fp = merged_fp
    sol.merged_int = merged_int
    sol.merged_st = merged_st
    sol.slip = slip_ceiling
    sol.cpi_parts = (c_issue, c_mem, c_br)
    return sol


def _synthesize_stats(spec, cfg, char: WorkloadCharacter,
                      sol: AnalyticSolution) -> SimStats:
    """Fill a complete SimStats from the solved model, with exact
    issue-slot conservation (``cycles * width == sum(breakdown)``)."""
    stats = SimStats()
    committed = char.instrs
    cycles = max(1, int(round(committed / max(sol.ipc, _EPS))))
    T = cfg.n_threads

    stats.cycles = cycles
    stats.committed = committed
    base, rem = divmod(committed, T)
    stats.committed_per_thread = {
        t: base + (1 if t < rem else 0) for t in range(T)
    }

    # mix (walk totals are exact for the measured window)
    stats.branches = char.branches
    stats.branch_mispredicts = char.mispredicts
    stats.squashes = char.mispredicts
    wp_issued = int(round(char.mispredicts * CAL["WP_ISSUE_PER_MP"]))
    stats.squashed_instructions = wp_issued
    stats.fetched = committed + 2 * wp_issued
    stats.fetched_wrong_path = 2 * wp_issued
    stats.dispatched = committed + wp_issued
    stats.issued = committed + wp_issued
    stats.issued_wrong_path = wp_issued

    stats.loads_fp = char.loads_fp
    stats.loads_int = char.loads_int
    stats.stores = char.stores
    stats.load_misses_fp = char.fills_fp
    stats.load_misses_int = char.fills_int
    stats.store_misses = char.fills_st
    stats.load_merged_fp = int(round(sol.merged_fp * char.instrs))
    stats.load_merged_int = int(round(sol.merged_int * char.instrs))
    stats.store_merged = int(round(sol.merged_st * char.instrs))

    misses_fp = stats.load_misses_fp + stats.load_merged_fp
    misses_int = stats.load_misses_int + stats.load_merged_int
    stats.perceived_stall_fp = int(round(sol.perceived_fp * misses_fp))
    stats.perceived_stall_int = int(round(sol.perceived_int * misses_int))

    # decoupling diagnostics
    ep_issued = char.falu + char.ftoi
    stats.slip_samples = ep_issued
    stats.slip_total = int(round(sol.slip * ep_issued)) if cfg.decoupled else 0

    stats.bus_utilization = sol.rho
    stats.line_fills = char.fills_fp + char.fills_int + char.fills_st
    stats.writebacks = char.writebacks
    stats.mshr_alloc_failures = 0
    stats.level_stats = {
        lvl.name: {
            "hits": char.outer_hits[k] if k < len(char.outer_hits) else 0,
            "misses": (
                char.outer_misses[k] if k < len(char.outer_misses) else 0
            ),
            "writebacks": (
                char.outer_writebacks[k]
                if k < len(char.outer_writebacks) else 0
            ),
            "mshr_failures": 0,
        }
        for k, lvl in enumerate(cfg.memory().levels[1:])
    }
    stats.prefetch_fills = char.prefetch_fills
    stats.prefetch_hits = char.prefetch_hits

    # -- issue-slot breakdown, exactly conserved ---------------------------
    useful_ap = (char.ialu + char.loads_fp + char.loads_int + char.stores
                 + char.branches + char.itof)
    useful_ep = char.falu + char.ftoi
    _fill_slots(stats, 0, cycles * cfg.ap_width, useful_ap,
                wp_issued, stats.perceived_stall_int, sol, cfg)
    _fill_slots(stats, 1, cycles * cfg.ep_width, useful_ep,
                0, stats.perceived_stall_fp, sol, cfg)
    return stats


def _fill_slots(stats: SimStats, unit: int, total: int, useful: int,
                wrong_path: int, perceived_stalls: int,
                sol: AnalyticSolution, cfg) -> None:
    """One unit's slot row: useful/wrong-path are exact counts; the
    remaining slots split between wait-mem (perceived-stall cycles block
    the whole unit width), wait-FU (dependence), other (structural) and
    idle, conserving ``total`` exactly."""
    row = stats.slot_counts[unit]
    useful = min(useful, total)
    wrong_path = min(wrong_path, total - useful)
    rem = total - useful - wrong_path
    width = cfg.ap_width if unit == 0 else cfg.ep_width
    wait_mem = min(rem, int(round(perceived_stalls * max(1, width - 1))))
    rem -= wait_mem
    # dependence (wait-FU) share of what's left, from the CPI split
    c_issue, c_mem, c_br = sol.cpi_parts
    busy = c_issue + c_mem + c_br
    fu_frac = (c_issue / busy) if busy > 0 else 0.0
    wait_fu = min(rem, int(round(rem * fu_frac * 0.5)))
    rem -= wait_fu
    row[SLOT_USEFUL] = useful
    row[SLOT_WRONG_PATH] = wrong_path
    row[SLOT_WAIT_MEM] = wait_mem
    row[SLOT_WAIT_FU] = wait_fu
    row[SLOT_OTHER] = 0
    row[SLOT_IDLE] = rem


class AnalyticBackend(Backend):
    """The mean-value fast model (see module docstring)."""

    name = "analytic"
    #: a run costs milliseconds, far below a worker process's start-up:
    #: never worth a worker process
    process_pool_worthwhile = False

    def run(self, spec) -> SimStats:
        cfg = spec.machine_config()
        char = characterize(spec, cfg)
        sol = solve(spec, cfg, char)
        return _synthesize_stats(spec, cfg, char, sol)


register_backend(AnalyticBackend())
