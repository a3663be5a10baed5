"""Reproduction of *The Synergy of Multithreading and Access/Execute
Decoupling* (Parcerisa & González, HPCA 1999).

A cycle-accurate simulator of a simultaneous-multithreaded decoupled
access/execute processor, plus the synthetic SPEC FP95-like workloads and
experiment harnesses that regenerate every figure of the paper.

Quickstart::

    from repro import paper_config, Processor, WorkloadSpec

    cfg = paper_config(n_threads=4, l2_latency=16)
    workload = WorkloadSpec.rotation(4, seg_instrs=10_000)
    proc = Processor(cfg, workload.playlists())
    stats = proc.run(max_commits=50_000, warmup_commits=5_000)
    print(f"IPC = {stats.ipc:.2f}")
"""

from repro.core.config import MachineConfig, PAPER_BASELINE, paper_config
from repro.core.processor import Processor, SimulationError
from repro.engine import Engine, ResultCache, RunSpec, Sweep
from repro.isa.opclass import OpClass, Unit
from repro.stats.counters import SimStats
from repro.stats.report import format_run, format_table
from repro.workloads.profiles import (
    BENCH_ORDER,
    SPECFP95,
    BenchProfile,
    get_profile,
    load_profiles,
    register_profile,
)
from repro.workloads.spec import (
    WorkloadEntry,
    WorkloadSpec,
    load_workload,
    register_preset,
    workload_preset,
)

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "PAPER_BASELINE",
    "paper_config",
    "Processor",
    "SimulationError",
    "Engine",
    "ResultCache",
    "RunSpec",
    "Sweep",
    "SimStats",
    "OpClass",
    "Unit",
    "BenchProfile",
    "SPECFP95",
    "BENCH_ORDER",
    "WorkloadEntry",
    "WorkloadSpec",
    "get_profile",
    "register_profile",
    "load_profiles",
    "load_workload",
    "workload_preset",
    "register_preset",
    "format_run",
    "format_table",
    "__version__",
]
