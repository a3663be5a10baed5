"""Synthetic SPEC FP95-like workloads (traces, profiles) and the
declarative workload API (:mod:`repro.workloads.spec`), whose
``playlists()`` builds every context's trace playlist."""

from repro.workloads.profiles import (
    BENCH_ORDER,
    SCENARIOS,
    SPECFP95,
    BenchProfile,
    get_profile,
    load_profiles,
    profile_names,
    profile_provenance,
    register_profile,
)
from repro.workloads.spec import (
    SEG_INSTRS,
    WorkloadEntry,
    WorkloadSpec,
    load_workload,
    preset_names,
    preset_provenance,
    register_preset,
    resolve_workload,
    workload_preset,
)
from repro.workloads.synth import KernelSynthesizer, profile_trace, synthesize
from repro.workloads.wrongpath import WrongPathGenerator

__all__ = [
    "BenchProfile",
    "SPECFP95",
    "SCENARIOS",
    "BENCH_ORDER",
    "SEG_INSTRS",
    "WorkloadEntry",
    "WorkloadSpec",
    "get_profile",
    "register_profile",
    "load_profiles",
    "profile_names",
    "profile_provenance",
    "load_workload",
    "resolve_workload",
    "workload_preset",
    "register_preset",
    "preset_names",
    "preset_provenance",
    "synthesize",
    "KernelSynthesizer",
    "profile_trace",
    "WrongPathGenerator",
]
