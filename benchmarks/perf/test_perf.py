"""Simulator-performance benchmarks (``pytest benchmarks/perf``).

Runs the same pinned workload set as ``repro-sim perf`` through
pytest-benchmark, and gates the machine-independent ratio metrics against
the committed ``BENCH_PR10.quick.json`` baseline.  Absolute throughput
numbers in the baseline document the machine that recorded it; only the ratios
(per-workload cycles/s normalized by the run's own geometric mean,
fast-forward speedup, bit-identity) are asserted here, because this suite
runs on arbitrary hardware.
"""

from pathlib import Path

from repro.experiments.perf import (
    HEADLINE,
    check_regression,
    load_doc,
    run_perf,
)

QUICK_BASELINE = Path(__file__).with_name("BENCH_PR10.quick.json")


def test_perf_quick_vs_committed_baseline(once):
    doc = once(run_perf, quick=True)
    head = doc["headline"]
    assert head["workload"] == HEADLINE
    # the whole point of the fast-forward: identical stats, less wall clock
    assert head["bit_identical"] is True
    assert head["speedup"] > 1.0
    failures = check_regression(doc, load_doc(QUICK_BASELINE),
                                ratios_only=True)
    assert not failures, failures
