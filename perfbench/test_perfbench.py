"""Self-tests of the benchmark, on minimal inputs.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the repo's test suite (pytest collects ``tests/``
only), because most of them start the benchmark in subprocesses.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from tracer import NullTracer  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else None
    return proc.returncode, doc


def tiny(workload: str, seed: int = 3, trace: int = 0, *extra: str):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra)


def assert_metrics(doc: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    for value in doc["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    code, doc = tiny(workload)
    assert code == 0 and doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert_metrics(doc, "end_to_end")
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_prints_every_per_layer_metric(workload):
    code, doc = tiny(workload, 3, 1)
    assert code == 0 and doc["correct"]
    assert_metrics(doc, "per_layer")
    spans = ROOT / ".perfbench-work" / "traces" / f"{workload}-seed3.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "id", "parent", "run", "pid"}


@pytest.mark.parametrize("workload", ["kernel", "warm", "service"])
def test_injected_failure_is_counted(workload):
    code, doc = tiny(workload, 3, 0, "--inject-failure")
    assert code != 0
    assert doc["failed"] >= 1 and not doc["correct"]
    assert doc["attempted"] > doc["failed"]


def test_digest_gate_counts_wrong_and_missing_digests():
    from repro.engine import RunSpec

    # a cell of the service workload's analytic pool, so it is recorded
    spec = RunSpec.multiprogrammed(1, l2_latency=16, decoupled=True,
                                   backend="analytic", scale=bench.SCALE)
    stats = spec.execute()
    args = argparse.Namespace(seed=1, tiny=False, record_digests=None)
    p = bench.Pass(args, NullTracer())
    p.check_results([(spec, stats)])
    assert (p.failed, p.digests_checked) == (0, 1)

    p._recorded = {spec.key(): "0" * 16}
    p.check_results([(spec, stats)])
    assert (p.failed, p.digests_checked) == (1, 2)

    p._recorded = {}
    p.check_results([(spec, stats)])
    assert (p.failed, p.digests_checked) == (2, 2)


def test_metric_names_do_not_depend_on_the_seed():
    _, a = tiny("service", 5)
    _, b = tiny("service", 6)
    assert set(a["metrics"]) == set(b["metrics"])


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, doc = run("--workload", "kernel", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and doc is None
