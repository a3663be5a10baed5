"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter (``bench.py``)
with its own temporary cache under ``.perfbench-work/`` in the checkout.
Untraced, passes repeat until ``--seconds`` have gone by (at least
three).  Latency percentiles pool every operation of every pass;
throughput is work over the sum of each timed region's median over the
passes.  Traced, one untraced pass runs the
correctness checks and sets the baseline, then one traced pass gives the
per-layer metrics, writes its spans as JSONL and the difference between
the two passes is the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable report goes to stderr.  The
exit code is non-zero when any operation failed, any check mismatched,
or the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
#: untraced passes per run, at least
MIN_PASSES = 3
#: a pass that runs longer than this is killed and the run fails
PASS_TIMEOUT_S = 120
#: environment settings that would change what a pass measures
SCRUBBED_ENV = ("REPRO_SCALE", "REPRO_WORKERS", "REPRO_CACHE_DIR",
                "REPRO_GENERIC_MEM")


class PassError(RuntimeError):
    """A pass crashed or timed out, so the run has no result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the same pass composition always picks
    the same operation, however many passes a run completed."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    for name, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg")):
        (work / sub).mkdir(parents=True, exist_ok=True)
        env[name] = str(work / sub)
    return env


def run_pass(args, index: int, work: Path, *extra: str) -> dict:
    """One pass in a fresh interpreter (own process group, so a timeout
    also stops the server and pool workers it started)."""
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--pass-index", str(index), "--work-dir", str(work / f"pass{index}"),
        *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_failure:
        cmd.append("--inject-failure")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"pass {index} timed out after {PASS_TIMEOUT_S}s")
    finally:
        try:  # the pass must leave nothing running behind it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited {proc.returncode}")
    return json.loads(lines[-1])


def region_medians(passes: list[dict]) -> list[float]:
    """Each timed region's median over the passes that ran it.  The
    host's speed drops for seconds at a time; the median of a region
    over passes ignores a pass that such a slowdown hit."""
    seen: dict[str, list[float]] = {}
    for p in passes:
        for name, seconds in p["regions"].items():
            seen.setdefault(name, []).append(seconds)
    return [statistics.median(v) for v in seen.values()]


def end_to_end(passes: list[dict]) -> dict:
    ops_ms = [s * 1e3 for p in passes for s in p["ops"]] or [0.0]
    busy = sum(region_medians(passes))
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": usage / 1024,
        "throughput_per_s": (
            statistics.median(p["units"] for p in passes) / busy
            if busy else 0.0
        ),
        "latency_p50_ms": percentile(ops_ms, 50),
        "latency_p90_ms": percentile(ops_ms, 90),
    }


def report(args, passes: list[dict], metrics: dict, units: dict) -> None:
    say = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    say(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
        f"{sum(len(p['ops']) for p in passes)} latency samples, "
        f"{sum(p['digests_checked'] for p in passes)} results digest-checked")
    for i, p in enumerate(passes):
        say(f"  pass {i}: setup {p['setup_s']:.3f}s, measured "
            f"{p['measured_s']:.3f}s, {p['units']:.0f} units, "
            f"{p['failed']}/{p['attempted']} failed, host time x "
            f"{p['speed_factor']:.3f} to reference speed")
    for name, value in metrics.items():
        say(f"  {name:<40} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="minimal inputs and one pass (self-tests)")
    ap.add_argument("--inject-failure", action="store_true",
                    help="make one correctness check fail (self-tests)")
    args = ap.parse_args(argv)

    config = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads(config.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            base = run_pass(args, 0, work)
            traced = run_pass(args, 1, work, "--trace-out", str(spans))
            passes = [base, traced]
            layers = traced["layers"]
            overhead = traced["measured_s"] - base["measured_s"]
            layers["trace.overhead_s"] = overhead
            layers["trace.overhead_frac"] = (
                overhead / base["measured_s"] if base["measured_s"] else 0.0
            )
            metrics = {name: layers[name] for name in units}
            print(f"spans: {spans}", file=sys.stderr)
        else:
            passes = []
            t0 = time.perf_counter()
            floor = 1 if args.tiny else MIN_PASSES
            while (len(passes) < floor
                   or time.perf_counter() - t0 < args.seconds):
                passes.append(run_pass(args, len(passes), work))
            metrics = end_to_end(passes)
    except PassError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report(args, passes, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
