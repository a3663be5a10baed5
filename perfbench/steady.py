"""Steadiness check: run one workload several times, one seed each.

Usage, from the repository root::

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]

Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  Set ``k`` (from
0) uses seeds ``k * runs + 1`` to ``(k + 1) * runs``.  For each set and
every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  A spread
above the metric's bound is flagged ``OVER``; one above a third of the
bound is flagged ``wide``.  With two or more sets it also prints each
later set's median shift from the first set's, flagged ``OVER`` when it
exceeds the bound.  Exits non-zero when a run fails or anything is over
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_set(workload: str, seeds: range, seconds: int):
    """Run the workload once per seed; return each metric's values and
    the number of failed runs."""
    values: dict[str, list[float]] = {}
    bad = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            bad += 1
            continue
        doc = json.loads(lines[-1])
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.4g}" for name, m in doc["metrics"].items()
        ), flush=True)
    return values, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())

    bad = 0
    medians: list[dict[str, float]] = []
    for k in range(args.sets):
        seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
        values, failed = run_set(args.workload, seeds, bench["run_seconds"])
        bad += failed
        print(f"\n{args.workload}: set {k}, seeds {seeds.start}-"
              f"{seeds.stop - 1}")
        medians.append({})
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values.get(name, [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[k][name] = med
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "OVER"
                bad += 1
            elif spread > bound / 3:
                flag = "wide"
            print(f"  {name:<20} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:6.3f} / bound {bound}  "
                  f"{flag}", flush=True)

    for k in range(1, len(medians)):
        print(f"\n{args.workload}: median shift, set {k} vs set 0 "
              "(positive = worse)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in medians[0] or name not in medians[k]:
                continue
            first, later = medians[0][name], medians[k][name]
            shift = (later - first) / first if first else float("inf")
            if metric["better"] == "higher":
                shift = -shift
            flag = "OVER" if abs(shift) > bound else ""
            bad += flag == "OVER"
            print(f"  {name:<20} {first:12.5g} -> {later:12.5g}  "
                  f"shift {shift:+7.3f} / bound {bound}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
