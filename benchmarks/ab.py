"""A/B one revision against this checkout on the repo benchmark.

Usage, from anywhere in a checkout::

    python3 benchmarks/ab.py REV WORKLOAD [WORKLOAD ...] --seed S

REV (any git revision: a branch, a tag, a commit) is checked out into a
temporary directory with ``git worktree add --detach``, and the worktree
is removed on every exit path, Ctrl-C included.  "Head" is this
checkout, uncommitted edits included.  Before the first pair, both
trees' ``src/`` are compiled with ``compileall`` under the running
interpreter, so both sides import byte code: a tree that compiles its
sources on every import (a fresh checkout, or any tree under
``PYTHONDONTWRITEBYTECODE``) starts slower than one holding
``__pycache__`` files, by about a quarter of ``kernel``'s ``setup_s``.
For each workload, ten pairs of
runs of *this* checkout's ``perfbench/run.py --workload W --seed s
--seconds <run_seconds> --trace 0`` run in the two trees, each with its
tree as the working directory, so both sides run the same benchmark code
against their own ``src/``.  Pair ``i`` uses seed ``S + i`` on both
sides; REV runs first in even pairs, head in odd ones.  ``run_seconds``
and the metric bounds come from ``BENCHMARK.json``.  For more pairs, run
again with another seed and report every run.

For each end-to-end metric the report gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/steady.py`` computes them), the relative shift of the
medians (positive = worse), the pairs head won (ties count for neither
side) and one verdict, the first that applies:

- ``worse``: head's median is worse than REV's by more than the bound;
- ``unresolved``: either side's spread (interquartile distance over the
  median) is wider than the bound, unless every head run beats every
  REV run;
- ``gain``: head won at least 9 of 10 pairs, and the medians differ by
  more than REV's interquartile distance;
- ``within``: anything else.

A table goes to stderr; the last stdout line is one JSON object holding
the report and every run's metrics.  Exit status 1 when a metric is
``worse``, a run printed no result line, or head failed a larger share
of operations than REV; 2 when REV does not resolve or holds no
``BENCHMARK.json`` or ``src/repro`` (revisions before the benchmark
existed); 0 otherwise.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: pairs per workload: the ten-pair floor of a claimed gain
PAIRS = 10
#: pairs head must win for a ``gain``
GAIN_WINS = 9
SIDES = ("rev", "head")


def _rel(num: float, den: float) -> float:
    if den:
        return num / den
    return 0.0 if num == 0 else math.copysign(math.inf, num)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else math.nan
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(rev_runs: list, head_runs: list, end_to_end: list[dict]) -> dict:
    """Compare one workload's paired runs; pure.

    ``rev_runs[i]`` and ``head_runs[i]`` are pair ``i``'s result objects
    (``perfbench/run.py``'s last stdout line), or ``None`` for a run that
    printed no result line.  ``end_to_end`` is ``BENCHMARK.json``'s list
    of metrics with their ``better`` direction and ``bound``.  Returns the
    workload's report; its ``ok`` is the gate.
    """
    runs = {"rev": rev_runs, "head": head_runs}
    ops = {
        side: {
            "attempted": sum(r["attempted"] for r in rs if r),
            "failed": sum(r["failed"] for r in rs if r),
            "missing": sum(r is None for r in rs),
        }
        for side, rs in runs.items()
    }
    metrics = {}
    for m in end_to_end:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1  # sign * value: lower wins
        values = {
            side: [r["metrics"][name]["value"] for r in rs if r]
            for side, rs in runs.items()
        }
        stats = {}
        for side, vals in values.items():
            q1, med, q3 = _quartiles(vals)
            stats[side] = {"median": med, "q1": q1, "q3": q3,
                           "spread": _rel(q3 - q1, med)}
        rev, head = stats["rev"], stats["head"]
        gap = sign * (head["median"] - rev["median"])  # positive = worse
        shift = _rel(gap, rev["median"])
        pairs = [
            (sign * r["metrics"][name]["value"],
             sign * h["metrics"][name]["value"])
            for r, h in zip(rev_runs, head_runs) if r and h
        ]
        wins = sum(h < r for r, h in pairs)
        if shift > bound:
            verdict = "worse"
        elif min(len(v) for v in values.values()) < 2 or (
            max(rev["spread"], head["spread"]) > bound
            # unless every head run beats every REV run
            and not max(sign * v for v in values["head"])
            < min(sign * v for v in values["rev"])
        ):
            verdict = "unresolved"
        elif wins >= GAIN_WINS and -gap > rev["q3"] - rev["q1"]:
            verdict = "gain"
        else:
            verdict = "within"
        metrics[name] = {
            **stats, "shift": shift, "wins": wins, "pairs": len(pairs),
            "bound": bound, "verdict": verdict,
        }

    def share(o: dict) -> float:
        return o["failed"] / o["attempted"] if o["attempted"] else 0.0

    ok = (
        all(m["verdict"] != "worse" for m in metrics.values())
        and not any(o["missing"] for o in ops.values())
        and share(ops["head"]) <= share(ops["rev"])
    )
    return {"ok": ok, "ops": ops, "metrics": metrics}


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


@contextlib.contextmanager
def worktree(sha: str):
    """REV checked out, detached, in a temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    tree = tmp / "tree"
    try:
        add = git("worktree", "add", "--detach", str(tree), sha)
        if add.returncode:
            raise RuntimeError(add.stderr.strip())
        yield tree
    finally:
        git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")


def _stop(proc: subprocess.Popen) -> None:
    """Give ``run.py`` time to stop its pass (a terminal's Ctrl-C has
    usually reached it too), then interrupt it, then kill it."""
    for sig in (None, signal.SIGINT, signal.SIGKILL):
        if sig is not None:
            proc.send_signal(sig)
        try:
            proc.wait(timeout=5)
            return
        except subprocess.TimeoutExpired:
            pass


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in ``tree``: its result object, or ``None``."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate()
    except BaseException:
        _stop(proc)
        raise
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        if isinstance(doc, dict) and "metrics" in doc:
            return doc
    except (IndexError, ValueError):
        pass
    print(f"    no result line (exit {proc.returncode}):\n"
          + "\n".join(err.strip().splitlines()[-5:]), file=sys.stderr)
    return None


def _num(v: float) -> str:
    return f"{v:.0f}" if abs(v) >= 1e4 else f"{v:.4g}"


def _fmt(stats: dict) -> str:
    return (f"{_num(stats['median'])} [{_num(stats['q1'])}, "
            f"{_num(stats['q3'])}]")


def print_table(workload: str, report: dict) -> None:
    say = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    say(f"\n{workload}: {'pass' if report['ok'] else 'FAIL'}")
    say(f"  {'metric':<17} {'REV median [q1, q3]':>28} "
        f"{'head median [q1, q3]':>28} {'shift':>7} {'wins':>5}  verdict")
    for name, m in report["metrics"].items():
        say(f"  {name:<17} {_fmt(m['rev']):>28} {_fmt(m['head']):>28} "
            f"{m['shift']:>+7.3f} {m['wins']:>2}/{m['pairs']:<2}  "
            f"{m['verdict']} (bound {m['bound']})")
    for side in SIDES:
        o = report["ops"][side]
        say(f"  {side}: {o['failed']}/{o['attempted']} operations failed, "
            f"{o['missing']} runs without a result")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", metavar="REV")
    ap.add_argument("workloads", metavar="WORKLOAD", nargs="+",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    resolved = git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}")
    sha = resolved.stdout.strip()
    if resolved.returncode or not sha:
        print(f"cannot resolve {args.rev!r}", file=sys.stderr)
        return 2
    for needed in ("BENCHMARK.json", "src/repro/__init__.py"):
        if git("cat-file", "-e", f"{sha}:{needed}").returncode:
            print(f"{args.rev} ({sha[:10]}) has no {needed}: it predates "
                  "the benchmark", file=sys.stderr)
            return 2

    seconds = bench["run_seconds"]
    doc = {"rev": sha, "seed": args.seed, "pairs": PAIRS,
           "run_seconds": seconds, "workloads": {}}
    with worktree(sha) as rev_tree:
        trees = {"rev": rev_tree, "head": ROOT}
        for tree in trees.values():
            compileall.compile_dir(tree / "src", quiet=1)
        for workload in args.workloads:
            runs = {side: [] for side in SIDES}
            for i in range(PAIRS):
                seed = args.seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    shown = ", ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items()
                    ) if result else "no result"
                    print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} "
                          f"{side}: {shown}", file=sys.stderr, flush=True)
            report = judge(runs["rev"], runs["head"], bench["end_to_end"])
            report["runs"] = runs
            doc["workloads"][workload] = report
            print_table(workload, report)
    doc["ok"] = all(r["ok"] for r in doc["workloads"].values())
    print(json.dumps(doc))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    # SIGTERM (a cancelled CI job) unwinds like Ctrl-C, through the
    # worktree's clean-up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
