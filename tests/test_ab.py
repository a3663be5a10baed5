"""The revision A/B driver (``benchmarks/ab.py``): its verdicts on
synthetic run lists, and its exit paths against a throwaway git
repository (``perfbench/run.py`` is replaced by a stub)."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(throughput=100.0, attempted=10, failed=0):
    values = {"latency_p50_ms": 10.0, "latency_p90_ms": 20.0,
              "throughput_per_s": throughput, "peak_rss_mb": 80.0,
              "setup_s": 0.5}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def parent(jitter=0.2):
    return [result(100.0 + i * jitter) for i in range(ab.PAIRS)]


def verdicts(report):
    return {name: m["verdict"] for name, m in report["metrics"].items()}


class TestJudge:
    def test_uniform_throughput_loss_is_worse_and_fails_the_gate(self):
        rev = parent()
        head = [result(r["metrics"]["throughput_per_s"]["value"] * 0.7)
                for r in rev]
        report = ab.judge(rev, head, END_TO_END)
        tp = report["metrics"]["throughput_per_s"]
        assert tp["verdict"] == "worse"
        assert tp["shift"] == pytest.approx(0.3)
        assert tp["wins"] == 0
        assert report["ok"] is False

    def test_identical_runs_are_within_and_ties_win_nothing(self):
        rev = parent()
        report = ab.judge(rev, [dict(r) for r in rev], END_TO_END)
        assert set(verdicts(report).values()) == {"within"}
        assert all(m["wins"] == 0 and m["pairs"] == ab.PAIRS
                   and m["shift"] == 0 for m in report["metrics"].values())
        assert report["ok"] is True

    def test_wide_parent_spread_is_unresolved(self):
        rev = [result(60.0 if i % 2 else 140.0) for i in range(ab.PAIRS)]
        head = parent()
        report = ab.judge(rev, head, END_TO_END)
        tp = report["metrics"]["throughput_per_s"]
        assert tp["rev"]["spread"] > tp["bound"]
        assert tp["verdict"] == "unresolved"
        assert report["ok"] is True  # unresolved does not fail the gate

    def test_wide_spread_resolved_when_every_head_run_wins(self):
        rev = [result(60.0 + i) for i in range(ab.PAIRS)]
        head = [result(200.0 + 40 * i) for i in range(ab.PAIRS)]
        tp = ab.judge(rev, head, END_TO_END)["metrics"]["throughput_per_s"]
        assert tp["head"]["spread"] > tp["bound"]
        assert tp["verdict"] == "gain"

    def test_ten_wins_beyond_the_parent_iqr_is_gain(self):
        rev = parent()
        head = [result(r["metrics"]["throughput_per_s"]["value"] * 1.1)
                for r in rev]
        report = ab.judge(rev, head, END_TO_END)
        tp = report["metrics"]["throughput_per_s"]
        assert tp["wins"] == 10
        assert tp["rev"]["median"] - tp["head"]["median"] < -(
            tp["rev"]["q3"] - tp["rev"]["q1"])
        assert tp["verdict"] == "gain"
        assert verdicts(report)["setup_s"] == "within"

    def test_wins_inside_the_parent_iqr_are_within(self):
        rev = parent(jitter=2.0)
        head = [result(r["metrics"]["throughput_per_s"]["value"] + 0.5)
                for r in rev]
        tp = ab.judge(rev, head, END_TO_END)["metrics"]["throughput_per_s"]
        assert tp["wins"] == 10
        assert tp["verdict"] == "within"

    def test_lower_is_better_metrics_read_the_other_way(self):
        rev = parent()
        head = [dict(r, metrics=dict(
            r["metrics"], setup_s={"value": 0.8, "unit": "s"})) for r in rev]
        setup = ab.judge(rev, head, END_TO_END)["metrics"]["setup_s"]
        assert setup["shift"] == pytest.approx(0.6)
        assert setup["verdict"] == "worse"

    def test_change_side_run_without_result_fails_the_gate(self):
        rev = parent()
        head = parent()
        head[3] = None
        report = ab.judge(rev, head, END_TO_END)
        assert report["ops"]["head"]["missing"] == 1
        assert report["metrics"]["throughput_per_s"]["pairs"] == ab.PAIRS - 1
        assert report["ok"] is False

    def test_larger_failed_share_fails_the_gate(self):
        rev = parent()
        head = parent()
        head[0] = result(attempted=10, failed=1)
        report = ab.judge(rev, head, END_TO_END)
        assert report["ops"]["head"] == {
            "attempted": 100, "failed": 1, "missing": 0}
        assert set(verdicts(report).values()) == {"within"}
        assert report["ok"] is False


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost", *args],
        cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository holding just enough for ``ab.main``: the real
    ``BENCHMARK.json`` and an empty ``src/repro`` package."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    root = tmp_path / "repo"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "base")
    monkeypatch.setattr(ab, "ROOT", root)
    return root


def _worktrees(root):
    return _git(root, "worktree", "list", "--porcelain").count("worktree ")


class TestDriver:
    def test_pairs_alternate_and_a_loss_exits_1(self, repo, monkeypatch,
                                                capsys):
        calls = []

        def fake_run(tree, workload, seed, seconds):
            side = "head" if tree == repo else "rev"
            calls.append((side, seed, tree))
            assert seconds == json.loads(
                (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
            return result(70.0 if side == "head" else 100.0 + seed * 0.1)

        monkeypatch.setattr(ab, "run_once", fake_run)
        assert ab.main(["HEAD", "kernel", "--seed", "7"]) == 1
        assert [(side, seed) for side, seed, _ in calls[:4]] == [
            ("rev", 7), ("head", 7), ("head", 8), ("rev", 8)]
        assert len(calls) == 2 * ab.PAIRS
        assert sorted(seed for _, seed, _ in calls) == sorted(
            2 * list(range(7, 7 + ab.PAIRS)))
        out, err = capsys.readouterr()
        doc = json.loads(out.strip().splitlines()[-1])
        kernel = doc["workloads"]["kernel"]
        assert kernel["metrics"]["throughput_per_s"]["verdict"] == "worse"
        assert doc["ok"] is False and doc["rev"] == _git(
            repo, "rev-parse", "HEAD").strip()
        assert "kernel: FAIL" in err
        rev_tree = next(tree for side, _, tree in calls if side == "rev")
        assert not rev_tree.exists()
        assert _worktrees(repo) == 1

    def test_equal_sides_exit_0(self, repo, monkeypatch, capsys):
        monkeypatch.setattr(ab, "run_once", lambda *a: result())
        assert ab.main(["HEAD", "kernel", "cold", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(doc["workloads"]) == {"kernel", "cold"} and doc["ok"]

    def test_interrupt_removes_the_worktree(self, repo, monkeypatch):
        trees = []

        def interrupted(tree, *_):
            trees.append(tree)
            raise KeyboardInterrupt

        monkeypatch.setattr(ab, "run_once", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ab.main(["HEAD", "kernel", "--seed", "1"])
        assert trees and not trees[0].exists()
        assert _worktrees(repo) == 1

    def test_revision_before_the_benchmark_exits_2(self, repo, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(ab, "run_once", pytest.fail)
        _git(repo, "rm", "-rq", "src")
        _git(repo, "commit", "-qm", "no package")
        assert ab.main(["HEAD", "kernel", "--seed", "1"]) == 2
        assert "src/repro" in capsys.readouterr().err
        assert ab.main(["no-such-rev", "kernel", "--seed", "1"]) == 2
        assert _worktrees(repo) == 1
