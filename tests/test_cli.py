"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine import Counters


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", "0.08")
    # keep tests hermetic: never touch ~/.cache, never spawn a pool
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig3"])
        assert args.name == "fig3"

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig3", "--workers", "2", "--no-cache",
             "--cache-dir", "/tmp/x"]
        )
        assert args.workers == 2
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_help_documents_repro_scale(self):
        assert "REPRO_SCALE" in build_parser().format_help()


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--threads", "1", "--latency", "16",
                     "--commits", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_run_non_decoupled(self, capsys):
        assert main(["run", "--threads", "1", "--non-decoupled",
                     "--commits", "1500"]) == 0
        assert "non-decoupled" in capsys.readouterr().out

    def test_bench_command(self, capsys):
        assert main(["bench", "fpppp"]) == 0
        assert "fpppp" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "gcc"]) == 2

    def test_figure_command(self, capsys):
        assert main(["figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "cached" in out and "simulated" in out

    def test_figure_warm_cache_simulates_nothing(self, capsys):
        assert main(["figure", "fig3"]) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert main(["figure", "fig3"]) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second

        # tables must be byte-identical between cold and warm runs
        def tables(out):
            return [
                ln for ln in out.splitlines() if not ln.startswith("[fig3:")
            ]

        assert tables(first) == tables(second)

    def test_figure_no_cache(self, capsys):
        assert main(["figure", "fig3", "--no-cache"]) == 0
        assert main(["figure", "fig3", "--no-cache"]) == 0
        assert "0 cached" in capsys.readouterr().out

    def test_ablation_command(self, capsys):
        assert main(["ablation", "fetch_policy"]) == 0
        assert "fetch policy" in capsys.readouterr().out


class TestSweepCommand:
    def test_multiprogrammed_grid_json(self, capsys):
        assert main(["sweep", "--threads", "1,2", "--latencies", "16",
                     "--modes", "dec,non", "--commits", "1500"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 4
        assert doc["n_executed"] == 4
        assert set(Counters().to_dict()) <= set(doc)  # every counter
        labels = [run["label"] for run in doc["runs"]]
        assert labels == [
            "1T L2=16 dec", "1T L2=16 non-dec",
            "2T L2=16 dec", "2T L2=16 non-dec",
        ]
        for run in doc["runs"]:
            assert run["stats"]["ipc"] > 0
            assert run["spec"]["scale"] == pytest.approx(0.08)

    def test_sweep_reads_cache(self, capsys):
        args = ["sweep", "--threads", "1", "--latencies", "16",
                "--commits", "1500"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_cached"] == 1 and doc["n_executed"] == 0

    def test_bench_grid(self, capsys):
        assert main(["sweep", "--benches", "applu", "--latencies", "16",
                     "--commits", "1500"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 1
        wl = doc["runs"][0]["spec"]["workload"]
        assert wl["name"] == "applu"
        assert len(wl["threads"]) == 1

    def test_rejects_unknown_mode(self, capsys):
        assert main(["sweep", "--modes", "sideways"]) == 2

    def test_rejects_malformed_int_lists(self, capsys):
        assert main(["sweep", "--latencies", "16x"]) == 2
        assert main(["sweep", "--threads", "1;2"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_rejects_unknown_bench(self, capsys):
        assert main(["sweep", "--benches", "gcc"]) == 2

    def test_deadlock_cycles_flag_reaches_spec(self, capsys):
        assert main(["sweep", "--threads", "1", "--latencies", "16",
                     "--commits", "1500", "--deadlock-cycles", "77777",
                     "--no-cache"]) == 0
        doc = json.loads(capsys.readouterr().out)
        overrides = doc["runs"][0]["spec"]["config_overrides"]
        assert overrides["deadlock_cycles"] == 77777

    def test_commits_axis_expands_grid(self, capsys):
        assert main(["sweep", "--threads", "1", "--latencies", "16",
                     "--commits", "1000,1500", "--no-cache"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 2
        assert [r["spec"]["commits"] for r in doc["runs"]] == [1000, 1500]

    def test_rejects_malformed_commits(self, capsys):
        assert main(["sweep", "--commits", "10x0"]) == 2
        assert "--commits" in capsys.readouterr().err

    def test_fork_warmup_bit_identical_and_counted(self, capsys):
        cold_args = ["sweep", "--threads", "2", "--latencies", "16",
                     "--commits", "800,1200,1600", "--no-cache"]
        assert main(cold_args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(cold_args + ["--fork-warmup", "2"]) == 0
        captured = capsys.readouterr()
        forked = json.loads(captured.out)
        assert forked["n_forked"] == 2
        assert forked["warmup_cycles_saved"] > 0
        # the summary line reports the fork counters on stderr
        assert "2 forked" in captured.err
        assert "warmup cycles saved" in captured.err
        # skip effectiveness is surfaced in the doc and the summary line
        assert forked["ff_jumps"] >= 0
        assert "fast-forwarded" in captured.err
        # per-cell results are byte-identical to the cold sweep
        for run_cold, run_forked in zip(cold["runs"], forked["runs"]):
            assert run_forked["stats"] == run_cold["stats"]


class TestSnapshotFlags:
    """run --snapshot / --restore (the checkpoint subsystem's CLI face)."""

    _ARGS = ["run", "--threads", "1", "--latency", "16",
             "--commits", "1500", "--no-cache"]

    def test_snapshot_then_restore_matches_unbroken(self, tmp_path, capsys):
        snap = tmp_path / "warm.snap"
        assert main(self._ARGS) == 0
        unbroken = capsys.readouterr().out
        assert main(self._ARGS + ["--snapshot", str(snap)]) == 0
        captured = capsys.readouterr()
        assert snap.is_file()
        assert "warmup_key" in captured.err
        assert captured.out == unbroken  # capture changes nothing
        assert main(self._ARGS + ["--restore", str(snap)]) == 0
        restored = capsys.readouterr().out
        # identical statistics block, plus the restore marker in the title
        assert "[restored @" in restored
        assert restored.split("==\n", 1)[1] == unbroken.split("==\n", 1)[1]

    def test_restore_refuses_mismatched_spec(self, tmp_path, capsys):
        snap = tmp_path / "warm.snap"
        assert main(self._ARGS + ["--snapshot", str(snap)]) == 0
        capsys.readouterr()
        mismatched = ["run", "--threads", "2", "--latency", "16",
                      "--commits", "1500", "--no-cache"]
        assert main(mismatched + ["--restore", str(snap)]) == 2
        assert "warmup_key" in capsys.readouterr().err

    def test_restore_missing_file(self, tmp_path, capsys):
        assert main(self._ARGS + ["--restore", str(tmp_path / "no.snap")]) == 2
        assert "--restore" in capsys.readouterr().err

    def test_snapshot_needs_cycle_backend(self, tmp_path, capsys):
        assert main(self._ARGS + ["--backend", "analytic",
                                  "--snapshot", str(tmp_path / "x")]) == 2
        assert "cycle backend" in capsys.readouterr().err


class TestMemFlags:
    """--mem presets/files and sweep --mem-axis (PR 5)."""

    def test_run_with_mem_preset(self, capsys):
        assert main(["run", "--threads", "1", "--latency", "32",
                     "--mem", "l2_small", "--commits", "1500",
                     "--backend", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "L2 level" in out

    def test_unknown_mem_preset_suggests(self, capsys):
        assert main(["run", "--mem", "l2_fnite"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'l2_finite'" in err

    def test_bench_with_mem_file(self, tmp_path, capsys):
        path = tmp_path / "mem.json"
        path.write_text(json.dumps({
            "name": "filemem",
            "levels": [{"name": "L1"},
                       {"name": "L2", "capacity_bytes": 262144, "assoc": 4}],
        }))
        assert main(["bench", "fpppp", "--mem", str(path),
                     "--backend", "analytic"]) == 0
        assert "fpppp" in capsys.readouterr().out

    def test_sweep_mem_axis_expands_grid(self, capsys):
        assert main(["sweep", "--threads", "1", "--latencies", "16",
                     "--mem", "l2_finite",
                     "--mem-axis", "L2.capacity_bytes=256K,1M",
                     "--backend", "analytic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 2
        labels = [r["label"] for r in doc["runs"]]
        assert any("262144" in lab for lab in labels)

    def test_sweep_mem_axis_defaults_to_classic(self, capsys):
        assert main(["sweep", "--threads", "1", "--latencies", "16",
                     "--mem-axis", "prefetch_kind=none,nextline",
                     "--backend", "analytic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 2

    def test_sweep_mem_axis_crosses_workload_axis(self, capsys):
        """--mem-axis x --workload-axis compose into one grid: every
        combination appears exactly once, visible in the cell labels."""
        assert main(["sweep", "--workload", "thrash4",
                     "--workload-axis", "hot_frac=0.1,0.4",
                     "--mem-axis", "prefetch_kind=none,nextline",
                     "--latencies", "16,64",
                     "--backend", "analytic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_runs"] == 2 * 2 * 2
        labels = [r["label"] for r in doc["runs"]]
        assert len(set(labels)) == 8
        for hot in ("hot_frac=0.1", "hot_frac=0.4"):
            for kind in ("prefetch_kind=none", "prefetch_kind=nextline"):
                for lat in ("L2=16", "L2=64"):
                    assert sum(
                        hot in lab and kind in lab and lat in lab
                        for lab in labels
                    ) == 1
        assert len({r["key"] for r in doc["runs"]}) == 8

    def test_sweep_rejects_bad_mem_axis_field(self, capsys):
        assert main(["sweep", "--mem-axis", "prefetchkind=stream"]) == 2
        assert "did you mean 'prefetch_kind'" in capsys.readouterr().err

    def test_sweep_rejects_malformed_mem_axis(self, capsys):
        assert main(["sweep", "--mem-axis", "nonsense"]) == 2
        assert "field=value" in capsys.readouterr().err

    def test_workloads_lists_mem_presets(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Memory-hierarchy presets" in out
        assert "l2_finite" in out
