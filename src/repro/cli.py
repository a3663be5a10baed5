"""Command-line interface: ``repro-sim``.

Subcommands:

* ``figure {fig1,fig3,fig4,fig5,all}`` — regenerate a paper figure's data
  and print it as text tables.
* ``ablation {unit_width,fetch_policy,mshr,iq_depth,rob,l2_finite,
  prefetch,bus_width,all}`` — run an ablation study.
* ``sweep`` — an ad-hoc grid (threads x latencies x modes, benches x
  latencies x modes, or a declarative workload crossed with latencies /
  modes / ``--workload-axis`` profile-field axes), emitted as JSON.
* ``run`` — one custom simulation (threads / latency / mode / budgets,
  or any ``--workload`` preset/file).
* ``bench NAME`` — one single-threaded benchmark run with a full report
  (NAME is any registered profile, inline overrides allowed).
* ``workloads`` — list registered profiles and workload presets with
  their key knobs and provenance (built-in vs user file).
* ``conformance`` — validate the analytic fast model against the cycle
  backend over the Figure-4 grid; non-zero exit above the IPC tolerance.
* ``golden`` — verify (or ``--refresh``) the golden-stats regression
  corpus under ``tests/golden/``.
* ``serve`` — run the simulation-as-a-service job server: ``POST /jobs``
  accepts RunSpec JSON (one spec or a batch), a worker pool executes
  through the engine + shared result cache, concurrent identical
  submissions coalesce to one simulation, progress streams from
  ``GET /jobs/{id}/events``, and SIGTERM drains gracefully.

``figure``, ``sweep``, ``run`` and ``bench`` take ``--backend
{cycle,analytic,hybrid}``: the faithful staged kernel, the mean-value
fast model (milliseconds per run) for sweeps far beyond what cycle
accuracy can afford, or the multi-fidelity router that screens whole
grids analytically with calibrated error bars and promotes only the
cells that matter (extrema, decision boundaries, over-budget bars) to
cycle fidelity.

Every simulation goes through the experiment engine: batches fan out over
worker processes (``--workers``, default ``$REPRO_WORKERS`` or all cores)
and results land in a content-addressed cache (``--cache-dir``, disable
with ``--no-cache``), so interrupted or repeated sweeps only simulate
what is missing. Cache entries are keyed by the full spec *including the
backend*, so the two engines' results can never mix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.engine import (
    Engine,
    ResultCache,
    RouterSpec,
    RunSpec,
    Sweep,
    backend_names,
)
from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES, LATENCIES
from repro.experiments import conformance as conf_mod
from repro.experiments import golden as golden_mod
from repro.memory.spec import (
    mem_preset,
    mem_preset_names,
    mem_preset_provenance,
    resolve_memspec,
)
from repro.stats.report import format_run, format_table
from repro.workloads.profiles import (
    get_profile,
    load_profiles,
    profile_names,
    profile_provenance,
)
from repro.workloads.spec import (
    WorkloadEntry,
    parse_value,
    preset_names,
    preset_provenance,
    resolve_workload,
    workload_preset,
)

EPILOG = """\
environment variables:
  REPRO_SCALE      global instruction-budget scale factor (float, default 1.0,
                   clamped to a floor of 0.05; malformed values warn once and
                   fall back to 1.0). Captured into every run's spec and
                   therefore into its cache key, so results are never shared
                   across different scale factors. REPRO_SCALE=0.1 for smoke
                   sweeps.
  REPRO_WORKERS    default worker-process count for sweeps
                   (overridden by --workers; default: all cores)
  REPRO_CACHE_DIR  result-cache directory
                   (overridden by --cache-dir; default: ~/.cache/repro-sim)

examples:
  REPRO_SCALE=0.2 repro-sim figure fig4 --workers 4
  repro-sim figure fig4 --backend analytic
  repro-sim sweep --threads 1,2,4 --latencies 16,64 --modes dec,non
  repro-sim run --workload examples/workload_hetero.json --backend analytic
  repro-sim sweep --workload thrash4 --workload-axis hot_frac=0.2,0.5,0.9
  repro-sim run --mem l2_finite --threads 4 --latency 64
  repro-sim sweep --mem l2_finite --mem-axis L2.capacity_bytes=256K,1M,4M
  repro-sim sweep --latencies 256 --commits 1000 --fork-warmup 2
  repro-sim run --threads 1 --snapshot warm.snap
  repro-sim run --threads 1 --restore warm.snap --commits 5000
  repro-sim sweep --mem-axis prefetch_kind=none,nextline --backend analytic
  repro-sim workloads
  repro-sim bench "swim?hot_frac=0.1&ws_bytes=16M"
  repro-sim ablation mshr --no-cache
  repro-sim conformance --quick
  repro-sim golden --refresh
"""


def _engine_from_args(args) -> Engine:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Engine(
        workers=args.workers,
        cache=cache,
        fork_warmup=getattr(args, "fork_warmup", None),
    )


def _print_batch_footer(name: str, engine: Engine, before: tuple, t0: float):
    cached = engine.n_cached - before[0]
    executed = engine.n_executed - before[1]
    print(
        f"[{name}: {cached + executed} runs, {cached} cached, "
        f"{executed} simulated, {time.time() - t0:.1f}s]\n"
    )


def _cmd_figure(args) -> int:
    engine = _engine_from_args(args)
    names = list(FIGURES) if args.name == "all" else [args.name]
    for name in names:
        build, render = FIGURES[name]
        before = (engine.n_cached, engine.n_executed)
        t0 = time.time()
        data = build(seed=args.seed, engine=engine, backend=args.backend)
        print(render(data))
        _print_batch_footer(name, engine, before, t0)
    return 0


def _cmd_ablation(args) -> int:
    engine = _engine_from_args(args)
    names = list(ABLATIONS) if args.name == "all" else [args.name]
    for name in names:
        build, render = ABLATIONS[name]
        before = (engine.n_cached, engine.n_executed)
        t0 = time.time()
        data = build(seed=args.seed, engine=engine)
        print(render(data))
        _print_batch_footer(name, engine, before, t0)
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _promote_budget(text: str) -> float | int:
    """``--promote-budget`` value: a fraction (``0.15``) or an absolute
    cell count (``20``); :class:`RouterSpec` validates the range."""
    return float(text) if any(c in text for c in ".eE") else int(text)


def _router_from_args(args) -> "RouterSpec | None | str":
    """The sweep's :class:`RouterSpec` (``None`` off-hybrid), or an
    error string when router flags were given without ``--backend
    hybrid`` or fail validation."""
    flags = {
        "promote_budget": args.promote_budget,
        "error_budget": args.error_budget,
        "corpus": args.router_corpus,
    }
    given = {k: v for k, v in flags.items() if v is not None}
    if args.backend != "hybrid":
        if given:
            names = ", ".join(
                "--" + k.replace("_", "-").replace("corpus", "router-corpus")
                for k in given
            )
            return f"{names}: only meaningful with --backend hybrid"
        return None
    try:
        return RouterSpec(**given)
    except (TypeError, ValueError) as exc:
        return f"router config: {exc.args[0] if exc.args else exc}"


def _load_profile_files(args) -> int:
    """Register profiles from every ``--profiles`` file; 0 on success."""
    for path in getattr(args, "profiles", None) or []:
        try:
            load_profiles(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"--profiles {path}: {exc}", file=sys.stderr)
            return 2
    return 0


def _resolve_workload_arg(ref: str):
    """``--workload`` value -> WorkloadSpec, or an error string."""
    try:
        return resolve_workload(ref)
    except (OSError, ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        return f"--workload {ref}: {msg}"


def _resolve_mem_arg(ref: str | None):
    """``--mem`` value -> MemSpec (or None), or an error string."""
    if ref is None:
        return None
    try:
        return resolve_memspec(ref)
    except (OSError, ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        return f"--mem {ref}: {msg}"


def _mem_axis_grid(base, tokens) -> list | str:
    """``--mem-axis field=v1,v2`` tokens -> the list of MemSpecs the grid
    crosses (``[base]`` when no axes were given)."""
    mems = [base]
    for tok in tokens or []:
        key, sep, vals = tok.partition("=")
        key = key.strip()
        values = [parse_value(v) for v in vals.split(",") if v.strip()]
        if not sep or not key or not values:
            return (
                f"--mem-axis {tok!r}: expected field=value[,value...] "
                "(e.g. L2.capacity_bytes=256K,1M or prefetch_degree=1,2)"
            )
        try:
            mems = [m.override(key, v) for m in mems for v in values]
        except ValueError as exc:
            return f"--mem-axis: {exc.args[0] if exc.args else exc}"
    return mems


def _workload_axes(tokens) -> dict | str:
    """``--workload-axis field=v1,v2`` tokens -> {field: [values]}."""
    axes: dict = {}
    for tok in tokens or []:
        key, sep, vals = tok.partition("=")
        key = key.strip()
        values = [parse_value(v) for v in vals.split(",") if v.strip()]
        if not sep or not key or not values:
            return (
                f"--workload-axis {tok!r}: expected field=value[,value...] "
                "(e.g. hot_frac=0.1,0.4)"
            )
        axes[key] = values
    return axes


def _cmd_sweep(args) -> int:
    try:
        latencies = _int_list(args.latencies)
        threads = _int_list(args.threads)
    except ValueError:
        print(
            "--threads/--latencies take comma-separated integers, "
            f"e.g. --latencies {','.join(map(str, LATENCIES))}",
            file=sys.stderr,
        )
        return 2
    try:
        commits_axis = _int_list(args.commits) if args.commits else [None]
    except ValueError:
        print(
            "--commits takes comma-separated integers, e.g. "
            "--commits 1000,2000,4000",
            file=sys.stderr,
        )
        return 2
    modes = []
    for tok in args.modes.split(","):
        tok = tok.strip()
        if tok in ("dec", "decoupled"):
            modes.append(True)
        elif tok in ("non", "non-dec", "non-decoupled"):
            modes.append(False)
        elif tok:
            print(f"unknown mode {tok!r} (use dec / non)", file=sys.stderr)
            return 2
    if _load_profile_files(args):
        return 2
    base_mem = _resolve_mem_arg(args.mem)
    if isinstance(base_mem, str):
        print(base_mem, file=sys.stderr)
        return 2
    if args.mem_axis and base_mem is None:
        base_mem = mem_preset("classic")
    mems = _mem_axis_grid(base_mem, args.mem_axis)
    if isinstance(mems, str):
        print(mems, file=sys.stderr)
        return 2
    router = _router_from_args(args)
    if isinstance(router, str):
        print(router, file=sys.stderr)
        return 2
    if args.workload:
        base = _resolve_workload_arg(args.workload)
        if isinstance(base, str):
            print(base, file=sys.stderr)
            return 2
        axes = _workload_axes(args.workload_axis)
        if isinstance(axes, str):
            print(axes, file=sys.stderr)
            return 2
        workloads = [base]
        try:
            for key, values in axes.items():
                workloads = [
                    w.with_profile_overrides(**{key: v})
                    for w in workloads
                    for v in values
                ]
        except ValueError as exc:
            print(f"--workload-axis: {exc}", file=sys.stderr)
            return 2
        sweep = Sweep.grid(
            RunSpec.from_workload,
            workload=workloads,
            mem=mems,
            l2_latency=latencies,
            decoupled=modes,
            seed=args.seed,
            commits=commits_axis,
            backend=args.backend,
            router=router,
            **_deadlock_overrides(args),
        )
    elif args.benches:
        benches = [tok.strip() for tok in args.benches.split(",") if tok.strip()]
        try:
            for b in benches:
                WorkloadEntry.parse(b)  # full entry incl. inline overrides
        except (KeyError, ValueError) as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
        sweep = Sweep.grid(
            RunSpec.single,
            bench=benches,
            mem=mems,
            l2_latency=latencies,
            decoupled=modes,
            seed=args.seed,
            commits=commits_axis,
            backend=args.backend,
            router=router,
            **_deadlock_overrides(args),
        )
    else:
        sweep = Sweep.grid(
            RunSpec.multiprogrammed,
            n_threads=threads,
            mem=mems,
            l2_latency=latencies,
            decoupled=modes,
            seed=args.seed,
            commits_per_thread=commits_axis,
            backend=args.backend,
            router=router,
            **_deadlock_overrides(args),
        )
    engine = _engine_from_args(args)
    t0 = time.time()
    results = engine.map(sweep)
    elapsed = round(time.time() - t0, 3)

    def _entry(spec, stats):
        entry = {
            "label": spec.label(),
            "key": spec.key(),
            "spec": spec.to_dict(),
            "stats": stats.snapshot(),
        }
        prov = results.router.get(spec)
        if prov is not None:
            entry["router"] = dict(prov)
        return entry

    doc = {
        "n_runs": results.n_runs,
        **results.counters.to_dict(),
        "elapsed_s": elapsed,
        "runs": [_entry(spec, stats) for spec, stats in results.items()],
    }
    print(json.dumps(doc, indent=2))
    summary = (
        f"[sweep: {results.n_runs} runs, {results.n_cached} cached, "
        f"{results.n_executed} simulated, {results.n_forked} forked "
        f"({results.warmup_cycles_saved} warmup cycles saved, "
        f"{results.ff_cycles_skipped} cycles fast-forwarded in "
        f"{results.ff_jumps} jumps)"
    )
    if results.n_screened or results.n_promoted:
        summary += (
            f", {results.n_screened} screened / {results.n_promoted} promoted"
        )
    print(f"{summary}, {elapsed:.1f}s]", file=sys.stderr)
    return 0


def _deadlock_overrides(args) -> dict:
    """Config overrides shared by the run-building subcommands."""
    if getattr(args, "deadlock_cycles", None) is not None:
        return {"deadlock_cycles": args.deadlock_cycles}
    return {}


def _fit_report(cells: list[dict], quantile: float) -> int:
    """Fit the router error model on a train slice, report held-out
    interval coverage, gate at :data:`~repro.router.errmodel
    .COVERAGE_MIN`.  This is ``conformance --fit`` and the CI drift
    gate."""
    from repro.router.errmodel import COVERAGE_MIN, ErrorModel, split_cells

    train, holdout = split_cells(cells)
    model = ErrorModel.fit(train, quantile=quantile)
    coverage = model.coverage(holdout)
    hws = sorted(
        model.half_width_rel(c["features"]) for c in cells
    )
    print(
        f"\nerror model: {len(train)} train / {len(holdout)} held-out "
        f"cells, {len(model.regions)} regions, q={quantile}, "
        f"key {model.key()}"
    )
    print(
        f"relative half-widths: min {hws[0] * 100:.1f}%  "
        f"median {hws[len(hws) // 2] * 100:.1f}%  max {hws[-1] * 100:.1f}%"
    )
    verdict = "PASS" if coverage >= COVERAGE_MIN else "FAIL"
    print(
        f"held-out interval coverage {coverage * 100:.1f}% "
        f"(gate {COVERAGE_MIN * 100:.0f}%) -> {verdict}"
    )
    if coverage < COVERAGE_MIN:
        print(
            f"\nCALIBRATION FAILURE: the fitted error bars cover only "
            f"{coverage * 100:.1f}% of held-out cells — the analytic "
            "model drifted from the corpus; regenerate it with "
            "'repro-sim conformance --out'",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_conformance(args) -> int:
    from repro.router.errmodel import corpus_from_conformance, load_corpus

    if args.corpus:
        # drift gate: no simulation at all — fit from the committed
        # corpus and check the calibration still holds out-of-sample
        if not args.fit:
            print("--corpus is only meaningful with --fit", file=sys.stderr)
            return 2
        try:
            cells = load_corpus(args.corpus)
        except (OSError, ValueError) as exc:
            print(f"--corpus: {exc}", file=sys.stderr)
            return 2
        print(f"[conformance] fitting from {args.corpus} "
              f"({len(cells)} cells)", file=sys.stderr)
        return _fit_report(cells, quantile=args.quantile)

    engine = _engine_from_args(args)
    doc = conf_mod.run_conformance(
        quick=args.quick,
        seed=args.seed,
        engine=engine,
        tolerance=args.tolerance,
        progress=lambda msg: print(f"[conformance] {msg}", file=sys.stderr),
    )
    print(conf_mod.render_conformance(doc))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"\n[wrote {args.output}]", file=sys.stderr)
    rc = 0
    if args.out:
        corpus = corpus_from_conformance(doc)
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, indent=2)
            fh.write("\n")
        print(f"\n[wrote corpus {args.out}: {corpus['n_cells']} cells]",
              file=sys.stderr)
    if args.fit:
        rc = _fit_report(
            corpus_from_conformance(doc)["cells"], quantile=args.quantile
        )
    if not doc["passed"]:
        print(
            f"\nCONFORMANCE FAILURE: mean |IPC err| "
            f"{doc['mean_abs_ipc_err'] * 100:.2f}% exceeds the "
            f"{args.tolerance * 100:.0f}% tolerance",
            file=sys.stderr,
        )
        return 1
    return rc


def _cmd_golden(args) -> int:
    # never through the result cache: the whole point is comparing *live*
    # semantics against the corpus, and a warm cache would happily serve
    # pre-change stats for unchanged spec keys
    engine = Engine(workers=args.workers, cache=None)
    root = args.dir or golden_mod.default_root()
    if args.refresh:
        written = golden_mod.refresh(root, engine)
        for path in written:
            print(f"wrote {path}")
        return 0
    problems = golden_mod.verify(root, engine)
    if problems:
        print(f"GOLDEN MISMATCH ({len(problems)}):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("golden corpus conformant")
    return 0


def _cmd_run(args) -> int:
    if _load_profile_files(args):
        return 2
    mem = _resolve_mem_arg(args.mem)
    if isinstance(mem, str):
        print(mem, file=sys.stderr)
        return 2
    if args.workload:
        workload = _resolve_workload_arg(args.workload)
        if isinstance(workload, str):
            print(workload, file=sys.stderr)
            return 2
        spec = RunSpec.from_workload(
            workload,
            l2_latency=args.latency,
            decoupled=not args.non_decoupled,
            seed=args.seed,
            commits=args.commits,
            backend=args.backend,
            mem=mem,
            **_deadlock_overrides(args),
        )
        title = (
            f"{workload.label()} ({workload.n_threads} threads, "
            f"L2={args.latency}, "
            f"{'non-decoupled' if args.non_decoupled else 'decoupled'})"
        )
    else:
        spec = RunSpec.multiprogrammed(
            args.threads,
            l2_latency=args.latency,
            decoupled=not args.non_decoupled,
            seed=args.seed,
            commits_per_thread=args.commits,
            backend=args.backend,
            mem=mem,
            **_deadlock_overrides(args),
        )
        mode = "non-decoupled" if args.non_decoupled else "decoupled"
        title = f"{args.threads} threads, L2={args.latency}, {mode}"
    if args.snapshot or args.restore:
        return _run_with_snapshot(args, spec, title)
    stats = _engine_from_args(args).run(spec)
    print(format_run(stats, title))
    return 0


def _run_with_snapshot(args, spec, title: str) -> int:
    """``run --snapshot/--restore``: checkpoint the warm-up boundary to a
    file, or continue a run from one (always freshly simulated — the
    result cache would defeat the point of exercising the machinery)."""
    from repro.engine.snapshot import (
        Snapshot,
        SnapshotError,
        capture_warmup,
        measure_group,
        run_tail,
    )

    if spec.backend != "cycle":
        print(
            "--snapshot/--restore need the cycle backend (only it has "
            "machine state to checkpoint)",
            file=sys.stderr,
        )
        return 2
    if args.restore:
        try:
            with open(args.restore, "rb") as fh:
                snap = Snapshot.from_bytes(fh.read())
            (stats,) = run_tail([spec], snap)
        except (OSError, SnapshotError) as exc:
            print(f"--restore {args.restore}: {exc}", file=sys.stderr)
            return 2
        print(format_run(stats, f"{title} [restored @{snap.meta['cycle']}]"))
        return 0
    snap, proc = capture_warmup(spec)
    with open(args.snapshot, "wb") as fh:
        fh.write(snap.to_bytes())
    print(
        f"[wrote {args.snapshot}: cycle {snap.meta['cycle']}, "
        f"warmup_key {snap.meta['warmup_key']}]",
        file=sys.stderr,
    )
    (stats,) = measure_group(proc, [spec])
    print(format_run(stats, title))
    return 0


def _cmd_bench(args) -> int:
    if _load_profile_files(args):
        return 2
    mem = _resolve_mem_arg(args.mem)
    if isinstance(mem, str):
        print(mem, file=sys.stderr)
        return 2
    try:
        spec = RunSpec.single(
            args.name,
            l2_latency=args.latency,
            decoupled=not args.non_decoupled,
            seed=args.seed,
            backend=args.backend,
            mem=mem,
            **_deadlock_overrides(args),
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    stats = _engine_from_args(args).run(spec)
    print(format_run(stats, f"{args.name} (1 thread, L2={args.latency})"))
    return 0


_KNOB_COLUMNS = (
    ("ws", lambda p: f"{p.ws_bytes // 1024}K"),
    ("hot%", lambda p: f"{p.hot_frac * 100:.0f}"),
    ("hot", lambda p: f"{p.hot_bytes // 1024}K"),
    ("gather%", lambda p: f"{p.gather_frac * 100:.0f}"),
    ("idx_dist", lambda p: p.index_dist),
    ("fp/ld", lambda p: p.fp_per_load),
    ("chains", lambda p: p.n_chains),
    ("lod", lambda p: p.lod_rate),
)


def _cmd_workloads(args) -> int:
    if _load_profile_files(args):
        return 2
    rows = [
        [name]
        + [fmt(get_profile(name)) for _, fmt in _KNOB_COLUMNS]
        + [profile_provenance(name)]
        for name in profile_names()
    ]
    print(
        format_table(
            ["profile"] + [h for h, _ in _KNOB_COLUMNS] + ["provenance"],
            rows,
            "Registered benchmark profiles",
        )
    )
    rows = []
    for name in preset_names():
        wl = workload_preset(name)
        per_thread = []
        for playlist in wl.threads:
            labels = [e.label for e in playlist]
            if len(labels) > 3:
                per_thread.append(
                    "+".join(labels[:3]) + f"+{len(labels) - 3} more"
                )
            else:
                per_thread.append("+".join(labels))
        uniq = list(dict.fromkeys(per_thread))
        preview = " | ".join(uniq[:4]) + (" ..." if len(uniq) > 4 else "")
        rows.append(
            [name, wl.n_threads, preview, preset_provenance(name)]
        )
    print()
    print(
        format_table(
            ["preset", "threads", "per-thread playlists", "provenance"],
            rows,
            "Workload presets (repro-sim run --workload NAME)",
        )
    )
    rows = []
    for name in mem_preset_names():
        ms = mem_preset(name)
        levels = []
        for lvl in ms.levels:
            cap = lvl.capacity_bytes
            if cap is None:
                cap = "inf"
            elif isinstance(cap, int):
                cap = f"{cap // 1024}K"
            tag = f"{lvl.name}:{cap}"
            if lvl.assoc > 1:
                tag += f"/{lvl.assoc}w"
            if not lvl.shared:
                tag += "/split"
            levels.append(tag)
        ic = ms.interconnect
        width = (
            f"{ic.bytes_per_cycle}B"
            if isinstance(ic.bytes_per_cycle, int) else str(ic.bytes_per_cycle)
        )
        bus = f"{width} {ic.policy}"
        pf = ms.prefetch
        pref = "-" if pf.kind == "none" else f"{pf.kind} x{pf.degree}"
        rows.append(
            [name, " > ".join(levels), bus, pref,
             mem_preset_provenance(name)]
        )
    print()
    print(
        format_table(
            ["mem preset", "levels", "bus", "prefetch", "provenance"],
            rows,
            "Memory-hierarchy presets (repro-sim run --mem NAME)",
        )
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        spool_dir=args.spool_dir,
        engine_workers=args.workers,
        service_workers=args.service_workers,
        fork_warmup=args.fork_warmup,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Cycle-accurate SMT + decoupled access/execute simulator "
            "(reproduction of Parcerisa & González, HPCA 1999)"
        ),
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")

    machine_flags = argparse.ArgumentParser(add_help=False)
    machine_flags.add_argument(
        "--deadlock-cycles", type=int, default=None, metavar="N",
        help="cycles without a commit before declaring the pipeline wedged "
             "(default: MachineConfig.deadlock_cycles = 100000; raise for "
             "very long-latency sweeps)",
    )

    backend_flags = argparse.ArgumentParser(add_help=False)
    backend_flags.add_argument(
        "--backend", choices=backend_names(), default="cycle",
        help="simulation engine: 'cycle' (faithful staged kernel), "
             "'analytic' (mean-value fast model, milliseconds per run; "
             "validated by 'repro-sim conformance'), or 'hybrid' (the "
             "multi-fidelity router: analytic screens with calibrated "
             "error bars, cycle verifies the cells that matter)",
    )

    profile_flags = argparse.ArgumentParser(add_help=False)
    profile_flags.add_argument(
        "--profiles", action="append", default=None, metavar="FILE",
        help="register benchmark profiles from a JSON/TOML file before "
             "resolving workloads (repeatable)",
    )

    workload_flags = argparse.ArgumentParser(add_help=False)
    workload_flags.add_argument(
        "--workload", default=None, metavar="REF",
        help="declarative workload: a preset name (see 'repro-sim "
             "workloads') or a JSON/TOML workload file; overrides "
             "--threads/--benches",
    )

    mem_flags = argparse.ArgumentParser(add_help=False)
    mem_flags.add_argument(
        "--mem", default=None, metavar="REF",
        help="declarative memory hierarchy: a preset name "
             f"({', '.join(mem_preset_names())}; see 'repro-sim "
             "workloads') or a JSON/TOML MemSpec file; default: the "
             "classic paper machine built from the config scalars",
    )

    engine_flags = argparse.ArgumentParser(add_help=False)
    g = engine_flags.add_argument_group("engine")
    g.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_WORKERS, else all cores; "
             "1 = serial in-process)",
    )
    g.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    g.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR, "
             "else ~/.cache/repro-sim)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "figure", help="regenerate a paper figure",
        parents=[engine_flags, backend_flags],
    )
    p.add_argument("name", choices=sorted(FIGURES) + ["all"])
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "ablation", help="run an ablation study", parents=[engine_flags]
    )
    p.add_argument("name", choices=sorted(ABLATIONS) + ["all"])
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "sweep",
        help="run an ad-hoc grid and print JSON",
        parents=[
            engine_flags, machine_flags, backend_flags,
            workload_flags, profile_flags, mem_flags,
        ],
        description=(
            "Expand a grid of runs (threads x latencies x modes for the "
            "multiprogrammed workload, benches x latencies x modes for "
            "single-benchmark runs, or a --workload preset/file crossed "
            "with latencies, modes and --workload-axis profile-field "
            "axes), execute it through the engine and print one JSON "
            "document with a spec + stats entry per run."
        ),
    )
    p.add_argument("--threads", default="4",
                   help="comma-separated thread counts (default: 4)")
    p.add_argument("--latencies", default="16",
                   help=f"comma-separated L2 latencies, e.g. "
                        f"{','.join(map(str, LATENCIES))} (default: 16)")
    p.add_argument("--modes", default="dec",
                   help="comma-separated from {dec,non} (default: dec)")
    p.add_argument("--benches", default=None,
                   help="comma-separated profile names (inline overrides "
                        "allowed); switches the grid to single-benchmark "
                        "runs (ignores --threads)")
    p.add_argument("--workload-axis", action="append", default=None,
                   metavar="FIELD=V1,V2,...",
                   help="with --workload: sweep a profile field across "
                        "every playlist entry, e.g. hot_frac=0.1,0.4 "
                        "(repeatable; axes combine as a grid)")
    p.add_argument("--mem-axis", action="append", default=None,
                   metavar="FIELD=V1,V2,...",
                   help="sweep a memory-hierarchy field over the --mem "
                        "spec (default: classic), e.g. "
                        "L2.capacity_bytes=256K,1M or prefetch_degree=1,2 "
                        "(repeatable; axes combine as a grid)")
    p.add_argument("--commits", default=None,
                   help="comma-separated measured-commit budget overrides "
                        "(pre-scale, per thread); several values add a "
                        "grid axis — cells differing only here share a "
                        "warm-up prefix, so this pairs with --fork-warmup")
    p.add_argument("--fork-warmup", type=int, default=None, metavar="N",
                   help="run cells sharing a warm-up prefix (same "
                        "workload/seed/machine/warm-up budget) on one "
                        "machine when at least N of them miss the cache "
                        "(floor 2): one warm-up, then one measured region "
                        "through every cell's --commits budget; results "
                        "are bit-identical to cold runs, only faster. The "
                        "warm-up snapshot persists in the result cache, so "
                        "a later sweep that adds a budget skips the "
                        "warm-up.")
    g = p.add_argument_group(
        "router (--backend hybrid)",
        "multi-fidelity routing: the whole grid is screened on the "
        "analytic backend with calibrated IPC error bars, and only the "
        "cells that matter (figure extrema, decision boundaries whose "
        "ranking flips within the error bar, cells over the error "
        "budget) are promoted to the cycle backend",
    )
    g.add_argument("--promote-budget", type=_promote_budget, default=None,
                   metavar="FRAC|N",
                   help="cap on promoted cells: a fraction of the grid "
                        "(0 < f <= 1) or an absolute cell count "
                        "(default: 0.15)")
    g.add_argument("--error-budget", type=float, default=None,
                   metavar="FRAC",
                   help="promote every cell whose relative IPC error bar "
                        "half-width exceeds FRAC (still capped by the "
                        "promote budget)")
    g.add_argument("--router-corpus", default=None, metavar="PATH",
                   help="conformance corpus the error model is fitted "
                        "from (default: the committed "
                        "benchmarks/conformance/corpus.json)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "run", help="one custom run (threads or a declarative workload)",
        parents=[
            engine_flags, machine_flags, backend_flags,
            workload_flags, profile_flags, mem_flags,
        ],
    )
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--latency", type=int, default=16, help="L2 latency (cycles)")
    p.add_argument("--non-decoupled", action="store_true")
    p.add_argument("--commits", type=int, default=None,
                   help="measured commits per thread")
    p.add_argument("--snapshot", default=None, metavar="PATH",
                   help="checkpoint the machine at the warm-up boundary "
                        "to PATH (then finish this run normally); feed it "
                        "back with --restore")
    p.add_argument("--restore", default=None, metavar="PATH",
                   help="continue from a --snapshot checkpoint instead of "
                        "simulating the warm-up (the spec must share the "
                        "snapshot's warm-up prefix; results are "
                        "bit-identical to an unbroken run)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "bench", help="one single-threaded benchmark run",
        parents=[
            engine_flags, machine_flags, backend_flags, profile_flags,
            mem_flags,
        ],
    )
    p.add_argument(
        "name",
        help="a registered profile name, optionally with inline overrides "
             "('swim?hot_frac=0.1&ws_bytes=16M'); see 'repro-sim workloads'",
    )
    p.add_argument("--latency", type=int, default=16)
    p.add_argument("--non-decoupled", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "workloads",
        help="list registered profiles and workload presets",
        parents=[profile_flags],
        description=(
            "Print every registered benchmark profile (key knobs + "
            "provenance: built-in vs the file that registered it) and "
            "every workload preset usable with --workload."
        ),
    )
    p.set_defaults(func=_cmd_workloads)

    # golden deliberately takes no cache flags: it always compares *live*
    # semantics, so advertising --cache-dir/--no-cache would be a lie
    p = sub.add_parser(
        "golden",
        help="verify or refresh the golden-stats regression corpus",
        description=(
            "Re-run the pinned fig1/fig3/fig4 golden sub-grid on the "
            "cycle backend (always freshly simulated, never from the "
            "result cache) and diff it against the committed corpus "
            "(tests/golden/). --refresh rewrites the corpus — do this "
            "only for intentional semantics changes, together with a "
            "SPEC_VERSION bump."
        ),
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_WORKERS, else all cores)",
    )
    p.add_argument(
        "--refresh", action="store_true",
        help="rewrite the corpus from live runs instead of verifying",
    )
    p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="corpus location (default: the repository's "
             f"{golden_mod.DEFAULT_DIR})",
    )
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser(
        "conformance",
        help="validate the analytic backend against the cycle backend",
        parents=[engine_flags],
        description=(
            "Run both backends over the paper's Figure-4 grid, report "
            "per-cell and aggregate error on IPC / perceived latency / "
            "bus utilization. Exits non-zero when the mean absolute IPC "
            "error exceeds the tolerance (CI gates on this)."
        ),
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced grid (CI smoke mode; combine with REPRO_SCALE)",
    )
    p.add_argument(
        "--tolerance", type=float, default=conf_mod.TOLERANCE_IPC,
        metavar="FRAC",
        help="mean absolute relative IPC error allowed "
             f"(default: {conf_mod.TOLERANCE_IPC})",
    )
    p.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the conformance JSON document here",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="distill the per-cell results into a conformance *corpus* — "
             "the router error model's training data (the repo commits "
             "one at benchmarks/conformance/corpus.json)",
    )
    p.add_argument(
        "--fit", action="store_true",
        help="fit the router error model and gate held-out interval "
             "coverage at 90%% (on the fresh results, or on --corpus "
             "without simulating anything)",
    )
    p.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="with --fit: fit from this committed corpus instead of "
             "running the grid — the CI drift gate",
    )
    p.add_argument(
        "--quantile", type=float, default=0.95, metavar="Q",
        help="error-bar quantile the model is fitted for (default: 0.95)",
    )
    p.set_defaults(func=_cmd_conformance)

    p = sub.add_parser(
        "serve",
        help="run the HTTP job server (simulation as a service)",
        parents=[engine_flags],
        description=(
            "Serve simulations over HTTP: POST /jobs takes a RunSpec "
            "JSON body ({\"spec\": {...}} or {\"specs\": [...]}; the "
            "exact documents 'repro-sim sweep' emits under runs[].spec), "
            "GET /jobs/{id} reports status and results, "
            "GET /jobs/{id}/events streams progress lines, GET /metrics "
            "exposes queue depth and engine counters. A pool of worker "
            "tasks executes jobs through engines sharing one result "
            "cache; identical specs submitted concurrently coalesce to "
            "a single simulation. Accepted jobs persist in a spool "
            "directory, so unfinished work is re-queued after a "
            "restart; SIGTERM stops accepting, finishes in-flight "
            "jobs and exits."
        ),
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="TCP port, 0 picks a free one (default: 8023)")
    p.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="concurrent jobs (each job additionally fans out over "
             "--workers processes; default: 2)",
    )
    p.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="durable job queue location (default: <cache-dir>/jobs)",
    )
    p.add_argument(
        "--fork-warmup", type=int, default=None, metavar="N",
        help="enable forked sweeps inside jobs (see 'repro-sim sweep "
             "--fork-warmup')",
    )
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
