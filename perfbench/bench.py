"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
empty per-process memos (trace synthesis, the charwalk ``lru_cache``,
the error-model load) and an empty result cache, exactly as a fresh
``repro-sim`` invocation does.  The pass prints one JSON object as its
last stdout line: set-up time, per-operation latencies, work done,
attempted/failed counts and, with ``--trace``, per-layer metrics.

Every workload pins ``scale=`` in its specs, so ``REPRO_SCALE`` cannot
skew a pass.  The seed only orders the inputs and picks the sampled
correctness checks; the set of inputs is the same for every seed, so
metrics compare across seeds and the recorded result digests apply to
every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import http.client
import json
import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

_now = time.perf_counter

#: the calibration loop's time on the reference host: the 2-vCPU VM the
#: baseline in BASELINE.md was measured on, at its usual speed
REF_SPIN_S = 0.0165


def spin() -> float:
    """Host-speed probe: a fixed pure-Python loop, timed.

    The host's speed drifts by up to 2x over seconds to minutes.  Every
    timed interval is bracketed by two probes and scaled by
    ``REF_SPIN_S`` over their mean, so the benchmark reports host time
    at the reference speed and the drift largely cancels.
    """
    t0 = _now()
    x = 0
    for i in range(250_000):
        x += i * i % 7
    return _now() - t0


SPIN_START = spin()
T_PROCESS = _now()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from tracer import NullTracer, Tracer, install  # noqa: E402

#: budget scale of every sweep and service spec (the kernel's pinned
#: perf specs carry their own ``scale=1.0``)
SCALE = 0.1
#: worker processes and client connections: the container's core count
WORKERS = 2
#: fork-group threshold of the cycle-grid workloads
FORK_WARMUP = 2
#: fresh-engine re-maps per ``warm`` pass: one re-map of the 32-cell
#: grid takes well under 0.1 s, too short to time steadily on its own
WARM_REPEATS = 32
#: warm re-maps per calibration: a probe costs about as much as a re-map
WARM_GROUP = 4
#: separately timed maps the ``analytic`` grid is cut into
ANALYTIC_BATCHES = 8
#: client poll period while a service job runs
POLL_S = 0.005
#: cells sampled per pass for each direct-execution contract check
N_SAMPLED = 2

DIGESTS = HERE / "digests.json"


# -- inputs ---------------------------------------------------------------


def fig4_grid(budgets, tiny: bool):
    """A fig4-shaped cycle grid with a measured-budget axis.  Cells that
    differ only in budget share a warm-up prefix, which is what makes
    fork groups (a plain fig4 grid has none)."""
    from repro.engine import RunSpec

    threads = (1, 2) if tiny else (1, 2, 3, 4)
    modes = (True,) if tiny else (True, False)
    latencies = (16,) if tiny else (16, 256)
    return [
        RunSpec.multiprogrammed(
            n, l2_latency=lat, decoupled=dec, commits_per_thread=c,
            scale=0.05 if tiny else SCALE,
        )
        for n in threads for dec in modes for lat in latencies
        for c in budgets
    ]


COLD_BUDGETS = (15_000, 20_000)


def hybrid_grid(tiny: bool):
    """The 216-cell grid of ``benchmarks/router_smoke.py`` with its scale
    pinned (that script takes it from ``REPRO_SCALE``).  Routing is a
    function of the whole grid, so the tiny grid uses its own scale: its
    cells must not share spec keys (and recorded digests) with the full
    grid's."""
    from repro.engine import RouterSpec, RunSpec

    router = RouterSpec(promote_budget=0.15)
    threads = (1, 2) if tiny else (1, 2, 3, 4)
    latencies = range(4, 68, 16) if tiny else range(4, 436, 16)
    return [
        RunSpec.multiprogrammed(
            n, l2_latency=lat, decoupled=dec, backend="hybrid",
            router=router, scale=0.05 if tiny else SCALE,
        )
        for n in threads for lat in latencies for dec in (True, False)
    ]


def analytic_grid(tiny: bool):
    from repro.engine import RunSpec

    threads = (1,) if tiny else (1, 2, 3, 4)
    latencies = range(6, 86, 8) if tiny else range(6, 510, 8)
    return [
        RunSpec.multiprogrammed(
            n, l2_latency=lat, decoupled=dec, backend="analytic",
            scale=SCALE,
        )
        for n in threads for lat in latencies for dec in (True, False)
    ]


def kernel_specs(tiny: bool) -> dict:
    """The pinned perf set at its CI budgets (``quick``: half the full
    budgets), which keeps three passes of it within a run's time."""
    from repro.experiments.perf import perf_specs

    specs = perf_specs(quick=True)
    if tiny:
        specs = dict(list(specs.items())[:2])
    return specs


def service_jobs(rng: random.Random, tiny: bool) -> list[dict]:
    """The seeded job mix: analytic batches, fresh cycle specs, and
    resubmissions of earlier jobs placed a few jobs after the original,
    so they hit the cache or coalesce with the other client's in-flight
    copy.  Half the resubmissions repeat cycle jobs, half analytic ones,
    so the mix has the same cost shape for every seed."""
    from repro.engine import RunSpec

    n_batches, n_cycle, n_resub = (4, 2, 2) if tiny else (20, 8, 8)
    batch = 4
    pool = [
        RunSpec.multiprogrammed(
            n, l2_latency=lat, decoupled=dec, backend="analytic", scale=SCALE,
        )
        for n in (1, 2, 3, 4)
        for lat in range(8, 8 + 8 * (n_batches * batch // 8), 8)
        for dec in (True, False)
    ]
    rng.shuffle(pool)
    jobs = [
        {"kind": "analytic", "specs": pool[i * batch:(i + 1) * batch]}
        for i in range(n_batches)
    ]
    latencies = (16, 32, 48, 64, 96, 128, 192, 256)
    jobs += [
        {"kind": "cycle", "specs": [RunSpec.multiprogrammed(
            2, l2_latency=latencies[i // 2], decoupled=bool(i % 2),
            scale=SCALE,
        )]}
        for i in range(n_cycle)
    ]
    rng.shuffle(jobs)
    for kind in ("cycle", "analytic"):
        originals = [j for j in jobs if j["kind"] == kind]
        for orig in rng.sample(originals, n_resub // 2):
            at = jobs.index(orig) + 1 + rng.randrange(4)
            jobs.insert(at, {"kind": "resubmit", "specs": orig["specs"]})
    return jobs


# -- correctness ----------------------------------------------------------


def digest(stats) -> str:
    """Content digest of a result's architectural statistics (scheduler
    diagnostics excluded, as in the repo's differential suites)."""
    payload = json.dumps(
        stats.comparable_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Pass:
    """What one pass measured and checked."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.rng = random.Random(args.seed)
        self.setup_s = 0.0
        self.ops: list[float] = []      # per-operation latencies
        # host time per measured region, keyed by a name that is the same
        # in every pass of a run, so the run can take each one's median
        self.regions: dict[str, float] = {}
        self.units = 0.0                # work done in the measured regions
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fresh: list = []           # newly simulated cycle results
        self.sweeps: list = []          # measured SweepResults
        self.details: dict = {}
        self.layers: dict = {}
        self.digests_seen: dict[str, str] = {}
        self.digests_checked = 0
        self.factors: list[float] = []  # calibration factors applied
        self._recorded: dict | None = None

    def scale_from(self, before: float) -> float:
        """The calibration factor of an interval that began after the
        probe ``before`` and ends now."""
        factor = REF_SPIN_S / ((before + spin()) / 2)
        self.factors.append(factor)
        return factor

    @property
    def spec_version(self) -> int:
        from repro.engine.spec import SPEC_VERSION

        return SPEC_VERSION

    @property
    def recorded(self) -> dict:
        """This spec version's recorded digests (read after timing)."""
        if self._recorded is None:
            table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            self._recorded = table.get(str(self.spec_version), {})
        return self._recorded

    def mark_ready(self) -> None:
        """Set-up ends here: everything since the interpreter started
        (imports, input construction, cache fill, server start)."""
        raw = _now() - T_PROCESS
        self.setup_s += raw * self.scale_from(SPIN_START)
        self.tracer.reset()

    def mark_done(self) -> None:
        """The measured region ends here; checks that follow are not
        traced."""
        self.tracer.on = False

    @property
    def checking(self) -> bool:
        """Sampled contract checks run once per run, on its first pass."""
        return self.args.pass_index == 0

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def check_results(self, results) -> None:
        """Compare ``(spec, stats)`` pairs with the recorded digests.  A
        full-size result with no recorded digest fails too: a changed
        ``RunSpec.key()`` or ``SPEC_VERSION`` must not switch the gate
        off.  Tiny inputs are exempt: most have no recorded digest."""
        for spec, stats in results:
            key = spec.key()
            got = digest(stats)
            self.digests_seen[key] = got
            want = self.recorded.get(key)
            if want is None:
                if not self.args.tiny and self.args.record_digests is None:
                    self.fail(f"no recorded digest for {spec.label()} "
                              f"(spec version {self.spec_version})")
                continue
            self.digests_checked += 1
            if got != want:
                self.fail(f"digest mismatch for {spec.label()}: {got} "
                          f"!= recorded {want}")

    def check_same(self, what: str, got, want) -> None:
        """One sampled contract check: two results must be identical."""
        self.attempted += 1
        if got.comparable_dict() != want.comparable_dict():
            self.fail(f"{what}: results differ")

    def check_results_and_inject(self, results: list) -> None:
        """Digest-check ``results``; with ``--inject-failure`` also hand
        the contract gate one tampered result, which it must count."""
        self.check_results(results)
        if self.args.inject_failure and self.checking and results:
            stats = results[0][1]
            self.check_same("injected failure", stats, dataclasses.replace(
                stats, cycles=stats.cycles + 1))

    @contextlib.contextmanager
    def calibrated(self):
        """Scale the regions and operations timed inside the block by
        one host-speed factor, probed at the block's two ends."""
        regions, ops = len(self.regions), len(self.ops)
        probe = spin()
        yield
        factor = self.scale_from(probe)
        for key in list(self.regions)[regions:]:
            self.regions[key] *= factor
        self.ops[ops:] = [lat * factor for lat in self.ops[ops:]]

    def timed_map(self, engine, specs: list, label: str,
                  per_cell: bool = True):
        """One measured ``Engine.map``: every cell is an operation whose
        latency runs from the map call until its result lands.  With
        ``per_cell`` off the map itself is the one latency sample.  Call
        it inside :meth:`calibrated`."""
        wanted = set(specs)
        events: dict = {}
        self.attempted += len(specs)
        t0 = _now()

        def progress(event, spec):
            if spec in wanted and spec not in events:
                events[spec] = (event, _now() - t0)

        engine.progress = progress
        try:
            with self.tracer.span(f"phase.{label}"):
                result = engine.map(specs)
        except Exception as exc:  # a raising spec fails the whole map
            self.fail(f"{label}: map raised {exc!r}", len(specs))
            return None, events
        finally:
            engine.progress = None
        region = f"{label}{len(self.regions)}"
        self.regions[region] = _now() - t0
        if per_cell:
            self.ops.extend(lat for _event, lat in events.values())
        else:
            self.ops.append(self.regions[region])
        self.units += len(specs)
        self.sweeps.append(result)
        return result, events

    def result(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "ops": self.ops,
            "regions": self.regions,
            "units": self.units,
            "measured_s": sum(self.regions.values()),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "details": self.details,
            "layers": self.layers,
            "spec_version": self.spec_version,
            "digests_checked": self.digests_checked,
            "speed_factor": statistics.median(self.factors or [1.0]),
        }


# -- workloads ------------------------------------------------------------


def run_kernel(p: Pass) -> None:
    """The pinned perf specs, serially, no engine and no cache."""
    specs = kernel_specs(p.args.tiny)
    # fixed order: whichever rotation spec runs first pays the shared
    # trace synthesis, so a seeded order would move per-spec latencies
    names = list(specs)
    tracer = p.tracer
    results, commits = [], 0
    per_spec = {}
    traced = isinstance(tracer, Tracer)
    p.mark_ready()
    for name in names:
        spec = specs[name]
        p.attempted += 1
        before = stage_totals(tracer) if traced else {}
        try:
            probe = spin()
            with tracer.span("kernel.spec"):
                t0 = _now()
                proc, kwargs = spec.instantiate()
                t1 = _now()
                warmup = kwargs.pop("warmup_commits")
                with tracer.span("kernel.warmup"):
                    proc.run(max_commits=warmup, max_cycles=None)
                warm_commits = proc.total_committed
                proc.reset_stats()
                with tracer.span("kernel.measured"):
                    stats = proc.run(**kwargs)
                t2 = _now()
            f = p.scale_from(probe)
        except Exception as exc:
            p.fail(f"kernel {name}: {exc!r}")
            continue
        p.setup_s += (t1 - t0) * f
        p.ops.append((t2 - t0) * f)
        p.regions[name] = (t2 - t1) * f
        commits += warm_commits + stats.committed
        results.append((spec, stats))
        per_spec[name] = {
            "ff_skip_ratio": stats.ff_cycles_skipped / max(1, stats.cycles),
        }
        if traced:
            after = stage_totals(tracer)
            per_spec[name]["stage_self_s"] = {
                k: v - before.get(k, 0.0) for k, v in after.items()
            }
    p.mark_done()
    p.units = commits
    p.fresh = [s for _, s in results]
    p.details["specs"] = per_spec
    p.check_results_and_inject(results)
    if p.checking and results:
        spec, stats = results[p.rng.randrange(len(results))]
        p.check_same(f"kernel split run == execute() for {spec.label()}",
                     stats, spec.execute())


def stage_totals(tracer: Tracer) -> dict:
    return {
        name: tot[2] for name, tot in tracer.totals.items()
        if name.startswith("core.stage.")
    }


def _engine(cache_dir: Path, fork: bool = True):
    from repro.engine import Engine, ResultCache

    return Engine(
        workers=WORKERS, cache=ResultCache(cache_dir),
        fork_warmup=FORK_WARMUP if fork else None,
    )


def _fill(p: Pass, grid: list, cache_dir: Path):
    """Set-up of the cache-dependent workloads: a cold map of the grid."""
    try:
        return _engine(cache_dir).map(grid)
    except Exception as exc:
        p.fail(f"cache fill raised {exc!r}")
        return None


def _sample_forked(p: Pass, result, events: dict, label: str) -> None:
    """forked == cold: re-run sampled forked cells with no engine."""
    forked = [s for s, (event, _) in events.items() if event == "forked"]
    if not forked:
        p.fail(f"{label}: no cell forked")
        return
    for spec in p.rng.sample(forked, min(N_SAMPLED, len(forked))):
        p.check_same(f"{label}: forked == cold for {spec.label()}",
                     result[spec], spec.execute())


def run_cold(p: Pass) -> None:
    grid = fig4_grid(COLD_BUDGETS, p.args.tiny)
    p.rng.shuffle(grid)
    engine = _engine(p.args.work_dir / "cache")
    p.mark_ready()
    with p.calibrated():
        result, events = p.timed_map(engine, grid, "cold")
    p.mark_done()
    if result is None:
        return
    p.fresh = list(result.values())
    p.check_results_and_inject(list(result.items()))
    if p.checking:
        _sample_forked(p, result, events, "cold")


def run_warm(p: Pass) -> None:
    # canonical order for every seed: a cache read's cost grows with the
    # cell's thread count, so a seeded order moved the median cell's
    # landing time by a quarter between seeds (19 vs 24 ms)
    grid = fig4_grid(COLD_BUDGETS, p.args.tiny)
    cache_dir = p.args.work_dir / "cache"
    cold = _fill(p, grid, cache_dir)
    p.mark_ready()
    if cold is None:
        return
    maps = []
    for _ in range(1 if p.args.tiny else WARM_REPEATS // WARM_GROUP):
        with p.calibrated():
            for _ in range(2 if p.args.tiny else WARM_GROUP):
                maps.append(p.timed_map(_engine(cache_dir), grid, "warm")[0])
    p.mark_done()
    for i, result in enumerate(maps):
        if result is None:
            continue
        if i == 0:
            p.check_results_and_inject(list(result.items()))
        # warm == cold, every cell of every re-map
        p.attempted += 1
        if any(
            result[s].comparable_dict() != cold[s].comparable_dict()
            for s in grid
        ):
            p.fail(f"warm re-map {i}: cached results differ from cold")


def run_hybrid(p: Pass) -> None:
    from repro.router.errmodel import load_model

    grid = hybrid_grid(p.args.tiny)
    p.rng.shuffle(grid)
    rspec = grid[0].router
    load_model(rspec.corpus, rspec.quantile)
    engine = _engine(p.args.work_dir / "cache", fork=False)
    p.mark_ready()
    # the router emits every cell's event after both of its inner maps
    # end, so per-cell latencies would all equal the map's wall time:
    # the whole grid is the one operation a hybrid user waits for
    with p.calibrated():
        result, _ = p.timed_map(engine, grid, "hybrid", per_cell=False)
    p.mark_done()
    if result is None:
        return
    promoted = [
        s for s in grid if result.router.get(s, {}).get("fidelity") == "cycle"
    ]
    covered = sum(
        1 for s in promoted
        if result.router[s]["ipc_lo"] <= result[s].ipc
        <= result.router[s]["ipc_hi"]
    )
    p.details.update(
        n_cells=len(grid), n_promoted=len(promoted),
        bar_coverage=covered / len(promoted) if promoted else 0.0,
    )
    p.fresh = [result[s] for s in promoted]
    p.check_results_and_inject(list(result.items()))
    if p.checking:
        for spec in p.rng.sample(promoted, min(N_SAMPLED, len(promoted))):
            twin = dataclasses.replace(spec, backend="cycle", router=None)
            p.check_same(f"hybrid: promoted == pure cycle for {spec.label()}",
                         result[spec], twin.execute())


def run_analytic(p: Pass) -> None:
    grid = analytic_grid(p.args.tiny)
    p.rng.shuffle(grid)
    engine = _engine(p.args.work_dir / "cache", fork=False)
    p.mark_ready()
    # the specs run serially in this process; batches short enough for
    # their end-point calibration to follow the host's drift
    step = -(-len(grid) // ANALYTIC_BATCHES)
    results = []
    for i in range(0, len(grid), step):
        with p.calibrated():
            results.append(p.timed_map(engine, grid[i:i + step],
                                       "analytic")[0])
    p.mark_done()
    if any(r is None for r in results):
        return
    result = {s: stats for r in results for s, stats in r.items()}
    p.check_results_and_inject(list(result.items()))
    if p.checking:
        for spec in p.rng.sample(grid, N_SAMPLED):
            p.check_same(f"analytic: engine == execute() for {spec.label()}",
                         result[spec], spec.execute())


# -- service --------------------------------------------------------------


class Server:
    """``repro-sim serve`` as a subprocess on a free loopback port."""

    def __init__(self, cache_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(cache_dir), "--workers", str(WORKERS),
             "--service-workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.log: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_port()
            while self.request("GET", "/healthz")[0] != 200:
                time.sleep(0.01)
        except (RuntimeError, OSError):
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = _now() + timeout
        while _now() < deadline:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - _now()))
            except queue.Empty:
                break
            if line is None:
                break
            m = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))
        raise RuntimeError("server did not start:\n" + "".join(self.log))

    def request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


def run_service(p: Pass) -> None:
    from repro.stats.counters import SimStats

    jobs = service_jobs(p.rng, p.args.tiny)
    try:
        server = Server(p.args.work_dir / "cache")
    except (RuntimeError, OSError) as exc:
        p.fail(f"service did not start: {exc}")
        return
    p.mark_ready()
    records: list[dict] = []
    lock = threading.Lock()

    first_done = threading.Event()

    def client(mine: list[dict], lead: bool) -> None:
        if not lead:
            first_done.wait()
        for job in mine:
            rec = {"kind": job["kind"], "specs": job["specs"], "ok": False}
            body = {"specs": [s.to_dict() for s in job["specs"]],
                    "label": job["kind"]}
            t0 = _now()
            try:
                status, doc = server.request("POST", "/jobs", body)
                rec["post_s"] = _now() - t0
                if status != 202:
                    rec["error"] = f"POST answered {status}"
                else:
                    polls = 0
                    while True:
                        status, doc = server.request("GET", f"/jobs/{doc['id']}")
                        polls += 1
                        if status != 200 or doc["state"] in ("done", "failed"):
                            break
                        time.sleep(POLL_S)
                    rec.update(latency_s=_now() - t0, polls=polls, doc=doc)
                    if status != 200:
                        rec["error"] = f"GET answered {status}"
                    elif doc["state"] != "done":
                        rec["error"] = f"job failed: {doc.get('error')}"
                    else:
                        rec["ok"] = True
            except Exception as exc:  # a broken job is a failed operation
                rec["error"] = repr(exc)
            finally:
                with lock:
                    records.append(rec)
                first_done.set()

    # the second client starts once the first job is done, so the first
    # job pays the server's lazy start-up (trace synthesis, imports) alone
    # for every seed, instead of racing a second copy of it
    threads = [
        threading.Thread(target=client, args=(jobs[i::WORKERS], i == 0))
        for i in range(WORKERS)
    ]
    try:
        probe = spin()
        t0 = _now()
        with p.tracer.span("phase.service"):
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        wall = _now() - t0
        f = p.scale_from(probe)  # one factor: the clients cannot probe mid-loop
        p.regions["loop"] = wall * f
        p.mark_done()
        if p.args.inject_failure and p.checking:
            status, _ = server.request("POST", "/jobs", {"specs": []})
            records.append({"kind": "injected", "ok": status == 202,
                            "error": f"POST answered {status}"})
    finally:
        server.stop()

    fresh, coalesced, cached, executed = {}, 0, 0, 0
    for rec in records:
        p.attempted += 1
        if not rec["ok"]:
            p.fail(f"service {rec['kind']} job: {rec.get('error')}")
            continue
        p.ops.append(rec["latency_s"] * f)
        doc = rec["doc"]
        counters = doc["counters"]
        coalesced += counters["n_coalesced"]
        cached += counters["n_cached"]
        executed += counters["n_executed"]
        runs = [(s, SimStats.from_dict(run["stats"]))
                for s, run in zip(rec["specs"], doc["runs"])]
        rec["runs"] = runs
        p.check_results(runs)
        for spec, stats in runs:
            if spec.backend == "cycle":
                fresh[spec.key()] = stats
    p.units = sum(1 for r in records if r["ok"])
    p.fresh = list(fresh.values())
    done = [r for r in records if r["ok"]]
    p.details.update(
        post_s=sum(r["post_s"] for r in done),
        queue_wait_s=sum(r["doc"]["started"] - r["doc"]["created"]
                         for r in done),
        run_s=sum(r["doc"]["finished"] - r["doc"]["started"] for r in done),
        polls_per_job=(sum(r["polls"] for r in done) / len(done)
                       if done else 0.0),
        coalesced_specs=coalesced,
        cache_hit_ratio=cached / max(1, cached + executed),
    )
    if p.checking:
        from repro.engine import Engine

        for kind in ("analytic", "cycle", "resubmit"):
            pool = [r for r in done if r["kind"] == kind]
            if not pool:
                continue
            rec = p.rng.choice(pool)
            direct = Engine(workers=1).map(rec["specs"])
            for spec, stats in rec["runs"]:
                p.check_same(f"service == direct engine for {spec.label()}",
                             stats, direct[spec])


WORKLOADS = {
    "kernel": run_kernel,
    "cold": run_cold,
    "warm": run_warm,
    "hybrid": run_hybrid,
    "analytic": run_analytic,
    "service": run_service,
}


# -- traced-pass layer metrics -------------------------------------------


def _sum_stats(stats_list) -> dict:
    out = dict(cycles=0, skipped=0, jumps=0, loads=0, misses=0, mshr=0,
               blocked=0, bus_cycles=0.0)
    for s in stats_list:
        out["cycles"] += s.cycles
        out["skipped"] += s.ff_cycles_skipped
        out["jumps"] += s.ff_jumps
        out["loads"] += s.loads_fp + s.loads_int
        out["misses"] += (s.load_misses_fp + s.load_misses_int
                          + s.load_merged_fp + s.load_merged_int)
        out["mshr"] += s.mshr_alloc_failures
        out["blocked"] += s.blocked_requests
        out["bus_cycles"] += s.bus_utilization * s.cycles
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(p: Pass) -> dict:
    """Per-layer numbers of this pass (see ``layers.json`` for what each
    one should move).  Times are self times, summed over every process
    of the pass, except ``core.warmup_s``/``core.measured_s`` (region
    wall time) and ``engine.map_s`` (wall time of the measured maps)."""
    tr = p.tracer
    s = _sum_stats(p.fresh)
    walked = s["cycles"] - s["skipped"]
    names = {span[3]: span[0] for span in tr.spans}
    top_maps = [
        span for span in tr.spans
        if span[0] == "engine.map" and names.get(span[4]) != "router.route"
    ]
    map_wall = sum(span[2] - span[1] for span in top_maps)
    worker_busy = sum(span[2] - span[1] for span in tr.spans
                      if span[0] == "engine.worker_task")
    inline_busy = sum(span[2] - span[1] for span in tr.spans
                      if span[0] == "engine.execute" and span[5] == tr.pid)
    sim_s = tr.total_s("core.warmup") + tr.total_s("core.measured")
    sweeps = p.sweeps
    m = {
        "workloads.playlists_s": tr.self_s("workloads.playlists"),
        "workloads.wrongpath_s": tr.self_s("workloads.wrongpath"),
        "workloads.wrongpath_pools": tr.counts.get(
            "workloads.wrongpath_pools", 0),
        "workloads.wrongpath_share": _ratio(
            tr.total_s("workloads.wrongpath"), sim_s),
        "core.instantiate_s": tr.self_s("core.instantiate"),
        "core.warmup_s": tr.total_s("core.warmup"),
        "core.measured_s": tr.total_s("core.measured"),
        "core.walked_cycles": walked,
        "core.ff_jumps": s["jumps"],
        "core.ff_skip_ratio": _ratio(s["skipped"], s["cycles"]),
        "core.host_us_per_walked_cycle": _ratio(
            tr.total_s("core.measured") * 1e6, walked),
    }
    for stage in ("writeback", "commit", "issue", "store-drain", "dispatch",
                  "fetch"):
        m[f"core.stage.{stage}_s"] = tr.self_s(f"core.stage.{stage}")
    m.update({
        "memory.load_s": tr.self_s("memory.load"),
        "memory.store_s": tr.self_s("memory.store"),
        "memory.load_miss_ratio": _ratio(s["misses"], s["loads"]),
        "memory.mshr_alloc_failures": s["mshr"],
        "memory.blocked_requests": s["blocked"],
        "memory.bus_utilization": _ratio(s["bus_cycles"], s["cycles"]),
        "engine.spec.key_s": tr.self_s("engine.spec.key"),
        "engine.map_s": map_wall,
        "engine.overhead_s": (
            map_wall - worker_busy / WORKERS - inline_busy if top_maps else 0.0
        ),
        "engine.n_executed": sum(r.n_executed for r in sweeps),
        "engine.n_cached": sum(r.n_cached for r in sweeps),
        "engine.n_forked": sum(r.n_forked for r in sweeps),
        "engine.cache.get_s": (tr.self_s("engine.cache.get")
                               + tr.self_s("engine.cache.get_snapshot")),
        "engine.cache.hit_ratio": _ratio(
            tr.counts.get("engine.cache.hits", 0),
            tr.counts.get("engine.cache.gets", 0)),
        "engine.cache.put_s": (tr.self_s("engine.cache.put")
                               + tr.self_s("engine.cache.put_snapshot")),
        "engine.snapshot.capture_s": tr.self_s("engine.snapshot.capture"),
        "engine.snapshot.restore_s": tr.self_s("engine.snapshot.restore"),
        "engine.snapshot.bytes": tr.counts.get(
            "engine.snapshot.bytes_serialized", 0),
        "engine.warmup_cycles_saved": sum(
            r.warmup_cycles_saved for r in sweeps),
        "model.characterize_s": tr.self_s("model.characterize"),
        "model.solve_s": tr.self_s("model.solve"),
        "model.runs": tr.calls("model.run"),
        "router.load_model_s": tr.self_s("router.load_model"),
        "router.select_s": tr.self_s("router.select"),
        "router.n_promoted": p.details.get("n_promoted", 0),
        "router.promote_frac": _ratio(p.details.get("n_promoted", 0),
                                      p.details.get("n_cells", 0)),
        "router.bar_coverage": p.details.get("bar_coverage", 0.0),
        "service.post_s": p.details.get("post_s", 0.0),
        "service.queue_wait_s": p.details.get("queue_wait_s", 0.0),
        "service.run_s": p.details.get("run_s", 0.0),
        "service.polls_per_job": p.details.get("polls_per_job", 0.0),
        "service.coalesced_specs": p.details.get("coalesced_specs", 0),
        "service.cache_hit_ratio": p.details.get("cache_hit_ratio", 0.0),
        "trace.spans": len(tr.spans),
    })
    specs = p.details.get("specs", {})
    for name in kernel_specs(False):
        info = specs.get(name, {})
        slug = name.replace("=", "-")
        m[f"kernel.{slug}.ff_skip_ratio"] = info.get("ff_skip_ratio", 0.0)
    busy = specs.get("fig3_4T_L2=16", {}).get("stage_self_s", {})
    busy_total = sum(busy.values())
    for stage in ("dispatch", "issue"):
        m[f"kernel.fig3_4T_L2-16.{stage}_share"] = _ratio(
            busy.get(f"core.stage.{stage}", 0.0), busy_total)
    return m


# -- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="trace this pass and write its spans here (JSONL)")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    ap.add_argument("--record-digests", type=Path, default=None)
    args = ap.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)

    tracer = NullTracer()
    if args.trace_out is not None:
        tracer = Tracer(f"{args.workload}-seed{args.seed}",
                        args.work_dir / "spill")
        install(tracer)
    p = Pass(args, tracer)
    WORKLOADS[args.workload](p)
    if args.trace_out is not None:
        tracer.merge_spills()
        p.layers = layer_metrics(p)
        tracer.write_jsonl(args.trace_out)
    if args.record_digests is not None:
        args.record_digests.write_text(json.dumps(p.digests_seen))
    print(json.dumps(p.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
