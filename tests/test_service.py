"""The simulation-as-a-service job server, exercised over real HTTP.

Integration tests boot a :class:`~repro.service.server.SimService` on an
ephemeral port in a background thread and speak to it with ``urllib`` —
the same loopback TCP path a real client takes.  The headline scenario
is the acceptance criterion from the service design: K identical
concurrent submissions must coalesce to **exactly one** engine
execution, a graceful drain must finish and persist in-flight jobs, and
a restarted service must recover the spool.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MachineConfig
from repro.engine import Counters, RouterSpec, RunSpec
from repro.engine.backends import Backend, get_backend, register_backend
from repro.memory.spec import (
    InterconnectSpec,
    LevelSpec,
    PrefetchSpec,
    mem_preset,
)
from repro.service import JobStore, SimService, parse_job_request
from repro.service.jobs import Job
from repro.service.server import MAX_HEADER_LINES, _BadRequest
from repro.service.wire import WireError
from repro.workloads.profiles import BenchProfile
from repro.workloads.spec import WorkloadSpec


@pytest.fixture(autouse=True)
def fast_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.08")


def fast_spec(**kw):
    """An analytic-backend spec: milliseconds per run."""
    base = dict(
        n_threads=1, l2_latency=16, seed=0, backend="analytic",
        commits_per_thread=1500, warmup_per_thread=500, seg_instrs=3000,
    )
    base.update(kw)
    return RunSpec.multiprogrammed(**base)


def mutated(doc, path, value):
    """``doc`` (a spec dict, changed in place) with ``path`` set to
    ``value``."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


#: path of the first playlist entry, and of its profile, inside a spec
#: dict
ENTRY = ("workload", "threads", 0, 0)
PROFILE = ENTRY + ("profile",)


def mem_doc(preset, path, value):
    """A memory preset's document with the field at ``path`` set to
    ``value``."""
    return mutated(mem_preset(preset).to_dict(), path, value)

#: spec mutations a job could only fail on (or run as something else)
UNRUNNABLE = {
    "unhashable": (("config_overrides",), {"mshrs": [1, 2]}),
    "unknown_field": (("config_overrides",), {"no_such_field": 3}),
    "l1_bytes": (("config_overrides",), {"l1_bytes": 3000}),
    "mshrs": (("config_overrides",), {"mshrs": 0}),
    "seed_str": (("seed",), "x"),
    "seed_float": (("seed",), 1.5),
    "seed_null": (("seed",), None),
    "commits_str": (("commits",), "100"),
    "scale_str": (("scale",), "0.1"),
    "decoupled_str": (("decoupled",), "no"),
    "decoupled_int": (("decoupled",), 1),
    "scale_with_latency_str": (("scale_with_latency",), "no"),
    "profile_null": (PROFILE + ("hot_frac",), None),
    "profile_str": (PROFILE + ("fp_per_load",), "x"),
    "profile_int_float": (PROFILE + ("unroll",), 1.5),
    "profile_name_not_utf8": (PROFILE + ("name",), "\ud800"),
    **{f"{name}_0": (PROFILE + (name,), 0) for name in (
        "iters", "ws_bytes", "store_ws_bytes", "index_every", "n_chains",
        "hot_bytes", "gather_ws_bytes")},
    **{f"{name}_-1": (PROFILE + (name,), -1) for name in (
        "hot_bytes", "gather_ws_bytes", "index_dist", "n_chains")},
    "default_commits_str": (("workload", "default_commits"), "x"),
    "default_commits_float": (("workload", "default_commits"), 1.5),
    "default_commits_bool": (("workload", "default_commits"), True),
    "default_warmup_-5": (("workload", "default_warmup"), -5),
    "seg_instrs_bool": (("workload", "seg_instrs"), True),
    "seg_instrs_float": (("workload", "seg_instrs"), 2.9),
    "seg_instrs_str": (("workload", "seg_instrs"), "500"),
    "workload_name_int": (("workload", "name"), 5),
    "entry_seg_instrs_float": (ENTRY + ("seg_instrs",), 1.5),
    # machine config overrides: each wedged the kernel, failed to build
    # or ran under a cache key of its own
    **{f"cfg_{name}={value!r}": (("config_overrides",), {name: value})
       for name, value in [
           *((name, 0) for name in (
               "ap_width", "ep_width", "fetch_width", "fetch_threads",
               "fetch_buffer", "dispatch_width", "commit_width", "rob_size",
               "max_unresolved_branches", "iq_size", "aq_size", "saq_size",
               "bht_entries", "ap_latency", "ep_latency")),
           ("bht_entries", 3), ("ap_width", 1.5), ("ap_width", "4"),
           ("salt_stream_bytes", 1.5), ("deadlock_cycles", 1.5),
           ("deadlock_cycles", True), ("ap_width", -1),
           ("fetch_threads", -1), ("ap_latency", -5), ("ep_latency", -1),
           ("iq_size", 2.5), ("salt_stream_bytes", -1), ("ap_width", True),
           ("mshrs", True), ("l1_ports", True),
       ]},
    # memory hierarchies: each failed while the machine was built, or ran
    # as the int (or bool) it stands for under a cache key of its own
    **{f"mem_{preset}_{'.'.join(map(str, path))}={value!r}":
       (("mem",), mem_doc(preset, path, value))
       for preset, path, value in [
           ("stream", ("prefetch", "degree"), 1.5),
           ("nextline", ("prefetch", "degree"), 1.5),
           ("l2_finite", ("levels", 1, "banks"), 1.5),
           *(("l2_finite", path, True) for path in (
               ("levels", 0, "mshrs"), ("interconnect", "bytes_per_cycle"),
               ("levels", 1, "banks"), ("levels", 1, "assoc"),
               ("memory_latency",))),
           ("stream", ("prefetch", "degree"), True),
           *(("l2_finite", ("levels", 1, "shared"), value)
             for value in (None, 0, "x")),
           ("l2_finite", ("levels", 1, "name"), 1.5),
           ("l2_finite", ("levels", 1, "ports"), -1),
       ]},
}

#: router corpora a client might name: the worker would read each whole
FOREIGN_CORPORA = ["/dev/zero", "/no/such/corpus.json", "/etc/passwd"]


def hybrid_doc(corpus):
    return fast_spec(backend="hybrid", router=RouterSpec(corpus=corpus)).to_dict()


#: router configs the wire refuses: a bool, a non-finite float, a string
#: or a disallowed null in each router scalar, and a router on a spec
#: whose backend reads none
BAD_ROUTERS = [
    (("router", name), value) for name, values in {
        "promote_budget": (True, math.nan, math.inf, "0.5", None),
        "error_budget": (True, math.nan, math.inf, "0.5"),
        "quantile": (True, math.nan, math.inf, "0.5", None),
        "corpus": (True, math.nan, 3, None),
    }.items() for value in values
] + [(("backend",), "cycle")]


# -- wire schema ------------------------------------------------------------------


class TestWire:
    def test_single_spec_roundtrip(self):
        spec = fast_spec()
        req = parse_job_request(
            json.dumps({"spec": spec.to_dict(), "label": "one"}).encode()
        )
        assert req.specs == [spec]
        assert req.label == "one"

    def test_batch_roundtrip_preserves_order(self):
        specs = [fast_spec(l2_latency=lat) for lat in (16, 64, 256)]
        req = parse_job_request(
            json.dumps({"specs": [s.to_dict() for s in specs]}).encode()
        )
        assert req.specs == specs
        assert req.label is None

    @pytest.mark.parametrize(
        "body, excerpt",
        [
            (b"{not json", "not valid JSON"),
            (b"[1, 2]", "JSON object"),
            (b"{}", 'exactly one of "spec" or "specs"'),
            (b'{"spec": {}, "specs": []}', 'exactly one of "spec" or "specs"'),
            (b'{"specs": []}', "at least one spec"),
            (b'{"specs": {"a": 1}}', "must be a list"),
            (b'{"specs": [42]}', "spec[0] must be an object"),
            (b'{"spec": {"nope": 1}}', "not a valid RunSpec"),
        ],
    )
    def test_rejects_malformed_bodies(self, body, excerpt):
        with pytest.raises(WireError, match=None) as err:
            parse_job_request(body)
        assert excerpt in str(err.value)

    def test_rejects_unknown_backend(self):
        doc = fast_spec().to_dict()
        doc["backend"] = "quantum"
        with pytest.raises(WireError, match="quantum"):
            parse_job_request(json.dumps({"spec": doc}).encode())

    @pytest.mark.parametrize(
        "path, value", list(UNRUNNABLE.values()), ids=list(UNRUNNABLE)
    )
    def test_rejects_specs_that_cannot_run(self, path, value):
        doc = mutated(fast_spec().to_dict(), path, value)
        with pytest.raises(WireError, match=r"spec\[0\]"):
            parse_job_request(json.dumps({"specs": [doc]}).encode())

    @pytest.mark.parametrize("corpus", FOREIGN_CORPORA)
    def test_rejects_client_chosen_router_corpus(self, corpus):
        body = json.dumps({"spec": hybrid_doc(corpus)}).encode()
        with pytest.raises(WireError, match="router.corpus"):
            parse_job_request(body)

    @pytest.mark.parametrize(
        "path, value", BAD_ROUTERS,
        ids=[f"{path[-1]}={value!r}" for path, value in BAD_ROUTERS],
    )
    def test_rejects_bad_router_config(self, path, value):
        doc = mutated(hybrid_doc("default"), path, value)
        with pytest.raises(WireError, match=r"spec\[0\]"):
            parse_job_request(json.dumps({"spec": doc}).encode())

    def test_default_router_corpus_is_accepted(self):
        req = parse_job_request(
            json.dumps({"spec": hybrid_doc("default")}).encode())
        assert req.specs[0].router.corpus == "default"

    #: a valid one-benchmark spec whose profile has gathers, so every
    #: profile field reaches synthesis; a short trace segment keeps one
    #: synthesis in the tens of milliseconds
    FUZZ_BASE = RunSpec.from_workload(
        WorkloadSpec.single("su2cor", seg_instrs=2000), scale=0.05,
        backend="analytic",
    )
    FUZZ_PATHS = [(name,) for name in (
        "backend", "l2_latency", "decoupled", "scale_with_latency", "seed",
        "commits", "warmup", "scale",
    )] + [("workload", name) for name in (
        "name", "seg_instrs", "default_commits", "default_warmup",
    )] + [ENTRY + ("seg_instrs",)] + [
        PROFILE + (f.name,) for f in fields(BenchProfile)
    ] + [
        ("config_overrides", f.name) for f in fields(MachineConfig)
        if f.name != "mem"
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        path=st.sampled_from(FUZZ_PATHS),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(min_value=-2, max_value=64),
            st.floats(min_value=-2, max_value=64),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.text(max_size=4),
        ),
    )
    def test_fuzzed_scalar_is_refused_or_runnable(self, path, value):
        """Any one scalar of a valid spec replaced by a JSON scalar: the
        wire refuses the spec, or its machine and trace build."""
        doc = mutated(self.FUZZ_BASE.to_dict(), path, value)
        try:
            req = parse_job_request(json.dumps({"spec": doc}).encode())
        except WireError:
            return
        req.specs[0].instantiate()

    #: a finite L2 and a prefetcher, so every level, interconnect and
    #: prefetch field reaches the machine
    MEM_FUZZ_BASE = RunSpec.from_workload(
        WorkloadSpec.single("su2cor", seg_instrs=2000), scale=0.05,
        backend="analytic",
        mem=mem_preset("l2_finite").override("prefetch_kind", "stream"),
    )
    MEM_FUZZ_PATHS = [("mem", "name"), ("mem", "memory_latency")] + [
        ("mem", "levels", i, f.name) for i in (0, 1)
        for f in fields(LevelSpec)
    ] + [("mem", "interconnect", f.name) for f in fields(InterconnectSpec)] + [
        ("mem", "prefetch", f.name) for f in fields(PrefetchSpec)
    ]

    @settings(max_examples=100, deadline=None)
    @given(
        path=st.sampled_from(MEM_FUZZ_PATHS),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(min_value=-2, max_value=64),
            st.floats(min_value=-2, max_value=64),
            st.sampled_from([math.nan, math.inf, "auto", "L1"]),
            st.text(max_size=4),
        ),
    )
    def test_fuzzed_mem_scalar_is_refused_or_runnable(self, path, value):
        """Any one memory-hierarchy scalar replaced by a JSON scalar: the
        wire refuses the spec, or its machine builds and every count it
        holds is an int, not a bool or a float."""
        doc = mutated(self.MEM_FUZZ_BASE.to_dict(), path, value)
        try:
            req = parse_job_request(json.dumps({"spec": doc}).encode())
        except WireError:
            return
        spec = req.specs[0]
        spec.instantiate()
        mem = spec.machine_config().memory()
        counts = [mem.memory_latency, mem.interconnect.bytes_per_cycle,
                  mem.prefetch.degree]
        for lvl in mem.levels:
            counts += [lvl.assoc, lvl.hit_latency, lvl.banks, lvl.ports]
            counts += [v for v in (lvl.capacity_bytes, lvl.mshrs)
                       if v is not None]
        assert all(type(v) is int for v in counts), counts
        assert all(type(lvl.shared) is bool for lvl in mem.levels)

    def test_rejects_non_string_label(self):
        body = json.dumps({"spec": fast_spec().to_dict(), "label": 7})
        with pytest.raises(WireError, match="label"):
            parse_job_request(body.encode())


# -- job spool --------------------------------------------------------------------


class TestJobStore:
    def test_record_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job([fast_spec()], label="spooled")
        job.mark_running()
        job.finish_ok([{"key": "k", "stats": {"ipc": 1.0}}])
        store.save(job)
        (loaded,) = store.load_all()
        assert loaded.id == job.id
        assert loaded.label == "spooled"
        assert loaded.state == "done"
        assert loaded.specs == job.specs
        assert loaded.runs == job.runs

    def test_load_all_skips_garbage(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(Job([fast_spec()]))
        (tmp_path / "junk.job.json").write_text("{torn")
        assert len(store.load_all()) == 1

    def test_load_all_missing_dir(self, tmp_path):
        assert JobStore(tmp_path / "nope").load_all() == []

    def test_record_gets_the_mode_of_a_plain_open(self, tmp_path):
        # the cache's writer: mkstemp's 0600 would lock other readers out
        path = JobStore(tmp_path).save(Job([fast_spec()]))
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
        assert path.stat().st_mode == plain.stat().st_mode


# -- live HTTP --------------------------------------------------------------------


def _boot(tmp_path, **kw):
    """Start a service on an ephemeral port; returns (service, thread)."""
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("spool_dir", str(tmp_path / "spool"))
    kw.setdefault("log", lambda msg: None)
    svc = SimService(host="127.0.0.1", port=0, **kw)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(svc.run(ready=ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "service failed to start"
    return svc, thread


def _drain(svc, thread):
    svc.request_drain_threadsafe()
    thread.join(15)
    assert not thread.is_alive(), "service failed to drain"


@pytest.fixture
def service(tmp_path):
    svc, thread = _boot(tmp_path)
    yield svc
    if thread.is_alive():
        _drain(svc, thread)


def _request(svc, method, path, body=None):
    """One HTTP request; returns (status, parsed JSON body)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{svc.port}{path}",
        method=method,
        data=json.dumps(body).encode() if body is not None else None,
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _raw_status(svc, data: bytes) -> int:
    """The status code of the service's answer to raw request bytes."""
    with socket.create_connection(("127.0.0.1", svc.port), timeout=15) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # refused mid-send: the answer may still be queued
            pass
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:  # closed with our bytes unread
            pass
    return int(reply.split(b" ", 2)[1])


def _await_job(svc, job_id, timeout=20.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, doc = _request(svc, "GET", f"/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


class TestHTTP:
    def test_submit_poll_results(self, service):
        specs = [fast_spec(l2_latency=lat) for lat in (16, 64)]
        status, doc = _request(
            service, "POST", "/jobs",
            {"specs": [s.to_dict() for s in specs], "label": "pair"},
        )
        assert status == 202
        assert doc["state"] == "queued"
        assert doc["n_specs"] == 2
        final = _await_job(service, doc["id"])
        assert final["state"] == "done"
        assert final["error"] is None
        assert final["counters"]["n_executed"] == 2
        # runs come back in submission order, keyed like the CLI sweep doc
        assert [r["key"] for r in final["runs"]] == [s.key() for s in specs]
        for run in final["runs"]:
            assert run["stats"]["committed"] > 0

    def test_warm_resubmission_is_a_cache_hit(self, service):
        spec = fast_spec(seed=3)
        _, first = _request(service, "POST", "/jobs", {"spec": spec.to_dict()})
        _await_job(service, first["id"])
        _, second = _request(service, "POST", "/jobs", {"spec": spec.to_dict()})
        final = _await_job(service, second["id"])
        assert final["counters"] == {
            **final["counters"], "n_cached": 1, "n_executed": 0,
        }

    def test_listing_and_metrics(self, service):
        _, doc = _request(
            service, "POST", "/jobs", {"spec": fast_spec(seed=9).to_dict()}
        )
        _await_job(service, doc["id"])
        status, listing = _request(service, "GET", "/jobs")
        assert status == 200
        assert doc["id"] in [j["id"] for j in listing["jobs"]]
        status, metrics = _request(service, "GET", "/metrics")
        assert status == 200
        assert metrics["jobs"]["submitted"] >= 1
        assert metrics["jobs"]["completed"] >= 1
        assert metrics["engine"]["n_executed"] >= 1
        assert metrics["engine"]["ff_jumps"] >= 0
        assert "ff_cycles_skipped" in metrics["engine"]
        assert metrics["queue_depth"] == 0
        assert metrics["draining"] is False
        assert metrics["service_workers"] == len(service.engines)

    def test_every_counter_on_every_surface(self, service):
        # one Counters record feeds the job counters and /metrics
        names = set(Counters().to_dict())
        _, doc = _request(
            service, "POST", "/jobs", {"spec": fast_spec(seed=5).to_dict()}
        )
        final = _await_job(service, doc["id"])
        assert set(final["counters"]) == names | {"n_coalesced"}
        _, metrics = _request(service, "GET", "/metrics")
        assert set(metrics["engine"]) == names

    def test_hybrid_job_streams_routing_events(self, service):
        """A routed (hybrid-backend) job: screened/promoted progress
        events stream live, and the routing counters land in the job
        document and in /metrics."""
        specs = [
            fast_spec(backend="hybrid", l2_latency=lat, decoupled=dec)
            for lat in (16, 64, 256) for dec in (True, False)
        ]
        _, doc = _request(
            service, "POST", "/jobs",
            {"specs": [s.to_dict() for s in specs], "label": "routed"},
        )
        final = _await_job(service, doc["id"])
        assert final["state"] == "done"
        c = final["counters"]
        assert c["n_screened"] + c["n_promoted"] == len(specs)
        assert 1 <= c["n_promoted"] <= 2  # default 0.15 budget on 6 cells
        url = f"http://127.0.0.1:{service.port}/jobs/{doc['id']}/events"
        with urllib.request.urlopen(url, timeout=20) as resp:
            lines = resp.read().decode()
        assert "screened" in lines and "promoted" in lines
        _, metrics = _request(service, "GET", "/metrics")
        assert metrics["engine"]["n_screened"] >= c["n_screened"]
        assert metrics["engine"]["n_promoted"] >= c["n_promoted"]
        # screened stats carry the error bar over the wire
        screened = [r for r in final["runs"]
                    if r["stats"].get("fidelity") == "analytic"]
        assert len(screened) == c["n_screened"]
        for run in screened:
            assert run["stats"]["ipc_lo"] <= run["stats"]["ipc_hi"]

    def test_healthz(self, service):
        status, doc = _request(service, "GET", "/healthz")
        assert (status, doc["ok"], doc["draining"]) == (200, True, False)

    def test_bad_body_is_400_not_an_accepted_job(self, service):
        status, doc = _request(service, "POST", "/jobs", {"specs": []})
        assert status == 400
        assert "at least one spec" in doc["error"]
        assert service.metrics.jobs_submitted == 0

    #: the asyncio stream's line limit under ``start_server``
    LINE_LIMIT = 64 * 1024

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /" + b"a" * LINE_LIMIT + b" HTTP/1.1\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * LINE_LIMIT
         + b"\r\n\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"X-Pad: a\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n", 431),
        *[(b"GET /healthz HTTP/1.1\r\nContent-Length: " + length
           + b"\r\n\r\n" + b"x" * 64, 400)
          for length in (b"-5", b"+5", b"5_0")],
    ], ids=["long_request_line", "long_header_line", "many_header_lines",
            "content_length_-5", "content_length_+5", "content_length_5_0"])
    def test_framing_errors_are_4xx_not_500(self, service, request_bytes, status):
        assert _raw_status(service, request_bytes) == status
        # the connection's failure left the server serving
        assert _request(service, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize(
        "overrides",
        [{"mshrs": [1, 2]}, {"no_such_field": 3}, {"l1_bytes": 3000},
         {"mshrs": 0}],
        ids=["unhashable", "unknown_field", "l1_bytes", "mshrs"],
    )
    def test_unrunnable_spec_is_400_not_a_queued_job(self, service, overrides):
        # accepted, such a job could only fail later, inside the worker
        doc = {**fast_spec().to_dict(), "config_overrides": overrides}
        status, reply = _request(service, "POST", "/jobs", {"spec": doc})
        assert status == 400
        assert "spec[0]" in reply["error"]
        assert service.metrics.jobs_submitted == 0
        _, listing = _request(service, "GET", "/jobs")
        assert listing["jobs"] == []
        _, metrics = _request(service, "GET", "/metrics")
        assert metrics["queue_depth"] == 0

    @pytest.mark.parametrize("what, path", [
        ("spec", ("comits",)),
        ("workload", ("workload", "seg_instr")),
        ("workload entry", ENTRY + ("seg_instr",)),
        ("router", ("router", "promote_budgt")),
    ], ids=["spec", "workload", "entry", "router"])
    def test_unknown_field_is_400_naming_it(self, service, what, path):
        # dropped, a misspelled field ran as its default
        doc = mutated(hybrid_doc("default"), path, 2000)
        status, reply = _request(service, "POST", "/jobs", {"spec": doc})
        assert status == 400
        assert f"unknown {what} field {path[-1]!r}" in reply["error"]
        assert service.metrics.jobs_submitted == 0

    @pytest.mark.parametrize("corpus", FOREIGN_CORPORA)
    def test_client_chosen_router_corpus_is_400(self, service, corpus):
        status, reply = _request(
            service, "POST", "/jobs", {"spec": hybrid_doc(corpus)})
        assert status == 400
        assert "router.corpus" in reply["error"]
        assert service.metrics.jobs_submitted == 0

    def test_unknown_job_is_404(self, service):
        status, doc = _request(service, "GET", "/jobs/deadbeef")
        assert status == 404
        assert "deadbeef" in doc["error"]

    def test_unknown_route_is_404(self, service):
        status, doc = _request(service, "GET", "/nope")
        assert status == 404
        assert "POST /jobs" in doc["routes"]

    def test_wrong_method_is_405(self, service):
        status, _ = _request(service, "POST", "/metrics", {})
        assert status == 404 or status == 405

    def test_events_stream_runs_to_terminal(self, service):
        spec = fast_spec(seed=17)
        _, doc = _request(service, "POST", "/jobs", {"spec": spec.to_dict()})
        # the stream stays open until the job is terminal, then closes —
        # reading to EOF therefore observes the whole lifecycle
        url = f"http://127.0.0.1:{service.port}/jobs/{doc['id']}/events"
        with urllib.request.urlopen(url, timeout=20) as resp:
            lines = resp.read().decode().splitlines()
        assert any("queued" in line for line in lines)
        assert any("running" in line for line in lines)
        assert any("done" in line for line in lines)
        assert any(spec.label() in line for line in lines)


class TestReadRequest:
    """``_read_request`` over a stream with a small line limit."""

    LIMIT = 64
    #: header lines that fit the limit, and ones that pass it
    HEADER = st.one_of(
        st.sampled_from([b"Host: x", b"Accept: */*", b"X-Empty:", b"junk"]),
        st.integers(0, 2 * LIMIT).map(lambda n: b"X-Pad: " + b"a" * n),
    )

    @classmethod
    def _read(cls, data: bytes):
        async def read():
            reader = asyncio.StreamReader(limit=cls.LIMIT)
            reader.feed_data(data)
            reader.feed_eof()
            return await SimService._read_request(reader)

        return asyncio.run(read())

    @settings(max_examples=300, deadline=None)
    @given(
        request_line=st.one_of(
            st.sampled_from([b"POST /jobs HTTP/1.1", b"GET /healthz HTTP/1.1",
                             b"GET /", b""]),
            st.integers(0, 2 * LIMIT).map(
                lambda n: b"GET /" + b"a" * n + b" HTTP/1.1"),
        ),
        headers=st.lists(HEADER, max_size=6),
        many=st.booleans(),
        length=st.one_of(
            st.none(), st.integers(-8, 80).map(str),
            st.sampled_from(["+5", "5_0", " 5 ", "0x5", "", "\uff15", "1e1"]),
            st.text(max_size=3),
        ),
        body=st.binary(max_size=100),
    )
    def test_returns_the_declared_body_or_refuses(
        self, request_line, headers, many, length, body
    ):
        if many:
            headers = headers + [b"X-Pad: a"] * MAX_HEADER_LINES
        if length is not None:
            headers = headers + [f"Content-Length: {length}".encode()]
        data = b"\r\n".join([request_line, *headers, b"", body])
        try:
            _, _, got_headers, got_body = self._read(data)
        except (_BadRequest, asyncio.IncompleteReadError):
            return
        declared = got_headers.get("content-length", "0")
        assert declared.isascii() and declared.isdigit()
        assert len(got_body) == int(declared)
        assert len(got_headers) <= MAX_HEADER_LINES


# -- coalescing -------------------------------------------------------------------


class _SlowAnalytic(Backend):
    """Analytic results delivered slowly: holds a spec in flight long
    enough for concurrent identical submissions to pile up behind it."""

    name = "slow-analytic-test"
    process_pool_worthwhile = False  # must run in-process: registered at runtime

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.n_runs = 0
        self._lock = threading.Lock()

    def run(self, spec):
        with self._lock:
            self.n_runs += 1
        time.sleep(self.delay_s)
        return get_backend("analytic").run(spec)


class TestCoalescing:
    def test_identical_concurrent_posts_cost_one_execution(self, tmp_path):
        """The acceptance criterion: K concurrent identical POST /jobs
        produce exactly one engine execution — every other job either
        borrows the in-flight result or hits the now-warm cache."""
        backend = register_backend(_SlowAnalytic(delay_s=1.0))
        try:
            svc, thread = _boot(tmp_path, service_workers=4)
            try:
                spec = fast_spec()
                doc = dict(spec.to_dict(), backend=backend.name)
                k = 4
                ids = []
                for _ in range(k):
                    status, reply = _request(svc, "POST", "/jobs", {"spec": doc})
                    assert status == 202
                    ids.append(reply["id"])
                finals = [_await_job(svc, job_id) for job_id in ids]
                assert [f["state"] for f in finals] == ["done"] * k
                assert backend.n_runs == 1
                assert sum(e.n_executed for e in svc.engines) == 1
                assert sum(f["counters"]["n_executed"] for f in finals) == 1
                assert sum(f["counters"]["n_coalesced"] for f in finals) >= 1
                # every job reports the one result, byte-for-byte
                stats = [f["runs"][0]["stats"] for f in finals]
                assert all(s == stats[0] for s in stats)
                _, metrics = _request(svc, "GET", "/metrics")
                assert metrics["coalesced_specs"] >= 1
                assert metrics["inflight_specs"] == 0
            finally:
                _drain(svc, thread)
        finally:
            from repro.engine.backends import _REGISTRY

            _REGISTRY.pop(backend.name, None)

    def test_failed_owner_propagates_to_borrowers(self, tmp_path):
        class _Exploding(_SlowAnalytic):
            name = "exploding-test"

            def run(self, spec):
                with self._lock:
                    self.n_runs += 1
                time.sleep(self.delay_s)
                raise RuntimeError("boom at cycle 7")

        backend = register_backend(_Exploding(delay_s=0.8))
        try:
            svc, thread = _boot(tmp_path, service_workers=2)
            try:
                doc = dict(fast_spec().to_dict(), backend=backend.name)
                _, a = _request(svc, "POST", "/jobs", {"spec": doc})
                _, b = _request(svc, "POST", "/jobs", {"spec": doc})
                final_a = _await_job(svc, a["id"])
                final_b = _await_job(svc, b["id"])
                assert {final_a["state"], final_b["state"]} == {"failed"}
                assert "boom at cycle 7" in (final_a["error"] or "")
                # the borrower failed via the owner's exception, not a
                # second execution of the doomed spec
                assert backend.n_runs == 1
            finally:
                _drain(svc, thread)
        finally:
            from repro.engine.backends import _REGISTRY

            _REGISTRY.pop(backend.name, None)


# -- drain + recovery -------------------------------------------------------------


class TestDrainAndRecovery:
    def test_drain_finishes_inflight_and_persists(self, tmp_path):
        backend = register_backend(_SlowAnalytic(delay_s=1.0))
        try:
            svc, thread = _boot(tmp_path, service_workers=1)
            doc = dict(fast_spec().to_dict(), backend=backend.name)
            _, reply = _request(svc, "POST", "/jobs", {"spec": doc})
            deadline = time.time() + 10
            while svc.jobs[reply["id"]].state == "queued":
                assert time.time() < deadline
                time.sleep(0.02)
            # drain while the job is mid-simulation: it must finish, not die
            _drain(svc, thread)
            (job,) = [
                j for j in JobStore(tmp_path / "spool").load_all()
                if j.id == reply["id"]
            ]
            assert job.state == "done"
            assert job.runs[0]["stats"]["committed"] > 0
        finally:
            from repro.engine.backends import _REGISTRY

            _REGISTRY.pop(backend.name, None)

    def test_restart_recovers_unfinished_jobs(self, tmp_path):
        # a job the previous process accepted but never ran: written to
        # the spool as queued, exactly what a hard kill leaves behind
        spec = fast_spec(seed=21)
        orphan = Job([spec], label="orphaned by a crash")
        JobStore(tmp_path / "spool").save(orphan)
        svc, thread = _boot(tmp_path)
        try:
            final = _await_job(svc, orphan.id)
            assert final["state"] == "done"
            assert final["runs"][0]["key"] == spec.key()
            assert any("recovered" in line for line in svc.jobs[orphan.id].events)
        finally:
            _drain(svc, thread)

    def test_restart_keeps_finished_jobs_queryable(self, tmp_path):
        svc, thread = _boot(tmp_path)
        _, reply = _request(
            svc, "POST", "/jobs", {"spec": fast_spec(seed=5).to_dict()}
        )
        first = _await_job(svc, reply["id"])
        _drain(svc, thread)
        svc2, thread2 = _boot(tmp_path)
        try:
            status, again = _request(svc2, "GET", f"/jobs/{reply['id']}")
            assert status == 200
            assert again["state"] == "done"
            assert again["runs"] == first["runs"]
        finally:
            _drain(svc2, thread2)

    def test_draining_rejects_new_jobs_with_503(self, tmp_path):
        svc, thread = _boot(tmp_path)
        # flip the flag without closing the listener: the 503 path, not
        # a connection refusal, is what a mid-drain client must see
        svc._draining = True
        status, doc = _request(
            svc, "POST", "/jobs", {"spec": fast_spec().to_dict()}
        )
        assert status == 503
        assert "draining" in doc["error"]
        status, health = _request(svc, "GET", "/healthz")
        assert health["draining"] is True
        svc._draining = False
        _drain(svc, thread)
