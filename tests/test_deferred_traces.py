"""Traces are built on first use, once per process.

``profile_trace`` hands out deferred traces and ``WorkloadSpec.playlists``
builds only each playlist's first entry; fetch and the characterization
walk build a later entry when they first wrap into it.  Traces are
cached per process, so the build counts are taken in a fresh
interpreter, which counts the ``synthesize`` calls.  The stats digests
were recorded when every playlist entry was built up front: deferring
the builds must not move a simulated number.

The build holds no lock, because engines fork process pools and the
service runs maps on threads.  Racing first readers in one process may
each build, and every one of them reads the same correct list; a child
forked before the first use builds its own list, and a pickle of a
deferred trace holds its instructions.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.workloads import SEG_INSTRS, SPECFP95, profile_trace
from test_pinned_traces import TRACES, digest

SRC = Path(__file__).resolve().parents[1] / "src"

#: runs one rotation spec at scale 0.1 and prints the profiles it
#: synthesized and a sha256 over its stats
PROBE = textwrap.dedent("""
    import hashlib, importlib, json, sys
    from repro.engine import RunSpec

    multiprogram = importlib.import_module("repro.workloads.multiprogram")
    synthesize = multiprogram.synthesize
    built = []

    def counted(profile, n_instrs, seed=0):
        built.append(profile.name)
        return synthesize(profile, n_instrs, seed=seed)

    multiprogram.synthesize = counted
    backend, n_threads, seg_instrs = sys.argv[1:]
    spec = RunSpec.multiprogrammed(
        int(n_threads), seg_instrs=int(seg_instrs), scale=0.1,
        backend=backend,
    )
    stats = json.dumps(spec.execute().to_dict(), sort_keys=True)
    print(json.dumps({
        "built": built,
        "stats": hashlib.sha256(stats.encode()).hexdigest(),
    }))
""")

FIRST_FOUR = ["tomcatv", "swim", "su2cor", "hydro2d"]
#: two threads over 1,500-instruction entries: thread 0 wraps from
#: tomcatv into swim, thread 1 from swim into su2cor
WRAPPED = ["tomcatv", "swim", "su2cor"]


@pytest.mark.parametrize(
    "backend, n_threads, seg_instrs, built, stats",
    [
        ("cycle", 4, SEG_INSTRS, FIRST_FOUR,
         "d8315b6df23ee29e34ab1e797a55a81efef6ac88e1395e2e6fb40690d59f7b64"),
        ("analytic", 4, SEG_INSTRS, FIRST_FOUR,
         "1b11bf86513ad825fafb5e3be2034f9d19a872edf4a940dc1ec6c1b11bffcc1d"),
        ("cycle", 2, 1500, WRAPPED,
         "a386481af07b7c0a21ce4aa5c6ee6fb6a8cf48e690746bbd101b49c1b2b97c9c"),
        ("analytic", 2, 1500, WRAPPED,
         "64f18b9d505f75f141b602467529b6872b57a189ea1aaf7915aa45e1c141a9a8"),
    ],
    ids=["cycle-4T", "analytic-4T", "cycle-wrap", "analytic-wrap"],
)
def test_a_run_builds_only_the_traces_it_reaches(
    backend, n_threads, seg_instrs, built, stats
):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, backend, str(n_threads),
         str(seg_instrs)],
        capture_output=True, check=True, env=env, timeout=300,
    ).stdout
    got = json.loads(out)
    assert sorted(got["built"]) == sorted(built)
    assert got["stats"] == stats


def _fresh(name: str, seed: int):
    """A deferred trace no reader has touched: past the process cache."""
    trace = profile_trace.__wrapped__(SPECFP95[name], SEG_INSTRS, seed)
    assert not trace.built
    return trace


def test_racing_first_readers_read_the_pinned_list():
    trace = _fresh("swim", 0)
    # more threads than the cores of the hosts this runs on
    n_threads = 10
    barrier = threading.Barrier(n_threads)
    lists: list = [None] * n_threads
    errors: list = []

    def first_touch(k):
        try:
            barrier.wait(timeout=60)
            lists[k] = trace.insts
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    threads = [threading.Thread(target=first_touch, args=(k,))
               for k in range(n_threads)]
    try:
        sys.setswitchinterval(1e-5)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # a reader that lost the race returns the list published first
    assert all(insts is trace.insts for insts in lists)
    for insts in lists:
        assert digest(insts) == TRACES["swim", 0]


def test_a_pickle_or_copy_of_a_deferred_trace_holds_its_instructions():
    for clone in (lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy):
        trace = _fresh("hydro2d", 1)
        twin = clone(trace)
        assert trace.built and twin.built
        assert twin.name == "hydro2d"
        assert digest(twin.insts) == TRACES["hydro2d", 1]


def _touch_in_child(trace, conn) -> None:
    conn.send((trace.built, digest(trace.insts)))
    conn.close()


def _read_in_forked_child(trace) -> tuple:
    """``(built at fork, digest)`` as a child forked now reads them."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_touch_in_child, args=(trace, send))
    try:
        child.start()
        send.close()
        assert recv.poll(120), "the child sent nothing"
        got = recv.recv()
        child.join(timeout=60)
        assert child.exitcode == 0
    finally:
        recv.close()
        if child.is_alive():  # pragma: no cover - the failure mode
            child.kill()
            child.join()
        child.close()
    return got


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


@needs_fork
def test_child_forked_before_first_use_builds_its_own():
    trace = _fresh("mgrid", 1)
    built_at_fork, child_digest = _read_in_forked_child(trace)
    assert not built_at_fork
    assert child_digest == TRACES["mgrid", 1]
    # the child's build stayed in the child
    assert not trace.built
