"""The benchmark's ``service`` job mix, pinned at the wire and the spool.

``perfbench/bench.py`` (``service_jobs``) builds the job mix the
benchmark's ``service`` workload posts: analytic batches, fresh cycle
specs and resubmissions of earlier jobs.  Here every job of that mix
(seed 1) runs through a live :class:`~repro.service.server.SimService`,
one job at a time, so no two jobs coalesce and every resubmission is a
cache hit.  Three things are digested and compared with the values
below:

* the parsed documents of each ``POST /jobs`` reply and of each job's
  final ``GET /jobs/{id}``;
* each spool record as it parses back from its file, and as
  :meth:`JobStore.load_all` rebuilds it, in all three states a record
  passes through (queued, running, done);
* and, spec by spec, that ``RunSpec.from_dict(s.to_dict())`` keys like
  ``s``.

Job ids and wall-clock stamps differ on every run, so each id becomes
its job's index in the mix and each stamp whether it is set.  A change
to how the server encodes, stores or parses documents must leave every
digest where it is: the documents a client or a restarted server reads
do not depend on how they were written.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from repro.engine import RunSpec
from repro.service import JobStore
from repro.service.jobs import Job

from test_service import _await_job, _boot, _drain, _request

_BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"
_spec = importlib.util.spec_from_file_location("perfbench_bench", _BENCH)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)

#: the mix's first seed-1 pass; the seed orders the jobs, and every seed
#: posts the same specs
JOBS = _bench.service_jobs(random.Random(1), tiny=False)

DIGESTS = {
    "post": "1e760cbd77218148",
    "done": "3a71c1b858003058",
    "spool": "3d461e3558f61dc6",
    "loaded": "c5acaf903caf25bf",
}

#: members that hold a wall-clock stamp: pinned as set or unset
STAMPS = ("created", "started", "finished")


def digest(docs) -> str:
    payload = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def normalized(doc: dict, ids: dict[str, int]) -> dict:
    """``doc`` with each job id replaced by its index in the mix and each
    stamp by whether it is set."""
    out = {}
    for name, value in doc.items():
        if name in STAMPS:
            value = value is not None
        elif isinstance(value, str):
            for job_id, index in ids.items():
                value = value.replace(job_id, f"job{index}")
        out[name] = value
    return out


def loaded_view(job: Job, ids: dict[str, int]) -> dict:
    """What :meth:`JobStore.load_all` rebuilt, as plain values."""
    return normalized(
        {
            "id": job.id,
            "label": job.label,
            "state": job.state,
            "created": job.created,
            "started": job.started,
            "finished": job.finished,
            "error": job.error,
            "counters": job.counters,
            "runs": job.runs,
            "specs": [s.to_dict() for s in job.specs],
            "keys": [s.key() for s in job.specs],
        },
        ids,
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Every job of the mix posted and awaited in turn, then the spool
    the drained server left, plus each job's records in a fresh spool
    through its three states."""
    tmp = tmp_path_factory.mktemp("served")
    svc, thread = _boot(tmp, engine_workers=1)
    posts, finals, ids = [], [], {}
    try:
        for index, job in enumerate(JOBS):
            body = {"specs": [s.to_dict() for s in job["specs"]],
                    "label": job["kind"]}
            status, doc = _request(svc, "POST", "/jobs", body)
            assert status == 202, doc
            ids[doc["id"]] = index
            posts.append(doc)
            final = _await_job(svc, doc["id"], timeout=120.0)
            assert final["state"] == "done", final
            finals.append(final)
    finally:
        _drain(svc, thread)
    spool = tmp / "spool"
    records = sorted(
        (json.loads(path.read_text()) for path in spool.glob("*.job.json")),
        key=lambda r: ids[r["id"]],
    )
    loaded = sorted(JobStore(spool).load_all(), key=lambda j: ids[j.id])

    # the queued and running records of every job, written to a spool of
    # their own (the served spool holds each job's last record only)
    staged = JobStore(tmp / "staged")
    stages, stage_loads = [], []
    for index, job in enumerate(JOBS):
        fresh = Job(job["specs"], label=job["kind"], created=float(index))
        for step in ("queued", "running"):
            if step == "running":
                fresh.mark_running()
            staged.save(fresh)
            stage_ids = {fresh.id: index}
            record = json.loads(staged.path_for(fresh.id).read_text())
            stages.append(normalized(record, stage_ids))
            (back,) = [j for j in staged.load_all() if j.id == fresh.id]
            stage_loads.append(loaded_view(back, stage_ids))
        staged.path_for(fresh.id).unlink()
    return {
        "posts": [normalized(d, ids) for d in posts],
        "finals": [normalized(d, ids) for d in finals],
        "records": [normalized(r, ids) for r in records] + stages,
        "loaded": [loaded_view(j, ids) for j in loaded] + stage_loads,
        "n_loaded": len(loaded),
    }


def test_the_mix_is_the_benchmark_mix():
    kinds = [job["kind"] for job in JOBS]
    assert len(JOBS) == 36
    assert kinds.count("analytic") == 20
    assert kinds.count("cycle") == 8
    assert kinds.count("resubmit") == 8


def test_post_replies(served):
    assert digest(served["posts"]) == DIGESTS["post"]


def test_final_documents(served):
    assert digest(served["finals"]) == DIGESTS["done"]


def test_spool_records_as_parsed(served):
    assert len(served["records"]) == 3 * len(JOBS)
    assert digest(served["records"]) == DIGESTS["spool"]


def test_spool_records_as_loaded(served):
    assert served["n_loaded"] == len(JOBS)
    assert digest(served["loaded"]) == DIGESTS["loaded"]


@pytest.mark.parametrize("index", range(len(JOBS)))
def test_parsed_specs_key_like_their_source(index):
    for spec in JOBS[index]["specs"]:
        doc = spec.to_dict()
        assert RunSpec.from_dict(doc).key() == spec.key()
        wired = json.loads(json.dumps(doc))
        assert RunSpec.from_dict(wired).key() == spec.key()
