"""Spec identity: pinned content keys, and what may never move them.

``RunSpec.key()`` names every result-cache entry and ``warmup_key()``
every warm-up snapshot, so a change to either string orphans every
cache and spool on disk.  The literal strings below were recorded from
the canonical-JSON implementation; any later change to how identity is
computed (memoized, restructured) must reproduce them exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.engine import RunSpec
from repro.engine.spec import SPEC_VERSION
import repro.workloads.profiles as profiles_mod
from repro.workloads.profiles import (
    BenchProfile,
    get_profile,
    profile_provenance,
    register_profile,
)
from repro.workloads.spec import WorkloadSpec

SRC = Path(repro.__file__).resolve().parents[1]

#: builds every pinned spec; also run verbatim in subprocesses
BUILD = textwrap.dedent("""\
    from repro.engine import RouterSpec, RunSpec
    from repro.memory.spec import mem_preset
    from repro.workloads.spec import WorkloadSpec

    def build(name):
        return {
            "rotation_4T": lambda: RunSpec.multiprogrammed(4, scale=0.1),
            "single_swim": lambda: RunSpec.single("swim", scale=0.1),
            "mem_l2_finite": lambda: RunSpec.multiprogrammed(
                2, l2_latency=64, commits_per_thread=20_000, scale=0.1,
                mem=mem_preset("l2_finite")),
            "hybrid_router": lambda: RunSpec.multiprogrammed(
                2, l2_latency=64, commits_per_thread=20_000,
                backend="hybrid", router=RouterSpec(promote_budget=0.15),
                scale=0.1),
            "override_mshrs": lambda: RunSpec.multiprogrammed(
                1, commits_per_thread=20_000, scale=0.1, mshrs=4),
            "profile_overrides": lambda: RunSpec.from_workload(
                WorkloadSpec.rotation(2).with_profile_overrides(hot_frac=0.2),
                commits=20_000, scale=0.1),
        }[name]()
""")
_ns: dict = {}
exec(BUILD, _ns)
build = _ns["build"]

#: name -> (key(), warmup_key()); the spec's commit budget is the only
#: field warmup_key masks, so the two agree where no budget is set
PINNED = {
    "rotation_4T": (
        "3d3d272903b050db30a0c3dd4e070fe7",
        "3d3d272903b050db30a0c3dd4e070fe7",
    ),
    "single_swim": (
        "e885054cc19fe2df69c634d060097f89",
        "e885054cc19fe2df69c634d060097f89",
    ),
    "mem_l2_finite": (
        "2ff775a71186dc3b8f629d56b74789d6",
        "c0dfc99930bdf1f07e5cb352deaa30c5",
    ),
    "hybrid_router": (
        "f95e0bb4e6b55ecaaf5440d7abe966e0",
        "6b1f34e222ee72c557700c1129e1e7b7",
    ),
    "override_mshrs": (
        "24afb929d284bfe3cac667ea3e4aeb48",
        "50ef3f807f528fb0fa6048314edf5d62",
    ),
    "profile_overrides": (
        "15676695d3bae490ce1d127928c35227",
        "2dbf8dc3bb990154b4c2f32c0671aedb",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_keys(name):
    spec = build(name)
    key, warm = PINNED[name]
    for _ in range(2):  # a repeat query answers the same
        assert spec.key() == key
        assert spec.warmup_key() == warm


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replace_gets_its_own_identity(name):
    spec = build(name)
    spec.key(), spec.warmup_key(), hash(spec)  # fill every memo first
    moved = dataclasses.replace(spec, seed=spec.seed + 1)
    fresh = RunSpec.from_dict({**spec.to_dict(), "seed": spec.seed + 1})
    assert moved == fresh and hash(moved) == hash(fresh)
    assert moved.key() == fresh.key() != spec.key()
    assert moved.warmup_key() == fresh.warmup_key() != spec.warmup_key()
    workload = dataclasses.replace(spec.workload, name="renamed")
    assert hash(workload) == hash(WorkloadSpec.from_dict(workload.to_dict()))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_mutating_to_dict_leaves_identity_alone(name):
    spec = build(name)
    key, warm = PINNED[name]
    profile = spec.workload.threads[0][0].profile
    before, profile_before = spec.to_dict(), profile.to_dict()
    doc = spec.to_dict()
    doc["seed"] = 99
    doc["config_overrides"]["mshrs"] = 1
    doc["workload"]["name"] = "tampered"
    doc["workload"]["threads"][0].append("swim")
    doc["workload"]["threads"][0][0]["profile"]["hot_frac"] = 0.99
    prof = profile.to_dict()
    prof["hot_frac"], prof["name"] = 0.5, "tampered"
    assert spec.key() == key and spec.warmup_key() == warm
    assert spec.to_dict() == before
    assert profile.to_dict() == profile_before


def test_fresh_containers_per_call():
    spec = build("rotation_4T")
    a, b = spec.to_dict(), spec.to_dict()
    assert a == b and a is not b
    assert a["workload"] is not b["workload"]
    pa = a["workload"]["threads"][0][0]["profile"]
    pb = b["workload"]["threads"][0][0]["profile"]
    assert pa == pb and pa is not pb
    profile = get_profile("swim")
    assert profile.to_dict() is not profile.to_dict()


def _run(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", BUILD + code],
        input=stdin, capture_output=True, check=True, env=env,
    ).stdout


def test_identity_survives_pickling_across_hash_seeds():
    """``hash()`` of a ``str`` is salted per interpreter, so an identity
    computed in one process must not travel in a pickle: the loading
    process has to find the spec under its own salt."""
    names = sorted(PINNED)
    blob = _run(textwrap.dedent(f"""
        import pickle, sys
        specs = [build(n) for n in {names!r}]
        for s in specs:
            hash(s), hash(s.workload), s.key(), s.warmup_key()
            s.to_dict()
        sys.stdout.buffer.write(pickle.dumps(specs))
    """), seed="1")
    out = _run(textwrap.dedent(f"""
        import pickle, sys
        loaded = pickle.loads(sys.stdin.buffer.read())
        for name, spec in zip({names!r}, loaded):
            fresh = build(name)
            assert spec in {{fresh: 1}}, name
            assert fresh in {{spec: 1}}, name
            assert spec.workload in {{fresh.workload: 1}}, name
            assert hash(spec) == hash(fresh), name
            print(name, spec.key(), spec.warmup_key())
    """), seed="2", stdin=blob)
    got = {
        name: (key, warm)
        for name, key, warm in map(str.split, out.decode().splitlines())
    }
    assert got == PINNED
    # and the same objects still answer here, under this process's salt
    for name, spec in zip(names, pickle.loads(blob)):
        assert spec in {build(name): 1}


def plain_keys(spec) -> tuple[str, str]:
    """``(key(), warmup_key())`` as one canonical dump of the whole spec
    document computes them: what the spliced workload JSON must equal."""
    def digest(doc):
        payload = json.dumps(
            {"spec_version": SPEC_VERSION, **doc},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    doc = spec.to_dict()
    return digest(doc), digest({**doc, "commits": None})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_spliced_keys_equal_the_plain_dump(name):
    """Pinned specs cover router, mem, config overrides and a
    ``with_profile_overrides`` workload; each is checked as built, after
    a ``from_dict`` round trip, and retargeted by ``with_backend`` and
    ``replace``."""
    spec = build(name)
    for variant in (
        spec,
        RunSpec.from_dict(spec.to_dict()),
        dataclasses.replace(spec.with_backend("analytic"), l2_latency=96),
    ):
        assert (variant.key(), variant.warmup_key()) == plain_keys(variant)


def test_presets_share_one_workload_object():
    a = RunSpec.multiprogrammed(4, scale=0.1)
    b = RunSpec.multiprogrammed(4, l2_latency=96, decoupled=False, scale=0.1)
    assert a.workload is b.workload
    assert (RunSpec.single("swim", scale=0.1).workload
            is RunSpec.single("swim", scale=0.1).workload)
    # the sharing is typed: the float is refused, not answered with the
    # object built for the int
    WorkloadSpec.rotation(2, seg_instrs=20_000)
    with pytest.raises(ValueError, match="seg_instrs"):
        WorkloadSpec.rotation(2, seg_instrs=20_000.0)


def test_re_registered_profile_is_not_served_from_a_shared_workload():
    swim, provenance = get_profile("swim"), profile_provenance("swim")
    before = WorkloadSpec.single("swim")
    try:
        register_profile(dataclasses.replace(swim, hot_frac=0.125))
        assert WorkloadSpec.single("swim").threads[0][0].profile.hot_frac \
            == 0.125
    finally:
        register_profile(swim, provenance=provenance)
    assert WorkloadSpec.single("swim") == before


@pytest.mark.parametrize("first", [0, 1])
def test_int_and_float_profile_fields_keep_their_own_keys(first):
    """``hot_frac: 1`` and ``1.0`` compare and hash equal but serialize
    differently, so each spec keeps the key of its own JSON, whichever
    is keyed first: a cache of JSON keyed by content would not."""
    specs = []
    for value in (1, 1.0):
        doc = RunSpec.multiprogrammed(1, scale=0.1).to_dict()
        doc["workload"]["threads"][0][0]["profile"]["hot_frac"] = value
        specs.append(RunSpec.from_dict(doc))
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
    for spec in (specs[first], specs[1 - first]):
        assert (spec.key(), spec.warmup_key()) == plain_keys(spec)
    assert specs[0].key() != specs[1].key()


def test_pickle_carries_no_workload_json():
    spec = build("rotation_4T")
    spec.key(), spec.warmup_key()
    text = spec.workload.canonical_json()
    assert spec.workload.__dict__["_json"] is text
    blob = pickle.dumps(spec)
    assert text.encode() not in blob
    loaded = pickle.loads(blob)
    assert "_json" not in loaded.workload.__dict__
    assert loaded.key() == spec.key()


def test_run_spec_hash_is_structural_and_computed_once():
    spec = build("mem_l2_finite")
    structural = hash(tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)))
    assert hash(spec) == structural
    assert spec.__dict__["_hash"] == structural
    loaded = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in loaded.__dict__  # str hashes are salted per process
    assert hash(loaded) == structural and loaded == spec


class TestParseSharing:
    """``BenchProfile.from_dict`` and ``WorkloadSpec.from_dict`` hand out
    one object per exact input document, so the memos of what they
    build are shared across parses, and never across documents that
    only compare equal."""

    @staticmethod
    def wired(spec):
        return json.loads(json.dumps(spec.to_dict()))

    def test_equal_documents_share_one_workload_and_its_profiles(self):
        spec = build("rotation_4T")
        first = RunSpec.from_dict(self.wired(spec))
        second = RunSpec.from_dict(self.wired(spec))
        assert first is not second
        assert first.workload is second.workload
        entries = [e for playlist in first.workload.threads for e in playlist]
        assert len(entries) == 40
        assert len({id(e.profile) for e in entries}) == 10
        assert first.key() == second.key() == PINNED["rotation_4T"][0]
        # a different workload over the same profiles shares them too
        three = RunSpec.from_dict(self.wired(RunSpec.multiprogrammed(3, scale=0.1)))
        assert {id(e.profile) for e in three.workload.threads[0]} == {
            id(e.profile) for e in entries
        }

    @pytest.mark.parametrize(
        "field, values",
        [("fp_per_load", (1, 1.0)), ("hot_frac", (0.0, -0.0))],
        ids=["int-float", "zero-signs"],
    )
    def test_equal_values_of_other_types_stay_distinct(self, field, values):
        profiles, specs = [], []
        for value in values:
            doc = get_profile("swim").to_dict()
            doc[field] = value
            profiles.append(BenchProfile.from_dict(doc))
            spec_doc = RunSpec.multiprogrammed(1, scale=0.1).to_dict()
            spec_doc["workload"]["threads"][0][0]["profile"][field] = value
            specs.append(RunSpec.from_dict(spec_doc))
        assert profiles[0] == profiles[1] and profiles[0] is not profiles[1]
        for profile, value in zip(profiles, values):
            assert repr(profile.to_dict()[field]) == repr(value)
        assert specs[0].workload is not specs[1].workload
        assert specs[0].key() != specs[1].key()
        for spec in specs:
            assert (spec.key(), spec.warmup_key()) == plain_keys(spec)

    def test_a_bool_is_refused_after_the_int_was_parsed(self):
        doc = get_profile("swim").to_dict()
        doc["unroll"] = 1
        assert BenchProfile.from_dict(doc).unroll == 1
        doc["unroll"] = True
        with pytest.raises(ValueError, match="unroll must be an int"):
            BenchProfile.from_dict(doc)

    def test_base_and_named_entries_follow_a_replaced_registration(self):
        swim, provenance = get_profile("swim"), profile_provenance("swim")
        derived = {"name": "swim-variant", "base": "swim", "unroll": 3}
        workload = {"name": "w", "threads": [["swim"]]}
        assert BenchProfile.from_dict(derived).hot_frac == swim.hot_frac
        assert WorkloadSpec.from_dict(workload).threads[0][0].profile is swim
        try:
            register_profile(dataclasses.replace(swim, hot_frac=0.125))
            assert BenchProfile.from_dict(derived).hot_frac == 0.125
            entry = WorkloadSpec.from_dict(workload).threads[0][0]
            assert entry.profile.hot_frac == 0.125
        finally:
            register_profile(swim, provenance=provenance)
        assert BenchProfile.from_dict(derived).hot_frac == swim.hot_frac

    def test_the_profile_table_keeps_its_bound(self):
        for i in range(10_000):
            BenchProfile.from_dict({"name": f"bound-{i}"})
        assert len(profiles_mod._PARSED) == profiles_mod.PARSED_PROFILES
        # the newest are kept: a repeat parse is served from the table
        last = {"name": "bound-9999"}
        assert BenchProfile.from_dict(last) is BenchProfile.from_dict(last)
