"""Vectorized charwalk: eligibility gating and exact equality.

``model/charwalk_np.py`` re-derives the interpreted characterization walk
with closed-form array operations; the two must produce **equal**
:class:`~repro.model.charwalk.WorkloadCharacter` objects — every count,
every reuse bucket — on every geometry the vectorized path claims.
Geometries it cannot model (finite/partitioned outer levels, prefetchers)
and a missing numpy must select the interpreter.
"""

from dataclasses import fields

import pytest

np = pytest.importorskip("numpy")

from repro.core.config import MachineConfig  # noqa: E402
from repro.engine.spec import RunSpec  # noqa: E402
from repro.memory.spec import mem_preset  # noqa: E402
from repro.model import charwalk_np  # noqa: E402
from repro.model.charwalk import _characterize, character_key  # noqa: E402
from repro.workloads.spec import workload_preset  # noqa: E402


def both_walks(spec, monkeypatch):
    """(interpreted, vectorized) characters of one run spec."""
    proc, _ = spec.instantiate()
    key = character_key(spec, proc.cfg)
    vec = _characterize.__wrapped__(key)
    with monkeypatch.context() as m:
        m.setattr(charwalk_np, "np", None)
        pure = _characterize.__wrapped__(key)
    return pure, vec


class TestEligibility:
    def test_classic_geometry_is_eligible(self):
        geo = mem_preset("classic").resolve(MachineConfig()).geometry()
        assert charwalk_np.eligible(geo) is True

    @pytest.mark.parametrize(
        "preset", ["l2_finite", "l2_small", "l2_partitioned",
                   "nextline", "stream"],
    )
    def test_exotic_geometries_fall_back(self, preset):
        geo = mem_preset(preset).resolve(MachineConfig()).geometry()
        assert charwalk_np.eligible(geo) is False

    def test_missing_numpy_falls_back(self, monkeypatch):
        geo = mem_preset("classic").resolve(MachineConfig()).geometry()
        monkeypatch.setattr(charwalk_np, "np", None)
        assert charwalk_np.eligible(geo) is False


class TestEquality:
    SPECS = [
        ("su2cor_1T", lambda: RunSpec.single(
            "su2cor", l2_latency=256, commits=4_000, warmup=2_000)),
        ("tomcatv_1T", lambda: RunSpec.single(
            "tomcatv", l2_latency=16, commits=4_000, warmup=2_000)),
        ("mp_4T", lambda: RunSpec.multiprogrammed(
            4, l2_latency=16, commits_per_thread=2_000,
            warmup_per_thread=1_000)),
        ("thrash4", lambda: RunSpec.from_workload(
            workload_preset("thrash4"), l2_latency=64,
            commits=3_000, warmup=1_000)),
        ("no_warmup", lambda: RunSpec.single(
            "su2cor", l2_latency=16, commits=3_000, warmup=0)),
    ]

    @pytest.mark.parametrize(
        "build", [b for _, b in SPECS], ids=[n for n, _ in SPECS],
    )
    def test_characters_equal(self, build, monkeypatch):
        pure, vec = both_walks(build(), monkeypatch)
        if pure != vec:
            diffs = [
                f"{f.name}: pure={getattr(pure, f.name)!r} "
                f"vec={getattr(vec, f.name)!r}"
                for f in fields(pure)
                if getattr(pure, f.name) != getattr(vec, f.name)
            ]
            pytest.fail("character mismatch:\n" + "\n".join(diffs))

    def test_vectorized_path_actually_dispatches(self, monkeypatch):
        """Guard against the gate silently sending everything to the
        interpreter: the dispatcher must call characterize_np."""
        spec = RunSpec.single("su2cor", l2_latency=16,
                              commits=2_000, warmup=500)
        proc, _ = spec.instantiate()
        key = character_key(spec, proc.cfg)
        called = {}
        real = charwalk_np.characterize_np

        def spy(*a, **kw):
            called["yes"] = True
            return real(*a, **kw)

        monkeypatch.setattr(charwalk_np, "characterize_np", spy)
        _characterize.__wrapped__(key)
        assert called.get("yes") is True
