"""SPEC FP95 profile table sanity and paper-classification checks."""

import pytest

from repro.workloads import SEG_INSTRS, KernelSynthesizer
from repro.workloads.profiles import (
    BENCH_ORDER,
    MAX_BODY_INSTRS,
    SCENARIOS,
    SPECFP95,
    BenchProfile,
    get_profile,
)


class TestTable:
    def test_all_ten_benchmarks_present(self):
        assert set(BENCH_ORDER) == set(SPECFP95)
        assert len(BENCH_ORDER) == 10

    def test_paper_figure_order(self):
        assert BENCH_ORDER[0] == "tomcatv"
        assert BENCH_ORDER[-1] == "wave5"

    def test_lookup(self):
        assert get_profile("swim").name == "swim"

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            get_profile("gcc")

    def test_with_overrides(self):
        p = get_profile("swim").with_overrides(iters=7)
        assert p.iters == 7
        assert get_profile("swim").iters != 7 or True  # original untouched
        assert SPECFP95["swim"].iters == 128


class TestPaperClassification:
    """The profile parameters must encode the paper's benchmark classes."""

    def test_fpppp_is_the_loss_of_decoupling_program(self):
        p = get_profile("fpppp")
        assert p.lod_rate > 0
        assert all(
            get_profile(b).lod_rate == 0 for b in BENCH_ORDER if b != "fpppp"
        )

    def test_int_load_stall_programs_gather(self):
        # paper: fpppp, su2cor, turb3d, wave5 show the largest int-load stalls
        for b in ("fpppp", "su2cor", "turb3d", "wave5"):
            assert get_profile(b).gather_frac > 0, b

    def test_short_index_distance_for_turb3d_and_fpppp(self):
        assert get_profile("turb3d").index_dist == 0
        assert get_profile("fpppp").index_dist == 0

    def test_low_missratio_programs_are_resident(self):
        # paper: fpppp and turb3d barely miss
        assert get_profile("fpppp").ws_bytes <= 16 * 1024
        assert get_profile("fpppp").hot_frac >= 0.85
        assert get_profile("turb3d").hot_frac >= 0.75

    def test_streaming_programs_have_large_working_sets(self):
        for b in ("tomcatv", "swim", "hydro2d"):
            assert get_profile(b).ws_bytes >= 1 << 22, b

    def test_swim_has_widest_stride(self):
        # swim's wide stride gives it the suite's highest miss ratio
        assert get_profile("swim").elem_bytes == max(
            get_profile(b).elem_bytes for b in BENCH_ORDER
        )

    def test_hot_regions_fit_their_zone(self):
        for b in BENCH_ORDER:
            assert get_profile(b).hot_bytes <= 12 * 1024, b


class TestDefaults:
    def test_defaults_are_sane(self):
        p = BenchProfile(name="x")
        assert p.n_streams >= 1
        assert p.unroll >= 1
        assert 0 <= p.hot_frac <= 1
        assert 0 <= p.gather_frac <= 1
        assert p.chain_depth >= 1


class TestBodyBound:
    """One loop iteration must fit below the outer-loop block, which
    synthesis places MAX_BODY_INSTRS instruction slots past the body."""

    BUILTIN = {**SPECFP95, **SCENARIOS}
    #: the instructions besides its FP chain ops that the longest
    #: iteration of a default profile with one load holds
    FIXED = 7

    def test_builtin_bodies_are_short(self):
        for name, p in self.BUILTIN.items():
            assert p.body_counts().longest <= 45, name

    def test_the_longest_body_the_layout_holds_is_accepted(self):
        p = BenchProfile(
            name="long-body", n_streams=1, unroll=1, iters=2,
            fp_per_load=MAX_BODY_INSTRS - self.FIXED,
        )
        assert p.body_counts().longest == MAX_BODY_INSTRS
        synth = KernelSynthesizer(p)
        outer = synth.code_base + 4 * MAX_BODY_INSTRS
        trace = synth.synthesize(3 * MAX_BODY_INSTRS).insts
        body = [i.pc for i in trace if i.pc < outer]
        assert max(body) < outer
        assert len(body) + 5 == len(trace)  # one outer-loop block

    @pytest.mark.parametrize("fields", [
        {"n_streams": 1, "unroll": 1, "fp_per_load": MAX_BODY_INSTRS - 6},
        {"n_streams": 2000},
        {"unroll": 10**9},
        {"n_streams": 10**400},
        {"fp_per_load": 1e308},
        {"gather_frac": 1e308},
        {"rand_branch_frac": 100.0},
        {"store_per_load": 1000.0},
        {"extra_ialu_per_load": 1000.0},
    ], ids=["one_over", "n_streams", "unroll", "n_streams_overflow",
            "fp_per_load_overflow", "gather_frac_overflow",
            "rand_branch_frac", "store_per_load", "extra_ialu_per_load"])
    def test_longer_bodies_are_refused_naming_the_fields(self, fields):
        with pytest.raises(ValueError, match="overruns the 2048") as exc:
            BenchProfile(name="long-body", **fields)
        for name, value in fields.items():
            assert f"{name}={value!r}" in str(exc.value)
        with pytest.raises(ValueError, match="overruns"):
            BenchProfile.from_dict({"base": "tomcatv", "name": "x", **fields})

    @pytest.mark.parametrize("field", ["hot_frac", "gather_frac"])
    def test_negative_shares_are_refused(self, field):
        # a negative share of hot or gather slots made stream slots past
        # n_loads: -1000 built 6006 loads per iteration
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            BenchProfile(name="x", **{field: -1000.0})

    def test_body_pcs_stay_inside_the_bound(self):
        # gathers asked for past the loads take every load slot
        edge = BenchProfile(name="all-gather", n_streams=1, unroll=1, gather_frac=5)
        for name, p in {**self.BUILTIN, "all-gather": edge}.items():
            synth = KernelSynthesizer(p)
            end = synth.code_base + 4 * p.body_counts().longest
            trace = synth.synthesize(SEG_INSTRS).insts
            outer = synth.code_base + 4 * MAX_BODY_INSTRS
            assert all(i.pc < end for i in trace if i.pc < outer), name
