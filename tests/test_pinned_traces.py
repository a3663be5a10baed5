"""Every built-in trace and wrong-path stream, pinned instruction by
instruction, and a guard that simulation never writes to an instruction.

Traces and wrong-path pools are built once per process and their
:class:`~repro.isa.instruction.StaticInst` objects are shared: between
the contexts of one machine, between machines, and between repeated
positions of one trace.  The digests below are a sha256 over every slot
of every instruction, so a synthesizer change that moves a single field
(or its type) moves a digest.  A digest reads values, not identity, so
each built-in trace's count of distinct objects is pinned beside it:
sharing is what keeps a process's memory flat as traces repeat.  Edge
profiles pin the synthesis paths that no built-in reaches.  The guard
runs a machine and a characterization walk over the process-cached
traces and pools, then re-digests them: a stage that wrote to a shared
instruction would leave its mark on the next run that reads it.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter

import pytest

from repro.engine import RunSpec
from repro.isa.instruction import StaticInst
from repro.model.charwalk import _characterize, character_key
from repro.workloads import (
    SCENARIOS,
    SEG_INSTRS,
    SPECFP95,
    BenchProfile,
    profile_trace,
    synthesize,
)
from repro.workloads.wrongpath import WrongPathGenerator

#: every slot; the enum slots by value, because an enum's repr runs
#: Python code and would triple the cost of a digest
_SLOTS = attrgetter(*(
    f"{slot}._value_" if slot in ("op", "unit") else slot
    for slot in StaticInst.__slots__
))

#: one full pool period twice, then 16 more: the stream wraps twice
WP_STREAM = 2 * WrongPathGenerator._POOL_SIZE + 16


def digest(insts) -> str:
    """sha256 over the repr of every slot of every instruction."""
    return hashlib.sha256(repr(list(map(_SLOTS, insts))).encode()).hexdigest()


#: (profile name, seed) -> digest of ``profile_trace(profile, SEG_INSTRS,
#: seed)``
TRACES = {
    ("tomcatv", 0):
        "99272704f7de3ccc72aa6f0a9ed6c9a90d42aa763dca572e9c2081fb67e8adaa",
    ("tomcatv", 1):
        "1bd48dabe8f4d99d19709bb8aaf04a9aa3314125fa9ca0e8238475dad2883654",
    ("swim", 0):
        "362c73bf09e3514ff8745a90b3b2e87ea748af281387ac5ddfb30a6b2f8af4d4",
    ("swim", 1):
        "d05217d58f810bdfdc05f1486c6def20b2a1fb5b889c38325b1389afb6508cc9",
    ("su2cor", 0):
        "a7d9da1e22cdaf6f4fab2ea3ed1d35c97980d59917f29a4a8401ff6b5354ce95",
    ("su2cor", 1):
        "01f4d9b0a5f38a1a143d5b6071e567e3f25c890edaa5a11e5931a40bdd35aa4e",
    ("hydro2d", 0):
        "75ea8e02939e31b06fb56595428d6a0fdd66f205fc504e3306aecf608a1be1a8",
    ("hydro2d", 1):
        "825cb280dd160a5e04959a88813f76123dc513aa964794fb0f3dd57fc28b7a71",
    ("mgrid", 0):
        "b48d3ba0b0aa58d8d5b608f6cd547febf53c584839b04b78fc4ac1b26a4b0c02",
    ("mgrid", 1):
        "b6439d45a837690c7c15d82bff1efa07d56a6635fb73e32639ec85f0c4e8065b",
    ("applu", 0):
        "01f383c50750471cc6b129291325875e0e91df1be116f16a6f8e0a523cc0e6fe",
    ("applu", 1):
        "51f3709156995a261954d4bed1587b223c0749b136b50a1415ff4d3ed7b49d26",
    ("turb3d", 0):
        "532d5810a1fa4e2eafa4669016fe6a2b69e9b8242cd653e1f9d39ec701a83e37",
    ("turb3d", 1):
        "9ce4a45227320cf5342f7fe80df5dada2c1db0ef0508f8c36c8451b4af88ac54",
    ("apsi", 0):
        "c2ac22ca53aac455f6facc09064e19d824f364960a832745a5ba3b896494b9a2",
    ("apsi", 1):
        "3a10fff475d7f283a544ef2c9c62408e24d09048934c276271d9bc794be0f2dc",
    ("fpppp", 0):
        "01937f4c825b85eb602d5596ffaadbed3bc2c61a56d53cd65aab666fba579076",
    ("fpppp", 1):
        "d9e16131882be66e0cb279d62aabb696e07bac729e7d70fe24d9e0fc751775b6",
    ("wave5", 0):
        "1d2f6d7afb2ecf9068f93c0bac5233df25182d235ed8ad7d2cea157b5e737cbf",
    ("wave5", 1):
        "f273011a97688798c11e785877171b477ea6040dc5445cac3e42d4df1158d90a",
    ("ptrchase", 0):
        "2a2d35cd75a726bf54fe1f73cc3e531e1a0f5f8d3986cee0686d2e69da0b370c",
    ("ptrchase", 1):
        "f098dbf11dd3fdcc188ca8d31c11244f55c22844582105b9ff348ade20c19421",
    ("thrash", 0):
        "791c9ed43a92d1954d80ad6b5ffc71f4bfdf353335dee1424dbb1bde998add91",
    ("thrash", 1):
        "df249901d2f30724c24f0be497d3b4ca5cd931f3079f34bcb0a2790988dbd77a",
    ("stream", 0):
        "c085862df490d8cfff4b5441ae2ee01809ad6bf448866f5a661c90af3e3cf2f7",
    ("stream", 1):
        "88a10e6ae64749703ecb7a2abfba5288ad80bed837481f1bed6208b3d660ffd5",
}

#: generator seed -> digest of its first :data:`WP_STREAM` instructions;
#: a machine at spec seed ``s`` gives context ``t`` the seed
#: ``s * 1031 + t``
POOLS = {
    0: "1f8a11773ab924adb3452852744ba9285c8729966b8394aa2194adddcda42299",
    1: "c5bbfe8cdc1604be05c2f349b0760630160239c25a501ee7831cfcfbca860837",
    2: "aeb7bc775665396359896a1e59e19b798e47a08c0cd6ab81d4c83999727968e0",
    3: "71aab4a696751a3eb2fc60b4216c0db1c34e71a33fde7a701d0b286473bc6ada",
    1031: "f62d28a8be06b80093f215a04561152c7874c9571337afb32ada9a604ecfcb0a",
    1032: "47bb27eafaa6cc191099fe56b6211802d23a2e21d1fc368e10f79603742160f7",
    1033: "e654e07fff2e53cc981cfde98740ad9b204e3e96413f47750dbef3f621b5639f",
    1034: "6af05182680126a9737e89d2bdca16d97f59ad766341334fdc8e53b2e0794f99",
}

#: profile name -> distinct :class:`StaticInst` objects in its traces at
#: seeds 0 and 1 (76,301 over the ten SPEC traces at seed 0)
DISTINCT = {
    "tomcatv": (7999, 7988),
    "swim": (8327, 8306),
    "su2cor": (7828, 7820),
    "hydro2d": (8568, 8543),
    "mgrid": (7589, 7589),
    "applu": (7614, 7614),
    "turb3d": (6338, 6338),
    "apsi": (7613, 7605),
    "fpppp": (6261, 6260),
    "wave5": (8164, 8163),
    "ptrchase": (7489, 7502),
    "thrash": (7143, 7138),
    "stream": (7509, 7509),
}

#: profiles that reach synthesis paths no built-in reaches: name ->
#: (overrides of the default profile, instructions asked for, digest of
#: ``synthesize(profile, n, seed=0)``).  Each length ends inside a loop
#: body, so each trace runs past it to the end of that iteration.
EDGES = {
    # data-dependent branches (every built-in has rand_branch_frac 0),
    # with the loss-of-decoupling and ITOF draws between them
    "edge-rand-branch": (
        {"rand_branch_frac": 0.1, "lod_rate": 0.004, "itof_rate": 0.01},
        4001,
        "84d9aa4fc92af2fa82a18ffff3adeb1e59bcf59ccb3c202d42c0af6996e2438d",
    ),
    # hot and gather windows that are not powers of two
    "edge-odd-windows": (
        {"hot_bytes": 3000, "hot_skew": 0.5, "gather_frac": 0.2,
         "gather_ws_bytes": 3000},
        4001,
        "69a8390232d14c088a4ca16296cfaf089a6406129b8fab9c46e93e0f1937169c",
    ),
    # sparse index loads whose folded stream passes its first window
    "edge-sparse-index": (
        {"n_streams": 4, "gather_frac": 0.5, "index_dist": 1,
         "index_every": 2, "ws_bytes": 1 << 20},
        8999,
        "134289cc7ad838b4b1360f5918207612db62da34441d8bbe8385c7b1d5b9cc0f",
    ),
    # resident stream, index and store windows that wrap, none a
    # multiple of 8
    "edge-resident": (
        {"ws_bytes": 1000, "gather_frac": 0.2, "store_ws_bytes": 1000},
        4001,
        "8119439872a8b3b96e20e2b942110abdd4f1570a77d013067ca20755971eef69",
    ),
}

#: ``(seed, data_span)`` -> digest of the first :data:`WP_STREAM`
#: instructions of a generator over a data window that is neither the
#: default nor a power of two
ODD_POOLS = {
    (5, 3000):
        "4b457b884d1a8599eaf9575a4b31b92ece8339c32d0af10eb857310e78ac4ee3",
}

BUILTIN = {**SPECFP95, **SCENARIOS}


def test_every_builtin_profile_is_pinned():
    assert {name for name, _ in TRACES} == set(BUILTIN) == set(DISTINCT)


@pytest.mark.parametrize(
    "name, seed, want", [(*k, v) for k, v in TRACES.items()],
    ids=[f"{name}-{seed}" for name, seed in TRACES],
)
def test_trace_digest(name, seed, want):
    trace = profile_trace(BUILTIN[name], SEG_INSTRS, seed)
    assert digest(trace) == want
    assert len(set(map(id, trace))) == DISTINCT[name][seed]


@pytest.mark.parametrize(
    "name, overrides, n_instrs, want",
    [(name, *v) for name, v in EDGES.items()], ids=list(EDGES),
)
def test_edge_trace_digest(name, overrides, n_instrs, want):
    trace = synthesize(BenchProfile(name, **overrides), n_instrs)
    assert len(trace) > n_instrs  # the last iteration runs to its end
    assert digest(trace) == want


def test_a_shorter_trace_is_a_prefix():
    # a length that ends mid-body builds the same iterations as a longer
    # trace, and only those
    profile = SPECFP95["tomcatv"]
    short = synthesize(profile, 1001).insts
    assert 1001 < len(short) < 1001 + 40
    assert digest(short) == digest(synthesize(profile, SEG_INSTRS)[: len(short)])


def _stream(gen):
    stream = list(gen.next_block(16)) + list(gen.next_block(WP_STREAM - 16))
    assert len(stream) == WP_STREAM
    return stream


@pytest.mark.parametrize(
    "seed, want", list(POOLS.items()), ids=list(map(str, POOLS))
)
def test_wrong_path_stream_digest(seed, want):
    assert digest(_stream(WrongPathGenerator(seed))) == want


@pytest.mark.parametrize(
    "seed, span, want", [(*k, v) for k, v in ODD_POOLS.items()],
    ids=[f"{seed}-span{span}" for seed, span in ODD_POOLS],
)
def test_wrong_path_stream_digest_odd_span(seed, span, want):
    assert digest(_stream(WrongPathGenerator(seed, data_span=span))) == want


def test_simulation_leaves_shared_instructions_unchanged():
    # the smallest budget scale at which all four contexts mispredict
    # (0.1 leaves the last one without a wrong path)
    spec = RunSpec.multiprogrammed(4, scale=0.15)
    proc, run_kwargs = spec.instantiate()
    assert proc.run(**run_kwargs).fetched_wrong_path > 0
    twin = spec.with_backend("analytic")
    # past the walk's process cache, so this walk reads the traces
    _characterize.__wrapped__(character_key(twin, twin.machine_config()))
    for entry in {e for playlist in spec.workload.threads for e in playlist}:
        trace = profile_trace(
            entry.profile, spec.workload.entry_length(entry), spec.seed)
        assert digest(trace) == TRACES[entry.profile.name, spec.seed]
    for ctx in proc.state.threads:
        pool = ctx.wp_gen._pool
        assert pool is not None, f"context {ctx.tid} never mispredicted"
        stream = list(pool) * 2 + list(pool[:16])
        assert digest(stream) == POOLS[ctx.wp_gen.seed]
