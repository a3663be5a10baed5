"""The cycle kernel's six regimes, pinned to the benchmark's recorded
result digests.

``perf_specs(quick=True)`` is the set the benchmark's ``kernel``
workload times: an idle-heavy su2cor, a busy tomcatv, the issue-bound
Figure-3 machine, the non-decoupled (unified-queue) machine, four
thrashing threads and the MSHR-refused ``hilat_4T``.  Each spec runs
here through :meth:`RunSpec.execute` and its ``comparable_dict()`` is
digested the way ``perfbench/bench.py`` digests a result, then compared
with ``perfbench/digests.json`` under the current ``SPEC_VERSION``.

The fast-forward suite compares the walked kernel with the jumping one,
and both run the same stage ticks, so a rewrite of a tick that moves a
statistic moves both sides alike.  These digests do not move with the
code: a kernel change that claims unchanged results must reproduce
every one of them.  The digest file is only read here; a version with
no recorded digests fails loudly instead of passing vacuously.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.spec import SPEC_VERSION
from repro.experiments.perf import perf_specs

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"

SPECS = perf_specs(quick=True)


def digest(stats) -> str:
    """The benchmark's result digest: sha256 over the sorted JSON of the
    comparable statistics, first 16 hex digits."""
    payload = json.dumps(
        stats.comparable_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def recorded() -> dict:
    table = json.loads(DIGESTS.read_text())
    version = str(SPEC_VERSION)
    if version not in table:
        pytest.fail(
            f"{DIGESTS} has no digests for SPEC_VERSION {version}; record "
            "them with perfbench/record_digests.py"
        )
    return table[version]


def test_the_set_covers_six_regimes():
    assert list(SPECS) == [
        "fig1_su2cor_1T_L2=256",
        "fig1_tomcatv_1T_L2=256",
        "fig3_4T_L2=16",
        "fig4_2T_L2=128_nondec",
        "mem_thrash4_L2=64",
        "hilat_4T_L2=256",
    ]
    assert not SPECS["fig4_2T_L2=128_nondec"].decoupled


@pytest.mark.parametrize("name", list(SPECS))
def test_kernel_result_matches_recorded_digest(name, recorded):
    spec = SPECS[name]
    key = spec.key()
    assert key in recorded, f"no recorded digest for {name} ({key})"
    assert digest(spec.execute()) == recorded[key], name
