"""Record the result digests the benchmark's correctness gate checks.

Run from the repository root after a change that is meant to alter
simulated results (and bumps ``SPEC_VERSION``)::

    python3 perfbench/record_digests.py

One pass of every workload runs at full size; each result's digest is
stored in ``perfbench/digests.json`` under the current spec version.
Digests of other spec versions are kept.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from run import WORK, child_env  # noqa: E402


def main() -> int:
    from repro.engine.spec import SPEC_VERSION

    work = WORK / "record"
    seen: dict[str, str] = {}
    try:
        for name in bench.WORKLOADS:
            out = work / f"{name}.json"
            subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", name,
                 "--seed", "0", "--work-dir", str(work / name),
                 "--record-digests", str(out)],
                check=True, env=child_env(work), stdout=subprocess.DEVNULL,
            )
            digests = json.loads(out.read_text())
            print(f"{name}: {len(digests)} results", file=sys.stderr)
            seen.update(digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = json.loads(bench.DIGESTS.read_text()) if bench.DIGESTS.is_file() else {}
    table[str(SPEC_VERSION)] = dict(sorted(seen.items()))
    bench.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
