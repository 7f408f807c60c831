"""Record the per-seed output digests that ``run.py`` checks against.

Run from the repository root after a change that is meant to alter the
program's outputs::

    python3 perfbench/record_reference.py

Each workload is set up once per seed in ``REFERENCE_SEEDS`` and iterated
once; the digests are written to ``perfbench/reference.json`` with the
numeric stack they were recorded on.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_PATH, ROOT, numeric_stack

REFERENCE_SEEDS = range(20)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in REFERENCE_SEEDS:
            outcome = workload.iterate(workload.setup(seed))
            digests[name][str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}", flush=True)
    REFERENCE_PATH.write_text(
        json.dumps({"stack": numeric_stack(), "digests": digests}, indent=1) + "\n"
    )
    print(f"written to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
