"""Write digests.json: sha256 of each generated workload's outputs at the
default seed, which the gate checks before timing.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right (the
golden fixtures pass); rerun only when a change to the benchmark's
generators, or a deliberate change to the program's output, moves them.
"""

from __future__ import annotations

import json
import sys

import run

run.locate_program(run.ROOT)
from gate import Tally, sha256  # noqa: E402
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS  # noqa: E402


def main() -> int:
    digests = {}
    for name, cls in WORKLOADS.items():
        wl = cls(run.ROOT, DEFAULT_SEED)
        wl.setup(Tally())
        data = wl.digest_data()
        if data:
            digests[name] = {key: sha256(value) for key, value in data.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
