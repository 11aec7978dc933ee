"""Regenerate ``reference.json``: the digest of every input set in each
workload's pool, at the measured size and at the tiny size the
benchmark's own tests use.

    python3 perfbench/reference.py --jobs 2

The digest covers the simulated results only (bytes, commands, NACKs,
recoveries, refreshes, final framebuffers, yardstick round trips, link
drops and losses), so it changes only when the program's simulated
behaviour changes — never with host speed.  Each table is keyed by the
rig's configuration; a run whose configuration the table does not hold
fails every digest check.  Run this after a change that is *meant* to
alter simulated results, or that resizes a workload, and say so in the
change.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import POOL, REFERENCE, WORKLOADS, run_sample  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for size in ("full", "tiny"):
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                samples = list(
                    pool.map(
                        lambda index: run_sample(workload, index, False, size),
                        range(POOL),
                    )
                )
            for sample in samples:
                if sample["failed"]:
                    print(f"{workload} {size} input set {sample['index']}: "
                          f"{sample['problems']}", file=sys.stderr)
            table[workload][size] = {
                "config": samples[0]["config"],
                "digests": [sample["digest"] for sample in samples],
            }
            print(f"{workload} {size}: {len(samples)} digests", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
