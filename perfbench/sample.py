"""One benchmark sample: set up, run and check one workload in this process.

``run.py`` starts each sample as a fresh interpreter with one thread, so
no sample inherits another's heap, caches or page faults.  The sample
prints one JSON object on its last line of standard output.

Timed intervals (``time.perf_counter``):

``setup_s``  from just before the rig generates its inputs until the
             system is built — interpreter start and imports are *not*
             included (they are reported separately as ``import_s``);
``run_s``    from the engine's first event until the end condition.

With ``--trace 1`` the ledger wraps every layer's entry points before
set-up (some callbacks are bound while the system is built) and writes
the spans to ``--spans`` at the end.

    python3 perfbench/sample.py --workload campus_lan --index 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--index", type=int, required=True,
        help="which of the pool's input sets to run (run.POOL of them)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", help="write the traced spans here (.npz)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        import repro
        from ledger import LAYERS, Ledger
        from rigs import describe, input_seed, make_rig
    except ImportError as exc:
        print(f"sample: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != HERE.parent / "src":
        print(f"sample: imported {repro.__file__}, not this checkout's",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    ledger = Ledger() if args.trace else None
    if ledger is not None:
        ledger.install()
    rig = make_rig(args.workload, args.size)
    config = describe(rig)
    t0 = time.perf_counter()
    rig.setup(input_seed(args.index))
    t1 = time.perf_counter()
    if ledger is not None:
        ledger.begin_run()
    t2, c2 = time.perf_counter(), time.process_time()
    rig.run()
    t3, c3 = time.perf_counter(), time.process_time()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ledger is not None:
        ledger.uninstall()
    outcome = rig.outcome()
    result = {
        "workload": args.workload,
        "index": args.index,
        "config": config,
        "traced": bool(args.trace),
        "import_s": import_s,
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "run_cpu_s": c3 - c2,
        "peak_rss_mib": peak_rss_mib,
        "users": outcome.users,
        "sim_seconds": outcome.sim_seconds,
        "checks": outcome.checks,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "counts": outcome.counts,
    }
    if ledger is not None:
        root_s = ledger.root_seconds()
        result["ledger"] = {
            "self_s": ledger.layer_self_s(),
            "unattributed_s": (t3 - t2) - root_s,
            "recount_s": dict(zip(LAYERS, map(float, ledger.recount()))),
            "root_s": root_s,
            "spans": ledger.spans,
        }
        if args.spans:
            ledger.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
