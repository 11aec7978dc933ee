"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campus_lan --seed 1 --seconds 30 --trace 0

Each workload has a pool of :data:`POOL` input sets (input set ``i``
is always the same inputs).  A run measures them in an order drawn from
``--seed`` for as long as the next one fits in ``--seconds`` (at least
three; a traced run at least one pair).  Each input set runs as one
sample: a fresh single-threaded interpreter (``sample.py``) that sets
up, runs and checks the workload.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
input set twice, untraced then traced, and reports the per-layer ledger.
The output is each metric by name with its unit, then — as the last
line — one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Checks counted in ``attempted``/``failed``: each user console ends
pixel-exact with its channel resolved (one check per user per sample;
fabric_knee: the yardstick got round trips), each sample's digest of
simulated results against ``reference.json`` (which holds every input
set of the pool; a missing or stale entry fails the check), and in a
traced run the traced digest against the untraced one and the ledger
sum.  Every sample's details, with provenance, land in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from ledger import LAYERS

HERE = Path(__file__).resolve().parent
SAMPLE = HERE / "sample.py"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
MANIFEST = HERE.parent / "BENCHMARK.json"

WORKLOADS = ("campus_lan", "campus_observed", "fabric_knee", "lossy_recovery")

#: Input sets per workload.  ``reference.json`` holds the digest of
#: every one, so every input set a run can measure is checked.
POOL = 32

#: Fewest input sets a run measures, whatever ``--seconds`` says.
MIN_SAMPLES = 3
MIN_PAIRS = 1

#: A sample that runs longer than this is a hang.
SAMPLE_TIMEOUT_S = 150.0

#: Absolute slack of the ledger-sum check per span (float summation).
LEDGER_SLACK_S = 1e-9


class SampleError(RuntimeError):
    """A sample process failed to produce a result."""


def declared(traced: bool) -> Dict[str, str]:
    """metric name -> unit, in the manifest's order, for one kind of run."""
    manifest = json.loads(MANIFEST.read_text())
    section = manifest["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_sample(
    workload: str,
    index: int,
    traced: bool,
    size: str,
    spans: Optional[Path] = None,
) -> dict:
    """One sample in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(SAMPLE), "--workload", workload,
        "--index", str(index),
        "--trace", str(int(traced)), "--size", size,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded {SAMPLE_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(
            f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def collect(
    workload: str, seed: int, seconds: float, traced: bool, size: str
) -> List[dict]:
    """The pool's input sets in the seed's order while the next one
    still fits in ``seconds`` (an untraced/traced pair each, when
    ``traced``)."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    least = MIN_PAIRS if traced else MIN_SAMPLES
    order = input_order(seed)
    samples: List[dict] = []
    started = time.perf_counter()
    done = 0
    while True:
        began = time.perf_counter()
        index = order[done % len(order)]
        samples.append(run_sample(workload, index, False, size))
        if traced:
            samples.append(run_sample(workload, index, True, size, spans))
        done += 1
        now = time.perf_counter()
        if done >= least and now - started + (now - began) > seconds:
            return samples


def input_order(seed: int) -> List[int]:
    """The order in which a run with ``--seed seed`` measures the pool's
    input sets: a permutation drawn from the seed."""
    return [int(i) for i in numpy.random.default_rng(seed).permutation(POOL)]


def reference_digests(workload: str, size: str, config: str) -> Dict[int, str]:
    """input set -> reference digest, or {} when ``REFERENCE`` holds no
    table for this workload's configuration (then every digest check
    fails: the table is stale)."""
    entry = json.loads(REFERENCE.read_text()).get(workload, {}).get(size, {})
    if entry.get("config") != config:
        return {}
    return dict(enumerate(entry["digests"]))


def check(samples: List[dict], reference: Dict[int, str]) -> dict:
    """Count the run's checks; list what failed.  Every sample's digest
    is checked against ``reference``; one it does not hold fails."""
    attempted = failed = 0
    problems: List[str] = []
    untraced = {s["index"]: s for s in samples if not s["traced"]}
    for sample in samples:
        label = f"input set {sample['index']}{' traced' if sample['traced'] else ''}"
        attempted += sample["checks"]
        failed += sample["failed"]
        problems += [f"{label}: {problem}" for problem in sample["problems"]]
        expected = reference.get(sample["index"])
        attempted += 1
        if expected is None:
            failed += 1
            problems.append(
                f"{label}: no reference digest for this configuration "
                f"(reference.json is stale: {sample['config']})"
            )
        elif sample["digest"] != expected:
            failed += 1
            problems.append(
                f"{label}: digest {sample['digest'][:16]} != reference "
                f"{expected[:16]}"
            )
        ledger = sample.get("ledger")
        if ledger is None:
            continue
        attempted += 2
        twin = untraced[sample["index"]]["digest"]
        if sample["digest"] != twin:
            failed += 1
            problems.append(
                f"{label}: digest {sample['digest'][:16]} != untraced {twin[:16]}"
            )
        run_layers = sum(
            seconds for layer, seconds in ledger["self_s"].items()
            if layer != "workloads"
        )
        # unattributed = run_s - root time, so the first clause holds
        # only if the self times telescope to the root spans.
        slack = LEDGER_SLACK_S * ledger["spans"] + 1e-9
        if not (
            abs(run_layers + ledger["unattributed_s"] - sample["run_s"]) <= slack
            and abs(sum(ledger["recount_s"].values()) - run_layers) <= slack
            and ledger["unattributed_s"] >= -slack
        ):
            failed += 1
            problems.append(
                f"{label}: ledger does not balance: layers {run_layers:.6f} s "
                f"+ unattributed {ledger['unattributed_s']:.6f} s vs run "
                f"{sample['run_s']:.6f} s"
            )
    return {"attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(samples: List[dict], checks: dict) -> Dict[str, float]:
    run_s = statistics.median(s["run_s"] for s in samples)
    first = samples[0]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "run_s": run_s,
        "sim_user_s_per_s": first["users"] * first["sim_seconds"] / run_s,
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
        "pass_frac": 1.0 - checks["failed"] / checks["attempted"],
    }


def per_layer(samples: List[dict]) -> Dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    untraced = {s["index"]: s for s in samples if not s["traced"]}
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            s["ledger"]["self_s"][layer] for s in traced
        )
    for name in traced[0]["counts"]:
        # Counts are exact per input set; report the mean per sample.
        metrics[name] = statistics.fmean(s["counts"][name] for s in traced)
    packets = sum(s["counts"]["netsim.packets"] for s in traced)
    netsim_s = sum(s["ledger"]["self_s"]["netsim"] for s in traced)
    metrics["netsim.ns_per_packet"] = netsim_s / packets * 1e9 if packets else 0.0
    metrics["ledger.unattributed_frac"] = statistics.median(
        s["ledger"]["unattributed_s"] / s["run_s"] for s in traced
    )
    metrics["ledger.trace_overhead"] = statistics.median(
        s["run_s"] / untraced[s["index"]]["run_s"] for s in traced
    )
    return metrics


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same workload shapes in well under a second",
    )
    args = parser.parse_args(argv)
    try:
        unit_of = declared(bool(args.trace))
        samples = collect(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    except (OSError, ValueError, KeyError, SampleError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reference = reference_digests(args.workload, args.size, samples[0]["config"])
    checks = check(samples, reference)
    measured = per_layer(samples) if args.trace else end_to_end(samples, checks)
    metrics = {name: measured[name] for name in unit_of}
    info = provenance(args.seed)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(checks, metrics=metrics, provenance=info, samples=samples), indent=1)
    )

    print(f"# {args.workload} seed {args.seed}: {len(samples)} samples of "
          f"input sets {sorted({s['index'] for s in samples})}")
    print(f"# nproc {info['nproc']}, python {info['python']}, numpy {info['numpy']}")
    for problem in checks["problems"]:
        print(f"# problem: {problem}")
    print(f"failed_frac {checks['failed'] / checks['attempted']:.6g} "
          f"({checks['failed']}/{checks['attempted']} checks)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
