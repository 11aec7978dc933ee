"""The benchmark's own tests, at the tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ledger  # noqa: E402
import rigs  # noqa: E402
import run  # noqa: E402
from repro.framebuffer.regions import Rect  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(rig, seed: int = 1):
    """Set up and run ``rig`` under a ledger; returns (ledger, run_s)."""
    spans = ledger.Ledger()
    spans.install()
    try:
        rig.setup(seed)
        spans.begin_run()
        started = time.perf_counter()
        rig.run()
        run_s = time.perf_counter() - started
    finally:
        spans.uninstall()
    return spans, run_s


def test_manifest_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(rigs.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_prints_every_named_metric(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert [*result["metrics"]] == [m["name"] for m in section]
    for metric in section:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert f"{metric['name']} " in proc.stdout  # the human-readable line
    if trace:
        obs = result["metrics"]["obs.self_s"]["value"]
        assert (obs > 0) == (workload == "campus_observed")
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_reference_table_holds_every_input_set_of_the_pool():
    table = json.loads(run.REFERENCE.read_text())
    assert set(table) == set(run.WORKLOADS)
    for workload, sizes in table.items():
        assert set(sizes) == {"full", "tiny"}
        for size, entry in sizes.items():
            assert entry["config"] == rigs.describe(rigs.make_rig(workload, size))
            assert len(entry["digests"]) == run.POOL
    # Arming the flight recorder changes nothing simulated.
    assert table["campus_observed"] == {
        size: dict(entry, config=entry["config"].replace(
            "('observed', False)", "('observed', True)"))
        for size, entry in table["campus_lan"].items()
    }


def test_seed_orders_the_pool():
    order = run.input_order(7)
    assert sorted(order) == list(range(run.POOL))
    assert order == run.input_order(7) != run.input_order(8)


def run_main(capsys, *args: str):
    """run.main in this process; returns (exit code, stdout, result line)."""
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_forced_digest_mismatch_is_a_failed_check(tmp_path, monkeypatch, capsys):
    args = ("--workload", "campus_lan", "--seed", "5", "--seconds", "0",
            "--size", "tiny")
    true_table = json.loads(run.REFERENCE.read_text())
    entry = true_table["campus_lan"]["tiny"]
    table = tmp_path / "reference.json"
    monkeypatch.setattr(run, "REFERENCE", table)

    table.write_text(json.dumps({"campus_lan": {"tiny": dict(
        entry, digests=["0" * 64] * run.POOL
    )}}))
    code, out, result = run_main(capsys, *args)
    samples = run.MIN_SAMPLES
    users = rigs.make_rig("campus_lan", "tiny").users
    assert code == 0 and not result["correct"]
    assert result["failed"] == samples
    assert result["attempted"] == samples * (users + 1)
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(
        1 - samples / result["attempted"]
    )
    assert "!= reference" in out

    # A table for another configuration is stale: every digest check fails.
    table.write_text(json.dumps({"campus_lan": {"tiny": dict(
        entry, config=entry["config"].replace("('users', 4)", "('users', 5)")
    )}}))
    _, out, result = run_main(capsys, *args)
    assert result["failed"] == samples and "reference.json is stale" in out

    # The true digests pass.
    table.write_text(json.dumps(true_table))
    _, _, result = run_main(capsys, *args)
    assert result["correct"] and result["failed"] == 0


def test_forced_unconverged_console_is_a_failed_check():
    rig = rigs.make_rig("lossy_recovery", "tiny")
    rig.setup(2)
    rig.run()
    healthy = rig.outcome()
    assert healthy.failed == 0
    rig.channels[1].console.framebuffer.fill(Rect(0, 0, 8, 8), (1, 2, 3))
    outcome = rig.outcome()
    assert outcome.failed == 1
    assert "DIVERGED" in outcome.problems[0]
    assert outcome.digest != healthy.digest

    sample = {
        "index": 0, "traced": False, "checks": outcome.checks,
        "failed": outcome.failed, "problems": outcome.problems,
        "digest": outcome.digest, "config": rigs.describe(rig),
        "run_s": 1.0, "setup_s": 0.1, "peak_rss_mib": 10.0,
        "users": outcome.users, "sim_seconds": outcome.sim_seconds,
    }
    checks = run.check([sample], {0: outcome.digest})
    assert (checks["attempted"], checks["failed"]) == (outcome.checks + 1, 1)
    metrics = run.end_to_end([sample], checks)
    assert metrics["pass_frac"] == pytest.approx(1 - 1 / (outcome.checks + 1))


@pytest.mark.parametrize("workload", ["campus_observed", "fabric_knee"])
def test_ledger_sum_holds(workload):
    spans, run_s = traced_run(rigs.make_rig(workload, "tiny"))
    run_layers = sum(spans.self_s[1])
    unattributed = run_s - spans.root_seconds()
    assert 0 <= unattributed < 0.2 * run_s
    assert run_layers + unattributed == pytest.approx(run_s, rel=1e-9)
    assert sum(spans.recount()) == pytest.approx(run_layers, rel=1e-9)
    self_s = spans.layer_self_s()
    assert self_s["netsim"] > 0 and self_s["workloads"] > 0
    assert (self_s["obs"] > 0) == (workload == "campus_observed")


def test_spans_carry_parents_and_update_ids(tmp_path):
    spans, _ = traced_run(rigs.make_rig("campus_lan", "tiny"))
    path = tmp_path / "spans.npz"
    spans.save(path)
    saved = dict(__import__("numpy").load(path))
    names = list(saved["names"])
    paint = names.index("Painter.apply")
    update = names.index("SlimDriver.update")
    painted = saved["name"] == paint
    assert painted.any()
    # Every server-side paint runs inside a driver update and carries its id.
    parents = saved["parent"][painted]
    assert (saved["name"][parents] == update).all()
    assert (saved["update"][painted] >= 0).all()
    assert (saved["end"] >= saved["start"]).all()


def entry_points():
    import importlib

    for layer in ledger.LAYERS:
        for module, class_name, methods in ledger.ENTRY_POINTS[layer]:
            cls = getattr(importlib.import_module(module), class_name)
            for method in methods:
                yield cls, method


def test_tracing_changes_nothing_simulated_and_uninstalls():
    originals = {(cls, m): cls.__dict__[m] for cls, m in entry_points()}
    plain = rigs.make_rig("lossy_recovery", "tiny")
    plain.setup(4)
    plain.run()
    traced_rig = rigs.make_rig("lossy_recovery", "tiny")
    spans, _ = traced_run(traced_rig, seed=4)
    assert spans.layer_self_s()["transport"] > 0
    assert traced_rig.outcome().digest == plain.outcome().digest
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = bench(
        "--workload", "campus_lan", "--seed", "1", "--seconds", "0",
        "--size", "tiny", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
