"""Tests of the benchmark itself; kept out of the tier-1 suite.

Run from the repository root::

    PYTHONPATH=src python -m pytest perf/ -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
for path in (PERF, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import run  # noqa: E402
from layertrace import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((PERF / "pins.json").read_text())


def _run(name, trace=False, **kwargs):
    """A short run of *name* on the pinned seed: the pinned op count,
    one set-up."""
    return run.run_workload(name, seed=PINS["seed"],
                            ops=WORKLOADS[name].PIN_OPS, trace=trace,
                            setup_reps=1, **kwargs)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units(LAYERS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_checks_pass_and_virtual_time_repeats(name):
    first = _run(name)
    second = _run(name)
    for record in (first, second):
        assert record["correct"], record
        assert list(record["metrics"]) == list(run.END_TO_END)
        assert all(entry["value"] > 0
                   for entry in record["metrics"].values())
        assert record["detail"]["pinned_virtual_ms"] \
            == PINS[name]["virtual_ms"]
    assert first["detail"]["virtual_ms"] == second["detail"]["virtual_ms"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    record = _run(name, trace=True, trace_file=tmp_path / "trace.json")
    assert record["correct"], record
    assert list(record["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {metric: entry["value"]
              for metric, entry in record["metrics"].items()}
    # The workload design predictions.
    assert (values["pressure.calls"] > 0) == (name == "tenants")
    assert (values["pvm.copy_calls"] > 0) == (name == "make")
    if name == "replay":
        total = sum(values[f"{layer}.self_ms"] for layer in LAYERS) \
            + values["bench.self_ms"]
        assert values["hardware.self_ms"] >= 0.8 * total
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur"} <= set(events[0])


def test_slowed_layer_is_named_by_compare():
    # engine is the second-largest layer on tenants, not the largest.
    base = [_run("tenants", trace=True) for _ in range(3)]
    slowed = [_run("tenants", trace=True, slowdown={"engine": 1.3})
              for _ in range(3)]
    report = compare.compare(base, slowed, SPEC)
    assert report["layers"]["tenants"]["moved_most"] == "engine"


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]
    faster = [value * 1.2 for value in steady]
    slower = [value * 0.8 for value in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    ok = compare.compare_metric(steady, faster, "higher", 0.08)
    assert ok["verdict"] == "ok" and ok["gain"] and ok["win_share"] == 1.0
    assert compare.compare_metric(steady, slower, "higher", 0.08)[
        "verdict"] == "regressed"
    assert compare.compare_metric(noisy, slower, "higher", 0.08)[
        "verdict"] == "unresolved"
    assert compare.compare_metric(noisy, [200.0] * 10, "higher", 0.08)[
        "verdict"] == "ok"
    assert compare.compare_metric(steady, slower, "lower", 0.08)["gain"]


def test_command_line_prints_one_result_object():
    completed = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "replay",
         "--ops", str(WORKLOADS["replay"].PIN_OPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_line_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "replay", "--ops", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
