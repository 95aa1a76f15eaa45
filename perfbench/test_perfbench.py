"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the root.

The smoke tests run every workload for one call in each mode (about a
minute in total) and check the result line against ``BENCHMARK.json``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    """One run in a session of its own, which no process of it outlives."""
    args = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    process = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    stdout, stderr = process.communicate(timeout=600)
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    else:
        pytest.fail("the benchmark left a process running")
    return subprocess.CompletedProcess(args, process.returncode, stdout, stderr)


# --------------------------------------------------------------------- #
# Self-time attribution on synthetic spans
# --------------------------------------------------------------------- #
def _self(spans):
    starts, ends, parents = zip(*spans)
    return layertrace.self_times(np.array(starts), np.array(ends),
                                 np.array(parents))


def test_self_time_of_nested_spans_is_duration_minus_children():
    own = _self([(0.0, 10.0, -1),   # root
                 (1.0, 4.0, 0),     # child
                 (2.0, 3.0, 1),     # grandchild
                 (5.0, 7.0, 0)])    # second child
    np.testing.assert_allclose(own, [5.0, 2.0, 1.0, 2.0])
    assert own.sum() == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    own = _self([(0.0, 10.0, -1),
                 (1.0, 5.0, 0),
                 (3.0, 8.0, 0),     # overlaps the first child by 2
                 (4.0, 6.0, 0),     # inside both
                 (9.0, 12.0, 0),    # runs past the parent's end
                 (-1.0, 0.5, 0)])   # starts before the parent
    # Covered: [0, 0.5] + [1, 8] + [9, 10] = 8.5 of the root's 10.
    assert own[0] == pytest.approx(1.5)
    np.testing.assert_allclose(own[1:], [4.0, 5.0, 2.0, 3.0, 1.5])


def test_spans_without_children_keep_their_duration():
    np.testing.assert_allclose(_self([(0.0, 2.0, -1), (3.0, 4.5, -1)]),
                               [2.0, 1.5])


def test_tracer_restores_every_wrapped_function(tmp_path):
    import importlib

    def current():
        found = []
        for owner, attribute, *_ in layertrace.WRAPPED:
            module_name, _, class_name = owner.partition(":")
            target = importlib.import_module(module_name)
            if class_name:
                target = vars(getattr(target, class_name))
            else:
                target = vars(target)
            found.append(target[attribute])
        return found

    importlib.import_module("repro.batched.trials")
    before = current()
    with layertrace.LayerTracer(tmp_path):
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


# --------------------------------------------------------------------- #
# Smoke runs
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in expected}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    # One traced iteration: the layers' self times plus the remainder add up
    # to the traced wall time plus the pool workers' busy time.
    assert sum(metrics[name] for name in layertrace.TIME_METRICS) \
        + metrics["other.self_s"] \
        == pytest.approx(metrics["trace.wall_s"] + metrics["trace.worker_busy_s"])
    assert metrics["other.self_s"] >= 0
    if workload != "campaign_store":
        # Telemetry off is free: no store and no telemetry work at all.
        for name in ("telemetry.events", "telemetry.write_s", "store.appends",
                     "store.append_s", "trace.worker_busy_s"):
            assert metrics[name] == 0, name


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("qkp_hw", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
