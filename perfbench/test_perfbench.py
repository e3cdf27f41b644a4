"""The benchmark's own tests, every workload at a tiny size.

* every metric ``BENCHMARK.json`` declares is emitted, with its unit;
* the traced run's layer self times plus the untraced gaps add up to
  the root span;
* a deliberately corrupted answer is caught and counted as failed.
"""

import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import harness, run
from repro.distributed.frontend import ServedAnswer
from repro.summaries.exact import ExactSummary

WORKLOADS = sorted(run.WORKLOADS)


def _tiny(workload, trace, tmp_path, seed=5):
    config = importlib.import_module(run.WORKLOADS[workload]).TINY
    return run.run(workload, seed, 0.6, trace, workdir=str(tmp_path), config=config)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload, tmp_path):
    out = _tiny(workload, False, tmp_path)
    spec = run.catalogue()["end_to_end"]
    assert {n: u for n, (_v, u) in out.metrics.items()} == spec
    assert all(v >= 0 and math.isfinite(v) for v, _u in out.metrics.values())
    assert out.metrics["setup_s"][0] > 0 and out.metrics["peak_rss_mb"][0] > 0
    line = json.loads(out.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # ``correct`` also needs the open-loop generator to have kept up, a
    # matter of timing on a loaded machine; the answer checks are what
    # a tiny run can assert.
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert line["metrics"]["setup_s"] == {"value": out.metrics["setup_s"][0], "unit": "s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_wall_time(workload, tmp_path):
    out = _tiny(workload, True, tmp_path)
    spec = run.catalogue()["per_layer"]
    assert {n: u for n, (_v, u) in out.metrics.items()} == spec
    assert out.failed == 0
    module = importlib.import_module(run.WORKLOADS[workload])
    for name in module.LAYER_METRICS:
        assert math.isfinite(out.metrics[name][0])
    with open(tmp_path / f"trace-{workload}-5.jsonl") as fh:
        spans = [json.loads(line) for line in fh]
    assert len({s["trace"] for s in spans}) == 1
    assert all({"name", "start", "end", "parent"} <= set(s) for s in spans)
    wall, self_s = harness.self_times(spans)
    assert set(self_s) > {harness.ROOT}
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    fracs = [v for n, (v, _u) in out.metrics.items() if n.startswith("trace.self_frac.")]
    assert sum(fracs) == pytest.approx(1.0, rel=1e-9)


def test_self_times_subtract_covered_children():
    spans = [
        {"id": 1, "parent": None, "name": "run", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "a", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "name": "b", "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "name": "b", "start": 5.0, "end": 6.0},
        {"id": 5, "parent": None, "name": "c", "start": 0.0, "end": 9.0},
    ]
    wall, self_s = harness.self_times(spans)
    assert wall == 10.0
    assert self_s == {"run": 6.0, "a": 2.0, "b": 2.0}


def test_ref_clock_scales_by_its_kinds():
    ref = harness.RefClock((harness.INTERPRETER,))
    for _ in range(3):
        ref.tick()
    assert len(ref.samples) == 3 and min(ref.samples) > 0
    nominal = harness.RefClock.NOMINAL_S[harness.INTERPRETER]
    assert ref.scale() == pytest.approx(nominal / statistics.median(ref.samples))
    with pytest.raises(ValueError):
        harness.RefClock(("gpu",))


def _corrupt_once(monkeypatch, cls, name, corrupt):
    """Make the first call of ``cls.name`` return a corrupted answer."""
    original = getattr(cls, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return corrupt(original, *args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def _off_by_one_first(original, *args, **kwargs):
    answers = list(original(*args, **kwargs))
    answers[0] += 1.0
    return answers


def _resolve_off_by_one(original, answer, value):
    return original(answer, value + 1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_is_counted(workload, tmp_path, monkeypatch):
    if workload == "serve-1d":
        calls = _corrupt_once(monkeypatch, ServedAnswer, "_resolve", _resolve_off_by_one)
    else:
        calls = _corrupt_once(monkeypatch, ExactSummary, "query_many", _off_by_one_first)
    out = _tiny(workload, False, tmp_path)
    assert calls
    assert out.failed == 1
    assert out.fail_frac == pytest.approx(1 / out.attempted)
    line = json.loads(out.result_line())
    assert line["correct"] is False and line["failed"] == 1


def test_command_fails_without_the_library(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(root, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
