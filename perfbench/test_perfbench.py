"""Smoke tests of the benchmark: every workload at its smallest size, checks on."""

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _lookup(qualname):
    modname, attr = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(f"passivekey.{modname}"), attr)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_op_of_each_workload_passes_every_check(name, tmp_path):
    w = workloads.WORKLOADS[name](0, tmp_path)
    times, outcomes, _ = run.closed_loop(w, 0.0, speed.SpeedProbe())
    assert len(outcomes) == 1 and times[0] > 0
    assert outcomes[0].status != "error"
    assert workloads.check(w, outcomes, seed=0) == {}


def test_untraced_and_traced_runs_leave_the_package_unwrapped(tmp_path):
    originals = {q: _lookup(q) for q in spans.BOUNDARIES}
    w = workloads.asymptotic(0, tmp_path)
    run.closed_loop(w, 0.0, speed.SpeedProbe())
    run.traced_loop(w, spans.Tracer(), ops=1)
    for qualname, fn in originals.items():
        assert _lookup(qualname) is fn
        assert not hasattr(fn, "__wrapped__")


def test_speed_probe_samples_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3 and probe.speed() > 0
    assert 0 < probe.busy_s < speed.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_finds_every_boundary():
    tracer = spans.Tracer()
    originals = {q: _lookup(q) for q in spans.BOUNDARIES}
    tracer.install()
    try:
        assert tracer.absent == []
        for qualname, fn in originals.items():
            assert _lookup(qualname).__wrapped__ is fn
    finally:
        tracer.uninstall()


def test_renamed_boundary_is_reported_absent(monkeypatch):
    import passivekey.channel

    monkeypatch.delattr(passivekey.channel, "series_sum")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["channel.series_sum"]


def test_span_closes_when_the_call_raises():
    from passivekey.errors import AllVacuous
    from passivekey.optimizer import OptimizationSpec

    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(AllVacuous):
            importlib.import_module("passivekey.optimizer").optimize_rate(
                400.0, 1e9, workloads.SRC, workloads.CHANNEL, workloads.SEC,
                OptimizationSpec(coarse_points=(2, 2)))
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    assert root[0] == "optimizer.optimize_rate" and root[2] >= root[1]
    assert tracer.calls("optimizer.key_length") == 4
    assert all(span[2] is not None for span in tracer.spans)


def test_traced_counts_repeat_and_cover_every_layer_metric(tmp_path):
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        outcomes, untraced_s, traced_s, mismatches = run.traced_loop(
            workloads.asymptotic(0, tmp_path), tracer, ops=2)
        assert mismatches == []
        runs.append(run.layer_metrics(tracer, 2, untraced_s, traced_s))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(runs[0])
    for name, m in runs[0].items():
        if m["unit"] == "count":
            assert runs[1][name] == m
    assert runs[0]["keylength.asymptotic_rate.calls"]["value"] == 90
    assert runs[0]["cli.rows"]["value"] == 2


def test_command_prints_the_end_to_end_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "asymptotic",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "headline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
