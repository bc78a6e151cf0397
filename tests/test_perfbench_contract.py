"""The benchmark still runs against the package.

``perfbench/tracing.py`` wraps package functions by name, at the module or
class that owns them; a renamed or moved function would make every traced
benchmark run fail. The tracer module is loaded from its file and only read.
A short run of every workload checks the golden outputs and the result line
that the benchmark's consumers parse.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize(
    "path, attr, name", TRACER.SPANS + TRACER.COUNTS, ids=lambda x: str(x)
)
def test_traced_name_resolves(path, attr, name):
    owner = TRACER._resolve(path)
    # install() reads the owner's own __dict__, not inherited attributes
    assert attr in owner.__dict__, f"{name}: liese_nav.{path}.{attr} is gone"
    assert callable(owner.__dict__[attr])


def test_install_and_uninstall_restore_every_name():
    tracer = TRACER.Tracer()
    before = [
        TRACER._resolve(path).__dict__[attr]
        for path, attr, _ in TRACER.SPANS + TRACER.COUNTS
    ]
    tracer.install()
    tracer.uninstall()
    after = [
        TRACER._resolve(path).__dict__[attr]
        for path, attr, _ in TRACER.SPANS + TRACER.COUNTS
    ]
    assert all(a is b for a, b in zip(before, after, strict=True))


def test_benchmark_runs_every_workload_and_ends_with_its_result_line():
    # about 25 s: each workload in a fresh process, the golden-output gate
    # first, then one second of timed calls
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in declared["workloads"]:
        for metric in declared["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            assert isinstance(result["metrics"][key]["value"], float), key


def test_traced_monte_carlo_run_completes():
    # about 10 s. The traced run divides the earth.radii count by the
    # mechanization.step count, so a lockstep forward pass that bypassed the
    # traced step would crash it with ZeroDivisionError; a member that
    # bypassed cli.run_scenario, the tracer's member span, would leave the
    # member metrics without a value.
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["mechanization.step_calls"]["value"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [
        m["name"] for m in declared if result["metrics"][m["name"]]["value"] is None
    ]
    assert not missing, missing


def test_traced_single_member_ned_run_counts_every_step():
    # about 10 s. One NED member steps its legs as rows of floats, and each
    # IMU step still calls the traced mechanization.ned_step: the traced run
    # divides the earth.radii count by the step count, and the workload's
    # 30 s at 100 Hz are 3000 steps
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ned-sparse-gnss",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["mechanization.step_calls"]["value"] == 3000
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [
        m["name"] for m in declared if result["metrics"][m["name"]]["value"] is None
    ]
    assert not missing, missing


def test_traced_single_member_ecef_run_counts_every_step():
    # about 6 s. One ECEF member steps its legs as rows of floats, and each
    # IMU step still calls the traced mechanization.ecef_step, each step's
    # and each retraction's projection the traced
    # mechanization.orthonormalize, and each RK4 stage's gravity the traced
    # earth.ecef_to_llh: the workload's 20 s at 50 Hz are 1000 steps, with a
    # fix, hence an update and a smoother retraction, at each of them
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ecef-dense-gnss",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["mechanization.step_calls"]["value"] == 1000
    assert metrics["mechanization.orthonormalize_calls"]["value"] == 3000
    assert metrics["earth.ecef_to_llh_calls"]["value"] >= 4000
