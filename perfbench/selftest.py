"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Runs every workload for one timed call in both modes and checks that
   the result carries every metric BENCHMARK.json names, with its unit, a
   value, and no failed call. (The scenarios keep their full size: the
   smoother-RMSE property the gate checks is statistical and does not hold
   on every seed of a much shorter scenario.)
2. Perturbs, one at a time, a value in each file of each workload's golden
   reference, beyond the gate's tolerance, and checks that the gate reports
   it; then runs the workload against a perturbed reference and checks that
   the run is marked incorrect with a failed ratio above 0.

Exits 1 and lists what failed if any check fails.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def check_metrics(workload, trace, scratch, spec):
    problems = []
    result, record = run.measure(workload, 1, 0, trace, scratch)
    printed = json.loads(json.dumps(result))
    if sorted(printed) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(printed)}")
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in printed["metrics"].items()}
    if got != want:
        problems.append(f"metrics/units {got} != BENCHMARK.json {want}")
    missing = [k for k, v in printed["metrics"].items() if v["value"] is None]
    if missing:
        problems.append(f"no value for {missing}")
    if not printed["correct"] or printed["failed"]:
        problems.append(f"calls failed: {record['problems']}")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def _perturb_csv(path, column):
    lines = path.read_text().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[column] = repr(float(row[column]) * (1.0 + 1e-9) + 1e-9)
    lines[len(lines) // 2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _perturb_metrics(path):
    metrics = json.loads(path.read_text())
    metrics["final_nees"] = metrics["final_nees"] * (1.0 + 1e-6)
    path.write_text(json.dumps(metrics, sort_keys=True) + "\n")


PERTURBATIONS = {
    "filtered.csv latitude": lambda ref: _perturb_csv(ref / "filtered.csv", 1),
    "smoothed.csv height": lambda ref: _perturb_csv(ref / "smoothed.csv", 3),
    "covariance.csv p00": lambda ref: _perturb_csv(ref / "covariance.csv", 1),
    "metrics.json final_nees": lambda ref: _perturb_metrics(ref / "metrics.json"),
}


def check_gate(workload, scratch):
    sys.path.insert(0, str(run.SRC))
    import liese_nav.cli as cli
    from liese_nav import earth

    problems = []
    members = workloads.WORKLOADS[workload]["members"]
    ref = gate.REFERENCE_DIR / workload
    config = json.loads((ref / "reference.json").read_text())["config"]
    path = scratch / "reference.yaml"
    workloads.write_scenario(path, config)
    out = scratch / "out"
    if members is None:
        cli.run_scenario(cli.load_config(path), out)
    else:
        cli.run_monte_carlo(cli.load_config(path), out, members)
    found = gate.golden(cli, earth, out, ref, scratch, members)
    if found:
        problems.append(f"unperturbed reference fails: {found[:3]}")
    for label, perturb in PERTURBATIONS.items():
        copy = scratch / "perturbed" / workload
        shutil.rmtree(copy.parent, ignore_errors=True)
        shutil.copytree(ref, copy)
        perturb(gate.member_dirs(copy, members)[0])
        if not gate.golden(cli, earth, out, copy, scratch, members):
            problems.append(f"gate missed a perturbed {label}")
    # the last perturbed copy stays in place for a whole benchmark run
    result, record = run.measure(workload, 1, 0, False, scratch, ref_dir=copy.parent)
    if result["correct"] or not record["failed_ratio"] > 0:
        problems.append(f"perturbed reference not caught: {result}, {record['failed_ratio']}")
    return [f"{workload} gate: {p}" for p in problems]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.SETUP_PROBES = 1
    run.WORK.mkdir(exist_ok=True)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            scratch = Path(tempfile.mkdtemp(dir=run.WORK))
            try:
                problems += check_metrics(workload, trace, scratch, spec)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        scratch = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            problems += check_gate(workload, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
