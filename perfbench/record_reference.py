"""Record the golden references that gate.py compares against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

For each workload it runs the default-seed scenario once and keeps, per
member, a fixed subset of epochs of filtered.csv, smoothed.csv and
covariance.csv plus the whole metrics.json (and the merged metrics.json of a
Monte-Carlo run). Re-record only on purpose: the references pin the outputs
of the commit that recorded them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads

ROWS = 10


def record(workload):
    sys.path.insert(0, str(run.SRC))
    import liese_nav.cli as cli

    members = workloads.WORKLOADS[workload]["members"]
    config = workloads.scenario(workload, workloads.DEFAULT_SEED)
    dest = gate.REFERENCE_DIR / workload
    shutil.rmtree(dest, ignore_errors=True)
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        path = scratch / "scenario.yaml"
        workloads.write_scenario(path, config)
        cfg = cli.load_config(path)
        out = scratch / "out"
        if members is None:
            cli.run_scenario(cfg, out)
        else:
            cli.run_monte_carlo(cfg, out, members)
        epochs = workloads.gnss_epochs(config)
        rows = sorted({round(i * (epochs - 1) / (ROWS - 1)) for i in range(ROWS)})
        for src, ref in zip(gate.member_dirs(out, members), gate.member_dirs(dest, members)):
            gate.select_rows(src, rows, ref)
            metrics = json.loads((src / "metrics.json").read_text())
            (ref / "metrics.json").write_text(json.dumps(metrics, sort_keys=True) + "\n")
        if members is not None:
            merged = json.loads((out / "metrics.json").read_text())
            (dest / "metrics.json").write_text(json.dumps(merged, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    manifest = {"config": config, "epochs": epochs, "rows": rows}
    (dest / "reference.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in workloads.WORKLOADS:
        record(name)
        print(f"recorded {gate.REFERENCE_DIR / name}")
