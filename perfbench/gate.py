"""Output checks: the golden-output gate and the properties every seed has.

The golden references in ``reference/<workload>/`` were recorded from the
package at the commit that defined this benchmark, for each workload's
default seed. To keep them small they hold a fixed subset of the epochs
(listed in ``reference.json``); the run's outputs are cut to the same epochs
before they are compared.
"""

import json
import math
from pathlib import Path

import numpy as np

# The defaults of ``liese-nav compare``.
POS_TOL = 1e-9
COV_TOL = 1e-10
# Smoothed RMSE may exceed the filtered RMSE by no more than this (m).
RMSE_SLACK = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_FILES = ("filtered.csv", "smoothed.csv", "covariance.csv")


def member_dirs(out_dir, members):
    out = Path(out_dir)
    if members is None:
        return [out]
    return [out / f"run_{i:03d}" for i in range(members)]


def _read_lines(path):
    return Path(path).read_text().splitlines()


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def _numbers_close(a, b, tol):
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare_metrics(path_a, path_b, tol=POS_TOL):
    """Problems between two metrics.json files: every key must match and
    every number agree within ``tol`` (relative above 1, absolute below)."""
    a = _flatten(json.loads(Path(path_a).read_text()), "", {})
    b = _flatten(json.loads(Path(path_b).read_text()), "", {})
    if a.keys() != b.keys():
        return [f"metrics keys differ: {sorted(a.keys() ^ b.keys())[:5]}"]
    return [
        f"metrics{key}: {a[key]!r} != {b[key]!r}"
        for key in a
        if not _numbers_close(a[key], b[key], tol)
    ]


def select_rows(run_dir, rows, dest):
    """Copy the header and the given epochs of each reference file."""
    dest.mkdir(parents=True, exist_ok=True)
    for name in REFERENCE_FILES:
        lines = _read_lines(Path(run_dir) / name)
        body = lines[1:]
        if max(rows) >= len(body):
            raise ValueError(f"{name}: {len(body)} epochs, reference needs {max(rows) + 1}")
        picked = [lines[0]] + [body[i] for i in rows]
        (dest / name).write_text("\n".join(picked) + "\n")


def golden(cli, earth, out_dir, ref_dir, scratch, members):
    """Problems found comparing a default-seed run with its reference."""
    ref_dir = Path(ref_dir)
    manifest = json.loads((ref_dir / "reference.json").read_text())
    rows = manifest["rows"]
    problems = []
    for run, ref in zip(member_dirs(out_dir, members), member_dirs(ref_dir, members)):
        epochs = len(_read_lines(run / "filtered.csv")) - 1
        if epochs != manifest["epochs"]:
            problems.append(f"{run.name}: {epochs} epochs, reference has {manifest['epochs']}")
            continue
        sel = scratch / f"sel_{run.name}"
        select_rows(run, rows, sel)
        report = cli.compare_runs(sel, ref, POS_TOL, COV_TOL)
        if not report["passed"]:
            problems.append(
                f"{run.name}: compare failed, max |dpos| {report['max_pos_delta_m']:.3e} m, "
                f"max ||dP||_F {report['max_cov_delta_fro']:.3e}"
            )
        sa = cli.read_csv(sel / "smoothed.csv", cli.TRAJ_HEADER)
        sb = cli.read_csv(ref / "smoothed.csv", cli.TRAJ_HEADER)
        dpos = max(
            float(np.max(np.abs(earth.llh_to_ecef(*a[1:4]) - earth.llh_to_ecef(*b[1:4]))))
            for a, b in zip(sa, sb)
        )
        if dpos > POS_TOL:
            problems.append(f"{run.name}: smoothed position differs by {dpos:.3e} m")
        problems += [f"{run.name}: {p}" for p in compare_metrics(run / "metrics.json", ref / "metrics.json")]
    if members is not None:
        problems += [
            f"merged: {p}"
            for p in compare_metrics(Path(out_dir) / "metrics.json", ref_dir / "metrics.json")
        ]
    return problems


def properties(cli, out_dir, members, epochs):
    """Problems with the properties that hold for every seed: the expected
    number of epochs, finite outputs, and a smoother no worse than the
    filter in position RMSE."""
    problems = []
    for run in member_dirs(out_dir, members):
        for name in REFERENCE_FILES:
            header = _read_lines(run / name)[0]
            data = cli.read_csv(run / name, header)
            if data.shape[0] != epochs:
                problems.append(f"{run.name}/{name}: {data.shape[0]} epochs, expected {epochs}")
            if not np.all(np.isfinite(data)):
                problems.append(f"{run.name}/{name}: non-finite values")
        metrics = json.loads((run / "metrics.json").read_text())
        numbers = _flatten(metrics, "", {}).values()
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            problems.append(f"{run.name}/metrics.json: non-finite values")
        rmse = metrics["rmse"]
        filtered = math.hypot(*rmse["filtered"]["position_m"])
        smoothed = math.hypot(*rmse["smoothed"]["position_m"])
        if not smoothed <= filtered + RMSE_SLACK:
            problems.append(f"{run.name}: smoothed RMSE {smoothed} > filtered {filtered}")
    return problems
