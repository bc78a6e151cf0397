"""Print one JSON manifest of the sha256 of every output file of a fixed run set.

A change that must keep every output byte runs this on its parent and on
itself and compares the two manifests. From the root of a checkout:

    PYTHONPATH=src python3 tools/output_digest.py > manifest.json

The run set:

- the three perfbench workloads' scenarios at seeds 0, 7 and 41, as
  ``perfbench/workloads.scenario`` writes them (a Monte-Carlo workload runs
  its member count);
- an 8 s run and a 3-member ``--monte-carlo`` of every
  ``supported_variants()`` entry in every mode it supports, on the tests'
  circle (``tests/test_cli.py``'s ``BASE_CONFIG``, with its lever arm) with a
  0.05 rad yaw error, once with the bias time constants set and once with
  them null.

The manifest maps each run's name to ``{relative path: sha256}`` of every
file the run wrote.
"""

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, only read)
from liese_nav import cli  # noqa: E402
from liese_nav.errormodels import supported_variants  # noqa: E402

SEEDS = (0, 7, 41)
MC_MEMBERS = 3

# tests/test_cli.py's BASE_CONFIG, 8 s long, with a yaw error
CIRCLE = {
    "trajectory": {
        "kind": "circle",
        "origin_lat_rad": 0.7,
        "origin_lon_rad": -1.2,
        "origin_h_m": 300.0,
        "speed_m_s": 15.0,
        "radius_m": 250.0,
        "heading0_rad": 0.4,
    },
    "duration_s": 8.0,
    "imu_dt_s": 0.02,
    "gnss": {"period_s": 1.0, "sigma_pos_m": 1.5, "lever_arm_b_m": [0.4, -0.2, 1.1]},
    "noise": {
        "sigma_g_rad_s_sqrt_hz": 1e-4,
        "sigma_a_m_s2_sqrt_hz": 1e-3,
        "sigma_bg_rad_s_sqrt_s": 1e-7,
        "sigma_ba_m_s2_sqrt_s": 1e-6,
        "tau_g_s": 400.0,
        "tau_a_s": 900.0,
    },
    "initial": {
        "attitude_sigma_rad": 1e-3,
        "velocity_sigma_m_s": 0.1,
        "position_sigma_m": 1.0,
        "bias_g_sigma_rad_s": 5e-4,
        "bias_a_sigma_m_s2": 5e-3,
        "yaw_error_rad": 0.05,
    },
    "seed": 3,
}


def run_set():
    """(name, config, Monte-Carlo members or None) of every run."""
    for workload, shape in workloads.WORKLOADS.items():
        for seed in SEEDS:
            yield (
                f"{workload}/seed{seed}",
                workloads.scenario(workload, seed),
                shape["members"],
            )
    for tau in (400.0, None):
        for variant in supported_variants():
            modes = ("se23", "invariant") if variant.invariant_update else ("se23",)
            for mode in modes:
                cfg = copy.deepcopy(CIRCLE)
                cfg["noise"]["tau_g_s"] = tau
                cfg["noise"]["tau_a_s"] = None if tau is None else 900.0
                cfg["variant"] = {
                    "frame": variant.frame,
                    "error_def": variant.error_def,
                    "mems_simplified": variant.mems_simplified,
                }
                cfg["mode"] = mode
                name = f"circle/tau-{tau}/{variant.name}/{mode}"
                yield name, cfg, None
                yield f"{name}/mc{MC_MEMBERS}", cfg, MC_MEMBERS


def digest(runs, workdir):
    """Run each (name, config, members) in its own directory under
    ``workdir`` and return the manifest of their output files."""
    manifest = {}
    for k, (name, config, members) in enumerate(runs):
        base = Path(workdir) / f"{k:03d}"
        base.mkdir(parents=True)
        path = base / "scenario.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=True))
        cfg, out = cli.load_config(path), base / "out"
        if members is None:
            cli.run_scenario(cfg, out)
        else:
            cli.run_monte_carlo(cfg, out, members)
        manifest[name] = {
            f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*"))
            if f.is_file()
        }
    return manifest


def main():
    with tempfile.TemporaryDirectory(prefix="output_digest_") as work:
        manifest = digest(list(run_set()), work)
    json.dump(manifest, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
