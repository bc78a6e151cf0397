"""Scenario-runner CLI: artifacts, determinism, exit codes, compare logic."""

import importlib.metadata
import json
import math
import os
import re
import site
import subprocess
import sys
import sysconfig
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import liese_nav
from liese_nav import cli, earth, errors, filter as flt, smoother as smo
from liese_nav.errormodels import supported_variants
from liese_nav.errors import ConfigError, IoError, NotPSD

from oracles import so3_exp

BASE_CONFIG = {
    "trajectory": {
        "kind": "circle",
        "origin_lat_rad": 0.7,
        "origin_lon_rad": -1.2,
        "origin_h_m": 300.0,
        "speed_m_s": 15.0,
        "radius_m": 250.0,
        "heading0_rad": 0.4,
    },
    "duration_s": 5.0,
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
    },
    "variant": {"frame": "NED", "error_def": "LeftEst"},
    "mode": "se23",
    "seed": 3,
}


def write_config(tmp_path, overrides=None, name="scen.yaml"):
    """BASE_CONFIG with whole top-level sections replaced by ``overrides``."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides or {})
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def invoke(*args):
    return CliRunner().invoke(cli.main, list(args))


ARTIFACTS = (
    "truth.csv",
    "imu.csv",
    "gnss.csv",
    "filtered.csv",
    "smoothed.csv",
    "covariance.csv",
    "metrics.json",
)


def test_run_writes_artifacts_and_is_deterministic(tmp_path):
    # [TRIVIAL: determinism contract] same config + seed -> identical bytes
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke("run", "--config", str(cfg), "--out", str(a)).exit_code == 0
    assert invoke("run", "--config", str(cfg), "--out", str(b)).exit_code == 0
    for name in ARTIFACTS:
        assert (a / name).exists(), name
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_headers_are_exact(tmp_path):
    # [TRIVIAL: format contract]
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert invoke("run", "--config", str(cfg), "--out", str(out)).exit_code == 0
    first = lambda n: (out / n).read_text().splitlines()[0]
    assert first("imu.csv") == "t,wx,wy,wz,fx,fy,fz"
    assert first("gnss.csv") == "t,x,y,z,sxx,syy,szz"
    for n in ("truth.csv", "filtered.csv", "smoothed.csv"):
        assert first(n) == "t,lat,lon,h,vn,ve,vd,q0,q1,q2,q3"


def test_csv_roundtrip_idempotent(tmp_path):
    # [TRIVIAL: repr round-trips doubles] parse -> serialize -> parse
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert invoke("run", "--config", str(cfg), "--out", str(out)).exit_code == 0
    for name, header in (
        ("filtered.csv", cli.TRAJ_HEADER),
        ("imu.csv", cli.IMU_HEADER),
        ("gnss.csv", cli.GNSS_HEADER),
    ):
        rows = cli.read_csv(out / name, header)
        rewritten = tmp_path / ("rt_" + name)
        cli.write_csv(rewritten, header, [cli._fmt(r.tolist()) for r in rows])
        again = cli.read_csv(rewritten, header)
        assert np.array_equal(rows, again)


def test_stationary_zero_noise_tracks(tmp_path):
    # [DERIVED: zero-noise tracking oracle]
    cfg = write_config(
        tmp_path,
        {
            "trajectory": {
                "kind": "stationary",
                "origin_lat_rad": 0.7,
                "origin_lon_rad": -1.2,
                "origin_h_m": 300.0,
            },
            "gnss": {"period_s": 1.0, "sigma_pos_m": 1e-6},
            "noise": {},
            "initial": {},
            "duration_s": 10.0,
            "imu_dt_s": 0.02,
        },
    )
    out = tmp_path / "o"
    assert invoke("run", "--config", str(cfg), "--out", str(out)).exit_code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert max(metrics["rmse"]["filtered"]["position_m"]) <= 1e-3


def test_unsupported_variant_exits_2(tmp_path):
    # [TRIVIAL: validation]
    cfg = write_config(tmp_path)
    res = invoke(
        "run", "--config", str(cfg), "--variant", "NED_Aux/RightEst",
        "--out", str(tmp_path / "o"),
    )
    assert res.exit_code == 2
    assert "NED_Aux" in res.output and "RightEst" in res.output


def test_variant_option_sets_mems_flag_both_ways(tmp_path):
    # the +mems suffix, or its absence, overrides the config's flag
    cfg = write_config(
        tmp_path,
        {"variant": {"frame": "NED_Aux", "error_def": "LeftEst", "mems_simplified": True}},
    )
    out = tmp_path / "o"
    res = invoke("run", "--config", str(cfg), "--variant", "NED_Aux/LeftEst", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert json.loads((out / "metrics.json").read_text())["variant"] == "NED_Aux/LeftEst"
    out = tmp_path / "o2"
    res = invoke(
        "run", "--config", str(cfg), "--variant", "ECEF_Inertial/LeftEst", "--out", str(out)
    )
    assert res.exit_code == 0, res.output
    assert json.loads((out / "metrics.json").read_text())["variant"] == "ECEF_Inertial/LeftEst"


def test_unknown_config_key_exits_2(tmp_path):
    # [TRIVIAL: strict schema]
    cfg = write_config(tmp_path, {"bogus_key": 1})
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2


def test_missing_config_exits_3(tmp_path):
    # [TRIVIAL]
    res = invoke(
        "run", "--config", str(tmp_path / "absent.yaml"),
        "--out", str(tmp_path / "o"),
    )
    assert res.exit_code == 3


def test_compare_self_passes(tmp_path):
    # [TRIVIAL] a directory compared with itself has zero deltas
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert invoke("run", "--config", str(cfg), "--out", str(out)).exit_code == 0
    res = invoke("compare", str(out), str(out))
    assert res.exit_code == 0
    assert "PASS" in res.output
    report = cli.compare_runs(out, out, 1e-9, 1e-10)
    assert report["max_pos_delta_m"] == 0.0
    assert report["max_cov_delta_fro"] == 0.0


def test_compare_different_seeds_fails(tmp_path):
    # [TRIVIAL]
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke("run", "--config", str(cfg), "--out", str(a)).exit_code == 0
    assert (
        invoke(
            "run", "--config", str(cfg), "--seed", "99", "--out", str(b)
        ).exit_code
        == 0
    )
    res = invoke("compare", str(a), str(b))
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_invariant_matches_se23(tmp_path):
    # [DERIVED: update-equivalence property] the two update forms agree
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke("run", "--config", str(cfg), "--out", str(a)).exit_code == 0
    assert (
        invoke(
            "run", "--config", str(cfg), "--mode", "invariant", "--out", str(b)
        ).exit_code
        == 0
    )
    report = cli.compare_runs(a, b, 1e-9, 1e-10)
    assert report["passed"], report


def _ecef_track(run_dir, name):
    rows = cli.read_csv(run_dir / name, cli.TRAJ_HEADER)
    return earth.llh_to_ecef(*rows[:, 1:4].T)


def test_left_error_is_the_same_in_every_frame(tmp_path):
    # [DERIVED: the paper's left-EKF equivalence in both frames] the left
    # error Xt^-1 X is one body-frame quantity whichever frame carries the
    # state, so on the same seeds every LeftEst frame follows NED/LeftEst.
    # They part only where an auxiliary or inertial velocity adds
    # w_ie x dr to the velocity error. Measured over seeds 0-2 of this
    # circle at 10, 20 and 60 s: at most 2.7e-4 m in filtered and smoothed
    # ECEF position and 4.9e-5 in covariance.csv; the bounds leave 3.7x
    # and 4x of margin.
    base = {"duration_s": 10.0, "seed": 0}
    frames = ["NED", "NED_Aux", "ECEF", "ECEF_Inertial"]
    for frame in frames:
        variant = {"variant": {"frame": frame, "error_def": "LeftEst"}}
        cfg = cli.load_config(write_config(tmp_path, {**base, **variant}))
        cli.run_monte_carlo(cfg, tmp_path / frame, 3)
    for frame in frames[1:]:
        for k in range(3):
            ref, run = (tmp_path / f / f"run_{k:03d}" for f in ("NED", frame))
            for name in ("filtered.csv", "smoothed.csv"):
                delta = np.max(np.abs(_ecef_track(run, name) - _ecef_track(ref, name)))
                assert delta <= 1e-3, (frame, k, name, delta)
            ca, cb = (cli.read_csv(r / "covariance.csv", cli.COV_HEADER) for r in (ref, run))
            assert np.max(np.abs(ca - cb)) <= 2e-4, (frame, k)


def test_monte_carlo_fanout(tmp_path, monkeypatch):
    # [TRIVIAL] per-run directories plus a merged metrics file; every file of
    # member k equals a standalone run with seed + k, byte for byte: for one
    # lockstep block of either NED left error, for a lockstep block followed
    # by a block of one, which runs the scalar pass, and for one lockstep
    # block of ECEF members.
    # run_forward never receives more than LOCKSTEP_BLOCK members.
    run_forward, sizes = smo.run_forward, []

    def recording(starts, *args):
        sizes.append(len(starts))
        return run_forward(starts, *args)

    monkeypatch.setattr(smo, "run_forward", recording)
    # frame, error definition, members, LOCKSTEP_BLOCK, members per
    # run_forward call
    cases = [
        ("NED", "LeftEst", 2, cli.LOCKSTEP_BLOCK, [2]),
        ("NED", "LeftEst", 3, 2, [2, 1]),
        ("NED", "LeftTrue", 3, cli.LOCKSTEP_BLOCK, [3]),
        ("ECEF", "LeftEst", 2, cli.LOCKSTEP_BLOCK, [2]),
    ]
    for case, (frame, error_def, runs, block, blocks) in enumerate(cases):
        monkeypatch.setattr(cli, "LOCKSTEP_BLOCK", block)
        variant = {"variant": {"frame": frame, "error_def": error_def}}
        cfg = write_config(tmp_path, variant, name=f"scen_{case}.yaml")
        out = tmp_path / f"mc_{case}"
        sizes.clear()
        res = invoke(
            "run", "--config", str(cfg), "--out", str(out), "--monte-carlo", str(runs)
        )
        assert res.exit_code == 0, res.output
        assert sizes == blocks, case
        assert max(sizes) <= block
        merged = json.loads((out / "metrics.json").read_text())
        assert merged["runs"] == runs
        assert len(merged["final_nees"]) == runs
        for k in range(runs):
            solo = tmp_path / f"solo_{case}_{k}"
            res = invoke(
                "run", "--config", str(cfg), "--seed", str(BASE_CONFIG["seed"] + k),
                "--out", str(solo),
            )
            assert res.exit_code == 0, res.output
            for name in ARTIFACTS:
                assert (out / f"run_{k:03d}" / name).read_bytes() == (
                    solo / name
                ).read_bytes(), (case, k, name)


@pytest.mark.parametrize(
    "variant, mode",
    [
        pytest.param(v, mode, id=f"{v.name}-{mode}")
        for v in supported_variants()
        for mode in flt.MODES
        if mode == "se23" or v.invariant_update
    ],
)
def test_monte_carlo_members_equal_standalone_runs(tmp_path, variant, mode):
    # [TRIVIAL: determinism contract] every variant's members run as one
    # lockstep block, and each member's files equal its standalone run with
    # seed + k, byte for byte; a 2 s run with a lever arm, a yaw error and
    # fixes every 0.5 s
    cfg = write_config(
        tmp_path,
        {
            "duration_s": 2.0,
            "imu_dt_s": 0.05,
            "gnss": {**BASE_CONFIG["gnss"], "period_s": 0.5},
            "initial": {**BASE_CONFIG["initial"], "yaw_error_rad": 0.05},
            "variant": {
                "frame": variant.frame,
                "error_def": variant.error_def,
                "mems_simplified": variant.mems_simplified,
            },
            "mode": mode,
        },
    )
    out = tmp_path / "mc"
    res = invoke(
        "run", "--config", str(cfg), "--out", str(out), "--monte-carlo", "2"
    )
    assert res.exit_code == 0, res.output
    for k in range(2):
        solo = tmp_path / f"solo_{k}"
        res = invoke(
            "run", "--config", str(cfg), "--seed", str(BASE_CONFIG["seed"] + k),
            "--out", str(solo),
        )
        assert res.exit_code == 0, res.output
        for name in ARTIFACTS:
            member = (out / f"run_{k:03d}" / name).read_bytes()
            assert member == (solo / name).read_bytes(), (k, name)


@pytest.mark.parametrize("stream", ["gyro", "accel", "fix"])
def test_non_finite_sensor_input_exits_2(tmp_path, monkeypatch, stream):
    # a NaN or Inf in the sensor streams stops the run before it writes
    # anything, naming the sample's time
    simulate, bad = cli._simulate, {}

    def corrupted(cfg, truth=None):
        sim = simulate(cfg, truth)
        if stream == "fix":
            fix = sim.fixes[2]
            fix.pos[0], bad["t"] = np.nan, fix.t
        else:
            rates = 0 if stream == "gyro" else 1  # (gyro, accel) of sample 150
            sim.imu[150, rates, 1] = np.nan if stream == "gyro" else np.inf
            bad["t"] = 150 * cfg.imu_dt_s
        return sim

    monkeypatch.setattr(cli, "_simulate", corrupted)
    out = tmp_path / "out"
    res = invoke("run", "--config", str(write_config(tmp_path)), "--out", str(out))
    assert res.exit_code == 2, res.output
    assert f"t={bad['t']}" in res.output
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_filter_exits_2_naming_time_and_variant(tmp_path):
    # a valid config whose gyro noise (1e3 rad/s/sqrt(Hz)) drives the states
    # out of the finite numbers: the forward pass's LinAlgError becomes the
    # package's Divergence, with the variant and the time, and exit 2
    noise = dict(BASE_CONFIG["noise"], sigma_g_rad_s_sqrt_hz=1e3)
    cfg = write_config(tmp_path, {"noise": noise})
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert re.search(r"error: NED/LeftEst diverged at t=[0-9.]+", res.output)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "runs, named", [(None, "(seed 3)"), ("3", "(seeds 3, 4, 5)")], ids=["single", "mc3"]
)
def test_divergence_names_the_leg_where_p_overflowed_and_the_seeds(tmp_path, runs, named):
    # the gyro noise of 1e3 rad/s/sqrt(Hz) overflows P in the first leg,
    # before the first fix at t=1: the error names the leg that starts at
    # t=0.0 (not the update at t=1 that failed next), and the seed, or the
    # seeds of the Monte-Carlo block
    noise = dict(BASE_CONFIG["noise"], sigma_g_rad_s_sqrt_hz=1e3)
    cfg = write_config(tmp_path, {"noise": noise})
    extra = () if runs is None else ("--monte-carlo", runs)
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra)
    assert res.exit_code == 2, res.output
    assert "NED/LeftEst diverged at t=0.0 " in res.output
    assert "covariance left the finite numbers" in res.output
    assert res.output.rstrip().endswith(named)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_latitude_beyond_the_poles_mid_pass_is_divergence(tmp_path):
    # an accel noise of 1e150 m/s^2/sqrt(Hz) throws the position off the
    # earth within the first leg; a latitude beyond +-pi/2 is a diverged
    # state, not a state near a pole
    noise = dict(BASE_CONFIG["noise"], sigma_a_m_s2_sqrt_hz=1e150)
    cfg = write_config(tmp_path, {"noise": noise})
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert "NED/LeftEst diverged at t=0.0 " in res.output
    assert "is outside [-pi/2, pi/2]" in res.output
    assert "too close to a pole" not in res.output


def test_monte_carlo_members_run_in_index_order(tmp_path, monkeypatch):
    # member k gets seed + k and run_k; each member passes through
    # cli.run_scenario (the span a traced benchmark run times per member),
    # the members' metrics are written in index order, then merged by run
    # index, in a lockstep block of four and in a block of one
    writes, members_run = [], []
    write_json, run_scenario = cli._write_json, cli.run_scenario

    def recording(path, obj):
        writes.append((path.parent.name, obj.get("seed")))
        write_json(path, obj)

    def member(cfg, out_dir, *args, **kwargs):
        members_run.append((Path(out_dir).name, cfg.seed))
        return run_scenario(cfg, out_dir, *args, **kwargs)

    monkeypatch.setattr(cli, "_write_json", recording)
    monkeypatch.setattr(cli, "run_scenario", member)
    cfg = cli.load_config(write_config(tmp_path))
    seed = BASE_CONFIG["seed"]
    for runs in (4, 1):
        writes.clear()
        members_run.clear()
        out = tmp_path / f"mc_{runs}"
        merged = cli.run_monte_carlo(cfg, out, runs)
        names = [f"run_{k:03d}" for k in range(runs)]
        assert members_run == [(n, seed + k) for k, n in enumerate(names)]
        assert writes == [(n, seed + k) for k, n in enumerate(names)] + [
            (out.name, None)
        ]
        members = [json.loads((out / n / "metrics.json").read_text()) for n in names]
        assert merged["final_nees"] == [m["final_nees"] for m in members]
        assert merged["rmse"] == [m["rmse"] for m in members]
        assert cfg.seed == seed


def test_monte_carlo_non_finite_member_input_exits_2(tmp_path, monkeypatch):
    # a NaN in one member's IMU stream stops the run before any member of
    # its block writes its files, naming the sample's time
    simulate, bad = cli._simulate, {}

    def corrupted(cfg, truth=None):
        sim = simulate(cfg, truth)
        if cfg.seed == BASE_CONFIG["seed"] + 1:
            sim.imu[150, 0, 2], bad["t"] = np.nan, 150 * cfg.imu_dt_s
        return sim

    monkeypatch.setattr(cli, "_simulate", corrupted)
    out = tmp_path / "mc"
    res = invoke(
        "run", "--config", str(write_config(tmp_path)), "--out", str(out),
        "--monte-carlo", "2",
    )
    assert res.exit_code == 2, res.output
    assert "non-finite IMU sample" in res.output
    assert f"t={bad['t']}" in res.output
    assert not any(out.iterdir())


NEGATIVE_SEED = [
    # (config seed, command and its arguments besides --config and --out)
    (-1, ["run"]),
    (-1, ["run", "--monte-carlo", "2"]),
    (-1, ["simulate"]),
    (3, ["run", "--seed", "-1"]),
    (3, ["run", "--seed", "-1", "--monte-carlo", "2"]),
]


@pytest.mark.parametrize(
    "seed, args", NEGATIVE_SEED,
    ids=[f"seed {seed}, {' '.join(args)}" for seed, args in NEGATIVE_SEED],
)
def test_negative_seed_exits_2(tmp_path, seed, args):
    # [TRIVIAL: validation] np.random.default_rng raises on a negative seed,
    # with a traceback and exit 1 after a Monte-Carlo run has made its
    # output directory; in the config or as --seed, it is rejected first
    cfg = write_config(tmp_path, {"seed": seed})
    out = tmp_path / "o"
    res = invoke(args[0], "--config", str(cfg), "--out", str(out), *args[1:])
    assert res.exit_code == 2, res.output
    assert "seed" in res.output
    assert not out.exists()


def test_simulate_writes_sensors_only(tmp_path):
    # [TRIVIAL]
    cfg = write_config(tmp_path)
    out = tmp_path / "sim"
    assert invoke("simulate", "--config", str(cfg), "--out", str(out)).exit_code == 0
    for name in ("truth.csv", "imu.csv", "gnss.csv"):
        assert (out / name).exists()
    assert not (out / "filtered.csv").exists()


def test_simulate_matches_run_sensor_files(tmp_path):
    # [TRIVIAL: one simulation setup] both commands write the same streams
    cfg = write_config(tmp_path)
    sim, run = tmp_path / "sim", tmp_path / "run"
    assert invoke("simulate", "--config", str(cfg), "--out", str(sim)).exit_code == 0
    assert invoke("run", "--config", str(cfg), "--out", str(run)).exit_code == 0
    for name in ("truth.csv", "imu.csv", "gnss.csv"):
        assert (sim / name).read_bytes() == (run / name).read_bytes(), name


NON_FINITE_TRUTH = {
    # speed / radius overflows the yaw rate
    "circle": dict(BASE_CONFIG["trajectory"], radius_m=1.0e-310),
    # 2 pi / period overflows the figure-eight's angular rate
    "figure-eight": {
        "kind": "figure_eight", "origin_lat_rad": 0.7, "origin_lon_rad": -1.2,
        "origin_h_m": 300.0, "period_s": 1.0e-310,
    },
}


@pytest.mark.parametrize("trajectory", sorted(NON_FINITE_TRUTH))
@pytest.mark.parametrize(
    "args", [["run"], ["run", "--monte-carlo", "2"], ["simulate"]], ids=" ".join
)
def test_trajectory_whose_truth_is_not_finite_exits_2(tmp_path, trajectory, args):
    # valid numbers whose kinematics overflow: simulate wrote streams of NaN
    # with exit 0, and run blamed the sensor stream (or stopped with exit
    # 1); both now reject the trajectory, naming the time, and write nothing.
    # numpy printed "RuntimeWarning: invalid value encountered in sin" (and
    # more) before the error line; the check rejects every value it warned
    # about, so the error line is all the run prints
    cfg = write_config(tmp_path, {"trajectory": NON_FINITE_TRUTH[trajectory]})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(args[0], "--config", str(cfg), "--out", str(out), *args[1:])
    assert res.exit_code == 2, res.output
    assert "error: trajectory: the truth is not finite at t=0.0" in res.output
    assert not out.exists()
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_gnss_period_off_imu_grid_exits_2(tmp_path, command):
    # [TRIVIAL: validation] a fix between two IMU epochs cannot be applied
    # at its own time, so the config is rejected
    cfg = write_config(
        tmp_path, {"gnss": {"period_s": 0.03, "sigma_pos_m": 1.5}}
    )
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2
    assert "period_s" in res.output


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_duration_below_one_imu_step_exits_2(tmp_path, command):
    # [TRIVIAL: validation] round(duration / dt) = 0 IMU steps leaves
    # nothing to filter or to write
    cfg = write_config(
        tmp_path,
        {
            "duration_s": 0.004,
            "imu_dt_s": 0.01,
            "gnss": {"period_s": 0.01, "sigma_pos_m": 1.5},
        },
    )
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2
    assert "duration_s" in res.output


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("field, value", [("duration_s", 0), ("imu_dt_s", -0.01)])
def test_non_positive_duration_or_step_exits_2(tmp_path, command, field, value):
    # [TRIVIAL: validation] a zero or negative duration or IMU step is
    # rejected when the config is read, naming its field
    cfg = write_config(tmp_path, {field: value})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert f"{field}: must be greater than 0" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_malformed_yaml_exits_2(tmp_path, command):
    # [TRIVIAL: validation] a config that is no YAML at all is a config error
    cfg = tmp_path / "scen.yaml"
    cfg.write_text("trajectory: {kind: circle\nseed: [1, 2\n")
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert "invalid YAML" in res.output
    assert not (tmp_path / "o").exists()


NON_FINITE = [
    ("duration_s", float("nan")),
    ("gnss", {"period_s": 1.0, "sigma_pos_m": float("inf")}),
    ("trajectory", {**BASE_CONFIG["trajectory"], "heading0_rad": float("-inf")}),
    ("noise", {**BASE_CONFIG["noise"], "tau_g_s": float("nan")}),
    ("initial", {"true_bias_a_m_s2": [0.0, float("nan"), 0.0]}),
]


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "section, value", NON_FINITE, ids=[name for name, _ in NON_FINITE]
)
def test_non_finite_config_number_exits_2(tmp_path, command, section, value):
    # [TRIVIAL: validation] NaN and +-Inf are rejected when the config is
    # read, not deep inside the run with exit 1 (compare's FAIL code)
    cfg = write_config(tmp_path, {section: value})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert "finite" in res.output
    assert not (tmp_path / "o").exists()


def test_null_bias_time_constants_still_accepted(tmp_path):
    # tau_*: null selects a random-constant bias; only bad floats go
    noise = {**BASE_CONFIG["noise"], "tau_g_s": None, "tau_a_s": None}
    cfg = cli.load_config(write_config(tmp_path, {"noise": noise}))
    assert cfg.noise.tau_g_s is None and cfg.noise.tau_a_s is None


def test_exponent_without_a_dot_reads_as_its_number(tmp_path):
    # PyYAML reads a hand-written 1e-4 or 5e2 (no dot) as a string; the
    # config reads it as the number it spells, in a scalar and a 3-vector
    assert yaml.safe_load("x: 1e-4")["x"] == "1e-4"
    noise = {**BASE_CONFIG["noise"], "sigma_g_rad_s_sqrt_hz": "1e-4"}
    gnss = {**BASE_CONFIG["gnss"], "period_s": "5e2", "lever_arm_b_m": ["1e-3", 0, 2]}
    cfg = cli.load_config(write_config(tmp_path, {"noise": noise, "gnss": gnss}))
    assert cfg.noise.sigma_g_rad_s_sqrt_hz == 0.0001
    assert cfg.gnss.period_s == 500.0
    assert cfg.gnss.lever_arm_b_m == [0.001, 0.0, 2.0]
    assert all(type(x) is float for x in cfg.gnss.lever_arm_b_m)


def test_int_numbers_load_as_floats_and_a_whole_seed_as_an_int(tmp_path):
    cfg = cli.load_config(
        write_config(tmp_path, {"duration_s": 5, "imu_dt_s": 0.02, "seed": 3.0})
    )
    assert cfg.duration_s == 5.0 and type(cfg.duration_s) is float
    assert cfg.seed == 3 and type(cfg.seed) is int
    cfg = cli.load_config(write_config(tmp_path, {"seed": "4"}))
    assert cfg.seed == 4 and type(cfg.seed) is int


WRONG_TYPE = [
    # (section, field, value): a bool where a number is expected read as
    # 1.0 or 0.0, and any truthy value as mems_simplified: true (NED_Aux,
    # whose simplified model exists)
    (None, "duration_s", True),
    (None, "seed", True),
    ("noise", "sigma_g_rad_s_sqrt_hz", False),
    ("gnss", "lever_arm_b_m", [True, 0.0, 0.0]),
    ("variant", "mems_simplified", "yes"),
    ("variant", "mems_simplified", 1),
]


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "section, field, value", WRONG_TYPE,
    ids=[f"{field}={value!r}" for _, field, value in WRONG_TYPE],
)
def test_bool_number_or_non_bool_flag_exits_2(tmp_path, command, section, field, value):
    if section is None:
        overrides = {field: value}
    elif section == "variant":
        overrides = {section: {"frame": "NED_Aux", "error_def": "LeftEst", field: value}}
    else:
        overrides = {section: {**BASE_CONFIG[section], field: value}}
    cfg = write_config(tmp_path, overrides)
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert field in res.output
    assert not (tmp_path / "o").exists()


OUT_OF_RANGE = [
    ("noise", "tau_g_s", 0.0),
    ("noise", "tau_a_s", -900.0),
    ("trajectory", "period_s", 0.0),
    ("noise", "sigma_g_rad_s_sqrt_hz", -1e-4),
    ("noise", "sigma_ba_m_s2_sqrt_s", -1e-6),
    ("initial", "attitude_sigma_rad", -1e-3),
    ("initial", "position_sigma_m", -1.0),
    ("gnss", "sigma_pos_m", -1.5),
]


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "section, field, value",
    OUT_OF_RANGE,
    ids=[f"{field}={value}" for _, field, value in OUT_OF_RANGE],
)
def test_out_of_range_config_number_exits_2(tmp_path, command, section, field, value):
    # [TRIVIAL: validation] a zero time constant or period divides by zero
    # inside the run (exit 1), and a negative one or a negative sigma would
    # run on to exit 0, so each is rejected when the config is read
    values = {**BASE_CONFIG[section], field: value}
    if field == "period_s":
        values["kind"] = "figure_eight"
    cfg = write_config(tmp_path, {section: values})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert field in res.output
    assert not (tmp_path / "o").exists()


SIGMA_OVERFLOWS = [
    ("noise", "sigma_bg_rad_s_sqrt_s"),
    ("gnss", "sigma_pos_m"),
    ("initial", "position_sigma_m"),
]


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "section, field", SIGMA_OVERFLOWS, ids=[f for _, f in SIGMA_OVERFLOWS]
)
def test_sigma_whose_square_overflows_exits_2(tmp_path, command, section, field):
    # [TRIVIAL: validation] 1e200 squared overflows: float ** raised
    # OverflowError inside the run (exit 1 with a traceback), so a sigma
    # whose square is not a finite double is rejected when the config is read
    values = {**BASE_CONFIG[section], field: 1e200}
    cfg = write_config(tmp_path, {section: values})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert field in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("yaw", [1e200, -1e200])
def test_yaw_error_whose_square_overflows_exits_2(tmp_path, command, yaw):
    # the yaw error is squared into P0's attitude variance: 1e200 raised
    # OverflowError from ini.yaw_error_rad**2 (exit 1 with a traceback)
    values = {**BASE_CONFIG["initial"], "yaw_error_rad": yaw}
    cfg = write_config(tmp_path, {"initial": values})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert "initial.yaw_error_rad" in res.output
    assert not (tmp_path / "o").exists()


def test_negative_yaw_error_is_accepted(tmp_path):
    values = {**BASE_CONFIG["initial"], "yaw_error_rad": -0.3}
    cfg = cli.load_config(write_config(tmp_path, {"initial": values}))
    assert cfg.initial.yaw_error_rad == -0.3


@pytest.mark.parametrize("error_def", ["LeftEst", "RightEst"])
def test_float_overflow_in_the_first_predict_is_divergence(tmp_path, error_def):
    # an origin height of 1e155 m overflows a float ** in the NED F blocks'
    # earth terms during the first predict: the OverflowError (exit 1 with
    # a traceback) becomes Divergence, naming the variant, the time and the
    # seed. The config check rejects such a height, so it is set after
    # loading, where assignment is not checked.
    variant = {"frame": "NED", "error_def": error_def}
    cfg = cli.load_config(write_config(tmp_path, {"variant": variant}))
    cfg.trajectory.origin_h_m = 1e155
    with pytest.raises(errors.Divergence) as exc:
        cli.run_scenario(cfg, tmp_path / "o")
    assert f"NED/{error_def} diverged at t=0.0 " in str(exc.value)
    assert str(exc.value).endswith("(seed 3)")


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize("height", [-6.4e6, 1e155, -1.5e6, 1.0000001e6])
def test_origin_height_beyond_1000_km_exits_2(tmp_path, command, height):
    # near -6.4e6 m R + h nears zero in the earth terms (NED/LeftEst exited 0
    # with a final NEES of 1e7), and at 1e155 m an ECEF run exited 0 with a
    # NIS of 0.0 at every fix; the config check stops both before any file
    traj = {**BASE_CONFIG["trajectory"], "origin_h_m": height}
    cfg = write_config(tmp_path, {"trajectory": traj})
    res = invoke(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert "trajectory.origin_h_m" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("height", [-1e6, 1e6])
def test_origin_height_of_1000_km_is_accepted(tmp_path, height):
    traj = {**BASE_CONFIG["trajectory"], "origin_h_m": height}
    cfg = cli.load_config(write_config(tmp_path, {"trajectory": traj}))
    assert cfg.trajectory.origin_h_m == height


@pytest.mark.parametrize("runs", [[], ["--monte-carlo", "2"]], ids=["single", "mc"])
@pytest.mark.parametrize("sigma", [1e150, 1.0000001e6])
def test_position_sigma_beyond_1000_km_exits_2(tmp_path, runs, sigma):
    # at 1e150 m the run drew its start 1e150 m from the truth, kept P
    # finite and exited 0 with NEES values up to 5.5e83; the config check
    # stops it before any file, as it stops such an origin height
    values = {**BASE_CONFIG["initial"], "position_sigma_m": sigma}
    cfg = write_config(tmp_path, {"initial": values})
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *runs)
    assert res.exit_code == 2, res.output
    assert "initial.position_sigma_m" in res.output
    assert not (tmp_path / "o").exists()


def test_position_sigma_of_1000_km_is_accepted(tmp_path):
    values = {**BASE_CONFIG["initial"], "position_sigma_m": 1e6}
    cfg = cli.load_config(write_config(tmp_path, {"initial": values}))
    assert cfg.initial.position_sigma_m == 1e6


def test_largest_sigma_with_a_finite_square_is_accepted(tmp_path):
    largest = math.sqrt(sys.float_info.max)
    values = {**BASE_CONFIG["gnss"], "sigma_pos_m": largest}
    cfg = cli.load_config(write_config(tmp_path, {"gnss": values}))
    assert cfg.gnss.sigma_pos_m == largest


@pytest.mark.parametrize("runs", [[], ["--monte-carlo", "2"]], ids=["single", "mc"])
@pytest.mark.parametrize("sigma", [0.0, 1e-300, 1e-160])
def test_gnss_sigma_the_filter_cannot_use_exits_2(tmp_path, sigma, runs):
    # the filter inverts R = sigma^2 I: a sigma of 0, or one whose square
    # underflows (1e-160 squares to a subnormal), ran to exit 0 with NEES
    # values of -1.7e12 in metrics.json; the run rejects it before any file
    values = {**BASE_CONFIG["gnss"], "sigma_pos_m": sigma}
    cfg = write_config(tmp_path, {"gnss": values})
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"), *runs)
    assert res.exit_code == 2, res.output
    assert "gnss.sigma_pos_m" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("runs", [[], ["--monte-carlo", "2"]], ids=["single", "mc"])
def test_covariance_that_is_not_positive_definite_exits_2(tmp_path, runs):
    # a sigma of 1e-20 squares to a normal double and passes the run check,
    # but R is negligible against P, whose round-off makes it indefinite:
    # the run exited 0 and wrote NEES values down to -1.66e12. A Cholesky
    # of every P stops it, naming the time and the variant, before any
    # member of the block writes a file
    values = {**BASE_CONFIG["gnss"], "sigma_pos_m": 1e-20}
    cfg = write_config(tmp_path, {"gnss": values})
    out = tmp_path / "o"
    res = invoke("run", "--config", str(cfg), "--out", str(out), *runs)
    assert res.exit_code == 2, res.output
    assert re.search(r"covariance at t=\S+ of NED/LeftEst \(seed 3\) is not positive definite", res.output)
    assert not out.exists() if not runs else not any(out.rglob("*"))


def test_gnss_sigma_whose_square_is_a_normal_double_passes_the_run_check(tmp_path):
    cfg = cli.load_config(write_config(tmp_path))
    cfg.gnss.sigma_pos_m = math.sqrt(sys.float_info.min)
    cli._check_fix_sigma(cfg)


def test_simulate_takes_a_gnss_sigma_of_0(tmp_path):
    # a sigma of 0 means noise-free fixes, which only the filter cannot use
    values = {**BASE_CONFIG["gnss"], "sigma_pos_m": 0.0}
    cfg = write_config(tmp_path, {"gnss": values})
    out = tmp_path / "sim"
    assert invoke("simulate", "--config", str(cfg), "--out", str(out)).exit_code == 0
    fixes = cli.read_csv(out / "gnss.csv", cli.GNSS_HEADER)
    assert len(fixes) and np.all(fixes[:, 4:] == 0.0)


THREE_VECTORS = [
    ("gnss", "lever_arm_b_m"),
    ("initial", "true_bias_g_rad_s"),
    ("initial", "true_bias_a_m_s2"),
]


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize(
    "section, field", THREE_VECTORS, ids=[f for _, f in THREE_VECTORS]
)
def test_three_vector_of_other_length_exits_2(tmp_path, section, field, length):
    # [TRIVIAL: validation] a 2-entry lever arm used to die inside matvec
    values = {**BASE_CONFIG[section], field: [0.1] * length}
    cfg = write_config(tmp_path, {section: values})
    with pytest.raises(ConfigError, match=field):
        cli.load_config(cfg)
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.exit_code == 2, res.output
    assert field in res.output


def test_mode_option_offers_the_filter_modes():
    # one list of modes: the CLI choice is the filter's own tuple
    (mode,) = [p for p in cli.cmd_run.params if p.name == "mode"]
    assert tuple(mode.type.choices) == flt.MODES


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One finished run, shared by the malformed-file compare tests."""
    base = tmp_path_factory.mktemp("cmp")
    out = base / "o"
    cli.run_scenario(cli.load_config(write_config(base)), out)
    return out


def _damaged_copy(tmp_path, run_dir, name, edit):
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in ("filtered.csv", "covariance.csv"):
        (bad / f).write_text((run_dir / f).read_text())
    lines = (bad / name).read_text().splitlines()
    (bad / name).write_text("\n".join(edit(lines)) + "\n")
    return bad


def _replace_field(line, value, index=2):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


MALFORMED = {
    "non-numeric": (
        "filtered.csv",
        lambda lines: [*lines[:3], _replace_field(lines[3], "abc"), *lines[4:]],
        r"filtered\.csv, line 4",
    ),
    "ragged": (
        "covariance.csv",
        lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]],
        r"covariance\.csv, line 3: 225 fields, expected 226",
    ),
    "header-only": (
        "filtered.csv",
        lambda lines: lines[:1],
        r"(epoch mismatch: \d+ vs \d+ rows of|no epochs in either) filtered\.csv",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("damaged", ["a", "b", "both"])
def test_compare_malformed_file_exits_3(tmp_path, run_dir, case, damaged):
    # [TRIVIAL: validation] a malformed file is an I/O error (exit 3) that
    # names the file and line, not a traceback with exit 1
    name, edit, message = MALFORMED[case]
    bad = _damaged_copy(tmp_path, run_dir, name, edit)
    dirs = {"a": (bad, run_dir), "b": (run_dir, bad), "both": (bad, bad)}[damaged]
    with pytest.raises(IoError, match=message):
        cli.compare_runs(*dirs, 1e-9, 1e-10)
    res = invoke("compare", *map(str, dirs))
    assert res.exit_code == 3, res.output
    assert re.search(message, res.output)


@pytest.mark.parametrize(
    "name, row, field, reported",
    [
        ("filtered.csv", 3, 1, "max_pos_delta_m"),
        ("covariance.csv", 4, 10, "max_cov_delta_fro"),
    ],
)
def test_compare_nan_delta_fails(tmp_path, run_dir, name, row, field, reported):
    # a NaN latitude or covariance entry past the first epoch gives a NaN
    # delta, which Python's max dropped, so the copy passed; it must fail
    # the gate and show as the reported max
    edit = lambda lines: [
        *lines[:row], _replace_field(lines[row], "nan", field), *lines[row + 1:]
    ]
    bad = _damaged_copy(tmp_path, run_dir, name, edit)
    report = cli.compare_runs(run_dir, bad, 1e-9, 1e-10)
    assert math.isnan(report[reported])
    assert not report["passed"]
    res = invoke("compare", str(run_dir), str(bad))
    assert res.exit_code == 1, res.output
    assert "= nan" in res.output
    assert "FAIL" in res.output


def test_gnss_period_on_imu_grid_accepted():
    # whole multiples pass despite binary rounding of the two periods
    grid = [(0.01, 1.0), (0.02, 0.02), (0.05, 1.0), (0.01, 0.07), (0.1, 0.3)]
    for dt, period in grid:
        cfg = cli.ScenarioConfig(
            **{**BASE_CONFIG, "imu_dt_s": dt, "gnss": {"period_s": period}}
        )
        cli.build_scenario(cfg)


@pytest.mark.parametrize("asymmetric", ["value", "sign of zero"])
def test_covariance_rows_refuse_an_asymmetric_p(tmp_path, asymmetric, monkeypatch):
    # covariance.csv mirrors the upper triangle, so an asymmetric P would be
    # written wrong; it must fail loudly with its epoch, before any row
    rng = np.random.default_rng(5)
    records = []
    for t in (0.5, 1.0, 2.5, 3.0):
        a = rng.normal(size=(15, 15))
        records.append(smo.ForwardRecord(t, None, None, 0.5 * (a + a.T)))
    bad = records[2].p_post
    if asymmetric == "value":
        bad[3, 7] = np.nextafter(bad[7, 3], np.inf)
    else:
        bad[3, 7], bad[7, 3] = 0.0, -0.0
    path = tmp_path / "covariance.csv"
    for block in (smo.BLOCK, 2):  # the checks in one stack, or in two
        monkeypatch.setattr(smo, "BLOCK", block)
        with pytest.raises(NotPSD, match=r"t=2\.5 "):
            cli.write_csv(path, cli.COV_HEADER, cli._cov_rows(records))
        assert not path.exists()


def quaternion_to_dcm(q):
    """C_b^n of a unit quaternion (scalar first): the inverse of
    cli.dcm_to_quaternion."""
    q0, q1, q2, q3 = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [
                q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
                2.0 * (q1 * q2 - q0 * q3),
                2.0 * (q1 * q3 + q0 * q2),
            ],
            [
                2.0 * (q1 * q2 + q0 * q3),
                q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
                2.0 * (q2 * q3 - q0 * q1),
            ],
            [
                2.0 * (q1 * q3 - q0 * q2),
                2.0 * (q2 * q3 + q0 * q1),
                q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
            ],
        ]
    )


def test_quaternion_roundtrip():
    # [DERIVED: inverse-pair oracle] over random rotations, all pivots
    rng = np.random.default_rng(2)
    for _ in range(200):
        c = so3_exp(rng.uniform(-np.pi, np.pi, 3) * rng.uniform(0, 1))
        q = cli.dcm_to_quaternion(c[None])[0]
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
        assert q[0] >= 0.0
        assert np.max(np.abs(quaternion_to_dcm(q) - c)) <= 1e-12


def test_cli_imports_without_scipy():
    # scipy is a test extra only: a plain install must import the runner.
    # Every module the import adds whose top-level package is not the
    # standard library's (by name, or by a file inside its directory) nor
    # this package must come from a dependency pyproject.toml declares; a
    # module with no file is one an extension made in memory (Cython's).
    src = Path(liese_nav.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys; sys.modules['scipy'] = None; before = set(sys.modules)\n"
        "import liese_nav.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps({m: getattr(sys.modules[m], '__file__', None) for m in new}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    stdlib = Path(sysconfig.get_paths()["stdlib"]).resolve()
    site_dirs = [Path(d).resolve() for d in site.getsitepackages()]

    def in_stdlib(path):
        path = Path(path).resolve()
        return path.is_relative_to(stdlib) and not any(
            path.is_relative_to(d) for d in site_dirs
        )

    third_party = {
        name for name, path in loaded.items()
        if name not in sys.stdlib_module_names and name != "liese_nav"
        and path is not None and not in_stdlib(path)
    }
    project = tomllib.loads((src.parent / "pyproject.toml").read_text())["project"]
    declared = {_dist_key(re.match(r"[A-Za-z0-9._-]+", d)[0]) for d in project["dependencies"]}
    providers = importlib.metadata.packages_distributions()
    undeclared = {
        name: providers.get(name) for name in third_party
        if not declared & {_dist_key(d) for d in providers.get(name, [])}
    }
    assert not undeclared, undeclared
    assert "pydantic" not in loaded


def _dist_key(name):
    """A distribution name as PEP 503 normalizes it."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_package_error_is_exported():
    # a caller catches any of the package's errors from the top level
    names = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.LieseNavError)
    }
    assert names <= set(liese_nav.__all__)
    assert all(getattr(liese_nav, name) is getattr(errors, name) for name in names)
