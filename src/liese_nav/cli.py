"""Scenario runner: load a config, simulate or run filter + smoother, write
trajectory CSVs and error metrics.

CSV formats (headers are part of the contract):

  imu.csv        t,wx,wy,wz,fx,fy,fz        (s, rad/s, m/s^2)
  gnss.csv       t,x,y,z,sxx,syy,szz        (ECEF m, variances m^2)
  trajectories   t,lat,lon,h,vn,ve,vd,q0,q1,q2,q3
                 (rad/m, m/s, unit quaternion of C_b^n, scalar first)
  covariance.csv t followed by the 225 row-major entries of P

Floats are serialized with repr(), which round-trips doubles exactly, so
parse -> serialize -> parse is idempotent and identical configs with
identical seeds produce byte-identical outputs.
"""

import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
import yaml
from pydantic import BaseModel, ConfigDict, ValidationError

from liese_nav import earth, filter as flt, sensors, smoother as smo
from liese_nav.errormodels import Variant
from liese_nav.errors import ConfigError, IncompatibleMode, IoError, LieseNavError
from liese_nav.liegroup import matvec, so3_log
from liese_nav.mechanization import stack_states, state_at
from liese_nav.sensors import BiasState, ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

EXIT_CONFIG = 2
EXIT_IO = 3

TRAJ_HEADER = "t,lat,lon,h,vn,ve,vd,q0,q1,q2,q3"
IMU_HEADER = "t,wx,wy,wz,fx,fy,fz"
GNSS_HEADER = "t,x,y,z,sxx,syy,szz"
COV_HEADER = "t," + ",".join(f"p{i}{j}" for i in range(15) for j in range(15))


# ---------------------------------------------------------------------------
# configuration schema (strict: unknown keys rejected)
# ---------------------------------------------------------------------------


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid")


class TrajectoryConfig(_Strict):
    kind: str
    origin_lat_rad: float
    origin_lon_rad: float
    origin_h_m: float
    speed_m_s: float = 0.0
    radius_m: float = 200.0
    heading0_rad: float = 0.0
    amplitude_m: float = 300.0
    period_s: float = 60.0


class GnssConfig(_Strict):
    period_s: float = 1.0
    sigma_pos_m: float = 1.0
    lever_arm_b_m: list[float] = [0.0, 0.0, 0.0]


class NoiseConfig(_Strict):
    sigma_g_rad_s_sqrt_hz: float = 0.0
    sigma_a_m_s2_sqrt_hz: float = 0.0
    sigma_bg_rad_s_sqrt_s: float = 0.0
    sigma_ba_m_s2_sqrt_s: float = 0.0
    tau_g_s: float | None = 3600.0
    tau_a_s: float | None = 3600.0


class InitialConfig(_Strict):
    attitude_sigma_rad: float = 0.0
    velocity_sigma_m_s: float = 0.0
    position_sigma_m: float = 0.0
    bias_g_sigma_rad_s: float = 0.0
    bias_a_sigma_m_s2: float = 0.0
    yaw_error_rad: float = 0.0
    true_bias_g_rad_s: list[float] = [0.0, 0.0, 0.0]
    true_bias_a_m_s2: list[float] = [0.0, 0.0, 0.0]


class VariantConfig(_Strict):
    frame: str = "NED"
    error_def: str = "LeftEst"
    mems_simplified: bool = False


class ScenarioConfig(_Strict):
    trajectory: TrajectoryConfig
    duration_s: float = 60.0
    imu_dt_s: float = 0.01
    gnss: GnssConfig = GnssConfig()
    noise: NoiseConfig = NoiseConfig()
    initial: InitialConfig = InitialConfig()
    variant: VariantConfig = VariantConfig()
    mode: str = "se23"
    seed: int = 0


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    try:
        return ScenarioConfig(**raw)
    except ValidationError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def build_scenario(cfg):
    """Validated domain objects from a ScenarioConfig."""
    t = cfg.trajectory
    spec = TrajectorySpec(
        t.kind,
        np.array([t.origin_lat_rad, t.origin_lon_rad, t.origin_h_m]),
        speed=t.speed_m_s,
        radius=t.radius_m,
        heading0=t.heading0_rad,
        amplitude=t.amplitude_m,
        period=t.period_s,
    )
    if cfg.duration_s <= 0 or cfg.imu_dt_s <= 0:
        raise ConfigError("duration_s and imu_dt_s must be positive")
    if round(cfg.duration_s / cfg.imu_dt_s) < 1:
        raise ConfigError(
            f"duration_s {cfg.duration_s} is shorter than one imu_dt_s step"
        )
    if cfg.gnss.period_s < cfg.imu_dt_s:
        raise ConfigError("gnss period_s must be >= imu_dt_s")
    # the filter applies a fix at the IMU epoch that reaches its time, so a
    # fix between two epochs would be applied up to one step late
    steps = cfg.gnss.period_s / cfg.imu_dt_s
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(
            f"gnss period_s {cfg.gnss.period_s} is not a whole multiple of "
            f"imu_dt_s {cfg.imu_dt_s}"
        )
    if cfg.mode not in flt.MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r} (expected one of {flt.MODES})")
    variant = Variant(
        cfg.variant.frame, cfg.variant.error_def, cfg.variant.mems_simplified
    )
    if cfg.mode == "invariant" and variant.error_def != "LeftEst":
        raise IncompatibleMode(
            f"invariant mode requires the LeftEst error definition, got {variant.name}"
        )
    noise = ImuNoiseParams(
        sigma_g=cfg.noise.sigma_g_rad_s_sqrt_hz,
        sigma_a=cfg.noise.sigma_a_m_s2_sqrt_hz,
        sigma_bg=cfg.noise.sigma_bg_rad_s_sqrt_s,
        sigma_ba=cfg.noise.sigma_ba_m_s2_sqrt_s,
        tau_g=cfg.noise.tau_g_s,
        tau_a=cfg.noise.tau_a_s,
    )
    return spec, variant, noise


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def dcm_to_quaternion(c):
    """Unit quaternion (scalar first) from a rotation matrix, q0 >= 0; an
    (N, 3, 3) stack gives (N, 4).

    Shepperd's method: pivot on the largest of the four squared components
    for numerical stability at every attitude.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        return dcm_to_quaternion(c[None])[0]
    tr = np.trace(c, axis1=1, axis2=2)
    diag = np.diagonal(c, axis1=1, axis2=2)
    cand = np.column_stack([1.0 + tr, 1.0 + 2.0 * diag - tr[:, None]])
    pivot = np.argmax(cand, axis=1)
    s = 0.5 * np.sqrt(np.take_along_axis(cand, pivot[:, None], axis=1)[:, 0])
    q = np.empty((len(c), 4))
    for k in range(4):
        rows = pivot == k
        ck, sk = c[rows], s[rows]
        if k == 0:
            q[rows] = np.column_stack(
                [
                    sk,
                    0.25 * (ck[:, 2, 1] - ck[:, 1, 2]) / sk,
                    0.25 * (ck[:, 0, 2] - ck[:, 2, 0]) / sk,
                    0.25 * (ck[:, 1, 0] - ck[:, 0, 1]) / sk,
                ]
            )
        else:
            i = k - 1
            j, l = (i + 1) % 3, (i + 2) % 3
            q[rows, k] = sk
            q[rows, 0] = 0.25 * (ck[:, l, j] - ck[:, j, l]) / sk
            q[rows, 1 + j] = 0.25 * (ck[:, j, i] + ck[:, i, j]) / sk
            q[rows, 1 + l] = 0.25 * (ck[:, l, i] + ck[:, i, l]) / sk
    q[q[:, 0] < 0] *= -1.0
    # (1, 4) @ (4, 1) per row: the same dot product np.linalg.norm takes
    return q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _traj_row(row):
    """One CSV row from a (t, geo, v_n, q) row of the table _traj_rows builds."""
    return _fmt(row.tolist())


def _traj_rows(times, ned):
    """CSV rows of a stacked NED trajectory; one batched quaternion pass.

    Rows convert to Python floats one at a time, so that the whole table
    never exists as Python objects at once.
    """
    q = dcm_to_quaternion(ned.c_bn)
    table = np.column_stack([np.asarray(times), ned.geo, ned.v_n, q])
    return [_traj_row(row) for row in table]


def _make_dir(path):
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    return out


def write_csv(path, header, rows):
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_json(path, obj):
    try:
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path.name}: {exc}") from exc


def read_csv(path, header):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise IoError(f"{path}: expected header {header!r}")
    return np.array(
        [[float(x) for x in line.split(",")] for line in lines[1:]], dtype=float
    )


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _initial_state(cfg, variant, gen, rng):
    """Truth at t=0 plus the configured initial error draw."""
    ini = cfg.initial
    nav = state_at(variant.chart.states(gen, [0.0]), 0)
    sigmas = np.repeat(
        [ini.attitude_sigma_rad, ini.velocity_sigma_m_s, ini.position_sigma_m,
         ini.bias_g_sigma_rad_s, ini.bias_a_sigma_m_s2],
        3,
    )
    p0 = np.diag(np.maximum(sigmas, 1e-12) ** 2)
    dx = sigmas * rng.standard_normal(15)
    nav, bias = flt.apply_correction(variant, nav, BiasState(), dx)
    if ini.yaw_error_rad != 0.0:
        # deterministic extra misalignment about the local down axis
        cz, sz = np.cos(ini.yaw_error_rad), np.sin(ini.yaw_error_rad)
        rot = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        variant.chart.misalign(nav, rot)
        p0[:3, :3] += ini.yaw_error_rad**2 * np.eye(3)
    return nav, bias, p0


@dataclass
class Simulation:
    """Truth and sensor streams of one scenario."""

    variant: Variant
    noise: ImuNoiseParams
    gen: TruthGenerator
    rng: "np.random.Generator"  # positioned after the sensor draws
    biases: list  # true bias at each IMU epoch
    imu: list  # corrupted ImuSample stream
    raw_fixes: list  # (t, antenna position, covariance)
    truth_rows: list  # truth.csv rows at every IMU epoch and the end


def _simulate(cfg):
    """The simulation both ``run`` and ``simulate`` start from."""
    spec, variant, noise = build_scenario(cfg)
    gen = TruthGenerator(spec)
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.imu_dt_s
    n = int(round(cfg.duration_s / dt))

    clean = gen.synthesize_imu(cfg.duration_s, dt)
    true_bias0 = BiasState(
        np.array(cfg.initial.true_bias_g_rad_s),
        np.array(cfg.initial.true_bias_a_m_s2),
    )
    biases = sensors.simulate_biases(noise, n, dt, rng, initial=true_bias0)
    imu = sensors.corrupt(clean, biases, noise, dt, rng)
    lever = np.array(cfg.gnss.lever_arm_b_m)
    gnss_times = np.arange(
        cfg.gnss.period_s, cfg.duration_s + 1e-9, cfg.gnss.period_s
    )
    raw_fixes = gen.sample_gnss(gnss_times, lever, cfg.gnss.sigma_pos_m, rng)
    grid = np.arange(n + 1) * dt
    truth_rows = _traj_rows(grid, gen.states_ned(grid))
    return Simulation(variant, noise, gen, rng, biases, imu, raw_fixes, truth_rows)


def _write_sensors(out, sim):
    write_csv(out / "truth.csv", TRAJ_HEADER, sim.truth_rows)
    write_csv(
        out / "imu.csv",
        IMU_HEADER,
        [_fmt([s.t, *s.gyro.tolist(), *s.accel.tolist()]) for s in sim.imu],
    )
    write_csv(
        out / "gnss.csv",
        GNSS_HEADER,
        [_fmt([t, *pos, r[0, 0], r[1, 1], r[2, 2]]) for t, pos, r in sim.raw_fixes],
    )


def run_scenario(cfg, out_dir, write_sensors=True):
    """Simulate, filter, and smooth one scenario; write artifacts to out_dir.

    Returns the metrics dictionary that is also written to metrics.json.
    """
    sim = _simulate(cfg)
    variant, gen, dt = sim.variant, sim.gen, cfg.imu_dt_s
    lever = np.array(cfg.gnss.lever_arm_b_m)
    fixes = [flt.GnssFix(t, pos, r, lever) for t, pos, r in sim.raw_fixes]
    fs = flt.FilterState(variant, *_initial_state(cfg, variant, gen, sim.rng), 0.0)
    records, nis_log = smo.run_forward(fs, sim.imu, fixes, dt, sim.noise, cfg.mode)
    smoothed = smo.rts_smooth(variant, records)

    out = _make_dir(out_dir)
    if write_sensors:
        _write_sensors(out, sim)

    # each track converts to NED once, for its CSV and for the metrics
    filtered_ned = variant.chart.as_ned(stack_states([r.nav for r in records]))
    smoothed_ned = variant.chart.as_ned(stack_states([e.nav for e in smoothed]))
    for name, track, ned in (
        ("filtered.csv", records, filtered_ned),
        ("smoothed.csv", smoothed, smoothed_ned),
    ):
        write_csv(out / name, TRAJ_HEADER, _traj_rows([e.t for e in track], ned))
    write_csv(
        out / "covariance.csv",
        COV_HEADER,
        [_fmt([r.t, *r.p_post.ravel().tolist()]) for r in records],
    )

    metrics = _metrics(
        cfg, variant, gen, dt, sim.biases, records, filtered_ned, smoothed_ned,
        nis_log,
    )
    _write_json(out / "metrics.json", metrics)
    return metrics


def _epoch_errors(truth, ned):
    """NED-axis position/velocity errors and attitude rotation vectors of a
    stacked NED track against the stacked truth at the same epochs."""
    lat, lon, h = truth.geo.T
    c_en = earth.dcm_ecef_to_ned_array(lat, lon)
    dp = earth.llh_to_ecef_array(*ned.geo.T) - earth.llh_to_ecef_array(lat, lon, h)
    pos = matvec(c_en, np.ascontiguousarray(dp.T))
    vel = ned.v_n - truth.v_n
    att = np.array(
        [so3_log(r) for r in np.swapaxes(truth.c_bn, -1, -2) @ ned.c_bn]
    )
    return pos, vel, att


def _rmse_block(truth, ned):
    pos, vel, att = _epoch_errors(truth, ned)
    axis_rmse = lambda e: [float(x) for x in np.sqrt(np.mean(e**2, axis=0))]
    return {
        "position_m": axis_rmse(pos),
        "velocity_m_s": axis_rmse(vel),
        "attitude_rad": axis_rmse(att),
    }


def _metrics(cfg, variant, gen, dt, biases, records, filtered, smoothed, nis_log):
    """Metrics of the stacked NED tracks ``filtered`` and ``smoothed``, whose
    epochs are the records'; truth is evaluated at those epochs at once."""
    truth = variant.chart.states(gen, [r.t for r in records])
    truth_n = variant.chart.as_ned(truth)
    nees_log = []
    for k, rec in enumerate(records):
        idx = min(len(biases) - 1, max(0, int(round(rec.t / dt)) - 1))
        dx = flt.error_state(
            variant, state_at(truth, k), biases[idx], rec.nav, rec.bias
        )
        try:
            nees = float(dx @ np.linalg.solve(rec.p_post, dx))
        except np.linalg.LinAlgError:
            nees = float("nan")
        nees_log.append({"t": rec.t, "value": nees})
    return {
        "variant": variant.name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "epochs": len(records),
        "rmse": {
            "filtered": _rmse_block(truth_n, filtered),
            "smoothed": _rmse_block(truth_n, smoothed),
        },
        "final_nees": nees_log[-1]["value"] if nees_log else None,
        "nees": nees_log,
        "nis": nis_log,
    }


def run_monte_carlo(cfg, out_dir, n_runs):
    """Fan out independent seeded runs; merge metrics by run index."""
    out = _make_dir(out_dir)
    cap = os.environ.get("LIESE_NAV_THREADS")
    try:
        max_workers = max(1, int(cap)) if cap else min(n_runs, os.cpu_count() or 1)
    except ValueError as exc:
        raise ConfigError(f"LIESE_NAV_THREADS must be an integer: {cap!r}") from exc

    def one(idx):
        sub = cfg.model_copy(deep=True)
        sub.seed = cfg.seed + idx
        return run_scenario(sub, out / f"run_{idx:03d}")

    with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
        results = list(pool.map(one, range(n_runs)))

    merged = {
        "runs": n_runs,
        "base_seed": cfg.seed,
        "variant": results[0]["variant"],
        "mode": results[0]["mode"],
        "final_nees": [m["final_nees"] for m in results],
        "mean_final_nees": float(
            np.mean([m["final_nees"] for m in results])
        ),
        "rmse": [m["rmse"] for m in results],
    }
    _write_json(out / "metrics.json", merged)
    return merged


def simulate_only(cfg, out_dir):
    """Write truth and sensor streams without running the filter."""
    sim = _simulate(cfg)
    _write_sensors(_make_dir(out_dir), sim)


def compare_runs(dir_a, dir_b, pos_tol, cov_tol):
    """Per-epoch position and covariance deltas between two run outputs."""
    fa = read_csv(Path(dir_a) / "filtered.csv", TRAJ_HEADER)
    fb = read_csv(Path(dir_b) / "filtered.csv", TRAJ_HEADER)
    if fa.shape != fb.shape:
        raise IoError(
            f"epoch mismatch: {fa.shape[0]} vs {fb.shape[0]} filtered rows"
        )
    pos_delta = []
    for ra, rb in zip(fa, fb):
        pa = earth.llh_to_ecef(*ra[1:4])
        pb = earth.llh_to_ecef(*rb[1:4])
        pos_delta.append(float(np.max(np.abs(pa - pb))))
    ca = read_csv(Path(dir_a) / "covariance.csv", COV_HEADER)
    cb = read_csv(Path(dir_b) / "covariance.csv", COV_HEADER)
    if ca.shape != cb.shape:
        raise IoError("epoch mismatch between covariance files")
    cov_delta = [
        float(np.linalg.norm(a[1:] - b[1:])) for a, b in zip(ca, cb)
    ]
    report = {
        "max_pos_delta_m": max(pos_delta),
        "max_cov_delta_fro": max(cov_delta),
        "pos_delta": pos_delta,
        "cov_delta": cov_delta,
        "passed": max(pos_delta) <= pos_tol and max(cov_delta) <= cov_tol,
    }
    return report


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------


def _fail(exc):
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, (IoError, OSError)):
        sys.exit(EXIT_IO)
    sys.exit(EXIT_CONFIG)


@click.group()
def main():
    """SE_2(3) inertial navigation scenario runner."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--variant", "variant_name", default=None, type=str)
@click.option("--mode", default=None, type=click.Choice(["invariant", "se23"]))
@click.option("--seed", default=None, type=int)
@click.option("--out", "out_dir", default="out", type=str)
@click.option("--monte-carlo", "n_runs", default=None, type=int)
def cmd_run(config_path, variant_name, mode, seed, out_dir, n_runs):
    """Simulate a scenario, run the filter and smoother, write artifacts."""
    try:
        cfg = load_config(config_path)
        if variant_name is not None:
            parts = variant_name.split("/")
            if len(parts) != 2:
                raise ConfigError(
                    f"variant {variant_name!r} must look like FRAME/ERRORDEF"
                )
            cfg.variant.frame, cfg.variant.error_def = parts
            if cfg.variant.error_def.endswith("+mems"):
                cfg.variant.error_def = cfg.variant.error_def[: -len("+mems")]
                cfg.variant.mems_simplified = True
        if mode is not None:
            cfg.mode = mode
        if seed is not None:
            cfg.seed = seed
        if n_runs is not None:
            if n_runs < 1:
                raise ConfigError("--monte-carlo must be >= 1")
            run_monte_carlo(cfg, out_dir, n_runs)
        else:
            run_scenario(cfg, out_dir)
    except (LieseNavError, ValidationError) as exc:
        _fail(exc)


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", required=True, type=str)
def cmd_simulate(config_path, out_dir):
    """Write truth and sensor CSVs only."""
    try:
        simulate_only(load_config(config_path), out_dir)
    except (LieseNavError, ValidationError) as exc:
        _fail(exc)


@main.command("compare")
@click.argument("dir_a", type=str)
@click.argument("dir_b", type=str)
@click.option("--pos-tol", default=1e-9, type=float)
@click.option("--cov-tol", default=1e-10, type=float)
def cmd_compare(dir_a, dir_b, pos_tol, cov_tol):
    """Compare two run directories epoch by epoch."""
    try:
        report = compare_runs(dir_a, dir_b, pos_tol, cov_tol)
    except (LieseNavError, ValidationError) as exc:
        _fail(exc)
        return
    click.echo(
        f"max |dpos| = {report['max_pos_delta_m']:.3e} m "
        f"(tol {pos_tol:.1e}); "
        f"max ||dP||_F = {report['max_cov_delta_fro']:.3e} (tol {cov_tol:.1e})"
    )
    click.echo("PASS" if report["passed"] else "FAIL")
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
