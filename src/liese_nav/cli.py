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

import functools
import json
import math
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Annotated

import click
import numpy as np
import yaml

from liese_nav import earth, filter as flt, sensors, smoother as smo
from liese_nav.errormodels import Variant
from liese_nav.errors import (
    ConfigError, Divergence, IncompatibleMode, IoError, LieseNavError, NotPSD,
)
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

# covariance.csv formats the 120 entries of P's upper triangle once each;
# _MIRROR picks, for every row-major (i, j), the string of (min, max)
_UPPER = np.triu_indices(15)
_upper_pos = np.empty((15, 15), dtype=int)
_upper_pos[_UPPER] = _upper_pos.T[_UPPER] = np.arange(len(_UPPER[0]))
_MIRROR = operator.itemgetter(*_upper_pos.ravel().tolist())


# ---------------------------------------------------------------------------
# configuration schema (strict: unknown keys rejected)
# ---------------------------------------------------------------------------


def _real(value, name):
    """A finite float from an int, a float or a numeric string: PyYAML reads
    a hand-written ``1e-4`` or ``5e2`` (no dot) as a string. A bool is no
    number, and NaN or +-Inf would only fail deep inside the run, with the
    wrong code."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return number


def _positive(value, name):
    # a time constant or period of zero divides by zero, and a negative one
    # would run on without a word
    number = _real(value, name)
    if not number > 0:
        raise ConfigError(f"{name}: must be greater than 0, got {value!r}")
    return number


def _squarable(value, name):
    # the run squares the number into a variance, and float ** raises
    # OverflowError deep inside the run (exit 1) where the square is not finite
    number = _real(value, name)
    if not number * number < math.inf:
        raise ConfigError(f"{name}: {number} squares to a variance beyond the float range")
    return number


def _height(value, name):
    # beyond +-1000 km, R + h nears zero in the earth terms (-6.4e6 m) or the
    # fix noise falls below one ulp of the position (1e155 m), and runs exit 0
    number = _real(value, name)
    if not abs(number) <= 1e6:
        raise ConfigError(f"{name}: must be within +-1e6 m, got {value!r}")
    return number


def _sigma(value, name):
    # a negative standard deviation would run on without a word
    sigma = _real(value, name)
    if not sigma >= 0:
        raise ConfigError(f"{name}: must be greater than or equal to 0, got {value!r}")
    return _squarable(sigma, name)


def _position_sigma(value, name):
    # a start error beyond 1000 km, as trajectory.origin_h_m is bounded: at
    # 1e150 m the run drew its start 1e150 m off, kept P finite and wrote
    # NEES values up to 5.5e83 with exit 0
    sigma = _sigma(value, name)
    if not sigma <= 1e6:
        raise ConfigError(f"{name}: must be at most 1e6 m, got {value!r}")
    return sigma


def _positive_or_none(value, name):
    # a bias time constant of null selects a random-constant bias
    return None if value is None else _positive(value, name)


def _vector3(value, name):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name}: expected a list of 3 numbers, got {value!r}")
    return [_real(x, f"{name}[{k}]") for k, x in enumerate(value)]


def _seed(value, name):
    # an integral float or an integer string is a seed too;
    # np.random.default_rng raises on a negative seed, deep inside the run
    if isinstance(value, bool) or not isinstance(value, int):
        number = _real(value, name)
        if not number.is_integer():
            raise ConfigError(f"{name}: expected a whole number, got {value!r}")
        value = int(number)
    if value < 0:
        raise ConfigError(f"{name}: must be greater than or equal to 0, got {value!r}")
    return value


def _typed(kind):
    def check(value, name):
        if not isinstance(value, kind):
            raise ConfigError(f"{name}: expected a {kind.__name__}, got {value!r}")
        return value

    return check


# A field's annotation names its check: a plain float, str or bool, one of
# these, or a section (a config dataclass)
_CHECKS = {float: _real, str: _typed(str), bool: _typed(bool)}
Positive = Annotated[float, _positive]
PositiveOrNone = Annotated[float | None, _positive_or_none]
Sigma = Annotated[float, _sigma]
Vector3 = Annotated[list, _vector3]


def _section(cls, value, name=""):
    """A validated ``cls`` from a mapping (or ``value`` itself if it already
    is one); errors name the dotted field under ``name``."""
    if isinstance(value, cls):
        return value
    at = f"{name}." if name else ""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {value!r}")
    known = {f.name: f for f in fields(cls)}
    for key in value:
        if key not in known:
            raise ConfigError(f"{at}{key}: unknown field")
    for key, f in known.items():
        if key not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{at}{key}: field required")
    try:
        return cls(**value)
    except ConfigError as exc:
        raise ConfigError(f"{at}{exc}") from None


@functools.cache
def _checks(cls):
    """(name, check) of every field of a config dataclass, from its
    annotation: a section, ``Annotated[type, check]`` or a plain type."""
    return [
        (
            f.name,
            functools.partial(_section, f.type) if is_dataclass(f.type)
            else f.type.__metadata__[0] if hasattr(f.type, "__metadata__")
            else _CHECKS[f.type],
        )
        for f in fields(cls)
    ]


class _Config:
    """Validates every field of a config dataclass on construction, in place:
    each value is read through its check, and a nested mapping becomes its
    section. Assignment afterwards is not checked."""

    def __post_init__(self):
        for name, check in _checks(type(self)):
            setattr(self, name, check(getattr(self, name), name))


@dataclass
class TrajectoryConfig(_Config):
    kind: str
    origin_lat_rad: float
    origin_lon_rad: float
    origin_h_m: Annotated[float, _height]
    speed_m_s: float = 0.0
    radius_m: float = 200.0
    heading0_rad: float = 0.0
    amplitude_m: float = 300.0
    period_s: Positive = 60.0


@dataclass
class GnssConfig(_Config):
    period_s: float = 1.0
    sigma_pos_m: Sigma = 1.0
    lever_arm_b_m: Vector3 = field(default_factory=lambda: [0.0, 0.0, 0.0])


@dataclass
class NoiseConfig(_Config):
    sigma_g_rad_s_sqrt_hz: Sigma = 0.0
    sigma_a_m_s2_sqrt_hz: Sigma = 0.0
    sigma_bg_rad_s_sqrt_s: Sigma = 0.0
    sigma_ba_m_s2_sqrt_s: Sigma = 0.0
    tau_g_s: PositiveOrNone = 3600.0
    tau_a_s: PositiveOrNone = 3600.0


@dataclass
class InitialConfig(_Config):
    attitude_sigma_rad: Sigma = 0.0
    velocity_sigma_m_s: Sigma = 0.0
    position_sigma_m: Annotated[float, _position_sigma] = 0.0
    bias_g_sigma_rad_s: Sigma = 0.0
    bias_a_sigma_m_s2: Sigma = 0.0
    yaw_error_rad: Annotated[float, _squarable] = 0.0
    true_bias_g_rad_s: Vector3 = field(default_factory=lambda: [0.0, 0.0, 0.0])
    true_bias_a_m_s2: Vector3 = field(default_factory=lambda: [0.0, 0.0, 0.0])


@dataclass
class VariantConfig(_Config):
    frame: str = "NED"
    error_def: str = "LeftEst"
    mems_simplified: bool = False


@dataclass
class ScenarioConfig(_Config):
    """The scenario schema: strict keys at every level. ``ScenarioConfig(**m)``
    validates the mapping ``m`` and builds its sections from nested mappings;
    an invalid value raises ConfigError naming its dotted field."""

    trajectory: TrajectoryConfig
    duration_s: Positive = 60.0
    imu_dt_s: Positive = 0.01
    gnss: GnssConfig = field(default_factory=GnssConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    variant: VariantConfig = field(default_factory=VariantConfig)
    mode: str = "se23"
    seed: Annotated[int, _seed] = 0


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        # libyaml's parser where PyYAML was built with it: the same safe
        # loader and resolver, several times faster than the pure-Python one
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    try:
        return _section(ScenarioConfig, raw)
    except ConfigError as exc:
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
    if cfg.mode == "invariant" and not variant.invariant_update:
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
    """Unit quaternions (scalar first, q0 >= 0) of an (N, 3, 3) stack of
    rotation matrices, as an (N, 4) array.

    Shepperd's method: pivot on the largest of the four squared components
    for numerical stability at every attitude.
    """
    c = np.asarray(c, dtype=float)
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
    """One CSV row of Python floats (numpy 2 writes an np.float64's repr as
    ``np.float64(...)``)."""
    return ",".join(map(repr, values))


def _traj_row(row):
    """One CSV row from a (t, geo, v_n, q) row of the table _traj_rows builds."""
    return _fmt(row.tolist())


def _traj_rows(times, ned):
    """CSV rows of a stacked NED trajectory; one batched quaternion pass.

    The table's rows convert to Python floats one at a time, so that it
    never exists as Python objects at once.
    """
    q = dcm_to_quaternion(ned.c_bn)
    table = np.column_stack([np.asarray(times), ned.geo, ned.v_n, q])
    return [_traj_row(row) for row in table]


def _cov_row(t, p):
    upper = list(map(repr, p[_UPPER].tolist()))
    return ",".join((repr(float(t)), *_MIRROR(upper)))


def _cov_rows(records):
    """covariance.csv rows of the records' P, which predict and update keep
    exactly symmetric (0.5 * (P + P')): each upper-triangle entry is
    formatted once and its string reused for the mirrored entry.

    First checks the symmetry of every P bit for bit and raises NotPSD with
    the epoch of the first asymmetric one; then returns the rows as a
    generator, which ``write_csv`` formats as it writes.
    """
    for start in range(0, len(records), smo.BLOCK):
        block = records[start:start + smo.BLOCK]
        p = np.stack([rec.p_post for rec in block]).view(np.int64)
        bad = np.flatnonzero(~(p == np.swapaxes(p, -1, -2)).all(axis=(-2, -1)))
        if bad.size:
            raise NotPSD(
                f"covariance at t={block[bad[0]].t} is not exactly symmetric"
            )
    return (_cov_row(rec.t, rec.p_post) for rec in records)


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
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            rows.append([float(x) for x in fields])
        except ValueError as exc:
            raise IoError(f"{path}, line {lineno}: {exc}") from exc
    return np.array(rows, dtype=float)


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
class Truth:
    """The seed-independent part of a scenario, which a Monte-Carlo run
    builds once for all its members."""

    variant: Variant
    noise: ImuNoiseParams
    gen: TruthGenerator
    clean: np.ndarray  # noise-free IMU stream, (n, 2, 3) (gyro, accel)
    truth_rows: list  # truth.csv rows at every IMU epoch and the end


def _truth(cfg):
    spec, variant, noise = build_scenario(cfg)
    gen = TruthGenerator(spec)
    dt = cfg.imu_dt_s
    # kinematics that overflow (a circle of radius 1e-310 m) give NaN truth;
    # the check below rejects every value numpy would warn about on the way
    with np.errstate(all="ignore"):
        clean = gen.synthesize_imu(cfg.duration_s, dt)
        grid = np.arange(len(clean) + 1) * dt
        ned = gen.states_ned(grid)
    bad = ~np.isfinite(np.column_stack([ned.c_bn.reshape(-1, 9), ned.v_n, ned.geo]))
    bad[:-1, :6] |= ~np.isfinite(clean.reshape(-1, 6))
    if bad.any():
        t = float(grid[bad.any(axis=1).argmax()])
        raise ConfigError(f"trajectory: the truth is not finite at t={t}")
    return Truth(variant, noise, gen, clean, _traj_rows(grid, ned))


@dataclass
class Simulation(Truth):
    """Truth and sensor streams of one scenario."""

    rng: "np.random.Generator"  # positioned after the sensor draws
    biases: np.ndarray  # true (gyro, accel) bias at each IMU epoch, (n, 2, 3)
    imu: np.ndarray  # corrupted IMU stream, (n, 2, 3)
    fixes: list  # filter.GnssFix of the antenna positions


def _simulate(cfg, truth=None):
    """The simulation both ``run`` and ``simulate`` start from; the sensor
    draws come from ``default_rng(cfg.seed)``, the truth from ``truth``
    when the members of a run share it."""
    truth = truth or _truth(cfg)
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.imu_dt_s
    true_bias0 = BiasState(
        np.array(cfg.initial.true_bias_g_rad_s),
        np.array(cfg.initial.true_bias_a_m_s2),
    )
    biases = sensors.simulate_biases(
        truth.noise, len(truth.clean), dt, rng, initial=true_bias0
    )
    imu = sensors.corrupt(truth.clean, biases, truth.noise, dt, rng)
    lever = np.array(cfg.gnss.lever_arm_b_m)
    gnss_times = np.arange(
        cfg.gnss.period_s, cfg.duration_s + 1e-9, cfg.gnss.period_s
    )
    fixes = truth.gen.sample_gnss(gnss_times, lever, cfg.gnss.sigma_pos_m, rng)
    return Simulation(**vars(truth), rng=rng, biases=biases, imu=imu, fixes=fixes)


def _write_streams(out, sim, dt):
    """truth.csv, imu.csv (sample k at k * dt) and gnss.csv of a simulation."""
    write_csv(out / "truth.csv", TRAJ_HEADER, sim.truth_rows)
    n = len(sim.imu)
    imu = np.column_stack([np.arange(n) * dt, sim.imu.reshape(n, 6)])
    # row by row as written: all members' records are alive here, and a
    # list of the rows raised a 4-member run's peak RSS by about 0.1 MB
    write_csv(out / "imu.csv", IMU_HEADER, (_fmt(row.tolist()) for row in imu))
    write_csv(
        out / "gnss.csv",
        GNSS_HEADER,
        [
            _fmt([float(fix.t), *fix.pos.tolist(), *fix.r.diagonal().tolist()])
            for fix in sim.fixes
        ],
    )


def _check_fix_sigma(cfg):
    """Reject a GNSS sigma whose variance the filter cannot use: it inverts
    R = sigma^2 I, and with a sigma of 0, or one whose square underflows
    below the smallest normal double, the run would write NEES values of
    -1.7e12 and exit 0. ``simulate`` takes 0, for noise-free fixes."""
    sigma = cfg.gnss.sigma_pos_m
    if not sigma * sigma >= sys.float_info.min:
        raise ConfigError(
            f"gnss.sigma_pos_m: the filter needs sigma**2 >= "
            f"{sys.float_info.min!r}, got sigma {sigma!r}"
        )


def run_scenario(cfg, out_dir, forward=None):
    """Simulate, filter, and smooth one scenario; write artifacts to out_dir.

    Returns the metrics dictionary that is also written to metrics.json.
    Every Monte-Carlo member runs through here as well, and hands over its
    block's work for it from :func:`_filter` as ``forward`` = (sim,
    records, tracks, metrics), which leaves it the files; a standalone run
    is a block of one member.
    """
    if forward is None:
        _check_fix_sigma(cfg)
        forward = next(_filter([cfg], _truth(cfg)))
    sim, records, (filtered_ned, smoothed_ned), metrics = forward
    out = _make_dir(out_dir)
    _write_streams(out, sim, cfg.imu_dt_s)
    times = [r.t for r in records]  # the smoothed epochs are the records'
    for name, ned in (("filtered.csv", filtered_ned), ("smoothed.csv", smoothed_ned)):
        write_csv(out / name, TRAJ_HEADER, _traj_rows(times, ned))
    write_csv(out / "covariance.csv", COV_HEADER, _cov_rows(records))
    _write_json(out / "metrics.json", metrics)
    return metrics


def _start(cfg, sim):
    """The member's initial FilterState, drawn from its generator."""
    start = _initial_state(cfg, sim.variant, sim.gen, sim.rng)
    return flt.FilterState(sim.variant, *start, 0.0)


def _filter(members, truth):
    """Simulate each member config on the shared ``truth``, filter all of
    them in one lockstep ``smoother.run_forward`` call, check their
    covariances (:func:`_check_positive_definite`), smooth them in one
    lockstep ``smoother.rts_smooth`` call and take the block's metrics in
    one :func:`_metrics` call, all before any member writes a file. Yields
    (sim, records, (filtered NED track, smoothed NED track), metrics) per
    member in order, and drops a member's data once the next is asked for.
    """
    sims = [_simulate(sub, truth) for sub in members]
    try:
        records, nis = smo.run_forward(
            [_start(sub, sim) for sub, sim in zip(members, sims)],
            [sim.imu for sim in sims],
            [sim.fixes for sim in sims],
            members[0].imu_dt_s, truth.noise, members[0].mode,
        )
    except Divergence as exc:
        seeds = ", ".join(str(sub.seed) for sub in members)
        label = "seed" if len(members) == 1 else "seeds"
        raise Divergence(f"{exc} ({label} {seeds})") from exc
    variant = truth.variant
    _check_positive_definite(variant, records, members)
    # the smoothed navs, an (epochs, members) stack, or (epochs,) for one
    # member; only they are written
    navs = stack_states([fs.nav for fs in smo.rts_smooth(variant, records)])
    # each track converts to NED once, for its CSV and for the metrics
    as_ned = variant.chart.as_ned
    tracks = [
        (
            as_ned(stack_states([r.nav for r in member])),
            as_ned(navs if len(records) == 1 else state_at(navs, (slice(None), k))),
        )
        for k, member in enumerate(records)
    ]
    metrics = _metrics(members, sims, records, tracks, nis)
    for k in range(len(members)):
        yield sims[k], records[k], tracks[k], metrics[k]
        sims[k] = records[k] = tracks[k] = None


def _check_positive_definite(variant, records, members):
    """Raise NotPSD, naming the time, the variant and the member's seed, at
    the first covariance of a member's records that a Cholesky
    factorization refuses: one stacked ``np.linalg.cholesky`` per
    ``smoother.BLOCK`` epochs of each member. A P whose round-off has made
    it indefinite writes negative NEES values (a GNSS sigma of 1e-20 m
    wrote -1.66e12), though it passes the symmetry check of covariance.csv.
    """
    for member, sub in zip(records, members):
        for start in range(0, len(member), smo.BLOCK):
            block = member[start:start + smo.BLOCK]
            if not _factors(np.stack([rec.p_post for rec in block])):
                rec = next(rec for rec in block if not _factors(rec.p_post))
                raise NotPSD(
                    f"covariance at t={rec.t} of {variant.name} (seed "
                    f"{sub.seed}) is not positive definite"
                )


def _factors(p):
    """Whether ``np.linalg.cholesky`` factors P, or every P of a stack."""
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return False
    return True


def _epoch_errors(truth, ned):
    """NED-axis position/velocity errors and attitude rotation vectors of a
    stacked NED track against the stacked truth at the same epochs."""
    lat, lon, h = truth.geo.T
    c_en = earth.dcm_ecef_to_ned(lat, lon)
    dp = earth.llh_to_ecef(*ned.geo.T) - earth.llh_to_ecef(lat, lon, h)
    pos = matvec(c_en, np.ascontiguousarray(dp.T))
    vel = ned.v_n - truth.v_n
    att = so3_log(np.swapaxes(truth.c_bn, -1, -2) @ ned.c_bn)
    return pos, vel, att


def _rmse_block(truth, ned):
    pos, vel, att = _epoch_errors(truth, ned)
    axis_rmse = lambda e: [float(x) for x in np.sqrt(np.mean(e**2, axis=0))]
    return {
        "position_m": axis_rmse(pos),
        "velocity_m_s": axis_rmse(vel),
        "attitude_rad": axis_rmse(att),
    }


def _nees(p_post, dx):
    """dx' P^-1 dx of every row of the (M, 15) errors ``dx`` and their M
    covariances ``p_post``, from one stacked solve per block of rows; the
    product stays per row, so each value equals its per-epoch solve bit
    for bit. If some P is singular, its block falls back to row by row,
    and only that row reads NaN."""
    sol = np.full_like(dx, np.nan)
    for start in range(0, len(p_post), smo.BLOCK):
        rows = slice(start, start + smo.BLOCK)
        p = np.stack(p_post[rows])
        try:
            sol[rows] = np.linalg.solve(p, dx[rows, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for k, (pk, dxk) in enumerate(zip(p, dx[rows]), start):
                try:
                    sol[k] = np.linalg.solve(pk, dxk)
                except np.linalg.LinAlgError:
                    pass
    return [float(a @ b) for a, b in zip(dx, sol)]


def _metrics(members, sims, records, tracks, nis):
    """Metrics of each member of a block: its config, simulation, records,
    stacked NED (filtered, smoothed) tracks, whose epochs are the records',
    and NIS log. The members share their epochs, so the truth is evaluated
    at them once; their errors and NEES run over member x epoch rows, one
    stacked ``error_state`` and one stacked solve per ``smoother.BLOCK``
    rows, each row equal to its own call bit for bit."""
    variant, dt = sims[0].variant, members[0].imu_dt_s
    times = [r.t for r in records[0]]
    epochs = len(times)
    truth = variant.chart.states(sims[0].gen, times)
    truth_n = variant.chart.as_ned(truth)
    # the true bias of the IMU interval that ends at each epoch
    steps = np.rint(np.array(times) / dt).astype(int) - 1
    true_bias = np.concatenate(
        [sim.biases[np.clip(steps, 0, len(sim.biases) - 1)] for sim in sims]
    )
    # member-major rows: member k's epochs are rows k * epochs ...
    flat = [rec for member in records for rec in member]
    dx = np.empty((len(flat), 15))
    for start in range(0, len(flat), smo.BLOCK):
        rows = slice(start, start + smo.BLOCK)
        block = flat[rows]
        dx[rows] = flt.error_state(
            variant,
            state_at(truth, np.arange(start, start + len(block)) % epochs),
            BiasState(true_bias[rows, 0], true_bias[rows, 1]),
            stack_states([rec.nav for rec in block]),
            stack_states([rec.bias for rec in block]),
        )
    nees = _nees([rec.p_post for rec in flat], dx)
    out = []
    for k, (sub, (filtered, smoothed), nis_log) in enumerate(zip(members, tracks, nis)):
        nees_log = [
            {"t": t, "value": v}
            for t, v in zip(times, nees[k * epochs:(k + 1) * epochs])
        ]
        out.append(
            {
                "variant": variant.name,
                "mode": sub.mode,
                "seed": sub.seed,
                "epochs": epochs,
                "rmse": {
                    "filtered": _rmse_block(truth_n, filtered),
                    "smoothed": _rmse_block(truth_n, smoothed),
                },
                "final_nees": nees_log[-1]["value"] if nees_log else None,
                "nees": nees_log,
                "nis": nis_log,
            }
        )
    return out


# Members per forward pass of a Monte-Carlo run, which bounds the records
# held at once; criterion 7 filters its 200 seeds in blocks of this size. A
# 200-member run in blocks of 50 took no longer than in one block, and in
# blocks of 16 it took longer.
LOCKSTEP_BLOCK = 50


def run_monte_carlo(cfg, out_dir, n_runs):
    """Independent runs with seeds ``seed + idx`` into ``run_{idx:03d}``;
    merge their metrics by run index.

    The seed-independent truth is built once. The members run in blocks of
    ``LOCKSTEP_BLOCK``: one forward pass per block (one stacked predict per
    leg chunk and one stacked update per fix), one lockstep backward pass
    and one metrics call (:func:`_filter`), then each member's files; each
    member's files equal a standalone run with its seed, byte for byte.
    """
    _check_fix_sigma(cfg)
    truth = _truth(cfg)
    out = _make_dir(out_dir)
    results = []
    for first in range(0, n_runs, LOCKSTEP_BLOCK):
        block = range(first, min(n_runs, first + LOCKSTEP_BLOCK))
        # the members share cfg's sections, which no run changes
        members = [replace(cfg, seed=cfg.seed + idx) for idx in block]
        for idx, sub, forward in zip(block, members, _filter(members, truth)):
            results.append(run_scenario(sub, out / f"run_{idx:03d}", forward))
    final_nees = [m["final_nees"] for m in results]
    merged = {
        "runs": n_runs,
        "base_seed": cfg.seed,
        "variant": results[0]["variant"],
        "mode": results[0]["mode"],
        "final_nees": final_nees,
        "mean_final_nees": float(np.mean(final_nees)),
        "rmse": [m["rmse"] for m in results],
    }
    _write_json(out / "metrics.json", merged)
    return merged


def simulate_only(cfg, out_dir):
    """Write truth and sensor streams without running the filter."""
    sim = _simulate(cfg)
    _write_streams(_make_dir(out_dir), sim, cfg.imu_dt_s)


def _read_pair(dir_a, dir_b, name, header):
    """The file ``name`` of both runs, which must hold the same epochs."""
    a, b = (read_csv(Path(d) / name, header) for d in (dir_a, dir_b))
    if a.shape != b.shape:
        raise IoError(f"epoch mismatch: {len(a)} vs {len(b)} rows of {name}")
    if not len(a):
        raise IoError(f"no epochs in either {name}")
    return a, b


def compare_runs(dir_a, dir_b, pos_tol, cov_tol):
    """Per-epoch position and covariance deltas between two run outputs."""
    fa, fb = _read_pair(dir_a, dir_b, "filtered.csv", TRAJ_HEADER)
    pos_delta = []
    for ra, rb in zip(fa, fb):
        pa = earth.llh_to_ecef(*ra[1:4])
        pb = earth.llh_to_ecef(*rb[1:4])
        pos_delta.append(float(np.max(np.abs(pa - pb))))
    ca, cb = _read_pair(dir_a, dir_b, "covariance.csv", COV_HEADER)
    cov_delta = [
        float(np.linalg.norm(a[1:] - b[1:])) for a, b in zip(ca, cb)
    ]
    # unlike max, np.max returns NaN if any delta is NaN, which fails the gate
    max_pos, max_cov = float(np.max(pos_delta)), float(np.max(cov_delta))
    return {
        "max_pos_delta_m": max_pos,
        "max_cov_delta_fro": max_cov,
        "pos_delta": pos_delta,
        "cov_delta": cov_delta,
        "passed": max_pos <= pos_tol and max_cov <= cov_tol,
    }


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
@click.option("--mode", default=None, type=click.Choice(flt.MODES))
@click.option("--seed", default=None, type=click.IntRange(min=0))
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
            # the suffix sets the flag both ways: without it, the full model
            cfg.variant.frame, error_def = parts
            cfg.variant.error_def = error_def.removesuffix("+mems")
            cfg.variant.mems_simplified = error_def.endswith("+mems")
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
    except LieseNavError as exc:
        _fail(exc)


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=str)
@click.option("--out", "out_dir", required=True, type=str)
def cmd_simulate(config_path, out_dir):
    """Write truth and sensor CSVs only."""
    try:
        simulate_only(load_config(config_path), out_dir)
    except LieseNavError as exc:
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
    except LieseNavError as exc:
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
