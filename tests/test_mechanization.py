"""Strapdown propagation checks driven by exact synthetic IMU."""

import numpy as np
import pytest

import oracles
from liese_nav import earth, mechanization as mech
from liese_nav.errors import Divergence, PoleSingularity
from liese_nav.sensors import BiasState
from liese_nav.simulator import TrajectorySpec, TruthGenerator

ORIGIN = np.array([0.7, 0.2, 120.0])


def propagate_ned(state, samples, dt):
    for s in samples:
        state = mech.ned_step(state, s, dt)
        state.c_bn = mech.orthonormalize(state.c_bn)
    return state


def propagate_ecef(state, samples, dt, step=mech.ecef_step):
    for s in samples:
        state = step(state, s, dt)
        state.c_be = mech.orthonormalize(state.c_be)
    return state


def position_error_m(state_ned, truth_ned):
    lat, lon, h = truth_ned.geo
    d = earth.llh_to_ecef(*state_ned.geo) - earth.llh_to_ecef(lat, lon, h)
    return np.linalg.norm(d)


def test_stationary_equilibrium():
    # [DERIVED] stationary IMU keeps the state fixed to integrator accuracy
    gen = TruthGenerator(TrajectorySpec("stationary", ORIGIN, heading0=0.3))
    dt = 0.01
    samples = gen.synthesize_imu(10.0, dt)
    state = oracles.state_ned(gen, 0.0)
    out = propagate_ned(state, samples, dt)
    assert position_error_m(out, oracles.state_ned(gen, 10.0)) < 1e-6
    assert np.linalg.norm(out.v_n) < 1e-7


def test_circle_closure_ned():
    # [DERIVED] 60 s circle tracked within 1e-3 m at dt = 0.005
    spec = TrajectorySpec("circle", ORIGIN, speed=15.0, radius=200.0, heading0=0.5)
    gen = TruthGenerator(spec)
    dt = 0.005
    samples = gen.synthesize_imu(60.0, dt)
    out = propagate_ned(oracles.state_ned(gen, 0.0), samples, dt)
    truth = oracles.state_ned(gen, 60.0)
    assert position_error_m(out, truth) < 1e-3
    assert np.linalg.norm(out.v_n - truth.v_n) < 1e-4


def test_circle_exact_closure_of_truth():
    # [TRIVIAL] the analytic circle itself closes exactly
    spec = TrajectorySpec("circle", ORIGIN, speed=10.0, radius=100.0)
    gen = TruthGenerator(spec)
    period = 2.0 * np.pi * 100.0 / 10.0
    assert np.linalg.norm(gen.state_ecef(period).r - gen.state_ecef(0.0).r) < 1e-6


def test_cross_frame_consistency():
    # [DERIVED] NED and ECEF mechanizations agree within 1e-3 m over 60 s
    spec = TrajectorySpec("circle", ORIGIN, speed=12.0, radius=300.0)
    gen = TruthGenerator(spec)
    dt = 0.01
    samples = gen.synthesize_imu(60.0, dt)
    out_ned = propagate_ned(oracles.state_ned(gen, 0.0), samples, dt)
    out_ecef = propagate_ecef(gen.state_ecef(0.0), samples, dt)
    d = earth.llh_to_ecef(*out_ned.geo) - out_ecef.r
    assert np.linalg.norm(d) < 1e-3


def test_cross_convention_consistency():
    # [DERIVED] the library's earth-relative ECEF step and the reference
    # inertial-velocity form agree within 1e-6 m over 10 s
    spec = TrajectorySpec("circle", ORIGIN, speed=12.0, radius=300.0)
    gen = TruthGenerator(spec)
    dt = 0.005
    samples = gen.synthesize_imu(10.0, dt)
    s0 = gen.state_ecef(0.0)
    out_earth = propagate_ecef(s0.copy(), samples, dt)
    w_ie = earth.W_IE_E
    s0_in = mech.NavStateECEF(s0.c_be.copy(), s0.v + np.cross(w_ie, s0.r), s0.r.copy())
    inertial = lambda s, imu, dt: oracles.ref_ecef_step(s, imu, dt, convention="inertial")
    out_in = propagate_ecef(s0_in, samples, dt, step=inertial)
    assert np.linalg.norm(out_earth.r - out_in.r) < 1e-6
    v_back = out_in.v - np.cross(w_ie, out_in.r)
    assert np.linalg.norm(out_earth.v - v_back) < 1e-7


def test_orthonormalize_projects():
    rng = np.random.default_rng(3)
    c = mech.orthonormalize(np.eye(3) + 1e-3 * rng.standard_normal((3, 3)))
    assert np.linalg.norm(c.T @ c - np.eye(3)) < 1e-14
    assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)


def test_pole_guard():
    state = mech.NavStateNED(
        np.eye(3), np.zeros(3), np.array([np.pi / 2 - 1e-9, 0.0, 0.0])
    )
    imu = mech.ImuSample(0.0, np.zeros(3), np.zeros(3))
    with pytest.raises(PoleSingularity):
        mech.ned_step(state, imu, 0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.tan of an infinity
@pytest.mark.parametrize("lat", [np.nan, np.inf, -np.inf, 2.0, -np.pi / 2 - 1e-9])
def test_latitude_that_is_no_latitude_is_divergence(lat):
    # a state whose latitude left [-pi/2, pi/2] (or the numbers) diverged;
    # only a latitude within POLE_MARGIN of a pole is a pole singularity
    state = mech.NavStateNED(np.eye(3), np.zeros(3), np.array([lat, 0.0, 0.0]))
    imu = mech.ImuSample(0.0, np.zeros(3), np.zeros(3))
    with pytest.raises(Divergence, match="outside"):
        mech.ned_step(state, imu, 0.01)


def test_straight_line_latitude_shift():
    # [DERIVED] 100 m due north from the equator shifts latitude by
    # 100/(R_M+h) within 1e-9 relative
    origin = np.array([0.0, 0.1, 50.0])
    spec = TrajectorySpec("straight", origin, speed=10.0, heading0=0.0)
    gen = TruthGenerator(spec)
    truth = oracles.state_ned(gen, 10.0)  # 100 m north
    rm, _ = earth.radii(0.0)
    expected = 100.0 / (rm + 50.0)
    assert truth.geo[0] == pytest.approx(expected, rel=1e-9)


def test_rows_is_a_stream_over_one_array():
    # [TRIVIAL] len, iteration to its end, a negative index, fields that
    # are views (a write reaches the array), and slices that are streams
    values = np.arange(24.0).reshape(4, 2, 3)
    rows = mech.Rows(mech.ImuSample, values, [0.0, 0.5, 1.0, 1.5])
    assert len(rows) == 4
    items = iter(rows)
    assert [next(items).t for _ in range(4)] == [0.0, 0.5, 1.0, 1.5]
    with pytest.raises(StopIteration):
        next(items)
    with pytest.raises(IndexError):
        rows[4]
    last = rows[-1]
    assert last.t == 1.5
    assert np.array_equal(last.gyro, values[3, 0])
    assert np.array_equal(last.accel, values[3, 1])
    rows[1].gyro[2] = -1.0
    list(rows)[2].accel[0] = -2.0
    assert values[1, 0, 2] == -1.0 and values[2, 1, 0] == -2.0
    middle = rows[1:3]
    assert isinstance(middle, mech.Rows) and len(middle) == 2
    assert [s.t for s in middle] == [0.5, 1.0]
    middle[-1].gyro[0] = -3.0
    assert values[2, 0, 0] == -3.0
    # a stream without times; N members stack on the third axis
    biases = mech.Rows(BiasState, values)
    assert len(biases) == 4 and len(list(biases)) == 4
    assert np.array_equal(biases[-1].accel, values[3, 1])
    assert [b.gyro[0] for b in biases[::2]] == [values[0, 0, 0], values[2, 0, 0]]
    members = mech.Rows(mech.ImuSample, np.zeros((4, 2, 5, 3)), [0.0] * 4)
    assert members[0].gyro.shape == members[3].accel.shape == (5, 3)
