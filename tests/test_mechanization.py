"""Strapdown propagation checks driven by exact synthetic IMU."""

import functools

import numpy as np
import pytest

import oracles
from liese_nav import earth, mechanization as mech
from liese_nav.errors import Divergence, PoleSingularity
from liese_nav.simulator import TrajectorySpec, TruthGenerator

ORIGIN = np.array([0.7, 0.2, 120.0])


def propagate_ned(state, samples, dt):
    for gyro, accel in samples:
        state = oracles.step_state(mech.ned_step, state, gyro, accel, dt)
        state.c_bn = oracles.project(state.c_bn)
    return state


def propagate_ecef(
    state, samples, dt, step=functools.partial(oracles.step_state, mech.ecef_step)
):
    for gyro, accel in samples:
        state = step(state, gyro, accel, dt)
        state.c_be = oracles.project(state.c_be)
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
    inertial = lambda s, gyro, accel, dt: oracles.ref_ecef_step(
        s, oracles.ImuSample(0.0, gyro, accel), dt, convention="inertial"
    )
    out_in = propagate_ecef(s0_in, samples, dt, step=inertial)
    assert np.linalg.norm(out_earth.r - out_in.r) < 1e-6
    v_back = out_in.v - np.cross(w_ie, out_in.r)
    assert np.linalg.norm(out_earth.v - v_back) < 1e-7


def test_orthonormalize_projects():
    rng = np.random.default_rng(3)
    c = oracles.project(np.eye(3) + 1e-3 * rng.standard_normal((3, 3)))
    assert np.linalg.norm(c.T @ c - np.eye(3)) < 1e-14
    assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)


def test_pole_guard():
    state = mech.NavStateNED(
        np.eye(3), np.zeros(3), np.array([np.pi / 2 - 1e-9, 0.0, 0.0])
    )
    with pytest.raises(PoleSingularity):
        oracles.step_state(mech.ned_step, state, np.zeros(3), np.zeros(3), 0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.tan of an infinity
@pytest.mark.parametrize("lat", [np.nan, np.inf, -np.inf, 2.0, -np.pi / 2 - 1e-9])
def test_latitude_that_is_no_latitude_is_divergence(lat):
    # a state whose latitude left [-pi/2, pi/2] (or the numbers) diverged;
    # only a latitude within POLE_MARGIN of a pole is a pole singularity
    state = mech.NavStateNED(np.eye(3), np.zeros(3), np.array([lat, 0.0, 0.0]))
    with pytest.raises(Divergence, match="outside"):
        oracles.step_state(mech.ned_step, state, np.zeros(3), np.zeros(3), 0.01)


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
