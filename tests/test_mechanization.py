"""Strapdown propagation checks driven by exact synthetic IMU."""

import numpy as np
import pytest

from liese_nav import earth, mechanization as mech
from liese_nav.simulator import TrajectorySpec, TruthGenerator

ORIGIN = np.array([0.7, 0.2, 120.0])


def propagate_ned(state, samples, dt):
    for s in samples:
        state = mech.ned_step(state, s, dt)
        state.c_bn = mech.orthonormalize(state.c_bn)
    return state


def propagate_ecef(state, samples, dt, convention="earth"):
    for s in samples:
        state = mech.ecef_step(state, s, dt, convention=convention)
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
    state = gen.state_ned(0.0)
    out = propagate_ned(state, samples, dt)
    assert position_error_m(out, gen.state_ned(10.0)) < 1e-6
    assert np.linalg.norm(out.v_n) < 1e-7


def test_circle_closure_ned():
    # [DERIVED] 60 s circle tracked within 1e-3 m at dt = 0.005
    spec = TrajectorySpec("circle", ORIGIN, speed=15.0, radius=200.0, heading0=0.5)
    gen = TruthGenerator(spec)
    dt = 0.005
    samples = gen.synthesize_imu(60.0, dt)
    out = propagate_ned(gen.state_ned(0.0), samples, dt)
    truth = gen.state_ned(60.0)
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
    out_ned = propagate_ned(gen.state_ned(0.0), samples, dt)
    out_ecef = propagate_ecef(gen.state_ecef(0.0), samples, dt)
    d = earth.llh_to_ecef(*out_ned.geo) - out_ecef.r
    assert np.linalg.norm(d) < 1e-3


def test_cross_convention_consistency():
    # [DERIVED] earth-relative and inertial ECEF forms agree within 1e-6 m
    # over 10 s
    spec = TrajectorySpec("circle", ORIGIN, speed=12.0, radius=300.0)
    gen = TruthGenerator(spec)
    dt = 0.005
    samples = gen.synthesize_imu(10.0, dt)
    s0 = gen.state_ecef(0.0)
    out_earth = propagate_ecef(s0.copy(), samples, dt, convention="earth")
    w_ie = earth.earth_rate_e()
    s0_in = mech.NavStateECEF(s0.c_be.copy(), s0.v + np.cross(w_ie, s0.r), s0.r.copy())
    out_in = propagate_ecef(s0_in, samples, dt, convention="inertial")
    assert np.linalg.norm(out_earth.r - out_in.r) < 1e-6
    v_back = out_in.v - np.cross(w_ie, out_in.r)
    assert np.linalg.norm(out_earth.v - v_back) < 1e-7


def test_zero_gravity_hook():
    # with g = 0 and no specific force, velocity only feels Coriolis terms
    state = mech.NavStateNED(np.eye(3), np.zeros(3), ORIGIN.copy())
    _, v_dot, _ = mech.ned_derivative(
        state, np.zeros(3), np.zeros(3), gravity_fn=lambda lat, h: np.zeros(3)
    )
    assert np.allclose(v_dot, 0.0)


def test_orthonormalize_projects():
    rng = np.random.default_rng(3)
    c = mech.orthonormalize(np.eye(3) + 1e-3 * rng.standard_normal((3, 3)))
    assert np.linalg.norm(c.T @ c - np.eye(3)) < 1e-14
    assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)


def test_pole_guard():
    state = mech.NavStateNED(
        np.eye(3), np.zeros(3), np.array([np.pi / 2 - 1e-9, 0.0, 0.0])
    )
    with pytest.raises(Exception):
        mech.ned_derivative(state, np.zeros(3), np.zeros(3))


def test_straight_line_latitude_shift():
    # [DERIVED] 100 m due north from the equator shifts latitude by
    # 100/(R_M+h) within 1e-9 relative
    origin = np.array([0.0, 0.1, 50.0])
    spec = TrajectorySpec("straight", origin, speed=10.0, heading0=0.0)
    gen = TruthGenerator(spec)
    truth = gen.state_ned(10.0)  # 100 m north
    rm, _ = earth.radii(0.0)
    expected = 100.0 / (rm + 50.0)
    assert truth.geo[0] == pytest.approx(expected, rel=1e-9)
