"""Truth generator: analytic closure, inverse-mechanization consistency,
GNSS synthesis, and input validation."""

import numpy as np
import pytest

from liese_nav import earth, mechanization as mech
from liese_nav.errors import ConfigError, NonMonotoneTime
from liese_nav.simulator import TrajectorySpec, TruthGenerator

from oracles import imu_instantaneous

ORIGIN = np.array([0.7, -1.2, 300.0])


def test_bad_kind_rejected():
    # [TRIVIAL]
    with pytest.raises(ConfigError):
        TrajectorySpec("spiral", ORIGIN)
    with pytest.raises(ConfigError):
        TrajectorySpec("circle", ORIGIN, speed=0.0, radius=100.0)
    with pytest.raises(ConfigError):
        TrajectorySpec("circle", ORIGIN, speed=10.0, radius=-1.0)


def test_circle_closes_exactly():
    # [DERIVED: analytic curve] one full lap returns to the start bitwise
    # up to trig roundoff, because the curve is exact in the tangent plane
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=12.0, radius=150.0, heading0=0.3)
    )
    period = 2.0 * np.pi * 150.0 / 12.0
    s0, s1 = gen.state_ecef(0.0), gen.state_ecef(period)
    assert np.max(np.abs(s1.r - s0.r)) <= 1e-6
    assert np.max(np.abs(s1.v - s0.v)) <= 1e-9
    assert np.max(np.abs(s1.c_be - s0.c_be)) <= 1e-12


def test_figure_eight_closes():
    # [DERIVED: analytic curve]
    gen = TruthGenerator(
        TrajectorySpec("figure_eight", ORIGIN, amplitude=200.0, period=40.0)
    )
    s0, s1 = gen.state_ecef(0.0), gen.state_ecef(40.0)
    assert np.max(np.abs(s1.r - s0.r)) <= 1e-6
    assert np.max(np.abs(s1.v - s0.v)) <= 1e-9


def test_stationary_imu_is_earth_rate_and_reaction():
    # [DERIVED: closed form] a body at rest senses the earth rate and the
    # specific-force reaction to gravity
    gen = TruthGenerator(TrajectorySpec("stationary", ORIGIN, heading0=0.9))
    gyro, accel = imu_instantaneous(gen, 5.0)
    s = gen.state_ecef(5.0)
    assert np.max(np.abs(gyro - s.c_be.T @ earth.W_IE_E)) <= 1e-15
    assert np.max(np.abs(accel + s.c_be.T @ earth.gravity_e(s.r))) <= 1e-12


def test_imu_integrates_back_to_truth():
    # [DERIVED: inverse mechanization] integrating the synthesized IMU
    # through the strapdown equations reproduces the analytic truth
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=15.0, radius=250.0, heading0=0.4)
    )
    dt, duration = 0.005, 20.0
    state = gen.state_ecef(0.0)
    for imu in gen.synthesize_imu(duration, dt):
        state = mech.ecef_step(state, imu, dt)
    truth = gen.state_ecef(duration)
    assert np.linalg.norm(state.r - truth.r) <= 5e-4
    assert np.linalg.norm(state.v - truth.v) <= 5e-4
    assert np.max(np.abs(state.c_be - truth.c_be)) <= 1e-6


def test_gnss_lever_arm_and_noise():
    # [DERIVED: closed form] zero-noise fixes sit exactly at the rotated
    # lever arm off the truth; noisy fixes scatter with the requested sigma
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=10.0, radius=100.0)
    )
    lever = np.array([0.4, -0.2, 1.1])
    times = np.arange(1.0, 11.0)

    class ZeroRng:
        def standard_normal(self, n):
            return np.zeros(n)

    for fix in gen.sample_gnss(times, lever, 1.5, ZeroRng()):
        s = gen.state_ecef(fix.t)
        assert np.max(np.abs(fix.pos - (s.r + s.c_be @ lever))) <= 1e-9
        assert np.array_equal(fix.r, 1.5**2 * np.eye(3))
        assert fix.lever_arm_b is lever

    rng = np.random.default_rng(11)
    many = np.arange(1.0, 2001.0)
    devs = [
        fix.pos - (gen.state_ecef(fix.t).r + gen.state_ecef(fix.t).c_be @ lever)
        for fix in gen.sample_gnss(many, lever, 1.5, rng)
    ]
    assert abs(np.std(devs) - 1.5) <= 0.1


def test_non_monotone_times_rejected():
    # [TRIVIAL]
    gen = TruthGenerator(TrajectorySpec("stationary", ORIGIN))
    rng = np.random.default_rng(0)
    with pytest.raises(NonMonotoneTime):
        gen.sample_gnss([1.0, 1.0, 2.0], np.zeros(3), 1.0, rng)
    with pytest.raises(NonMonotoneTime):
        gen.sample_gnss([2.0, 1.0], np.zeros(3), 1.0, rng)
