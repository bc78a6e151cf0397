"""Bias model statistics against analytic discretization."""

import numpy as np
import pytest

from liese_nav import sensors


def test_gm_discretization_values():
    # [DERIVED] phi = exp(-dt/tau), q = sigma^2 tau/2 (1 - exp(-2dt/tau))
    phi, q = sensors.discretize_bias(100.0, 1e-4, 0.5)
    assert phi == pytest.approx(np.exp(-0.005), rel=1e-12)
    assert q == pytest.approx(0.5 * 1e-8 * 100.0 * (1 - np.exp(-0.01)), rel=1e-12)


def test_random_constant_discretization():
    phi, q = sensors.discretize_bias(None, 2e-4, 0.1)
    assert phi == 1.0
    assert q == pytest.approx(4e-8 * 0.1, rel=1e-12)


def test_gm_stationary_variance():
    # [DERIVED] long-run variance of the exact GM recursion is sigma^2 tau / 2
    params = sensors.ImuNoiseParams(sigma_bg=2e-5, tau_g=30.0, sigma_ba=0.0)
    rng = np.random.default_rng(0)
    dt = 0.1
    traj = sensors.simulate_biases(params, 200000, dt, rng)
    values = traj[5000:, 0]
    target = params.sigma_bg**2 * params.tau_g / 2
    assert np.var(values) == pytest.approx(target, rel=0.05)


def test_random_constant_stays_fixed():
    params = sensors.ImuNoiseParams(sigma_bg=0.0, sigma_ba=0.0, tau_g=None, tau_a=None)
    rng = np.random.default_rng(1)
    init = sensors.BiasState(np.array([1e-4, -2e-4, 3e-4]), np.zeros(3))
    traj = sensors.simulate_biases(params, 100, 0.01, rng, initial=init)
    assert np.allclose(traj[-1, 0], init.gyro)


def test_corrupt_white_noise_scaling():
    # [DERIVED] per-sample sigma = density / sqrt(dt)
    params = sensors.ImuNoiseParams(sigma_g=1e-3, sigma_a=2e-3)
    dt = 0.01
    clean = np.zeros((20000, 2, 3))
    biases = np.zeros((20000, 2, 3))
    rng = np.random.default_rng(2)
    noisy = sensors.corrupt(clean, biases, params, dt, rng)
    gyros = noisy[:, 0]
    assert np.std(gyros) == pytest.approx(1e-3 / np.sqrt(dt), rel=0.02)


def test_corrupt_adds_bias():
    params = sensors.ImuNoiseParams()
    clean = np.array([[np.ones(3), np.zeros(3)]])
    biases = np.array([[[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]])
    out = sensors.corrupt(clean, biases, params, 0.01, np.random.default_rng(0))
    assert out[0, 0, 0] == pytest.approx(1.1)
    assert out[0, 1, 1] == pytest.approx(0.2)
