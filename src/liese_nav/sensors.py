"""IMU error models: white noise plus Gauss-Markov or random-constant biases.

Continuous-time model::

    gyro_meas  = gyro  + b_g + w_g      w_g ~ N(0, sigma_g^2) (PSD)
    accel_meas = accel + b_a + w_a      w_a ~ N(0, sigma_a^2) (PSD)
    b_dot = -b / tau + w_b              (Gauss-Markov, tau finite)
    b_dot = 0                           (random constant, tau = None)

White-noise densities are per sqrt(Hz); sampling at interval dt scales the
per-sample standard deviation by 1/sqrt(dt).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ImuNoiseParams:
    sigma_g: float = 0.0  # rad/s/sqrt(Hz)
    sigma_a: float = 0.0  # m/s^2/sqrt(Hz)
    sigma_bg: float = 0.0  # rad/s/sqrt(s), bias driving noise
    sigma_ba: float = 0.0  # m/s^2/sqrt(s)
    tau_g: float | None = 3600.0  # s; None = random constant
    tau_a: float | None = 3600.0

    def q_diag(self):
        """Continuous-time PSD diagonal for (w_g, w_a, w_bg, w_ba)."""
        return np.array(
            [self.sigma_g**2, self.sigma_a**2, self.sigma_bg**2, self.sigma_ba**2]
        ).repeat(3)


@dataclass
class BiasState:
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def copy(self):
        return BiasState(self.gyro.copy(), self.accel.copy())


def discretize_bias(tau, sigma_b, dt):
    """Exact discretization of one bias axis.

    Returns (phi, q) with b_{k+1} = phi * b_k + w, w ~ N(0, q).
    """
    if tau is None:
        return 1.0, sigma_b**2 * dt
    phi = np.exp(-dt / tau)
    q = 0.5 * sigma_b**2 * tau * (1.0 - np.exp(-2.0 * dt / tau))
    return phi, q


def simulate_biases(params, n_steps, dt, rng, initial=None):
    """Sample a bias trajectory with the exact discrete transition; returns
    one (n_steps, 2, 3) array of the (gyro, accel) bias at each step.

    The driving noise of all steps is drawn in one call, in the order of
    one gyro and one accel triple per step; the recursion runs step by step,
    one component at a time in Python floats: b = phi * b + w, the same IEEE
    operations as on arrays, without an array call per step.
    """
    state = initial if initial is not None else BiasState()
    phi_g, q_g = discretize_bias(params.tau_g, params.sigma_bg, dt)
    phi_a, q_a = discretize_bias(params.tau_a, params.sigma_ba, dt)
    phi = [float(phi_g)] * 3 + [float(phi_a)] * 3
    drive = np.array([[np.sqrt(q_g)], [np.sqrt(q_a)]]) * rng.standard_normal(
        (n_steps, 2, 3)
    )
    start = np.array([state.gyro, state.accel], dtype=float).reshape(6).tolist()
    drive, out = drive.reshape(n_steps, 6), np.empty((n_steps, 6))
    for j, (p, b) in enumerate(zip(phi, start)):
        track = []
        for w in drive[:, j].tolist():
            track.append(b)
            b = p * b + w
        out[:, j] = track
    return out.reshape(n_steps, 2, 3)


def corrupt(samples, biases, params, dt, rng):
    """Apply bias and white noise to a clean IMU stream: ``samples``,
    ``biases`` and the result are (n, 2, 3) arrays of (gyro, accel)."""
    scale = np.array([[params.sigma_g], [params.sigma_a]]) / np.sqrt(dt)
    noise = scale * rng.standard_normal((len(samples), 2, 3))
    return samples + biases + noise
