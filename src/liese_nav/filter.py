"""SE2(3)-based error-state EKF: discretization, prediction, GNSS update.

The filter propagates a nominal navigation state through the strapdown
mechanization and a 15-dimensional error covariance (attitude, velocity,
position, gyro bias, accel bias) through the variant's linearized error
dynamics. Updates are closed-loop: the estimated error is fed back into the
nominal by the variant's group retraction and the error state is reset to
zero.

Error coordinates and retraction
--------------------------------
The group part of a correction is applied on the side dictated by the
variant's error definition (left- or right-multiplication by exp(xi)); the
bias part is additive (delta_b = b_true - b_hat for every variant). The
variant's chart (``errormodels.NedChart`` or ``EcefChart``) carries the
group element back to a navigation state; ``error_state`` applies the exact
inverse map, so retraction followed by error extraction is the identity (up
to the double-precision floor of earth-radius coordinates, ~1e-9 m).
"""

from dataclasses import dataclass

import numpy as np

from liese_nav.errormodels import (
    error_dynamics,
    measurement_left_invariant,
    measurement_se23,
)
from liese_nav.errors import IncompatibleMode
from liese_nav.liegroup import exp_se23, log_se23
from liese_nav.mechanization import ImuSample
from liese_nav.sensors import BiasState, ImuNoiseParams

MODES = ("se23", "invariant")

# one shared identity, read-only so that no caller can modify it
_I15 = np.eye(15)
_I15.flags.writeable = False


@dataclass
class FilterState:
    variant: object  # errormodels.Variant
    nav: object  # NavStateNED or NavStateECEF (earth-relative velocity)
    bias: BiasState
    p: np.ndarray  # 15x15 error covariance
    t: float

    def copy(self):
        return FilterState(
            self.variant, self.nav.copy(), self.bias.copy(), self.p.copy(), self.t
        )


@dataclass
class GnssFix:
    t: float
    pos: np.ndarray  # antenna position, ECEF (m)
    r: np.ndarray  # 3x3 measurement covariance, ECEF (m^2)
    lever_arm_b: np.ndarray  # body-frame antenna offset (m)


@dataclass
class UpdateReport:
    z: np.ndarray  # innovation (measurement frame of the chosen mode)
    s: np.ndarray  # innovation covariance
    k: np.ndarray  # gain
    nis: float
    dx: np.ndarray  # estimated error state fed back into the nominal


# ---------------------------------------------------------------------------
# error coordinates: embedding, composition, retraction
# ---------------------------------------------------------------------------


def _compose_error(variant, x_true, x_est):
    """eta = A B^-1 (right) or B^-1 A (left); B is the state inverted."""
    a, b = (x_est, x_true) if variant.inverts_true else (x_true, x_est)
    return a.compose(b.inverse()) if variant.is_right else b.inverse().compose(a)


def _true_from_error(variant, x_est, eta):
    """The true state whose error against x_est is eta."""
    eta = eta.inverse() if variant.inverts_true else eta
    return eta.compose(x_est) if variant.is_right else x_est.compose(eta)


def error_state(variant, true_nav, true_bias, est_nav, est_bias):
    """15-vector error of (true, estimate) in the variant's coordinates.

    For the NED frames the position slot is the estimate-frame-resolved ECEF
    displacement (the full-rank local chart); attitude and velocity compare
    each state's own resolved triples.
    """
    x_true, x_est = variant.chart.embed_pair(true_nav, est_nav, variant.aux_velocity)
    eta = _compose_error(variant, x_true, x_est)
    db = np.concatenate(
        [true_bias.gyro - est_bias.gyro, true_bias.accel - est_bias.accel]
    )
    return np.concatenate([log_se23(eta), db])


def apply_correction(variant, nav, bias, dx):
    """Retract an estimated error into the nominal (closed-loop feedback).

    Defined as the exact inverse of :func:`error_state`: after the
    correction, the represented error is zero.
    """
    new_bias = BiasState(bias.gyro + dx[9:12], bias.accel + dx[12:15])
    if not np.any(dx[:9]):
        return nav.copy(), new_bias
    chart, aux = variant.chart, variant.aux_velocity
    x_est = chart.embed(nav, aux)
    x_new = _true_from_error(variant, x_est, exp_se23(dx[:9]))
    return chart.retract(nav, x_est, x_new, aux), new_bias


# ---------------------------------------------------------------------------
# discretization / prediction
# ---------------------------------------------------------------------------


def discretize(f, g, qc, dt):
    """Second-order transition matrix and trapezoidal process noise.

    Phi = I + F dt + F^2 dt^2/2; Qd = (Phi G Qc G' Phi' + G Qc G') dt / 2,
    symmetrized. ``qc`` is the 12-vector of PSD diagonals
    (``ImuNoiseParams.q_diag()``).
    """
    phi = _I15 + f * dt + (f @ f) * (0.5 * dt * dt)
    # scaling the columns of G equals G @ diag(qc) entry for entry
    gq = (g * qc) @ g.T
    qd = 0.5 * dt * (phi @ gq @ phi.T + gq)
    return phi, 0.5 * (qd + qd.T)


def predict(fs, imu, dt, noise=None):
    """Advance nominal and covariance over one IMU interval.

    Returns ``(FilterState, Phi)``; the transition matrix is exposed so a
    driver can accumulate it between updates for smoothing.
    """
    noise = noise or ImuNoiseParams()
    gyro = imu.gyro - fs.bias.gyro
    accel = imu.accel - fs.bias.accel
    f, g = error_dynamics(
        fs.variant, fs.nav, gyro, accel, tau_g=noise.tau_g, tau_a=noise.tau_a
    )
    phi, qd = discretize(f, g, noise.q_diag(), dt)
    sample = ImuSample(imu.t, gyro, accel)
    # per-step SVD: projecting only on drift moved golden outputs by 2e-8 m
    nav = fs.variant.chart.step(fs.nav, sample, dt)
    phi_g = 1.0 if noise.tau_g is None else np.exp(-dt / noise.tau_g)
    phi_a = 1.0 if noise.tau_a is None else np.exp(-dt / noise.tau_a)
    bias = BiasState(phi_g * fs.bias.gyro, phi_a * fs.bias.accel)
    p = phi @ fs.p @ phi.T + qd
    p = 0.5 * (p + p.T)
    return FilterState(fs.variant, nav, bias, p, fs.t + dt), phi


# ---------------------------------------------------------------------------
# measurement update
# ---------------------------------------------------------------------------


def update(fs, fix, mode="se23"):
    """GNSS position update; returns (FilterState, UpdateReport)."""
    if mode not in MODES:
        raise IncompatibleMode(f"unknown filter mode {mode!r}")
    variant = fs.variant
    z, r_eff = variant.chart.innovation(fs.nav, fix)
    if mode == "invariant":
        h, m = measurement_left_invariant(variant, fs.nav, fix.lever_arm_b)
        z = m @ z
        r_eff = m @ r_eff @ m.T
    else:
        h = measurement_se23(variant, fs.nav, fix.lever_arm_b)
    p = fs.p
    s = h @ p @ h.T + r_eff
    nis = float(z @ np.linalg.solve(s, z))
    k = np.linalg.solve(s, h @ p).T
    dx = k @ z
    nav, bias = apply_correction(variant, fs.nav, fs.bias, dx)
    ikh = _I15 - k @ h
    p_new = ikh @ p @ ikh.T + k @ r_eff @ k.T
    p_new = 0.5 * (p_new + p_new.T)
    out = FilterState(variant, nav, bias, p_new, fs.t)
    return out, UpdateReport(z=z, s=s, k=k, nis=nis, dx=dx)
