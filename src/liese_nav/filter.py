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
    noise_map,
)
from liese_nav.errors import IncompatibleMode
from liese_nav.liegroup import (
    exp_se23, left_jacobian_inv, log_se23, matvec, so3_log,
)
from liese_nav.mechanization import ImuSample, stack_states, state_at
from liese_nav.sensors import BiasState

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

    @staticmethod
    def stack(states):
        """One stacked state of members at one time: nav, bias and P gain a
        leading axis of len(states) members."""
        first = states[0]
        return FilterState(
            first.variant,
            stack_states([fs.nav for fs in states]),
            stack_states([fs.bias for fs in states]),
            np.stack([fs.p for fs in states]),
            first.t,
        )

    def members(self):
        """The members of a stacked state, as views of their own."""
        return [
            FilterState(
                self.variant, state_at(self.nav, k), state_at(self.bias, k), p, self.t
            )
            for k, p in enumerate(self.p)
        ]


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


def error_states(variant, true_nav, true_bias, est_nav, est_bias):
    """:func:`error_state` of N epochs at once: stacked states and biases
    (``mechanization.stack_states``) give an (N, 15) array.

    Each row equals its single call bit for bit: every product is the BLAS
    call the single group operations make (``matvec``, stacked ``@``, a
    transpose as a swapped-axes view), and the logarithm's stacked forms
    take each row's branch.
    """
    x_true, x_est = variant.chart.embed_pairs(true_nav, est_nav, variant.aux_velocity)
    a, b = (x_est, x_true) if variant.inverts_true else (x_true, x_est)
    (ra, va, pa), (rb, vb, pb) = (map(np.ascontiguousarray, x) for x in (a, b))
    rt = np.swapaxes(rb, -1, -2)
    v_inv, p_inv = -matvec(rt, vb), -matvec(rt, pb)  # b^-1 = (R', -R'v, -R'p)
    if variant.is_right:  # eta = a b^-1
        rot, vel, pos = ra @ rt, matvec(ra, v_inv) + va, matvec(ra, p_inv) + pa
    else:  # eta = b^-1 a
        rot, vel, pos = rt @ ra, matvec(rt, va) + v_inv, matvec(rt, pa) + p_inv
    phi = so3_log(rot)
    jinv = left_jacobian_inv(phi)
    return np.concatenate(
        [
            phi,
            matvec(jinv, vel),
            matvec(jinv, pos),
            true_bias.gyro - est_bias.gyro,
            true_bias.accel - est_bias.accel,
        ],
        axis=1,
    )


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


def noise_cov(g, qc):
    """G Qc G', ``qc`` the 12-vector of PSD diagonals
    (``ImuNoiseParams.q_diag()``); scaling the columns of G equals
    G @ diag(qc) entry for entry."""
    return (g * qc) @ g.T


class RunConstants:
    """What ``predict`` needs besides the state and the sample, fixed for a
    run and built once: the step, the bias time constants, the PSD diagonals
    ``noise.q_diag()``, the bias decays exp(-dt / tau) over one step and,
    for a left error, whose G no nominal enters, G (read-only) and G Qc G'
    (both None for a right error, whose G follows the estimate). Each
    equals its per-step value bit for bit."""

    def __init__(self, variant, noise, dt):
        self.dt = dt
        self.tau_g, self.tau_a = noise.tau_g, noise.tau_a
        self.qc = noise.q_diag()
        self.decay_g = 1.0 if noise.tau_g is None else np.exp(-dt / noise.tau_g)
        self.decay_a = 1.0 if noise.tau_a is None else np.exp(-dt / noise.tau_a)
        self.g = self.gq = None
        if not variant.is_right:
            self.g = noise_map(variant)
            self.g.flags.writeable = False
            self.gq = noise_cov(self.g, self.qc)


def discretize(f, gq, dt):
    """Second-order transition matrix and trapezoidal process noise.

    Phi = I + F dt + F^2 dt^2/2; Qd = (Phi GQG' Phi' + GQG') dt / 2,
    symmetrized, with ``gq`` = G Qc G' (:func:`noise_cov`). An (N, 15, 15)
    stack of F gives stacks of Phi and Qd, each equal to its single call.
    """
    phi = _I15 + f * dt + (f @ f) * (0.5 * dt * dt)
    qd = 0.5 * dt * (phi @ gq @ phi.swapaxes(-1, -2) + gq)
    return phi, 0.5 * (qd + qd.swapaxes(-1, -2))


def predict(fs, imu, run):
    """Advance nominal and covariance over one IMU interval; ``run`` holds
    the run's constants (:class:`RunConstants`).

    Returns ``(FilterState, Phi)``; the transition matrix is exposed so a
    driver can accumulate it between updates for smoothing. For a
    ``Variant.lockstep`` variant, a stacked state (nav, bias and P with a
    leading axis of N members) and a sample with (N, 3) rates advance as
    one stack, each member equal to its single predict bit for bit.
    """
    gyro = imu.gyro - fs.bias.gyro
    accel = imu.accel - fs.bias.accel
    f, g = error_dynamics(
        fs.variant, fs.nav, gyro, accel, tau_g=run.tau_g, tau_a=run.tau_a, g=run.g
    )
    gq = noise_cov(g, run.qc) if run.gq is None else run.gq
    phi, qd = discretize(f, gq, run.dt)
    sample = ImuSample(imu.t, gyro, accel)
    # per-step SVD: projecting only on drift moved golden outputs by 2e-8 m
    nav = fs.variant.chart.step(fs.nav, sample, run.dt)
    bias = BiasState(run.decay_g * fs.bias.gyro, run.decay_a * fs.bias.accel)
    p = phi @ fs.p @ phi.swapaxes(-1, -2) + qd
    p = 0.5 * (p + p.swapaxes(-1, -2))
    return FilterState(fs.variant, nav, bias, p, fs.t + run.dt), phi


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
