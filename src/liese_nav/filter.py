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

import functools
import math
from dataclasses import dataclass

import numpy as np

from liese_nav.errormodels import (
    error_dynamics,
    measurement_left_invariant,
    measurement_se23,
    noise_map,
)
from liese_nav.errors import IncompatibleMode
from liese_nav.liegroup import exp_se23, log_se23
from liese_nav.mechanization import stack_states, state_at
from liese_nav.sensors import BiasState

MODES = ("se23", "invariant")

try:
    # the LAPACK gufuncs np.linalg.solve calls, without the wrapper's checks
    # and errstate, which cost more than the 3x3 solves themselves; a
    # singular system gives NaN there, where np.linalg.solve raises
    from numpy.linalg import _umath_linalg

    _solve = functools.partial(_umath_linalg.solve, signature="dd->d")
    _solve_vec = functools.partial(_umath_linalg.solve1, signature="dd->d")
except ImportError:  # a private module: fall back to the public call
    _solve = _solve_vec = np.linalg.solve

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
        leading axis of len(states) members. One member stays unstacked: its
        stacked forward pass took 1.37x the time (BENCH_16.json)."""
        first = states[0]
        if len(states) == 1:
            return first
        return FilterState(
            first.variant,
            stack_states([fs.nav for fs in states]),
            stack_states([fs.bias for fs in states]),
            np.stack([fs.p for fs in states]),
            first.t,
        )

    def members(self):
        """The members of a stacked state, as views of their own; an
        unstacked state is its own one member."""
        if self.p.ndim == 2:
            return [self]
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
    """15-vector error of (true, estimate) in the variant's coordinates;
    stacked states and biases (``mechanization.stack_states``) of N epochs
    give an (N, 15) array whose rows equal their single calls bit for bit.

    For the NED frames the position slot is the estimate-frame-resolved ECEF
    displacement (the full-rank local chart); attitude and velocity compare
    each state's own resolved triples.
    """
    x_true, x_est = variant.chart.embed_pairs(true_nav, est_nav, variant.aux_velocity)
    eta = _compose_error(variant, x_true, x_est)
    return np.concatenate(
        [
            log_se23(eta),
            true_bias.gyro - est_bias.gyro,
            true_bias.accel - est_bias.accel,
        ],
        axis=-1,
    )


def apply_correction(variant, nav, bias, dx):
    """Retract an estimated error into the nominal (closed-loop feedback).

    Defined as the exact inverse of :func:`error_state`: after the
    correction, the represented error is zero.
    """
    new_bias = BiasState(bias.gyro + dx[9:12], bias.accel + dx[12:15])
    if not dx[:9].any():
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
    G @ diag(qc) entry for entry. A stack of G gives a stack."""
    return (g * qc) @ g.swapaxes(-1, -2)


class RunConstants:
    """What ``predict`` needs besides the state and the sample, fixed for a
    run and built once: the step, the bias time constants, the PSD diagonals
    ``noise.q_diag()``, the (gyro, accel) bias decays exp(-dt / tau) over
    one step as one array and, for a left error, whose G no nominal enters,
    G (read-only) and G Qc G' (both None for a right error, whose G follows
    the estimate). Each equals its per-step value bit for bit."""

    def __init__(self, variant, noise, dt):
        self.dt = dt
        self.tau_g, self.tau_a = noise.tau_g, noise.tau_a
        self.qc = noise.q_diag()
        taus = (noise.tau_g, noise.tau_a)
        self.decay = np.array([1.0 if t is None else np.exp(-dt / t) for t in taus])
        self.g = self.gq = None
        if not variant.is_right:
            self.g = noise_map(variant)
            self.g.flags.writeable = False
            self.gq = noise_cov(self.g, self.qc)


def discretize(f, gq, dt):
    """Second-order transition matrix and trapezoidal process noise.

    Phi = I + F dt + F^2 dt^2/2; Qd = (Phi GQG' Phi' + GQG') dt / 2,
    symmetrized, with ``gq`` = G Qc G' (:func:`noise_cov`). A stack of F
    (leading axes before the 15 x 15), with one ``gq`` or a stack alike,
    gives stacks of Phi and Qd, each equal to its single call.
    """
    phi = _I15 + f * dt + (f @ f) * (0.5 * dt * dt)
    qd = 0.5 * dt * (phi @ gq @ phi.swapaxes(-1, -2) + gq)
    return phi, 0.5 * (qd + qd.swapaxes(-1, -2))


def predict(fs, imu, run, phi_acc=_I15):
    """Advance nominal and covariance over a leg: ``imu`` holds the raw
    (gyro, accel) rates of one or more IMU epochs as a (T, 2, 3) array, and
    ``run`` holds the run's constants (:class:`RunConstants`).

    Returns ``(FilterState, Phi_acc)``: the state after the leg and the
    leg's transition matrices multiplied onto ``phi_acc``, step by step, so
    the forward pass can accumulate them between updates for smoothing. A
    leg of T steps equals T legs of one bit for bit. A stacked state (nav,
    bias and P with a leading axis of N members) and a (T, 2, N, 3) leg
    advance as one stack, each member equal to its single predict bit for
    bit.

    Three passes: the variant's chart steps the nominal through the whole
    leg (``leg``) on the bias-corrected rates, formed in one subtraction,
    and hands back the stacked pre-step nominals; the linearizations at
    those nominals are built and discretized for the whole leg, since a
    variant's F reads only the nominal and the rates, never P; then P and
    Phi_acc are carried through the leg.
    Raises ``numpy.linalg.LinAlgError`` if P holds a NaN or an infinity at
    the end of the leg.
    """
    variant, dt = fs.variant, run.dt
    biases = _bias_track(fs.bias, len(imu), run)
    rates = imu - biases[:-1]
    nominals, nav = variant.chart.leg(fs.nav, rates[:, 0], rates[:, 1], dt)
    phi, qd = discretize(*_linearize(variant, nominals, rates, run), dt)
    p, t = fs.p, fs.t
    for ph, q in zip(phi, qd):
        p = ph @ p @ ph.swapaxes(-1, -2) + q
        p = 0.5 * (p + p.swapaxes(-1, -2))
        phi_acc = ph @ phi_acc
        t = t + dt
    # one sum per leg: a NaN or an infinity anywhere in P makes it non-finite
    if not math.isfinite(p.sum()):
        raise np.linalg.LinAlgError(f"covariance left the finite numbers by t={t}")
    return FilterState(variant, nav, BiasState(*biases[-1]), p, t), phi_acc


def _bias_track(bias, steps, run):
    """The (gyro, accel) bias estimate at each step of a leg and after it,
    as a (steps + 1, 2, 3) array, or (steps + 1, 2, N, 3) for N members:
    each step's is the step before's times the run's decay over one step,
    one multiplication per step, as the filter's Gauss-Markov mean decays."""
    track = np.empty((steps + 1, 2) + bias.gyro.shape)
    track[0] = bias.gyro, bias.accel
    track[1:] = run.decay.reshape((2,) + (1,) * bias.gyro.ndim)
    return np.multiply.accumulate(track, out=track)


def _linearize(variant, nominals, rates, run):
    """(F, G Qc G') at each step's pre-step nominal and bias-corrected rates
    (``rates``, the leg's (T, 2, 3) or (T, 2, N, 3) array), as (T, 15, 15)
    stacks, or (T, N, 15, 15) for N members, from one stacked
    ``error_dynamics`` call over the leg's T (or T x N) nominals; a left
    error's G Qc G' is the run's one matrix."""
    gyro, accel = rates[:, 0], rates[:, 1]
    f, g = error_dynamics(
        variant, nominals, gyro.reshape(-1, 3), accel.reshape(-1, 3),
        tau_g=run.tau_g, tau_a=run.tau_a, g=run.g,
    )
    shape = gyro.shape[:-1] + (15, 15)
    gq = run.gq if run.gq is not None else noise_cov(g, run.qc).reshape(shape)
    return f.reshape(shape), gq


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
    hp = h @ p
    s = hp @ h.T + r_eff
    nis = float(z @ _solve_vec(s, z))
    if not math.isfinite(nis):
        raise np.linalg.LinAlgError("singular or non-finite innovation covariance")
    k = _solve(s, hp).T
    dx = k @ z
    nav, bias = apply_correction(variant, fs.nav, fs.bias, dx)
    ikh = _I15 - k @ h
    p_new = ikh @ p @ ikh.T + k @ r_eff @ k.T
    p_new = 0.5 * (p_new + p_new.T)
    out = FilterState(variant, nav, bias, p_new, fs.t)
    return out, UpdateReport(z=z, s=s, k=k, nis=nis, dx=dx)
