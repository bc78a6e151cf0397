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
bias part is additive (delta_b = b_true - b_hat for every variant). For the
local-frame (NED) variants the position slot of the retraction is carried to
the geodetic nominal through the local chart: the ECEF position moves by the
estimate-frame-resolved slot displacement. ``error_state`` applies the exact
inverse map, so retraction followed by error extraction is the identity (up
to the double-precision floor of earth-radius coordinates, ~1e-9 m).
"""

from dataclasses import dataclass

import numpy as np

from liese_nav import earth, mechanization as mech
from liese_nav.errormodels import (
    error_dynamics,
    measurement_left_invariant,
    measurement_se23,
)
from liese_nav.errors import IncompatibleMode, InnovationGateExceeded
from liese_nav.liegroup import GroupElement, cross, exp_se23, log_se23
from liese_nav.mechanization import ImuSample, NavStateECEF, NavStateNED
from liese_nav.sensors import BiasState, ImuNoiseParams

# chi-square 0.999 quantile with 3 degrees of freedom, chi2.ppf(0.999, 3);
# a literal, so that importing the filter does not need scipy
GATE_THRESHOLD = 16.26623619623813

MODES = ("se23", "invariant")


@dataclass
class FilterState:
    variant: object  # errormodels.Variant
    nav: object  # NavStateNED or NavStateECEF (earth-convention velocity)
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


def embed(variant, nav):
    """Own-frame SE2(3) embedding of a navigation state."""
    if variant.frame in ("NED", "NED_Aux"):
        lat, _, h = nav.geo
        rho = earth.position_vector_n(lat, h)
        v = nav.v_n.copy()
        if variant.frame == "NED_Aux":
            v = v + cross(earth.earth_rate_n(lat), rho)
        return GroupElement(nav.c_bn.copy(), v, rho)
    v = nav.v.copy()
    if variant.frame in ("ECEF_Inertial", "ECEF_Aux"):
        v = v + cross(earth.earth_rate_e(), nav.r)
    return GroupElement(nav.c_be.copy(), v, nav.r.copy())


def _compose_error(error_def, x_true, x_est):
    if error_def == "RightTrue":
        return x_true.compose(x_est.inverse())
    if error_def == "RightEst":
        return x_est.compose(x_true.inverse())
    if error_def == "LeftTrue":
        return x_true.inverse().compose(x_est)
    return x_est.inverse().compose(x_true)  # LeftEst


def _true_from_error(error_def, x_est, eta):
    if error_def == "RightTrue":
        return eta.compose(x_est)
    if error_def == "RightEst":
        return eta.inverse().compose(x_est)
    if error_def == "LeftTrue":
        return x_est.compose(eta.inverse())
    return x_est.compose(eta)  # LeftEst


def error_state(variant, true_nav, true_bias, est_nav, est_bias):
    """15-vector error of (true, estimate) in the variant's coordinates.

    For the NED frames the position slot is the estimate-frame-resolved ECEF
    displacement (the full-rank local chart); attitude and velocity compare
    each state's own resolved triples.
    """
    x_true = embed(variant, true_nav)
    x_est = embed(variant, est_nav)
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = est_nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        d_e = earth.llh_to_ecef(*true_nav.geo) - earth.llh_to_ecef(*est_nav.geo)
        x_true = GroupElement(x_true.R, x_true.v, x_est.p + c_en @ d_e)
    eta = _compose_error(variant.error_def, x_true, x_est)
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
    x_est = embed(variant, nav)
    x_new = _true_from_error(variant.error_def, x_est, exp_se23(dx[:9]))
    c_new = mech.orthonormalize(x_new.R)
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = nav.geo
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        r_e = earth.llh_to_ecef(*nav.geo) + c_ne @ (x_new.p - x_est.p)
        geo = np.array(earth.ecef_to_llh(r_e))
        v = x_new.v
        if variant.frame == "NED_Aux":
            rho = earth.position_vector_n(geo[0], geo[2])
            v = v - cross(earth.earth_rate_n(geo[0]), rho)
        return NavStateNED(c_new, v.copy(), geo), new_bias
    v = x_new.v
    if variant.frame in ("ECEF_Inertial", "ECEF_Aux"):
        v = v - cross(earth.earth_rate_e(), x_new.p)
    return NavStateECEF(c_new, v.copy(), x_new.p.copy()), new_bias


# ---------------------------------------------------------------------------
# discretization / prediction
# ---------------------------------------------------------------------------


def discretize(f, g, qc, dt):
    """Second-order transition matrix and trapezoidal process noise.

    Phi = I + F dt + F^2 dt^2/2; Qd = (Phi G Qc G' Phi' + G Qc G') dt / 2,
    symmetrized. ``qc`` may be a 12-vector of PSD diagonals or a full 12x12
    PSD matrix.
    """
    qc = np.asarray(qc, dtype=float)
    phi = np.eye(15) + f * dt + (f @ f) * (0.5 * dt * dt)
    # scaling the columns of G equals G @ diag(qc) entry for entry
    gq = (g * qc if qc.ndim == 1 else g @ qc) @ g.T
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
    if fs.variant.frame in ("NED", "NED_Aux"):
        nav = mech.ned_step(fs.nav, sample, dt)
        nav.c_bn = mech.orthonormalize(nav.c_bn)
    else:
        nav = mech.ecef_step(fs.nav, sample, dt)
        nav.c_be = mech.orthonormalize(nav.c_be)
    phi_g = 1.0 if noise.tau_g is None else np.exp(-dt / noise.tau_g)
    phi_a = 1.0 if noise.tau_a is None else np.exp(-dt / noise.tau_a)
    bias = BiasState(phi_g * fs.bias.gyro, phi_a * fs.bias.accel)
    p = phi @ fs.p @ phi.T + qd
    p = 0.5 * (p + p.T)
    return FilterState(fs.variant, nav, bias, p, fs.t + dt), phi


# ---------------------------------------------------------------------------
# measurement update
# ---------------------------------------------------------------------------


def _innovation_nav(nav, variant, fix):
    """Innovation (measured - predicted antenna position) and its covariance,
    resolved in the variant's navigation frame."""
    l = fix.lever_arm_b
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        pred = earth.llh_to_ecef(*nav.geo) + c_en.T @ (nav.c_bn @ l)
        return c_en @ (fix.pos - pred), c_en @ fix.r @ c_en.T
    pred = nav.r + nav.c_be @ l
    return fix.pos - pred, fix.r


def update(fs, fix, mode="se23", gate=False):
    """GNSS position update; returns (FilterState, UpdateReport)."""
    if mode not in MODES:
        raise IncompatibleMode(f"unknown filter mode {mode!r}")
    variant = fs.variant
    z, r_eff = _innovation_nav(fs.nav, variant, fix)
    if mode == "invariant":
        h, m = measurement_left_invariant(variant, fs.nav, fix.lever_arm_b)
        z = m @ z
        r_eff = m @ r_eff @ m.T
    else:
        h = measurement_se23(variant, fs.nav, fix.lever_arm_b)
    p = fs.p
    s = h @ p @ h.T + r_eff
    nis = float(z @ np.linalg.solve(s, z))
    if gate and nis > GATE_THRESHOLD:
        raise InnovationGateExceeded(
            f"NIS {nis:.2f} exceeds chi-square gate {GATE_THRESHOLD:.2f} "
            f"at t={fix.t}"
        )
    k = np.linalg.solve(s, h @ p).T
    dx = k @ z
    nav, bias = apply_correction(variant, fs.nav, fs.bias, dx)
    ikh = np.eye(15) - k @ h
    p_new = ikh @ p @ ikh.T + k @ r_eff @ k.T
    p_new = 0.5 * (p_new + p_new.T)
    out = FilterState(variant, nav, bias, p_new, fs.t)
    return out, UpdateReport(z=z, s=s, k=k, nis=nis, dx=dx)
