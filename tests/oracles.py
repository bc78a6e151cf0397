"""Independent finite-difference oracles for the error-state dynamics.

The linearized matrices are checked against numerical differentiation of the
exact nonlinear flows: a perturbed "true" state is constructed from the
estimate by the variant's retraction, both states are propagated through the
full mechanization, and the time derivative of the group-log error is
compared column by column against F.

Conventions baked into the oracle (the same ones the analytic matrices use):

* For the NED-frame variants the error coordinates are the full-rank local
  chart the filter corrects in: attitude and velocity compare the literal
  own-frame triples, while the position component of the group error is the
  estimate-frame-resolved ECEF displacement between the two geodetic
  positions. Perturbed "true" states realize an error by assigning the
  group slots and carrying the position displacement to the geodetic state
  through the same chart, so every error direction (including east) is
  realizable and retraction followed by extraction is the identity.
* Per-variant gravity treatment during the flows: the NED right-error
  matrices carry an explicit vertical gravity-gradient coupling, so their
  flows use an inverse-square height model with latitude frozen at the
  nominal; every other variant linearizes around a locally constant gravity
  (or gravitation) vector, so their flows freeze that vector.
* The simplified auxiliary-velocity model additionally freezes the craft
  rate and gravitation, which makes its flow exactly linear in the embedded
  group element.
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import earth, filter as flt, mechanization as mech, smoother as smo
from liese_nav.earth import (
    EARTH_RATE,
    GRAV_EQUATOR,
    SOMIGLIANA_K,
    WGS84_A,
    WGS84_E2,
    W_IE_E,
    check_latitude,
    dcm_ecef_to_ned,
    ecef_to_llh,
)
from liese_nav.errormodels import BA, BG, PHI, RR, RV, WA, WBA, WBG, WG, error_dynamics
from liese_nav.errors import IncompatibleMode, NearPiRotation, SingularPredCov
from liese_nav.liegroup import (
    NEAR_PI_MARGIN, SMALL_ANGLE, GroupElement, _exp_coeffs, _norm, cross, exp_se23,
    log_se23, skew,
)
from liese_nav.mechanization import NavStateECEF, state_at
from liese_nav.sensors import BiasState, ImuNoiseParams, discretize_bias

TAU = 0.1  # half-width of the central time difference, seconds
# RK4 substeps over each half-window; the flows vary on ~15 s timescales,
# so a single fourth-order step over 0.1 s leaves integration error far
# below the differencing noise floor (verified against N_SUB = 4)
N_SUB = 1

# perturbation scale per error-state slot (phi, rho_v, rho_r, b_g, b_a)
SCALES = np.concatenate(
    [
        np.full(3, 1e-5),
        np.full(3, 1e-3),
        np.full(3, 1.0),
        np.full(3, 1e-5),
        np.full(3, 1e-4),
    ]
)

# absolute numerical noise floor of the extracted error, per slot; the
# position slot is dominated by double-precision cancellation on
# earth-radius ECEF coordinates and geodetic conversion round-off
SLOT_NOISE = np.concatenate(
    [
        np.full(3, 1e-13),
        np.full(3, 1e-11),
        np.full(3, 2e-8),
        np.full(3, 1e-16),
        np.full(3, 1e-16),
    ]
)

RTOL = 1e-4


def compose_error(error_def, x_true, x_est):
    if error_def == "RightTrue":
        return x_true.compose(x_est.inverse())
    if error_def == "RightEst":
        return x_est.compose(x_true.inverse())
    if error_def == "LeftTrue":
        return x_true.inverse().compose(x_est)
    return x_est.inverse().compose(x_true)  # LeftEst


def true_from_error(error_def, x_est, eta):
    """Inverse of :func:`compose_error` for the true-state factor."""
    if error_def == "RightTrue":
        return eta.compose(x_est)
    if error_def == "RightEst":
        return eta.inverse().compose(x_est)
    if error_def == "LeftTrue":
        return x_est.compose(eta.inverse())
    return x_est.compose(eta)  # LeftEst


def same_bits(a, b):
    """Exact equality that also tells -0.0 from 0.0, which repr() prints."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@dataclass
class ImuSample:
    """One IMU sample, as the reference copies below take it; the library
    takes the rates as arrays."""

    t: float
    gyro: np.ndarray  # omega_ib^b, rad/s
    accel: np.ndarray  # f_ib^b, m/s^2


def imu_samples(rates, dt, t0=0.0):
    """The ImuSamples of an (n, 2, 3) IMU stream, sample k at t0 + k * dt;
    their rates are views of the array."""
    return [ImuSample(t0 + k * dt, g, a) for k, (g, a) in enumerate(rates)]


def bias_states(track):
    """The BiasStates of an (n, 2, 3) bias track, as views of the array."""
    return [BiasState(g, a) for g, a in track]


def one_row(sample):
    """The IMU stream of one sample, as ``filter.predict`` takes a leg; (N, 3)
    rates give a one-row stream of N members."""
    return np.array([[sample.gyro, sample.accel]])


def step_state(step, state, gyro, accel, dt):
    """``step`` (``mech.ned_step`` or ``mech.ecef_step``) of a state object:
    one state packs to its row of 15 floats, stacked states to their
    (N, 15) stack, and the stepped form unpacks to the state's type."""
    x = mech._pack(state)
    x = step(x.tolist() if x.ndim == 1 else x, gyro, accel, dt)
    return type(state)(*mech._fields(np.asarray(x)))


def project(c):
    """``mech.orthonormalize`` of one (3, 3) matrix, through its row."""
    return np.array(mech.orthonormalize(c.ravel().tolist())).reshape(3, 3)


def member_state(fs, k):
    """Member k of a stacked ``filter.FilterState``, as views."""
    return flt.FilterState(
        fs.variant, state_at(fs.nav, k), state_at(fs.bias, k), fs.p[k], fs.t
    )


# ForwardRecord's fields after t, and those of them that are states
_RECORD_FIELDS = ("nav", "bias", "p_post", "phi", "p_pred", "nav_pred", "bias_pred")
_RECORD_STATES = {"nav", "bias", "nav_pred", "bias_pred"}


def member_records(records, k):
    """Member k's records, as views, from ``run_forward``'s records stacked
    over a block's members; a final record's missing prior stays
    missing."""
    return [
        smo.ForwardRecord(
            rec.t,
            *(
                state_at(x, k) if name in _RECORD_STATES else x[k]
                for name in _RECORD_FIELDS
                if (x := getattr(rec, name)) is not None
            ),
        )
        for rec in records
    ]


def stack_records(member_lists):
    """``run_forward``'s records of a block from one record list per member,
    all at the same epochs: each epoch's fields stacked over the members,
    one call per field, at the first member's time; a final record's
    missing prior stays missing."""
    out = []
    for flat in zip(*member_lists):
        first = flat[0]
        out.append(
            smo.ForwardRecord(
                first.t,
                *(
                    (mech.stack_states if name in _RECORD_STATES else np.array)(
                        [getattr(rec, name) for rec in flat]
                    )
                    for name in _RECORD_FIELDS
                    if getattr(first, name) is not None
                ),
            )
        )
    return out


def dynamics_at(variant, nominal, gyro, accel, *args, **kwargs):
    """``error_dynamics`` at one nominal, called on a stack of one: (F, G)
    of the point, G one matrix either way."""
    f, g = error_dynamics(
        variant, mech.stack_states([nominal]), gyro[None], accel[None],
        *args, **kwargs,
    )
    return f[0], g[0] if g.ndim == 3 else g


# ---------------------------------------------------------------------------
# Lie and truth helpers that only the tests use: the library keeps the
# triple form and the stacked truth (``states_ned``, ``imu_at``)
# ---------------------------------------------------------------------------


def so3_exp(phi):
    """Exponential map of SO(3) (Rodrigues formula), from the coefficients
    ``exp_se23`` uses; its rotation equals this bit for bit."""
    a, b, _ = _exp_coeffs(_norm(phi))
    px = skew(phi)
    return np.eye(3) + a * px + b * (px @ px)


def left_jacobian(phi):
    """Left Jacobian of SO(3), J(phi) = sum_n (phi x)^n / (n+1)!, from the
    coefficients ``exp_se23`` uses."""
    _, b, c = _exp_coeffs(_norm(phi))
    px = skew(phi)
    return np.eye(3) + b * px + c * (px @ px)


def hat(xi):
    """The 5x5 Lie-algebra matrix of a 9-vector (phi, rho_v, rho_p)."""
    out = np.zeros((5, 5))
    out[:3, :3] = skew(xi[:3])
    out[:3, 3] = xi[3:6]
    out[:3, 4] = xi[6:9]
    return out


def as_matrix(x):
    """The 5x5 matrix of a group element."""
    out = np.eye(5)
    out[:3, :3] = x.R
    out[:3, 3] = x.v
    out[:3, 4] = x.p
    return out


def adjoint(x):
    """9x9 adjoint: X exp(hat(xi)) X^-1 = exp(hat(adjoint(X) @ xi)). Left
    and right errors of one pair are related by it (Barrau & Bonnabel,
    IEEE TAC 62(4), 2017)."""
    out = np.zeros((9, 9))
    out[:3, :3] = x.R
    out[3:6, :3] = skew(x.v) @ x.R
    out[3:6, 3:6] = x.R
    out[6:9, :3] = skew(x.p) @ x.R
    out[6:9, 6:9] = x.R
    return out


def state_ned(gen, t):
    """NED truth of a TruthGenerator at one time."""
    return state_at(gen.states_ned([t]), 0)


def imu_instantaneous(gen, t):
    """Exact (gyro, accel) of a TruthGenerator at time t by inverse
    mechanization."""
    gyro, accel = gen.imu_at([t])
    return gyro[0], accel[0]


def ned_to_ecef_state(state):
    """The ECEF form of a NED state."""
    lat, lon, h = state.geo
    c_ne = dcm_ecef_to_ned(lat, lon).T
    return NavStateECEF(
        c_ne @ state.c_bn, c_ne @ state.v_n, earth.llh_to_ecef(lat, lon, h)
    )


def embed_ned(nav, aux=False):
    """Own-frame group embedding of a geodetic state."""
    lat, _, h = nav.geo
    rho = earth.position_vector_n(lat, h)
    v = nav.v_n.copy()
    if aux:
        v = v + np.cross(earth.earth_rate_n(lat), rho)
    return GroupElement(nav.c_bn.copy(), v, rho)


@dataclass
class NedFlowState:
    """Local-frame flow state.

    ``vel`` is v_eb^n for the plain frame and the earth-rate auxiliary
    velocity for the auxiliary frame; ``geo`` is the geodetic position.
    Field order matches the derivative tuple (the RK4 helper advances
    fields positionally).
    """

    c_bn: np.ndarray
    vel: np.ndarray
    geo: np.ndarray

    def copy(self):
        return NedFlowState(self.c_bn.copy(), self.vel.copy(), self.geo.copy())


def _decay(t, tau):
    return 1.0 if tau is None else np.exp(-t / tau)


class FOracle:
    """Finite-difference estimate of F for one variant at one nominal.

    ``nominal`` is a NavStateNED for the NED frames and an earth-relative
    NavStateECEF for the ECEF frames. ``gyro``/``accel`` are the
    bias-corrected rates at the nominal; the measured stream held constant
    over the window is then (gyro + b_hat, accel + b_hat).
    """

    def __init__(self, variant, nominal, gyro, accel, bias_hat,
                 tau_g=None, tau_a=None):
        self.variant = variant
        self.tau_g, self.tau_a = tau_g, tau_a
        self.bias_hat = bias_hat
        self.meas_gyro = gyro + bias_hat.gyro
        self.meas_accel = accel + bias_hat.accel
        frame = variant.frame
        if frame in ("NED", "NED_Aux"):
            self.aux = frame == "NED_Aux"
            lat0, _, h0 = nominal.geo
            if frame == "NED_Aux" and variant.mems_simplified:
                self.kind = "mems"
                self.est0 = embed_ned(nominal, aux=True)
                w_ie = earth.earth_rate_n(lat0)
                w_en = ref_transport_rate_n(lat0, h0, nominal.v_n)
                self._w_in0 = w_ie + w_en
                self._big_g0 = ref_gravitation_n(lat0, h0)
            else:
                self.kind = "ned"
                rho0 = earth.position_vector_n(lat0, h0)
                vel0 = nominal.v_n.copy()
                if self.aux:
                    vel0 = vel0 + np.cross(earth.earth_rate_n(lat0), rho0)
                self.est0 = NedFlowState(
                    nominal.c_bn.copy(), vel0, nominal.geo.copy()
                )
                if frame == "NED":
                    if variant.is_right:
                        # frozen-latitude inverse-square height model
                        self._gfn = lambda lat, h: earth.gravity_n(lat0, h)
                    else:
                        g0 = earth.gravity_n(lat0, h0)
                        self._gfn = lambda lat, h: g0
                else:
                    # auxiliary velocity uses gravitation, frozen at nominal
                    big_g0 = ref_gravitation_n(lat0, h0)
                    self._gfn = lambda lat, h: big_g0
        else:
            self.kind = "ecef"
            self.inertial = frame in ("ECEF_Inertial", "ECEF_Aux")
            self.est0 = nominal.copy()
            if self.inertial:
                self.est0.v = nominal.v + np.cross(
                    earth.W_IE_E, nominal.r
                )
                big_g0 = ref_gravitation_e(nominal.r)
                self._gfn = lambda r: big_g0
            else:
                g0 = earth.gravity_e(nominal.r)
                self._gfn = lambda r: g0

    # -- embeddings --------------------------------------------------------

    def _embed(self, state):
        if self.kind == "ned":
            lat, _, h = state.geo
            return GroupElement(
                state.c_bn.copy(),
                state.vel.copy(),
                earth.position_vector_n(lat, h),
            )
        if self.kind == "ecef":
            return GroupElement(state.c_be.copy(), state.v.copy(), state.r.copy())
        return state  # mems: already a GroupElement

    def error_state(self, true_state, est_state, db):
        x_true = self._embed(true_state)
        x_est = self._embed(est_state)
        if self.kind == "ned":
            # position component through the full-rank local chart
            lat, lon, _ = est_state.geo
            c_en = earth.dcm_ecef_to_ned(lat, lon)
            d_e = earth.llh_to_ecef(*true_state.geo) - earth.llh_to_ecef(
                *est_state.geo
            )
            x_true = GroupElement(x_true.R, x_true.v, x_est.p + c_en @ d_e)
        eta = compose_error(self.variant.error_def, x_true, x_est)
        return np.concatenate([log_se23(eta), db])

    def retract(self, xi):
        """True flow state and true bias realizing the error xi at t = 0."""
        x_est = self._embed(self.est0)
        eta = exp_se23(xi[:9])
        x_true = true_from_error(self.variant.error_def, x_est, eta)
        b_true = BiasState(
            self.bias_hat.gyro + xi[9:12], self.bias_hat.accel + xi[12:15]
        )
        if self.kind == "mems":
            return x_true, b_true
        if self.kind == "ecef":
            return NavStateECEF(x_true.R, x_true.v, x_true.p), b_true
        # attitude/velocity are assigned literally; the position slot
        # displacement moves the geodetic state through the local chart
        lat_e, lon_e, _ = self.est0.geo
        c_ne = earth.dcm_ecef_to_ned(lat_e, lon_e).T
        r_e = earth.llh_to_ecef(*self.est0.geo) + c_ne @ (x_true.p - x_est.p)
        geo = np.array(earth.ecef_to_llh(r_e))
        return NedFlowState(x_true.R, x_true.v, geo), b_true

    # -- flows -------------------------------------------------------------

    def _flow(self, state, bias0, t_end):
        dt = t_end / N_SUB
        t = 0.0
        out = state.copy() if self.kind != "mems" else GroupElement(
            state.R.copy(), state.v.copy(), state.p.copy()
        )
        for _ in range(N_SUB):
            tm = t + 0.5 * dt  # bias evaluated at the substep midpoint
            gyro = self.meas_gyro - bias0.gyro * _decay(tm, self.tau_g)
            accel = self.meas_accel - bias0.accel * _decay(tm, self.tau_a)
            if self.kind == "ned":
                out = ref_rk4(out, gyro, accel, dt, self._ned_deriv)
            elif self.kind == "ecef":
                out = ref_ecef_step(
                    out,
                    ImuSample(t, gyro, accel),
                    dt,
                    convention="inertial" if self.inertial else "earth",
                    gravity_fn=self._gfn,
                )
            else:
                out = self._mems_step(out, gyro, accel, dt)
            t += dt
        return out

    def _ned_deriv(self, s, gyro, accel):
        lat, _, h = s.geo
        w_ie = earth.earth_rate_n(lat)
        if self.aux:
            rho = earth.position_vector_n(lat, h)
            v = s.vel - np.cross(w_ie, rho)
        else:
            v = s.vel
        w_en = ref_transport_rate_n(lat, h, v)
        w_in = w_ie + w_en
        c_dot = s.c_bn @ skew(gyro) - skew(w_in) @ s.c_bn
        if self.aux:
            v_dot = s.c_bn @ accel - np.cross(w_in, s.vel) + self._gfn(lat, h)
        else:
            v_dot = (
                s.c_bn @ accel
                - np.cross(2.0 * w_ie + w_en, s.vel)
                + self._gfn(lat, h)
            )
        geo_dot = ref_n_rv(lat, h) @ v
        return c_dot, v_dot, geo_dot

    def _mems_deriv(self, x, gyro, accel):
        w0 = self._w_in0
        return (
            x.R @ skew(gyro) - skew(w0) @ x.R,
            x.R @ accel - np.cross(w0, x.v) + self._big_g0,
            -np.cross(w0, x.p) + x.v,
        )

    def _mems_step(self, x, gyro, accel, dt):
        def adv(base, k, step):
            return GroupElement(
                base.R + step * k[0], base.v + step * k[1], base.p + step * k[2]
            )

        k1 = self._mems_deriv(x, gyro, accel)
        k2 = self._mems_deriv(adv(x, k1, 0.5 * dt), gyro, accel)
        k3 = self._mems_deriv(adv(x, k2, 0.5 * dt), gyro, accel)
        k4 = self._mems_deriv(adv(x, k3, dt), gyro, accel)
        combined = tuple(
            (a + 2.0 * b + 2.0 * c + d) / 6.0 for a, b, c, d in zip(k1, k2, k3, k4)
        )
        return adv(x, combined, dt)

    # -- the matrix --------------------------------------------------------

    def _bias_error(self, xi0, t):
        return np.concatenate(
            [
                xi0[9:12] * _decay(t, self.tau_g),
                xi0[12:15] * _decay(t, self.tau_a),
            ]
        )

    def _error_rate(self, true0, b_true, xi0, est_at):
        """Richardson-extrapolated central time derivative of the error.

        Rates from half-windows tau and tau/2 are combined to cancel the
        O(tau^2) bias of the central difference (which otherwise leaks
        F^3-type couplings into zero entries of F).
        """
        xi = {}
        for t in (TAU, -TAU, 0.5 * TAU, -0.5 * TAU):
            state = self._flow(true0, b_true, t)
            xi[t] = self.error_state(state, est_at[t], self._bias_error(xi0, t))
        rate_full = (xi[TAU] - xi[-TAU]) / (2.0 * TAU)
        rate_half = (xi[0.5 * TAU] - xi[-0.5 * TAU]) / TAU
        return (4.0 * rate_half - rate_full) / 3.0

    def fd_matrix(self):
        est_at = {
            t: self._flow(self.est0, self.bias_hat, t)
            for t in (TAU, -TAU, 0.5 * TAU, -0.5 * TAU)
        }
        f = np.zeros((15, 15))
        for j in range(15):
            rates = []
            for sgn in (1.0, -1.0):
                xi0 = np.zeros(15)
                xi0[j] = sgn * SCALES[j]
                true0, b_true = self.retract(xi0)
                rates.append(self._error_rate(true0, b_true, xi0, est_at))
            f[:, j] = (rates[0] - rates[1]) / (2.0 * SCALES[j])
        return f


def column_tolerances(f_analytic, j):
    """Per-component allowance for column j of the FD comparison."""
    col = f_analytic[:, j]
    floor = 3.0 * SLOT_NOISE / (TAU * SCALES[j])
    return RTOL * (np.abs(col) + 1e-3 * np.linalg.norm(col)) + floor


def assert_f_matches(f_analytic, f_fd, label=""):
    for j in range(15):
        tol = column_tolerances(f_analytic, j)
        diff = np.abs(f_fd[:, j] - f_analytic[:, j])
        bad = diff > tol
        assert not bad.any(), (
            f"{label} column {j}: max excess "
            f"{np.max(diff - tol):.3e} at rows {np.nonzero(bad)[0].tolist()}\n"
            f"analytic: {f_analytic[bad, j]}\nfd: {f_fd[bad, j]}"
        )


# ---------------------------------------------------------------------------
# bit-exact references for the propagation hot path
# ---------------------------------------------------------------------------
#
# Verbatim bodies of the earth formulas, strapdown derivatives and steps,
# error dynamics and discretization as they were before the hot path was
# rewritten to share trig terms and radii, and of the curvature radii before
# they were computed in Python floats (docstrings and comments dropped,
# calls renamed to the ref_ copies). The library must reproduce them bit for
# bit: the rewrite only reorders which values are computed once and reused,
# never the floating-point operations that produce each entry.


def ref_radii(lat):
    s2 = np.sin(lat) ** 2
    w = np.sqrt(1.0 - WGS84_E2 * s2)
    rn = WGS84_A / w
    rm = WGS84_A * (1.0 - WGS84_E2) / w**3
    return rm, rn


def ref_radii_derivatives(lat):
    s, c = np.sin(lat), np.cos(lat)
    w2 = 1.0 - WGS84_E2 * s**2
    drn = WGS84_A * WGS84_E2 * s * c * w2**-1.5
    drm = 3.0 * WGS84_A * (1.0 - WGS84_E2) * WGS84_E2 * s * c * w2**-2.5
    return drm, drn


def ref_gravity_n(lat, h):
    s2 = np.sin(lat) ** 2
    g0 = GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / np.sqrt(1.0 - WGS84_E2 * s2)
    rm, rn = ref_radii(lat)
    rbar = np.sqrt(rm * rn)
    g = g0 * (rbar / (rbar + h)) ** 2
    return np.array([0.0, 0.0, g])


def ref_gravity_gradient_down(lat, h):
    rm, rn = ref_radii(lat)
    rbar = np.sqrt(rm * rn)
    return 2.0 * ref_gravity_n(lat, h)[2] / (rbar + h)


def ref_position_vector_n(lat, h):
    s, c = np.sin(lat), np.cos(lat)
    _, rn = ref_radii(lat)
    return np.array(
        [-WGS84_E2 * rn * s * c, 0.0, -(rn * (1.0 - WGS84_E2 * s**2) + h)]
    )


def ref_position_vector_gradient_n(lat, h):
    s, c = np.sin(lat), np.cos(lat)
    rm, rn = ref_radii(lat)
    _, drn = ref_radii_derivatives(lat)
    drho_dlat = np.array(
        [
            -WGS84_E2 * (drn * s * c + rn * (c**2 - s**2)),
            0.0,
            -drn * (1.0 - WGS84_E2 * s**2) + 2.0 * WGS84_E2 * rn * s * c,
        ]
    )
    out = np.zeros((3, 3))
    out[:, 0] = drho_dlat / (rm + h)
    out[2, 2] = 1.0
    return out


def ref_gravitation_n(lat, h):
    omega_ie = ref_earth_rate_n(lat)
    return ref_gravity_n(lat, h) + skew(omega_ie) @ skew(omega_ie) @ (
        ref_position_vector_n(lat, h)
    )


def ref_earth_rate_n(lat):
    return np.array([EARTH_RATE * np.cos(lat), 0.0, -EARTH_RATE * np.sin(lat)])


def ref_transport_rate_n(lat, h, vn):
    rm, rn = ref_radii(lat)
    return np.array(
        [
            vn[1] / (rn + h),
            -vn[0] / (rm + h),
            -vn[1] * np.tan(lat) / (rn + h),
        ]
    )


def ref_n_rv(lat, h):
    check_latitude(lat)
    rm, rn = ref_radii(lat)
    return np.diag([1.0 / (rm + h), 1.0 / ((rn + h) * np.cos(lat)), -1.0])


def ref_m1_matrix(lat, h):
    rm, _ = ref_radii(lat)
    out = np.zeros((3, 3))
    out[0, 0] = -EARTH_RATE * np.sin(lat) / (rm + h)
    out[2, 0] = -EARTH_RATE * np.cos(lat) / (rm + h)
    return out


def ref_m2_matrix(lat, h):
    rm, rn = ref_radii(lat)
    return np.array(
        [
            [0.0, 1.0 / (rn + h), 0.0],
            [-1.0 / (rm + h), 0.0, 0.0],
            [0.0, -np.tan(lat) / (rn + h), 0.0],
        ]
    )


def ref_m3_matrix(lat, h, vn):
    rm, rn = ref_radii(lat)
    drm, drn = ref_radii_derivatives(lat)
    t, c = np.tan(lat), np.cos(lat)
    vN, vE = vn[0], vn[1]
    out = np.zeros((3, 3))
    out[0, 0] = -vE * drn / (rn + h) ** 2 / (rm + h)
    out[1, 0] = vN * drm / (rm + h) ** 2 / (rm + h)
    out[2, 0] = -vE * (1.0 / (c**2 * (rn + h)) - t * drn / (rn + h) ** 2) / (rm + h)
    out[0, 2] = vE / (rn + h) ** 2
    out[1, 2] = -vN / (rm + h) ** 2
    out[2, 2] = -vE * t / (rn + h) ** 2
    return out


# The F blocks' NED earth terms as one Python-float evaluation per point:
# verbatim bodies of ``errormodels._ned_terms``, ``_point_floats`` and the
# earth helpers they and the NED mechanization called before the terms
# became one numpy body over the stack and one fused float body per stage
# (docstrings dropped, calls renamed to the float_ copies).


def float_radii_derivatives(s, c):
    w2 = 1.0 - WGS84_E2 * s**2
    drn = WGS84_A * WGS84_E2 * s * c * w2**-1.5
    drm = 3.0 * WGS84_A * (1.0 - WGS84_E2) * WGS84_E2 * s * c * w2**-2.5
    return drm, drn


def float_gravity_gradient_down(g_down, rm, rn, h):
    return 2.0 * g_down / (math.sqrt(rm * rn) + h)


def float_position_vector_n(s, c, rn, h):
    return -WGS84_E2 * rn * s * c, 0.0, -(rn * (1.0 - WGS84_E2 * s**2) + h)


def float_earth_rate_n(s, c):
    return EARTH_RATE * c, 0.0, -EARTH_RATE * s


def float_transport_rate_n(t, rm, rn, h, vn):
    return vn[1] / (rn + h), -vn[0] / (rm + h), -vn[1] * t / (rn + h)


def float_n_rv_diagonal(c, rm, rn, h):
    return 1.0 / (rm + h), 1.0 / ((rn + h) * c), -1.0


def float_m1_entries(s, c, rm, h):
    return [
        -EARTH_RATE * s / (rm + h), 0.0, 0.0, 0.0, 0.0, 0.0,
        -EARTH_RATE * c / (rm + h), 0.0, 0.0,
    ]


def float_m2_entries(t, rm, rn, h):
    return [
        0.0, 1.0 / (rn + h), 0.0, -1.0 / (rm + h), 0.0, 0.0, 0.0, -t / (rn + h), 0.0
    ]


def float_m3_entries(t, c, rm, rn, drm, drn, h, vn):
    vN, vE = vn[0], vn[1]
    return [
        -vE * drn / (rn + h) ** 2 / (rm + h),
        0.0,
        vE / (rn + h) ** 2,
        vN * drm / (rm + h) ** 2 / (rm + h),
        0.0,
        -vN / (rm + h) ** 2,
        -vE * (1.0 / (c**2 * (rn + h)) - t * drn / (rn + h) ** 2) / (rm + h),
        0.0,
        -vE * t / (rn + h) ** 2,
    ]


def float_position_vector_gradient_entries(s, c, rm, rn, drn, h):
    return [
        -WGS84_E2 * (drn * s * c + rn * (c**2 - s**2)) / (rm + h), 0.0, 0.0,
        0.0, 0.0, 0.0,
        (-drn * (1.0 - WGS84_E2 * s**2) + 2.0 * WGS84_E2 * rn * s * c) / (rm + h),
        0.0,
        1.0,
    ]


def float_gravity_n(s2, rm, rn, h):
    """NED gravity (0, 0, g_D) of a point's sine squared, radii and height,
    as ``earth.gravity_e`` and ``earth._ned_point`` take it in floats."""
    g0 = GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / math.sqrt(1.0 - WGS84_E2 * s2)
    rbar = math.sqrt(rm * rn)
    return 0.0, 0.0, g0 * (rbar / (rbar + h)) ** 2


def float_point_floats(geo):
    lat, _, h = geo
    s, c, t = math.sin(lat), math.cos(lat), float(np.tan(lat))
    rm, rn = earth.radii(lat)
    return (h, s, c, t, rm, rn, *float_radii_derivatives(s, c))


def float_ned_terms(nom, full):
    rows = []
    for geo, v in zip(nom.geo.tolist(), nom.v_n.tolist()):
        h, s, c, t, rm, rn, drm, drn = float_point_floats(geo)
        row = (
            float_m1_entries(s, c, rm, h)
            + float_m2_entries(t, rm, rn, h)
            + float_m3_entries(t, c, rm, rn, drm, drn, h, v)
        )
        vectors = float_earth_rate_n(s, c)
        if full:
            grav = float_gravity_n(s**2, rm, rn, h)
            row += [0.0] * 8 + [float_gravity_gradient_down(grav[2], rm, rn, h)]
            row += float_position_vector_gradient_entries(s, c, rm, rn, drn, h)
            vectors += (
                float_position_vector_n(s, c, rn, h)
                + float_transport_rate_n(t, rm, rn, h, v)
                + grav
            )
        rows.append(row + list(vectors))
    rows = np.array(rows)
    n, k = len(rows), 5 if full else 3
    mats = rows[:, : 9 * k].reshape(n, k, 3, 3).swapaxes(0, 1)
    return (*mats, *rows[:, 9 * k :].reshape(n, -1, 3).swapaxes(0, 1))


def ref_ecef_to_llh(r):
    x, y, z = r
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    h = 0.0
    for _ in range(12):
        _, rn = ref_radii(lat)
        new_lat = np.arctan2(z + WGS84_E2 * rn * np.sin(lat), p)
        converged = abs(new_lat - lat) < 1e-15
        lat = new_lat
        h = (
            p / np.cos(lat) - rn
            if abs(lat) < 1.3
            else z / np.sin(lat) - rn * (1.0 - WGS84_E2)
        )
        if converged:
            break
    return lat, lon, h


def float_ecef_to_llh(r):
    """The float loop of ``earth.ecef_to_llh`` verbatim from before it ran
    ``np.arctan2`` and ``np.hypot`` on 0-d arrays: the same ufuncs, on
    Python floats."""
    x, y, z = r
    x, y, z = float(x), float(y), float(z)
    lon = np.arctan2(y, x)
    p = float(np.hypot(x, y))
    lat = float(np.arctan2(z, p * (1.0 - WGS84_E2)))
    for _ in range(12):
        # radii(lat)'s prime-vertical radius, from the sine the update reads
        s = math.sin(lat)
        rn = WGS84_A / math.sqrt(1.0 - WGS84_E2 * s**2)
        new_lat = float(np.arctan2(z + WGS84_E2 * rn * s, p))
        converged = abs(new_lat - lat) < 1e-15
        lat = new_lat
        if converged:
            break
    # the height of the last iteration's latitude and radius
    if abs(lat) < 1.3:
        return lat, lon, p / math.cos(lat) - rn
    return lat, lon, z / math.sin(lat) - rn * (1.0 - WGS84_E2)


def ref_gravity_e(r):
    lat, lon, h = ref_ecef_to_llh(np.asarray(r, dtype=float))
    return dcm_ecef_to_ned(lat, lon).T @ ref_gravity_n(lat, h)


def ref_gravitation_e(r):
    omega = W_IE_E
    return ref_gravity_e(r) + skew(omega) @ skew(omega) @ np.asarray(r, dtype=float)


def ref_ned_derivative(state, gyro, accel, gravity_fn=None):
    lat, _, h = state.geo
    earth.check_latitude(lat)
    w_ie = ref_earth_rate_n(lat)
    w_en = ref_transport_rate_n(lat, h, state.v_n)
    w_in = w_ie + w_en
    g = (gravity_fn or ref_gravity_n)(lat, h)
    c_dot = state.c_bn @ skew(gyro) - skew(w_in) @ state.c_bn
    v_dot = state.c_bn @ accel - np.cross(2.0 * w_ie + w_en, state.v_n) + g
    geo_dot = ref_n_rv(lat, h) @ state.v_n
    return c_dot, v_dot, geo_dot


def ref_ecef_derivative(state, gyro, accel, convention="earth", gravity_fn=None):
    w_ie = earth.W_IE_E
    c_dot = state.c_be @ skew(gyro) - skew(w_ie) @ state.c_be
    if convention == "earth":
        g = (gravity_fn or ref_gravity_e)(state.r)
        v_dot = state.c_be @ accel - 2.0 * np.cross(w_ie, state.v) + g
        r_dot = state.v.copy()
    elif convention == "inertial":
        big_g = (gravity_fn or ref_gravitation_e)(state.r)
        v_dot = state.c_be @ accel - np.cross(w_ie, state.v) + big_g
        r_dot = -np.cross(w_ie, state.r) + state.v
    else:
        raise ValueError(f"unknown velocity convention {convention!r}")
    return c_dot, v_dot, r_dot


def ref_rk4(state, gyro, accel, dt, deriv):
    k1 = deriv(state, gyro, accel)
    s2 = ref_advance(state, k1, 0.5 * dt)
    k2 = deriv(s2, gyro, accel)
    s3 = ref_advance(state, k2, 0.5 * dt)
    k3 = deriv(s3, gyro, accel)
    s4 = ref_advance(state, k3, dt)
    k4 = deriv(s4, gyro, accel)
    combined = tuple(
        (a + 2.0 * b + 2.0 * c + d) / 6.0 for a, b, c, d in zip(k1, k2, k3, k4)
    )
    return ref_advance(state, combined, dt)


def ref_advance(state, deriv, dt):
    out = state.copy()
    fields = list(vars(out))
    for name, d in zip(fields, deriv):
        setattr(out, name, getattr(state, name) + dt * d)
    return out


def ref_ned_step(state, imu, dt, gravity_fn=None):
    deriv = lambda s, w, f: ref_ned_derivative(s, w, f, gravity_fn=gravity_fn)
    return ref_rk4(state, imu.gyro, imu.accel, dt, deriv)


def ref_ecef_step(state, imu, dt, convention="earth", gravity_fn=None):
    deriv = lambda s, w, f: ref_ecef_derivative(
        s, w, f, convention=convention, gravity_fn=gravity_fn
    )
    return ref_rk4(state, imu.gyro, imu.accel, dt, deriv)


def ref_bias_rows(f, g, tau_g, tau_a):
    f[BG, BG] = (0.0 if tau_g is None else -1.0 / tau_g) * np.eye(3)
    f[BA, BA] = (0.0 if tau_a is None else -1.0 / tau_a) * np.eye(3)
    g[BG, WBG] = np.eye(3)
    g[BA, WBA] = np.eye(3)


def ref_error_dynamics(variant, nominal, gyro, accel, tau_g=None, tau_a=None):
    f = np.zeros((15, 15))
    g = np.zeros((15, 12))
    ref_bias_rows(f, g, tau_g, tau_a)
    if variant.frame == "NED":
        ref_ned_blocks(variant, nominal, gyro, accel, f, g)
    elif variant.frame == "NED_Aux":
        ref_ned_aux_blocks(variant, nominal, gyro, accel, f, g)
    elif variant.frame == "ECEF":
        ref_ecef_blocks(variant, nominal, gyro, accel, f, g)
    else:  # ECEF_Inertial / ECEF_Aux
        ref_ecef_inertial_blocks(variant, nominal, gyro, accel, f, g)
    return f, g


def ref_ned_blocks(variant, nom, gyro, accel, f, g):
    lat, _, h = nom.geo
    c = nom.c_bn
    v = nom.v_n
    r_n = ref_position_vector_n(lat, h)
    w_ie = ref_earth_rate_n(lat)
    w_en = ref_transport_rate_n(lat, h, v)
    w_in = w_ie + w_en
    m1 = ref_m1_matrix(lat, h)
    m2 = ref_m2_matrix(lat, h)
    m3 = ref_m3_matrix(lat, h, v)
    grav = ref_gravity_n(lat, h)
    k_g = np.zeros((3, 3))
    k_g[2, 2] = ref_gravity_gradient_down(lat, h)

    if variant.is_right:
        sign = -1.0 if variant.error_def == "RightTrue" else 1.0
        f[PHI, PHI] = -skew(w_in) + m2 @ skew(v) + (m1 + m3) @ skew(r_n)
        f[PHI, RV] = -m2
        f[PHI, RR] = -(m1 + m3)
        f[PHI, BG] = sign * c
        f[RV, PHI] = (
            -skew(v) @ m1 @ skew(r_n)
            + skew(v) @ skew(w_ie)
            + skew(grav)
            - k_g @ skew(r_n)
        )
        f[RV, RV] = -skew(2.0 * w_ie + w_en)
        f[RV, RR] = skew(v) @ m1 + k_g
        f[RV, BG] = sign * skew(v) @ c
        f[RV, BA] = sign * c
        f[RR, PHI] = (
            (skew(v) @ m2 + skew(w_en)) @ skew(r_n)
            - skew(np.cross(w_en, r_n))
            + skew(r_n) @ f[PHI, PHI]
        )
        f[RR, RV] = np.eye(3) - skew(r_n) @ m2
        f[RR, RR] = -skew(v) @ m2 - skew(w_en) + skew(r_n) @ f[PHI, RR]
        f[RR, BG] = sign * skew(r_n) @ c
        g[PHI, WG] = sign * c
        g[RV, WG] = sign * skew(v) @ c
        g[RV, WA] = sign * c
        g[RR, WG] = sign * skew(r_n) @ c
    else:
        sign = 1.0 if variant.error_def == "LeftTrue" else -1.0
        ct = c.T
        sandwich = lambda x: ct @ x @ c
        f[PHI, PHI] = -skew(gyro)
        f[PHI, RV] = -sandwich(m2)
        f[PHI, RR] = -sandwich(m1 + m3)
        f[PHI, BG] = sign * np.eye(3)
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = sandwich(skew(v) @ m2) - skew(gyro) - skew(ct @ w_ie)
        f[RV, RR] = sandwich(skew(v) @ (2.0 * m1 + m3))
        f[RV, BA] = sign * np.eye(3)
        f[RR, RV] = np.eye(3)
        f[RR, RR] = -skew(gyro) + sandwich(skew(w_ie) - skew(v) @ m2)
        g[PHI, WG] = sign * np.eye(3)
        g[RV, WA] = sign * np.eye(3)


def ref_ned_aux_blocks(variant, nom, gyro, accel, f, g):
    lat, _, h = nom.geo
    c = nom.c_bn
    r_n = ref_position_vector_n(lat, h)
    w_ie = ref_earth_rate_n(lat)
    w_en = ref_transport_rate_n(lat, h, nom.v_n)
    w_in = w_ie + w_en
    vbar = nom.v_n + np.cross(w_ie, r_n)
    big_g = ref_gravitation_n(lat, h)
    if not variant.mems_simplified:
        m1 = ref_m1_matrix(lat, h)
        m2 = ref_m2_matrix(lat, h)
        m3 = ref_m3_matrix(lat, h, nom.v_n)
        b = -skew(r_n) @ m1 + skew(w_ie) @ ref_position_vector_gradient_n(lat, h)
        k1 = m1 + m3 - m2 @ b
        k2 = m2

    if variant.error_def == "LeftEst":
        f[PHI, PHI] = -skew(gyro)
        f[PHI, BG] = -np.eye(3)
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = -skew(gyro)
        f[RV, BA] = -np.eye(3)
        f[RR, RV] = np.eye(3)
        f[RR, RR] = -skew(gyro)
        g[PHI, WG] = -np.eye(3)
        g[RV, WA] = -np.eye(3)
        if not variant.mems_simplified:
            ct = c.T
            sandwich = lambda x: ct @ x @ c
            f[PHI, RV] += -sandwich(k2)
            f[PHI, RR] += -sandwich(k1)
            f[RV, RV] += sandwich(skew(vbar) @ k2)
            f[RV, RR] += sandwich(skew(vbar) @ k1)
            f[RR, RR] += sandwich(skew(w_ie) - b - skew(nom.v_n) @ m2)
    else:  # RightTrue
        f[PHI, PHI] = -skew(w_in)
        f[PHI, BG] = -c
        f[RV, PHI] = skew(big_g)
        f[RV, RV] = -skew(w_in)
        f[RV, BG] = -skew(vbar) @ c
        f[RV, BA] = -c
        f[RR, RV] = np.eye(3)
        f[RR, RR] = -skew(w_in)
        f[RR, BG] = -skew(r_n) @ c
        g[PHI, WG] = -c
        g[RV, WG] = -skew(vbar) @ c
        g[RV, WA] = -c
        g[RR, WG] = -skew(r_n) @ c
        if not variant.mems_simplified:
            q1 = k1 @ skew(r_n) + k2 @ skew(vbar)
            f[PHI, PHI] += q1
            f[PHI, RV] += -k2
            f[PHI, RR] += -k1
            bracket = b + skew(nom.v_n) @ m2 + skew(w_en)
            f[RR, PHI] = (
                bracket @ skew(r_n)
                - skew(np.cross(w_in, r_n))
                + skew(r_n) @ f[PHI, PHI]
            )
            f[RR, RV] = np.eye(3) + skew(r_n) @ f[PHI, RV]
            f[RR, RR] = -bracket + skew(r_n) @ f[PHI, RR]


def ref_ecef_blocks(variant, nom, gyro, accel, f, g):
    c = nom.c_be
    v = nom.v
    r = nom.r
    w_ie = earth.W_IE_E
    if variant.error_def in ("LeftTrue", "LeftEst"):
        sign = 1.0 if variant.error_def == "LeftTrue" else -1.0
        w_ie_b = c.T @ w_ie
        f[PHI, PHI] = -skew(gyro)
        f[PHI, BG] = sign * np.eye(3)
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = -skew(w_ie_b) - skew(gyro)
        f[RV, BA] = sign * np.eye(3)
        f[RR, RV] = np.eye(3)
        f[RR, RR] = skew(w_ie_b) - skew(gyro)
        g[PHI, WG] = sign * np.eye(3)
        g[RV, WA] = sign * np.eye(3)
    else:
        sign = 1.0 if variant.error_def == "RightEst" else -1.0
        grav = ref_gravity_e(r)
        f[PHI, PHI] = -skew(w_ie)
        f[PHI, BG] = sign * c
        f[RV, PHI] = skew(v) @ skew(w_ie) + skew(grav)
        f[RV, RV] = -2.0 * skew(w_ie)
        f[RV, BG] = sign * skew(v) @ c
        f[RV, BA] = sign * c
        f[RR, PHI] = -skew(r) @ skew(w_ie)
        f[RR, RV] = np.eye(3)
        f[RR, BG] = sign * skew(r) @ c
        g[PHI, WG] = sign * c
        g[RV, WG] = sign * skew(v) @ c
        g[RV, WA] = sign * c
        g[RR, WG] = sign * skew(r) @ c


def ref_ecef_inertial_blocks(variant, nom, gyro, accel, f, g):
    c = nom.c_be
    w_ie = earth.W_IE_E
    r = nom.r
    v_i = nom.v + np.cross(w_ie, r)
    if variant.error_def in ("LeftTrue", "LeftEst"):
        sign = 1.0 if variant.error_def == "LeftTrue" else -1.0
        f[PHI, PHI] = -skew(gyro)
        f[PHI, BG] = sign * np.eye(3)
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = -skew(gyro)
        f[RV, BA] = sign * np.eye(3)
        f[RR, RV] = np.eye(3)
        f[RR, RR] = -skew(gyro)
        g[PHI, WG] = sign * np.eye(3)
        g[RV, WA] = sign * np.eye(3)
    else:
        sign = 1.0 if variant.error_def == "RightEst" else -1.0
        big_g = ref_gravitation_e(r)
        f[PHI, PHI] = -skew(w_ie)
        f[PHI, BG] = sign * c
        f[RV, PHI] = skew(big_g)
        f[RV, RV] = -skew(w_ie)
        f[RV, BG] = sign * skew(v_i) @ c
        f[RV, BA] = sign * c
        f[RR, RV] = np.eye(3)
        f[RR, RR] = -skew(w_ie)
        f[RR, BG] = sign * skew(r) @ c
        g[PHI, WG] = sign * c
        g[RV, WG] = sign * skew(v_i) @ c
        g[RV, WA] = sign * c
        g[RR, WG] = sign * skew(r) @ c


def ref_discretize(f, g, qc, dt):
    qc = np.diag(qc)
    phi = np.eye(15) + f * dt + (f @ f) * (0.5 * dt * dt)
    gq = g @ qc @ g.T
    qd = 0.5 * dt * (phi @ gq @ phi.T + gq)
    return phi, 0.5 * (qd + qd.T)


# ---------------------------------------------------------------------------
# bit-exact references for the simulator side
# ---------------------------------------------------------------------------
#
# Verbatim bodies of the per-sample truth, sensor synthesis, bias and noise
# draws, NED conversion, quaternion and metrics code as they were before the
# simulator side was evaluated over whole time grids (docstrings dropped,
# calls renamed to the ref_ copies). The array code must reproduce every
# sample bit for bit.


def ref_rot_z(psi):
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def ref_ecef_to_ned_state(state):
    lat, lon, h = ecef_to_llh(state.r)
    c_en = dcm_ecef_to_ned(lat, lon)
    return mech.NavStateNED(
        c_en @ state.c_be, c_en @ state.v, np.array([lat, lon, h])
    )


class RefTruthGenerator:
    def __init__(self, spec):
        self.spec = spec
        lat, lon, h = spec.origin
        check_latitude(lat)
        self.r0_e = earth.llh_to_ecef(lat, lon, h)
        self.c_n0_e = dcm_ecef_to_ned(lat, lon).T

    def _plane(self, t):
        s = self.spec
        if s.kind == "stationary":
            z = np.zeros(3)
            return z, z, z, s.heading0, 0.0
        if s.kind == "straight":
            u = s.speed * np.array([np.cos(s.heading0), np.sin(s.heading0), 0.0])
            return u * t, u, np.zeros(3), s.heading0, 0.0
        if s.kind == "circle":
            omega = s.speed / s.radius
            psi = s.heading0 + omega * t
            p = (s.speed / omega) * np.array(
                [
                    np.sin(psi) - np.sin(s.heading0),
                    -np.cos(psi) + np.cos(s.heading0),
                    0.0,
                ]
            )
            u = s.speed * np.array([np.cos(psi), np.sin(psi), 0.0])
            a = s.speed * omega * np.array([-np.sin(psi), np.cos(psi), 0.0])
            return p, u, a, psi, omega
        w = 2.0 * np.pi / s.period
        amp = s.amplitude
        p = np.array([amp * np.sin(w * t), 0.5 * amp * np.sin(2.0 * w * t), 0.0])
        u = np.array(
            [amp * w * np.cos(w * t), amp * w * np.cos(2.0 * w * t), 0.0]
        )
        a = np.array(
            [
                -amp * w * w * np.sin(w * t),
                -2.0 * amp * w * w * np.sin(2.0 * w * t),
                0.0,
            ]
        )
        return p, u, a, s.heading0, 0.0

    def state_ecef(self, t):
        p, u, _, psi, _ = self._plane(t)
        return NavStateECEF(
            self.c_n0_e @ ref_rot_z(psi),
            self.c_n0_e @ u,
            self.r0_e + self.c_n0_e @ p,
        )

    def state_ned(self, t):
        return ref_ecef_to_ned_state(self.state_ecef(t))

    def imu_instantaneous(self, t):
        p, u, a, psi, psi_dot = self._plane(t)
        c_be = self.c_n0_e @ ref_rot_z(psi)
        r_e = self.r0_e + self.c_n0_e @ p
        v_e = self.c_n0_e @ u
        a_e = self.c_n0_e @ a
        w_ie = W_IE_E
        gyro = np.array([0.0, 0.0, psi_dot]) + c_be.T @ w_ie
        accel = c_be.T @ (a_e + 2.0 * cross(w_ie, v_e) - earth.gravity_e(r_e))
        return gyro, accel

    def synthesize_imu(self, duration, dt):
        n = int(round(duration / dt))
        samples = []
        for k in range(n):
            t = k * dt
            gyro, accel = self.imu_instantaneous(t + 0.5 * dt)
            samples.append(ImuSample(t, gyro, accel))
        return samples

    def sample_gnss(self, times, lever_arm_b, sigma_pos, rng):
        times = np.asarray(times, dtype=float)
        fixes = []
        for t in times:
            s = self.state_ecef(t)
            pos = s.r + s.c_be @ lever_arm_b + sigma_pos * rng.standard_normal(3)
            fixes.append((t, pos, sigma_pos**2 * np.eye(3)))
        return fixes


def ref_q_diag(params):
    return np.concatenate(
        [
            np.full(3, params.sigma_g**2),
            np.full(3, params.sigma_a**2),
            np.full(3, params.sigma_bg**2),
            np.full(3, params.sigma_ba**2),
        ]
    )


def ref_simulate_biases(params, n_steps, dt, rng, initial=None):
    state = initial.copy() if initial is not None else BiasState()
    phi_g, q_g = discretize_bias(params.tau_g, params.sigma_bg, dt)
    phi_a, q_a = discretize_bias(params.tau_a, params.sigma_ba, dt)
    out = []
    for _ in range(n_steps):
        out.append(state.copy())
        state = BiasState(
            phi_g * state.gyro + np.sqrt(q_g) * rng.standard_normal(3),
            phi_a * state.accel + np.sqrt(q_a) * rng.standard_normal(3),
        )
    return out


def ref_corrupt(samples, biases, params, dt, rng):
    sg = params.sigma_g / np.sqrt(dt)
    sa = params.sigma_a / np.sqrt(dt)
    out = []
    for s, b in zip(samples, biases):
        out.append(
            ImuSample(
                s.t,
                s.gyro + b.gyro + sg * rng.standard_normal(3),
                s.accel + b.accel + sa * rng.standard_normal(3),
            )
        )
    return out


def ref_orthonormalize(c):
    u, _, vt = np.linalg.svd(c)
    out = u @ vt
    if np.linalg.det(out) < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


def ref_dcm_to_quaternion(c):
    tr = np.trace(c)
    cand = np.array([1.0 + tr, *(1.0 + 2.0 * np.diag(c) - tr)])
    k = int(np.argmax(cand))
    s = 0.5 * np.sqrt(cand[k])
    if k == 0:
        q = np.array(
            [
                s,
                0.25 * (c[2, 1] - c[1, 2]) / s,
                0.25 * (c[0, 2] - c[2, 0]) / s,
                0.25 * (c[1, 0] - c[0, 1]) / s,
            ]
        )
    else:
        i = k - 1
        j, l = (i + 1) % 3, (i + 2) % 3
        q = np.empty(4)
        q[k] = s
        q[0] = 0.25 * (c[l, j] - c[j, l]) / s
        q[1 + j] = 0.25 * (c[j, i] + c[i, j]) / s
        q[1 + l] = 0.25 * (c[l, i] + c[i, l]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def ref_epoch_errors(truths, neds):
    pos, vel, att = [], [], []
    for truth, ned in zip(truths, neds):
        c_ne = dcm_ecef_to_ned(*truth.geo[:2]).T
        dp = earth.llh_to_ecef(*ned.geo) - earth.llh_to_ecef(*truth.geo)
        pos.append(c_ne.T @ dp)
        vel.append(ned.v_n - truth.v_n)
        att.append(ref_so3_log(truth.c_bn.T @ ned.c_bn))
    return np.array(pos), np.array(vel), np.array(att)


# ---------------------------------------------------------------------------
# bit-exact references for the variant dispatch
# ---------------------------------------------------------------------------
#
# Verbatim bodies of the embedding, error composition, retraction,
# innovation, update, measurement models, group-affine form, prediction,
# initial state and CLI forward loop as they were when each decided the
# frame and the error definition by comparing strings (docstrings dropped,
# calls renamed to the ref_ copies). The chart and flag dispatch must
# reproduce them bit for bit.


def ref_embed(variant, nav):
    if variant.frame in ("NED", "NED_Aux"):
        lat, _, h = nav.geo
        rho = earth.position_vector_n(lat, h)
        v = nav.v_n.copy()
        if variant.frame == "NED_Aux":
            v = v + cross(earth.earth_rate_n(lat), rho)
        return GroupElement(nav.c_bn.copy(), v, rho)
    v = nav.v.copy()
    if variant.frame in ("ECEF_Inertial", "ECEF_Aux"):
        v = v + cross(earth.W_IE_E, nav.r)
    return GroupElement(nav.c_be.copy(), v, nav.r.copy())


def ref_compose_error(error_def, x_true, x_est):
    if error_def == "RightTrue":
        return x_true.compose(x_est.inverse())
    if error_def == "RightEst":
        return x_est.compose(x_true.inverse())
    if error_def == "LeftTrue":
        return x_true.inverse().compose(x_est)
    return x_est.inverse().compose(x_true)  # LeftEst


def ref_true_from_error(error_def, x_est, eta):
    if error_def == "RightTrue":
        return eta.compose(x_est)
    if error_def == "RightEst":
        return eta.inverse().compose(x_est)
    if error_def == "LeftTrue":
        return x_est.compose(eta.inverse())
    return x_est.compose(eta)  # LeftEst


def ref_error_state(variant, true_nav, true_bias, est_nav, est_bias):
    x_true = ref_embed(variant, true_nav)
    x_est = ref_embed(variant, est_nav)
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = est_nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        d_e = earth.llh_to_ecef(*true_nav.geo) - earth.llh_to_ecef(*est_nav.geo)
        x_true = GroupElement(x_true.R, x_true.v, x_est.p + c_en @ d_e)
    eta = ref_compose_error(variant.error_def, x_true, x_est)
    db = np.concatenate(
        [true_bias.gyro - est_bias.gyro, true_bias.accel - est_bias.accel]
    )
    return np.concatenate([ref_log_se23(eta), db])


def ref_apply_correction(variant, nav, bias, dx):
    new_bias = BiasState(bias.gyro + dx[9:12], bias.accel + dx[12:15])
    if not np.any(dx[:9]):
        return nav.copy(), new_bias
    x_est = ref_embed(variant, nav)
    x_new = ref_true_from_error(variant.error_def, x_est, ref_exp_se23(dx[:9]))
    c_new = project(x_new.R)
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = nav.geo
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        r_e = earth.llh_to_ecef(*nav.geo) + c_ne @ (x_new.p - x_est.p)
        geo = np.array(earth.ecef_to_llh(r_e))
        v = x_new.v
        if variant.frame == "NED_Aux":
            rho = earth.position_vector_n(geo[0], geo[2])
            v = v - cross(earth.earth_rate_n(geo[0]), rho)
        return mech.NavStateNED(c_new, v.copy(), geo), new_bias
    v = x_new.v
    if variant.frame in ("ECEF_Inertial", "ECEF_Aux"):
        v = v - cross(earth.W_IE_E, x_new.p)
    return NavStateECEF(c_new, v.copy(), x_new.p.copy()), new_bias


def ref_predict(fs, imu, dt, noise=None):
    noise = noise or ImuNoiseParams()
    gyro = imu.gyro - fs.bias.gyro
    accel = imu.accel - fs.bias.accel
    f, g = dynamics_at(
        fs.variant, fs.nav, gyro, accel, tau_g=noise.tau_g, tau_a=noise.tau_a
    )
    phi, qd = ref_discretize(f, g, ref_q_diag(noise), dt)
    if fs.variant.frame in ("NED", "NED_Aux"):
        nav = step_state(mech.ned_step, fs.nav, gyro, accel, dt)
        nav.c_bn = project(nav.c_bn)
    else:
        nav = step_state(mech.ecef_step, fs.nav, gyro, accel, dt)
        nav.c_be = project(nav.c_be)
    phi_g = 1.0 if noise.tau_g is None else np.exp(-dt / noise.tau_g)
    phi_a = 1.0 if noise.tau_a is None else np.exp(-dt / noise.tau_a)
    bias = BiasState(phi_g * fs.bias.gyro, phi_a * fs.bias.accel)
    p = phi @ fs.p @ phi.T + qd
    p = 0.5 * (p + p.T)
    return flt.FilterState(fs.variant, nav, bias, p, fs.t + dt), phi


def ref_innovation_nav(nav, variant, fix):
    l = fix.lever_arm_b
    if variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        pred = earth.llh_to_ecef(*nav.geo) + c_en.T @ (nav.c_bn @ l)
        return c_en @ (fix.pos - pred), c_en @ fix.r @ c_en.T
    pred = nav.r + nav.c_be @ l
    return fix.pos - pred, fix.r


def ref_update(fs, fix, mode="se23"):
    if mode not in flt.MODES:
        raise IncompatibleMode(f"unknown filter mode {mode!r}")
    variant = fs.variant
    z, r_eff = ref_innovation_nav(fs.nav, variant, fix)
    if mode == "invariant":
        h, m = ref_measurement_left_invariant(variant, fs.nav, fix.lever_arm_b)
        z = m @ z
        r_eff = m @ r_eff @ m.T
    else:
        h = ref_measurement_se23(variant, fs.nav, fix.lever_arm_b)
    p = fs.p
    s = h @ p @ h.T + r_eff
    nis = float(z @ np.linalg.solve(s, z))
    k = np.linalg.solve(s, h @ p).T
    dx = k @ z
    nav, bias = ref_apply_correction(variant, fs.nav, fs.bias, dx)
    ikh = np.eye(15) - k @ h
    p_new = ikh @ p @ ikh.T + k @ r_eff @ k.T
    p_new = 0.5 * (p_new + p_new.T)
    out = flt.FilterState(variant, nav, bias, p_new, fs.t)
    return out, flt.UpdateReport(z=z, s=s, k=k, nis=nis, dx=dx)


def ref_nav_frame_quantities(variant, nominal):
    if variant.frame in ("NED", "NED_Aux"):
        lat, _, h = nominal.geo
        return nominal.c_bn, earth.position_vector_n(lat, h)
    return nominal.c_be, nominal.r


def ref_measurement_se23(variant, nominal, lever_arm):
    c, r = ref_nav_frame_quantities(variant, nominal)
    h = np.zeros((3, 15))
    if variant.error_def == "LeftEst":
        h[:, PHI] = -c @ skew(lever_arm)
        h[:, RR] = c
    elif variant.error_def == "LeftTrue":
        h[:, PHI] = c @ skew(lever_arm)
        h[:, RR] = -c
    elif variant.error_def == "RightTrue":
        h[:, PHI] = -skew(r + c @ lever_arm)
        h[:, RR] = np.eye(3)
    else:  # RightEst
        h[:, PHI] = skew(r + c @ lever_arm)
        h[:, RR] = -np.eye(3)
    return h


def ref_measurement_left_invariant(variant, nominal, lever_arm):
    if variant.error_def != "LeftEst":
        raise IncompatibleMode(
            "left-invariant measurement requires the LeftEst error definition"
        )
    c, _ = ref_nav_frame_quantities(variant, nominal)
    h = np.zeros((3, 15))
    h[:, PHI] = -skew(lever_arm)
    h[:, RR] = np.eye(3)
    return h, c.T


def ref_group_affine_dynamics(variant, nominal, gyro, accel):
    """Return (W1, W2) with d/dt X = X W1 + W2 X at the nominal.

    State-dependent entries of W2 are frozen at the nominal, which is what
    makes the flow group-affine.
    """
    w1 = np.zeros((5, 5))
    w1[:3, :3] = skew(gyro)
    w1[:3, 3] = accel
    w2 = np.zeros((5, 5))
    if variant.frame in ("NED", "NED_Aux"):
        lat, _, h = nominal.geo
        v = nominal.v_n
        r_n = earth.position_vector_n(lat, h)
        w_ie = earth.earth_rate_n(lat)
        w_in = w_ie + ref_transport_rate_n(lat, h, v)
        w2[:3, :3] = -skew(w_in)
        if variant.frame == "NED":
            w2[:3, 3] = earth.gravity_n(lat, h) - cross(w_ie, v)
            w2[:3, 4] = v + cross(w_ie, r_n)
        else:
            w2[:3, 3] = ref_gravitation_n(lat, h)
            w2[:3, 4] = v + cross(w_ie, r_n)
    else:
        v = nominal.v
        r = nominal.r
        w_ie = earth.W_IE_E
        w2[:3, :3] = -skew(w_ie)
        if variant.frame == "ECEF":
            w2[:3, 3] = earth.gravity_e(r) - cross(w_ie, v)
            w2[:3, 4] = v + cross(w_ie, r)
        else:
            w2[:3, 3] = ref_gravitation_e(r)
            w2[:3, 4] = v + cross(w_ie, r)
    return w1, w2


def ref_initial_state(cfg, variant, gen, rng):
    ini = cfg.initial
    if variant.frame in ("NED", "NED_Aux"):
        nav = state_ned(gen, 0.0)
    else:
        nav = gen.state_ecef(0.0)
    sigmas = np.concatenate(
        [
            np.full(3, ini.attitude_sigma_rad),
            np.full(3, ini.velocity_sigma_m_s),
            np.full(3, ini.position_sigma_m),
            np.full(3, ini.bias_g_sigma_rad_s),
            np.full(3, ini.bias_a_sigma_m_s2),
        ]
    )
    p0 = np.diag(np.maximum(sigmas, 1e-12) ** 2)
    dx = sigmas * rng.standard_normal(15)
    nav, bias = ref_apply_correction(variant, nav, BiasState(), dx)
    if ini.yaw_error_rad != 0.0:
        cz, sz = np.cos(ini.yaw_error_rad), np.sin(ini.yaw_error_rad)
        rot = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        if variant.frame in ("NED", "NED_Aux"):
            nav.c_bn[:] = rot @ nav.c_bn
        else:
            lat, lon, _ = earth.ecef_to_llh(nav.r)
            c_ne = earth.dcm_ecef_to_ned(lat, lon).T
            nav.c_be[:] = c_ne @ rot @ c_ne.T @ nav.c_be
        p0[:3, :3] += ini.yaw_error_rad**2 * np.eye(3)
    return nav, bias, p0


def ref_forward(fs, imu, fixes, dt, noise, mode):
    """The forward loop of the scenario runner, with the ref_ predict and
    update; returns (records, nis_log)."""
    records, nis_log = [], []
    pending = None
    phi_acc = np.eye(15)
    fix_iter = iter(fixes)
    fix = next(fix_iter, None)
    for sample in imu:
        fs, phi = ref_predict(fs, sample, dt, noise=noise)
        phi_acc = phi @ phi_acc
        if fix is not None and fs.t >= fix.t - 1e-9:
            if pending is not None:
                records.append(
                    smo.ForwardRecord(
                        pending.t, pending.nav, pending.bias, pending.p,
                        phi_acc, fs.p.copy(), fs.nav.copy(), fs.bias.copy(),
                    )
                )
            fs, report = ref_update(fs, fix, mode=mode)
            nis_log.append({"t": fs.t, "value": float(report.nis)})
            pending = fs.copy()
            phi_acc = np.eye(15)
            fix = next(fix_iter, None)
    if pending is None:
        pending = fs.copy()
    records.append(
        smo.ForwardRecord(pending.t, pending.nav, pending.bias, pending.p)
    )
    return records, nis_log


# ---------------------------------------------------------------------------
# bit-exact references for the back end
# ---------------------------------------------------------------------------
#
# Verbatim bodies of the SO(3) logarithm, the RTS pass, the metrics' NEES
# and the covariance.csv rows as they were when each evaluated one epoch at
# a time (docstrings dropped, calls renamed to the ref_ copies). The lean
# scalar logarithm, its stacked form, the stacked smoother gains and NEES
# solve and the upper-triangle covariance rows must reproduce them bit for
# bit.


def ref_so3_log(rot):
    cos_angle = float(np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0))
    angle = float(np.arccos(cos_angle))
    if angle > np.pi - NEAR_PI_MARGIN:
        raise NearPiRotation(f"rotation angle {angle} within margin of pi")
    axis_vec = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    )
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        factor = 0.5 * (1.0 + a2 / 6.0 * (1.0 + a2 * 7.0 / 60.0))
        return factor * axis_vec
    return axis_vec * (angle / (2.0 * np.sin(angle)))


# verbatim numpy bodies of the group exponential and logarithm from before
# they shared the angle and skew terms and took Python-float trig


def ref_rodrigues_coeffs(angle):
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        s = 1.0 - a2 / 6.0 * (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0))
        c = 0.5 * (1.0 - a2 / 12.0 * (1.0 - a2 / 30.0 * (1.0 - a2 / 56.0)))
        return s, c
    half_sin = np.sin(0.5 * angle)
    return np.sin(angle) / angle, 2.0 * half_sin * half_sin / (angle * angle)


def ref_so3_exp(phi):
    angle = float(np.linalg.norm(phi))
    a, b = ref_rodrigues_coeffs(angle)
    px = skew(phi)
    return np.eye(3) + a * px + b * (px @ px)


def ref_left_jacobian(phi):
    angle = float(np.linalg.norm(phi))
    px = skew(phi)
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        b = 0.5 * (1.0 - a2 / 12.0 * (1.0 - a2 / 30.0 * (1.0 - a2 / 56.0)))
        c = (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0 * (1.0 - a2 / 72.0))) / 6.0
        return np.eye(3) + b * px + c * (px @ px)
    a = np.sin(angle) / angle
    half_sin = np.sin(0.5 * angle)
    b = 2.0 * half_sin * half_sin / (angle * angle)
    c = (1.0 - a) / (angle * angle)
    return np.eye(3) + b * px + c * (px @ px)


def ref_left_jacobian_inv(phi):
    angle = float(np.linalg.norm(phi))
    px = skew(phi)
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        c = (1.0 + a2 / 60.0 * (1.0 + a2 * 10.0 / 420.0)) / 12.0
        return np.eye(3) - 0.5 * px + c * (px @ px)
    cot_term = 1.0 / (angle * angle) - (1.0 + np.cos(angle)) / (
        2.0 * angle * np.sin(angle)
    )
    return np.eye(3) - 0.5 * px + cot_term * (px @ px)


def ref_exp_se23(xi):
    xi = np.asarray(xi, dtype=float)
    phi = xi[:3]
    jac = ref_left_jacobian(phi)
    return GroupElement(ref_so3_exp(phi), jac @ xi[3:6], jac @ xi[6:9])


def ref_log_se23(element):
    phi = ref_so3_log(element.R)
    jinv = ref_left_jacobian_inv(phi)
    return np.concatenate([phi, jinv @ element.v, jinv @ element.p])


def ref_rts_smooth(variant, records):
    last = records[-1]
    out = [
        flt.FilterState(
            variant, last.nav.copy(), last.bias.copy(), last.p_post.copy(), last.t
        )
    ]
    for rec in reversed(records[:-1]):
        nxt = out[-1]
        p_pred = rec.p_pred + 1e-12 * np.eye(15)
        try:
            c = np.linalg.solve(p_pred, rec.phi @ rec.p_post).T
        except np.linalg.LinAlgError as exc:
            raise SingularPredCov(
                f"predicted covariance singular at t={rec.t}"
            ) from exc
        if not np.all(np.isfinite(c)):
            raise SingularPredCov(
                f"predicted covariance numerically singular at t={rec.t}"
            )
        dx_next = ref_error_state(
            variant, nxt.nav, nxt.bias, rec.nav_pred, rec.bias_pred
        )
        dx = c @ dx_next
        nav, bias = ref_apply_correction(variant, rec.nav, rec.bias, dx)
        p = rec.p_post + c @ (nxt.p - rec.p_pred) @ c.T
        p = 0.5 * (p + p.T)
        out.append(flt.FilterState(variant, nav, bias, p, rec.t))
    out.reverse()
    return out


def ref_nees(variant, truth, biases, dt, records):
    """The metrics' NEES loop; ``truth`` is the list of true states at the
    records' epochs."""
    nees_log = []
    for k, rec in enumerate(records):
        idx = min(len(biases) - 1, max(0, int(round(rec.t / dt)) - 1))
        dx = ref_error_state(variant, truth[k], biases[idx], rec.nav, rec.bias)
        try:
            nees = float(dx @ np.linalg.solve(rec.p_post, dx))
        except np.linalg.LinAlgError:
            nees = float("nan")
        nees_log.append({"t": rec.t, "value": nees})
    return nees_log


def ref_cov_rows(records):
    return [
        ",".join(repr(float(v)) for v in [r.t, *r.p_post.ravel().tolist()])
        for r in records
    ]
