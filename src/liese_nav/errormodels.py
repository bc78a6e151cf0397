"""Error-state dynamics (F, G) and measurement models for every variant.

The 15-dim error state is ordered (phi, rho_v, rho_r, db_g, db_a); the
12-dim noise vector is (w_g, w_a, w_bg, w_ba). Bias errors are
db = b_true - b_hat for every variant, so the rate error seen by
the filter mechanization is db_g + w_g.

Frames:
  NED            geodetic position, ground velocity v_eb^n
  NED_Aux        auxiliary velocity vbar = v_eb^n + w_ie^n x r_eb^n
  ECEF           earth-relative velocity v_eb^e
  ECEF_Inertial  inertial velocity v_ib^e = v_eb^e + w_ie^e x r_eb^e
  ECEF_Aux       auxiliary velocity (numerically equal to v_ib^e)

Error definitions (X true, Xt estimate):
  RightTrue  eta = X Xt^-1        RightEst  eta = Xt X^-1
  LeftTrue   eta = X^-1 Xt        LeftEst   eta = Xt^-1 X
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import earth, mechanization as mech
from liese_nav.errors import IncompatibleMode, UnsupportedVariant
from liese_nav.liegroup import GroupElement, cross, matvec, skew, skew_stack
from liese_nav.mechanization import NavStateECEF, NavStateNED

PHI = slice(0, 3)
RV = slice(3, 6)
RR = slice(6, 9)
BG = slice(9, 12)
BA = slice(12, 15)
WG = slice(0, 3)
WA = slice(3, 6)
WBG = slice(6, 9)
WBA = slice(9, 12)

FRAMES = ("NED", "NED_Aux", "ECEF", "ECEF_Inertial", "ECEF_Aux")
ERROR_DEFS = ("RightTrue", "RightEst", "LeftTrue", "LeftEst")

_SUPPORTED = {
    "NED": {"RightTrue", "RightEst", "LeftTrue", "LeftEst"},
    "NED_Aux": {"LeftEst", "RightTrue"},
    "ECEF": {"LeftTrue", "LeftEst", "RightEst", "RightTrue"},
    "ECEF_Inertial": {"LeftTrue", "LeftEst", "RightEst"},
    "ECEF_Aux": {"RightTrue"},
}
_MEMS_FRAMES = {"NED_Aux", "ECEF"}

# one shared identity block, read-only so that no caller can modify it
_I3 = np.eye(3)
_I3.flags.writeable = False


@dataclass(frozen=True)
class Variant:
    frame: str
    error_def: str
    mems_simplified: bool = False

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise UnsupportedVariant(f"unknown frame {self.frame!r}")
        if self.error_def not in ERROR_DEFS:
            raise UnsupportedVariant(f"unknown error definition {self.error_def!r}")
        if self.error_def not in _SUPPORTED[self.frame]:
            raise UnsupportedVariant(
                f"{self.frame} does not support {self.error_def}"
            )
        if self.mems_simplified and self.frame not in _MEMS_FRAMES:
            raise UnsupportedVariant(
                f"mems_simplified is not available for frame {self.frame}"
            )

    @property
    def is_right(self):
        """Errors compose on the world side (eta = A B^-1), not the body side."""
        return self.error_def.startswith("Right")

    @property
    def inverts_true(self):
        """LeftTrue and RightEst invert the true state; this flag signs H and
        the input map (see ``error_dynamics``)."""
        return self.error_def in ("LeftTrue", "RightEst")

    @property
    def aux_velocity(self):
        """The group velocity carries the earth-rate offset w_ie x r."""
        return self.frame in ("NED_Aux", "ECEF_Inertial", "ECEF_Aux")

    @property
    def lockstep(self):
        """This variant has the stacked forms of ``error_dynamics`` and the
        NED step: ``filter.predict`` builds a leg's F in one stacked call
        over its steps (and its Monte-Carlo members), and members run in
        lockstep as one stack."""
        return self.frame == "NED" and self.error_def == "LeftEst"

    @property
    def chart(self):
        """The frame family's chart: NED_CHART or ECEF_CHART."""
        return NED_CHART if self.frame in ("NED", "NED_Aux") else ECEF_CHART

    @property
    def name(self):
        suffix = "+mems" if self.mems_simplified else ""
        return f"{self.frame}/{self.error_def}{suffix}"


def supported_variants(include_mems=True):
    out = []
    for frame, defs in _SUPPORTED.items():
        for ed in sorted(defs):
            out.append(Variant(frame, ed))
            if include_mems and frame in _MEMS_FRAMES:
                out.append(Variant(frame, ed, mems_simplified=True))
    return out


# ---------------------------------------------------------------------------
# frame charts: the one place that tells the NED frames from the ECEF frames
# ---------------------------------------------------------------------------


class NedChart:
    """Geodetic NED states (C_b^n, v_eb^n, lat/lon/h), embedded with the
    position vector r_eb^n. The error's position slot is the ECEF
    displacement resolved in the estimate's NED axes (a full-rank chart)."""

    def states(self, gen, times):
        """Stacked truth at the times."""
        return gen.states_ned(times)

    def as_ned(self, nav):
        return nav

    def attitude_position(self, nav):
        lat, _, h = nav.geo
        return nav.c_bn, earth.position_vector_n(lat, h)

    def affine_terms(self, nav, aux):
        """(v, r, w_ie, w_in, gravitation if aux else gravity)."""
        lat, _, h = nav.geo
        v = nav.v_n
        w_ie = earth.earth_rate_n(lat)
        w_in = w_ie + earth.transport_rate_n(lat, h, v)
        grav = (earth.gravitation_n if aux else earth.gravity_n)(lat, h)
        return v, earth.position_vector_n(lat, h), w_ie, w_in, grav

    def embed(self, nav, aux):
        c, rho = self.attitude_position(nav)
        v = nav.v_n.copy()
        if aux:
            v = v + cross(earth.earth_rate_n(nav.geo[0]), rho)
        return GroupElement(c.copy(), v, rho)

    def embed_pair(self, true_nav, est_nav, aux):
        """Embeddings of (true, estimate) for their error: the true position
        is the estimate's plus the ECEF displacement in its NED axes."""
        x_true, x_est = self.embed(true_nav, aux), self.embed(est_nav, aux)
        lat, lon, _ = est_nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        d_e = earth.llh_to_ecef(*true_nav.geo) - earth.llh_to_ecef(*est_nav.geo)
        return GroupElement(x_true.R, x_true.v, x_est.p + c_en @ d_e), x_est

    def embed_pairs(self, true_nav, est_nav, aux):
        """:meth:`embed_pair` of stacked states, as two (R, v, p) triples of
        stacks whose rows equal the single embeddings bit for bit."""
        (r_t, v_t, _), (r_e, v_e, p_e) = (
            self._embed_stack(nav, aux) for nav in (true_nav, est_nav)
        )
        lat, lon, _ = est_nav.geo.T
        c_en = earth.dcm_ecef_to_ned_array(lat, lon)
        d_e = earth.llh_to_ecef_array(*true_nav.geo.T) - earth.llh_to_ecef_array(
            *est_nav.geo.T
        )
        p_t = p_e + matvec(c_en, np.ascontiguousarray(d_e.T))
        return (r_t, v_t, p_t), (r_e, v_e, p_e)

    @staticmethod
    def _embed_stack(nav, aux):
        lat, _, h = nav.geo.T
        rho = earth.position_vector_n_array(lat, h)
        v = nav.v_n
        if aux:
            v = v + cross(earth.earth_rate_n_array(lat), rho).T
        return nav.c_bn, v, np.ascontiguousarray(rho.T)

    def retract(self, nav, x_est, x_new, aux):
        """The state whose embedding is x_new, read through the chart."""
        c_new = mech.orthonormalize(x_new.R)
        lat, lon, _ = nav.geo
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        r_e = earth.llh_to_ecef(*nav.geo) + c_ne @ (x_new.p - x_est.p)
        geo = np.array(earth.ecef_to_llh(r_e))
        v = x_new.v
        if aux:
            rho = earth.position_vector_n(geo[0], geo[2])
            v = v - cross(earth.earth_rate_n(geo[0]), rho)
        return NavStateNED(c_new, v.copy(), geo)

    def step(self, nav, sample, dt):
        nav = mech.ned_step(nav, sample, dt)
        nav.c_bn = mech.orthonormalize(nav.c_bn)
        return nav

    def innovation(self, nav, fix):
        """Measured minus predicted antenna position and its covariance."""
        lat, lon, _ = nav.geo
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        pred = earth.llh_to_ecef(*nav.geo) + c_en.T @ (nav.c_bn @ fix.lever_arm_b)
        return c_en @ (fix.pos - pred), c_en @ fix.r @ c_en.T

    def misalign(self, nav, rot):
        """Turn the attitude in place by rot, given in local NED axes."""
        nav.c_bn[:] = rot @ nav.c_bn


class EcefChart:
    """ECEF states (C_b^e, v_eb^e, r_eb^e); the group position is r_eb^e."""

    def states(self, gen, times):
        return gen.states_ecef(times)

    def as_ned(self, nav):
        return mech.ecef_to_ned_state(nav)

    def attitude_position(self, nav):
        return nav.c_be, nav.r

    def affine_terms(self, nav, aux):
        w_ie = earth.earth_rate_e()
        grav = (earth.gravitation_e if aux else earth.gravity_e)(nav.r)
        return nav.v, nav.r, w_ie, w_ie, grav

    def embed(self, nav, aux):
        v = nav.v.copy()
        if aux:
            v = v + cross(earth.earth_rate_e(), nav.r)
        return GroupElement(nav.c_be.copy(), v, nav.r.copy())

    def embed_pair(self, true_nav, est_nav, aux):
        return self.embed(true_nav, aux), self.embed(est_nav, aux)

    def embed_pairs(self, true_nav, est_nav, aux):
        """:meth:`embed_pair` of stacked states, as two (R, v, p) triples of
        stacks."""
        return tuple(self._embed_stack(nav, aux) for nav in (true_nav, est_nav))

    @staticmethod
    def _embed_stack(nav, aux):
        v = nav.v
        if aux:
            v = v + cross(earth.earth_rate_e(), nav.r.T).T
        return nav.c_be, v, nav.r

    def retract(self, nav, x_est, x_new, aux):
        c_new = mech.orthonormalize(x_new.R)
        v = x_new.v
        if aux:
            v = v - cross(earth.earth_rate_e(), x_new.p)
        return NavStateECEF(c_new, v.copy(), x_new.p.copy())

    def step(self, nav, sample, dt):
        nav = mech.ecef_step(nav, sample, dt)
        nav.c_be = mech.orthonormalize(nav.c_be)
        return nav

    def innovation(self, nav, fix):
        pred = nav.r + nav.c_be @ fix.lever_arm_b
        return fix.pos - pred, fix.r

    def misalign(self, nav, rot):
        lat, lon, _ = earth.ecef_to_llh(nav.r)
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        nav.c_be[:] = c_ne @ rot @ c_ne.T @ nav.c_be


NED_CHART = NedChart()
ECEF_CHART = EcefChart()


def noise_map(variant, embedding=None):
    """G, the (15, 12) map of the noise (w_g, w_a, w_bg, w_ba) into the error
    state. ``embedding`` is the estimate's (R, skew(v), skew(p)) that a right
    error's input map reads; no nominal enters a left error's G, so a run
    builds it once (``filter.RunConstants``)."""
    g = np.zeros((15, 12))
    g[BG, WBG] = _I3
    g[BA, WBA] = _I3
    _input_map(variant, embedding, g)
    return g


def _input_map(variant, embedding, g):
    """G's gyro and accel noise columns: the map through which IMU white
    noise enters the group error, sign * I for a left error and
    sign * Ad(X) for a right one, X the estimate's group embedding, which
    the frame's block function hands over as (R, skew(v), skew(p))."""
    sign = 1.0 if variant.inverts_true else -1.0
    if not variant.is_right:
        eye = sign * _I3
        g[PHI, WG] = eye
        g[RV, WA] = eye
        return
    r, sk_v, sk_p = embedding
    # scaled before each product: sign * x.adjoint() would flip the sign of
    # its exact zeros, and covariance.csv writes signed zeros
    rot = sign * r
    g[PHI, WG] = rot
    g[RV, WG] = (sign * sk_v) @ r
    g[RV, WA] = rot
    g[RR, WG] = (sign * sk_p) @ r


def error_dynamics(variant, nominal, gyro, accel, tau_g=None, tau_a=None, g=None):
    """Continuous-time (F, G) for the given variant at a nominal state.

    ``nominal`` is a NavStateNED for the NED frames and a NavStateECEF with
    earth-relative velocity for the ECEF frames. ``gyro`` and
    ``accel`` are the bias-corrected IMU rates the filter mechanizes with.

    The frame's block function writes the 9x9 state blocks; for a right
    error it returns the estimate's group embedding as (R, skew(v),
    skew(p)), from the terms it already holds, for the input map. A bias
    error drifts the mechanized rates as the IMU noise does, so F's bias
    columns are a copy of G's gyro and accel noise columns.

    For a ``Variant.lockstep`` variant, a stacked nominal (fields with a
    leading axis of N points: the steps of a leg, its members, or both
    flattened) with (N, 3) rates gives F as an (N, 15, 15) stack, each row
    equal to its single call bit for bit; G, which no nominal enters for a
    left error, stays one (15, 12) matrix.

    ``g`` is a left error's G built once for the run
    (``filter.RunConstants``); without it, G is built here.
    """
    stacked = gyro.ndim == 2
    if stacked and not variant.lockstep:
        raise UnsupportedVariant(f"{variant.name} has no stacked error dynamics")
    f = np.zeros(gyro.shape[:-1] + (15, 15))
    f[..., BG, BG] = (0.0 if tau_g is None else -1.0 / tau_g) * _I3
    f[..., BA, BA] = (0.0 if tau_a is None else -1.0 / tau_a) * _I3
    blocks = _ned_left_stack if stacked else _BLOCKS[variant.frame]
    embedding = blocks(variant, nominal, gyro, accel, f)
    if g is None:
        g = noise_map(variant, embedding)
    f[..., :9, 9:] = g[:9, :6]
    return f, g


def _point_floats(geo):
    """The trig terms and curvature radii at a NED point (``geo``, the
    geodetic position as floats), evaluated once, in Python floats: (h, sin,
    cos, tan, rm, rn, drm, drn)."""
    lat, _, h = geo
    s, c, t = math.sin(lat), math.cos(lat), float(np.tan(lat))
    rm, rn = earth.radii(lat)
    return (h, s, c, t, rm, rn, *earth._radii_derivatives(s, c))


def _local_terms(nom):
    """Earth terms at a NED nominal from one evaluation of the trig terms and
    curvature radii, in Python floats: (h, v, sin, cos, r_n, w_ie, w_en, m1,
    m2, m3, rm, rn, drn), with the vectors as float triples."""
    h, s, c, t, rm, rn, drm, drn = _point_floats(nom.geo.tolist())
    v = nom.v_n.tolist()
    return (
        h,
        v,
        s,
        c,
        earth._position_vector_n(s, c, rn, h),
        earth._earth_rate_n(s, c),
        earth._transport_rate_n(t, rm, rn, h, v),
        earth._m1_matrix(s, c, rm, h),
        earth._m2_matrix(t, rm, rn, h),
        earth._m3_matrix(t, c, rm, rn, drm, drn, h, v),
        rm,
        rn,
        drn,
    )


def _ned_blocks(variant, nom, gyro, accel, f):
    c = nom.c_bn
    h, v, s_lat, _, r_n, w_ie, w_en, m1, m2, m3, rm, rn, _ = _local_terms(nom)
    sk_v = skew(v)
    sk_v_m2 = sk_v @ m2

    if variant.is_right:
        # world-frame errors
        w_in = [a + b for a, b in zip(w_ie, w_en)]
        grav = earth._gravity_n(s_lat**2, rm, rn, h)
        k_g = np.zeros((3, 3))
        k_g[2, 2] = earth._gravity_gradient_down(grav[2], rm, rn, h)
        sk_r = skew(r_n)
        sk_w_en = skew(w_en)
        f[PHI, PHI] = -skew(w_in) + m2 @ sk_v + (m1 + m3) @ sk_r
        f[PHI, RV] = -m2
        f[PHI, RR] = -(m1 + m3)
        f[RV, PHI] = (
            -sk_v @ m1 @ sk_r + sk_v @ skew(w_ie) + skew(grav) - k_g @ sk_r
        )
        f[RV, RV] = -skew([2.0 * a + b for a, b in zip(w_ie, w_en)])
        f[RV, RR] = sk_v @ m1 + k_g
        # position row: exact Jacobian in the local-chart coordinates the
        # filter corrects in (position error = estimate-frame-resolved ECEF
        # displacement); m2 doubles as the displacement-to-frame-angle map
        f[RR, PHI] = (
            (sk_v_m2 + sk_w_en) @ sk_r
            - skew(cross(w_en, r_n))
            + sk_r @ f[PHI, PHI]
        )
        f[RR, RV] = _I3 - sk_r @ m2
        f[RR, RR] = -sk_v_m2 - sk_w_en + sk_r @ f[PHI, RR]
        return c, sk_v, sk_r
    else:
        # body-frame errors; the five C' X C sandwiches as one stack
        ct = c.T
        sw_m2, sw_m13, sw_vm2, sw_vm13, sw_wv = ct @ np.array(
            [m2, m1 + m3, sk_v_m2, sk_v @ (2.0 * m1 + m3), skew(w_ie) - sk_v_m2]
        ) @ c
        sk_g = skew(gyro)
        f[PHI, PHI] = -sk_g
        f[PHI, RV] = -sw_m2
        f[PHI, RR] = -sw_m13
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = sw_vm2 - sk_g - skew(ct @ np.array(w_ie))
        f[RV, RR] = sw_vm13
        # position row: exact Jacobian in the local-chart coordinates (the
        # body-resolved chart displacement integrates the velocity error
        # one-for-one; no curvature coupling survives)
        f[RR, RV] = _I3
        f[RR, RR] = -sk_g + sw_wv


def _ned_left_stack(variant, nom, gyro, accel, f):
    """The left-error branch of :func:`_ned_blocks` for a stacked nominal:
    each member's earth terms are its own float evaluation, and the products
    and sums are the same BLAS calls and IEEE operations on stacks, so each
    member's blocks equal its single call bit for bit."""
    rows = []
    for geo, v in zip(nom.geo.tolist(), nom.v_n.tolist()):
        h, s, c, t, rm, rn, drm, drn = _point_floats(geo)
        rows.append(
            earth._m1_entries(s, c, rm, h)
            + earth._m2_entries(t, rm, rn, h)
            + earth._m3_entries(t, c, rm, rn, drm, drn, h, v)
            + list(earth._earth_rate_n(s, c))
        )
    rows = np.array(rows)
    m1, m2, m3 = rows[:, :27].reshape(-1, 3, 3, 3).transpose(1, 0, 2, 3)
    w_ie = rows[:, 27:]
    sk_v, sk_w_ie = skew_stack(nom.v_n), skew_stack(w_ie)
    c = nom.c_bn
    sk_v_m2 = sk_v @ m2
    ct = c.swapaxes(-1, -2)
    sw = ct[:, None] @ np.stack(
        [m2, m1 + m3, sk_v_m2, sk_v @ (2.0 * m1 + m3), sk_w_ie - sk_v_m2], axis=1
    ) @ c[:, None]
    sk_g = skew_stack(gyro)
    f[:, PHI, PHI] = -sk_g
    f[:, PHI, RV] = -sw[:, 0]
    f[:, PHI, RR] = -sw[:, 1]
    f[:, RV, PHI] = -skew_stack(accel)
    f[:, RV, RV] = sw[:, 2] - sk_g - skew_stack(matvec(ct, w_ie))
    f[:, RV, RR] = sw[:, 3]
    f[:, RR, RV] = _I3
    f[:, RR, RR] = -sk_g + sw[:, 4]


def _ned_aux_blocks(variant, nom, gyro, accel, f):
    c = nom.c_bn
    h, v, s_lat, c_lat, r_n, w_ie, w_en, m1, m2, m3, rm, rn, drn = _local_terms(nom)
    w_in = [a + b for a, b in zip(w_ie, w_en)]
    sk_r = skew(r_n)
    sk_w_ie = skew(w_ie)
    sk_vbar = skew(np.add(v, cross(w_ie, r_n)))
    if not variant.mems_simplified:
        # b = d(w_ie x r_eb^n)/d(dr) in local-chart coordinates; the ground
        # velocity recovered from the auxiliary one inherits it, so the
        # transport-rate sensitivity k1 carries -m2 @ b
        b = -sk_r @ m1 + sk_w_ie @ earth._position_vector_gradient_n(
            s_lat, c_lat, rm, rn, drn, h
        )
        k1 = m1 + m3 - m2 @ b
        k2 = m2

    if not variant.is_right:  # LeftEst
        neg_sk_g = -skew(gyro)
        f[PHI, PHI] = neg_sk_g
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = neg_sk_g
        f[RR, RV] = _I3
        f[RR, RR] = neg_sk_g
        if not variant.mems_simplified:
            # the five C' X C sandwiches as one stack
            sw_k2, sw_k1, sw_vk2, sw_vk1, sw_wbv = c.T @ np.array(
                [k2, k1, sk_vbar @ k2, sk_vbar @ k1, sk_w_ie - b - skew(v) @ m2]
            ) @ c
            f[PHI, RV] += -sw_k2
            f[PHI, RR] += -sw_k1
            f[RV, RV] += sw_vk2
            f[RV, RR] += sw_vk1
            # chart-coordinate position row: velocity error integrates
            # one-for-one (see the plain-frame left block)
            f[RR, RR] += sw_wbv
    else:  # RightTrue
        grav = earth._gravity_n(s_lat**2, rm, rn, h)
        big_g = earth._gravitation_n(w_ie, grav, r_n)
        sk_w_in = skew(w_in)
        f[PHI, PHI] = -sk_w_in
        f[RV, PHI] = skew(big_g)
        f[RV, RV] = -sk_w_in
        f[RR, RV] = _I3
        f[RR, RR] = -sk_w_in
        if not variant.mems_simplified:
            # transport-rate errors couple into the attitude row only
            q1 = k1 @ sk_r + k2 @ sk_vbar
            f[PHI, PHI] += q1
            f[PHI, RV] += -k2
            f[PHI, RR] += -k1
            # chart-coordinate position row: the frame-angle and
            # earth-rate-velocity sensitivities of the chart displacement
            # add earth-radius lever couplings (zero under the simplified
            # model by the Jacobi identity)
            bracket = b + skew(v) @ m2 + skew(w_en)
            f[RR, PHI] = (
                bracket @ sk_r
                - skew(cross(w_in, r_n))
                + sk_r @ f[PHI, PHI]
            )
            f[RR, RV] = _I3 + sk_r @ f[PHI, RV]
            f[RR, RR] = -bracket + sk_r @ f[PHI, RR]
        return c, sk_vbar, sk_r


def _ecef_blocks(variant, nom, gyro, accel, f):
    w_ie = earth.earth_rate_e()
    if not variant.is_right:
        sk_g, sk_w = skew(gyro), skew(nom.c_be.T @ w_ie)
        f[PHI, PHI] = -sk_g
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = -sk_w - sk_g
        f[RR, RV] = _I3
        f[RR, RR] = sk_w - sk_g
    else:
        grav = earth.gravity_e(nom.r)
        sk_w, sk_v, sk_r = skew(w_ie), skew(nom.v), skew(nom.r)
        f[PHI, PHI] = -sk_w
        f[RV, PHI] = sk_v @ sk_w + skew(grav)
        f[RV, RV] = -2.0 * sk_w
        f[RR, PHI] = -sk_r @ sk_w
        f[RR, RV] = _I3
        return nom.c_be, sk_v, sk_r


def _ecef_inertial_blocks(variant, nom, gyro, accel, f):
    if not variant.is_right:
        neg_sk_g = -skew(gyro)
        f[PHI, PHI] = neg_sk_g
        f[RV, PHI] = -skew(accel)
        f[RV, RV] = neg_sk_g
        f[RR, RV] = _I3
        f[RR, RR] = neg_sk_g
    else:
        # RightEst (ECEF_Inertial) and RightTrue (ECEF_Aux) share these
        # blocks; only the input map's sign tells them apart
        w_ie = earth.earth_rate_e()
        neg_sk_w = -skew(w_ie)
        f[PHI, PHI] = neg_sk_w
        f[RV, PHI] = skew(earth.gravitation_e(nom.r))
        f[RV, RV] = neg_sk_w
        f[RR, RV] = _I3
        f[RR, RR] = neg_sk_w
        return nom.c_be, skew(nom.v + cross(w_ie, nom.r)), skew(nom.r)


_BLOCKS = {
    "NED": _ned_blocks,
    "NED_Aux": _ned_aux_blocks,
    "ECEF": _ecef_blocks,
    "ECEF_Inertial": _ecef_inertial_blocks,
    "ECEF_Aux": _ecef_inertial_blocks,
}


# ---------------------------------------------------------------------------
# measurement models (GNSS position with body lever arm)
# ---------------------------------------------------------------------------


def measurement_se23(variant, nominal, lever_arm):
    """Navigation-frame position measurement matrix H (3x15).

    Innovation: z = measured - predicted antenna position,
    expressed in the navigation frame (NED chart axes or ECEF).
    """
    c, r = variant.chart.attitude_position(nominal)
    sign = 1.0 if variant.inverts_true else -1.0
    h = np.zeros((3, 15))
    if variant.is_right:
        h[:, PHI] = sign * skew(r + c @ lever_arm)
        h[:, RR] = -sign * _I3
    else:
        h[:, PHI] = (sign * c) @ skew(lever_arm)
        h[:, RR] = -sign * c
    return h


def measurement_left_invariant(variant, nominal, lever_arm):
    """Body-frame (left-invariant) measurement model.

    Returns (H, M) with innovation z_b = C^T z_nav and R_body = M R M^T.
    Only defined for the LeftEst error definition.
    """
    if variant.error_def != "LeftEst":
        raise IncompatibleMode(
            "left-invariant measurement requires the LeftEst error definition"
        )
    c, _ = variant.chart.attitude_position(nominal)
    h = np.zeros((3, 15))
    h[:, PHI] = -skew(lever_arm)
    h[:, RR] = _I3
    return h, c.T


# ---------------------------------------------------------------------------
# group-affine form of the deterministic dynamics
# ---------------------------------------------------------------------------


def group_affine_dynamics(variant, nominal, gyro, accel):
    """Return (W1, W2) with d/dt X = X W1 + W2 X at the nominal.

    State-dependent entries of W2 are frozen at the nominal, which is what
    makes the flow group-affine.
    """
    w1 = np.zeros((5, 5))
    w1[:3, :3] = skew(gyro)
    w1[:3, 3] = accel
    v, r, w_ie, w_in, grav = variant.chart.affine_terms(nominal, variant.aux_velocity)
    w2 = np.zeros((5, 5))
    w2[:3, :3] = -skew(w_in)
    # an auxiliary velocity absorbs the Coriolis term into gravitation
    w2[:3, 3] = grav if variant.aux_velocity else grav - cross(w_ie, v)
    w2[:3, 4] = v + cross(w_ie, r)
    return w1, w2
