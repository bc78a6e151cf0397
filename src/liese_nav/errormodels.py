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

import functools
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
    def invariant_update(self):
        """The body-frame (left-invariant) GNSS update is defined for the
        LeftEst error only."""
        return self.error_def == "LeftEst"

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


def _project(rot):
    """``mechanization.orthonormalize`` of one rotation matrix, through its
    row form."""
    return np.array(mech.orthonormalize(rot.ravel().tolist())).reshape(3, 3)


class NedChart:
    """Geodetic NED states (C_b^n, v_eb^n, lat/lon/h), embedded with the
    position vector r_eb^n. The error's position slot is the ECEF
    displacement resolved in the estimate's NED axes (a full-rank chart).
    A leg (:meth:`leg`) steps one member as a row of Python floats."""

    def states(self, gen, times):
        """Stacked truth at the times."""
        return gen.states_ned(times)

    def as_ned(self, nav):
        return nav

    def attitude_position(self, nav):
        lat, _, h = nav.geo
        return nav.c_bn, earth.position_vector_n(lat, h)

    def embed(self, nav, aux):
        """The group embedding of one state or of stacked states."""
        lat, _, h = nav.geo.T
        rho = earth.position_vector_n(lat, h)
        v = nav.v_n
        if aux:
            v = v + cross(earth.earth_rate_n(lat), rho).T
        return GroupElement(*map(np.ascontiguousarray, (nav.c_bn, v, rho.T)))

    def embed_pairs(self, true_nav, est_nav, aux):
        """Embeddings of (true, estimate) for their error, of one state or of
        stacked states alike: the true position is the estimate's plus the
        ECEF displacement resolved in the estimate's NED axes, so the true
        position vector only enters an auxiliary velocity."""
        x_est = self.embed(est_nav, aux)
        v_true = self.embed(true_nav, aux).v if aux else true_nav.v_n
        lat, lon, h = est_nav.geo.T
        c_en = earth.dcm_ecef_to_ned(lat, lon)
        d_e = earth.llh_to_ecef(*true_nav.geo.T) - earth.llh_to_ecef(lat, lon, h)
        p_t = x_est.p + matvec(c_en, np.ascontiguousarray(d_e.T))
        x_true = GroupElement(
            np.ascontiguousarray(true_nav.c_bn), np.ascontiguousarray(v_true), p_t
        )
        return x_true, x_est

    def retract(self, nav, x_est, x_new, aux):
        """The state whose embedding is x_new, read through the chart."""
        c_new = _project(x_new.R)
        lat, lon, _ = nav.geo
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        r_e = earth.llh_to_ecef(*nav.geo) + c_ne @ (x_new.p - x_est.p)
        geo = np.array(earth.ecef_to_llh(r_e))
        v = x_new.v
        if aux:
            rho = earth.position_vector_n(geo[0], geo[2])
            v = v - cross(earth.earth_rate_n(geo[0]), rho)
        return NavStateNED(c_new, v.copy(), geo)

    def leg(self, nav, gyros, accels, dt):
        """The stacked pre-step nominals of a leg and its end state, one
        ``mechanization.ned_step`` per sample (``mechanization.leg``): one
        member steps as a row of floats, a stack as an array."""
        return mech.leg(nav, mech.ned_step, gyros, accels, dt)

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
    """ECEF states (C_b^e, v_eb^e, r_eb^e); the group position is r_eb^e. A
    leg (:meth:`leg`) steps one member as a row of Python floats."""

    def states(self, gen, times):
        return gen.states_ecef(times)

    def as_ned(self, nav):
        return mech.ecef_to_ned_state(nav)

    def attitude_position(self, nav):
        return nav.c_be, nav.r

    def embed(self, nav, aux):
        """The group embedding of one state or of stacked states."""
        v = nav.v
        if aux:
            v = v + cross(earth.W_IE_E, nav.r.T).T
        return GroupElement(*map(np.ascontiguousarray, (nav.c_be, v, nav.r)))

    def embed_pairs(self, true_nav, est_nav, aux):
        """Embeddings of (true, estimate) for their error, of one state or of
        stacked states alike."""
        return self.embed(true_nav, aux), self.embed(est_nav, aux)

    def retract(self, nav, x_est, x_new, aux):
        c_new = _project(x_new.R)
        v = x_new.v
        if aux:
            v = v - cross(earth.W_IE_E, x_new.p)
        return NavStateECEF(c_new, v.copy(), x_new.p.copy())

    def leg(self, nav, gyros, accels, dt):
        """As :meth:`NedChart.leg`, one ``mechanization.ecef_step`` per
        sample: one member steps as a row of floats, a stack as an array."""
        return mech.leg(nav, mech.ecef_step, gyros, accels, dt)

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
    error's input map reads; a stacked embedding (fields with a leading axis
    of N points) gives an (N, 15, 12) stack. No nominal enters a left
    error's G, so a run builds it once (``filter.RunConstants``)."""
    lead = () if embedding is None else embedding[0].shape[:-2]
    g = np.zeros(lead + (15, 12))
    g[..., BG, WBG] = _I3
    g[..., BA, WBA] = _I3
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
        g[..., PHI, WG] = eye
        g[..., RV, WA] = eye
        return
    r, sk_v, sk_p = embedding
    # scaled before each product: scaling the assembled adjoint by sign
    # would flip the sign of its exact zeros, and covariance.csv writes
    # signed zeros
    rot = sign * r
    g[..., PHI, WG] = rot
    g[..., RV, WG] = (sign * sk_v) @ r
    g[..., RV, WA] = rot
    g[..., RR, WG] = (sign * sk_p) @ r


def error_dynamics(variant, nominal, gyro, accel, tau_g=None, tau_a=None, g=None):
    """Continuous-time (F, G) for the given variant at N nominal states.

    ``nominal`` is a stacked NavStateNED for the NED frames and a stacked
    NavStateECEF with earth-relative velocity for the ECEF frames: fields
    with a leading axis of N points, the steps of a leg, its members, or
    both flattened. ``gyro`` and ``accel`` are the (N, 3) bias-corrected IMU
    rates the filter mechanizes with. F comes as an (N, 15, 15) stack, and
    a right error's G as an (N, 15, 12) stack, each point's equal to its
    call as a stack of one bit for bit.

    The frame's block function writes the 9x9 state blocks of the whole
    stack in one call: each point's earth terms are its own float
    evaluation, and the products and sums are the same BLAS calls and IEEE
    operations for every point, so a point's blocks do not depend on the
    stack they are in. For a right error it returns the stacked group
    embedding as (R, skew(v), skew(p)), from the terms it already holds,
    for the input map. A bias error drifts the mechanized rates as the IMU
    noise does, so F's bias columns are a copy of G's gyro and accel noise
    columns.

    ``g`` is a left error's G, one matrix, which no nominal enters, built
    once for the run (``filter.RunConstants``); without it, G is built here.
    """
    f = np.zeros((len(gyro), 15, 15))
    f[:, BG, BG] = _bias_drift(tau_g)
    f[:, BA, BA] = _bias_drift(tau_a)
    embedding = _BLOCKS[variant.frame](variant, nominal, gyro, accel, f)
    if g is None:
        g = noise_map(variant, embedding)
    f[:, :9, 9:] = g[..., :9, :6]
    return f, g


@functools.cache
def _bias_drift(tau):
    """F's Gauss-Markov bias block -I / tau, or zero for a random-constant
    bias (tau None), built once per time constant (read-only)."""
    block = (0.0 if tau is None else -1.0 / tau) * _I3
    block.flags.writeable = False
    return block


def _point_floats(geo):
    """The trig terms and curvature radii at a NED point (``geo``, the
    geodetic position as floats), evaluated once, in Python floats: (h, sin,
    cos, tan, rm, rn, drm, drn)."""
    lat, _, h = geo
    s, c, t = math.sin(lat), math.cos(lat), float(np.tan(lat))
    rm, rn = earth.radii(lat)
    return (h, s, c, t, rm, rn, *earth._radii_derivatives(s, c))


def _ned_terms(nom, full):
    """The earth terms at each point of a stacked NED nominal, as stacks:
    the matrices (m1, m2, m3) and the earth rate w_ie; with ``full`` the
    matrices (m1, m2, m3, k_g, dr) and the vectors (w_ie, r_n, w_en, g_n),
    where k_g is the gravity gradient (only k_g[2, 2] is nonzero) and dr
    the position vector's gradient. Each point's terms come from one float
    evaluation of its trig terms and curvature radii, as one row of floats,
    so they do not depend on the stack they are in."""
    rows = []
    for geo, v in zip(nom.geo.tolist(), nom.v_n.tolist()):
        h, s, c, t, rm, rn, drm, drn = _point_floats(geo)
        row = (
            earth._m1_entries(s, c, rm, h)
            + earth._m2_entries(t, rm, rn, h)
            + earth._m3_entries(t, c, rm, rn, drm, drn, h, v)
        )
        vectors = earth._earth_rate_n(s, c)
        if full:
            grav = earth._gravity_n(s**2, rm, rn, h)
            row += [0.0] * 8 + [earth._gravity_gradient_down(grav[2], rm, rn, h)]
            row += earth._position_vector_gradient_entries(s, c, rm, rn, drn, h)
            vectors += (
                earth._position_vector_n(s, c, rn, h)
                + earth._transport_rate_n(t, rm, rn, h, v)
                + grav
            )
        rows.append(row + list(vectors))
    rows = np.array(rows)
    n, k = len(rows), 5 if full else 3
    mats = rows[:, : 9 * k].reshape(n, k, 3, 3).swapaxes(0, 1)
    return (*mats, *rows[:, 9 * k :].reshape(n, -1, 3).swapaxes(0, 1))


def _skews(*vectors):
    """``skew_stack`` of each of several (N, 3) stacks, from one call."""
    n = len(vectors[0])
    return skew_stack(np.concatenate(vectors)).reshape(len(vectors), n, 3, 3)


def _affine_blocks(f, neg_sk_w, rv_phi):
    """The blocks of an error whose rows carry no earth-curvature term:
    ``neg_sk_w`` (-skew of the gyro rate for a left error, of the frame rate
    for a right one) on the diagonal, ``rv_phi`` in the velocity row's
    attitude column and the identity in the position row's velocity column."""
    f[:, PHI, PHI] = f[:, RV, RV] = f[:, RR, RR] = neg_sk_w
    f[:, RV, PHI] = rv_phi
    f[:, RR, RV] = _I3


def _ned_blocks(variant, nom, gyro, accel, f):
    """The NED blocks. The body-frame (left-error) blocks are the same for
    LeftEst and LeftTrue, and their position row is the exact Jacobian in
    the local-chart coordinates: the body-resolved chart displacement
    integrates the velocity error one-for-one, and no curvature coupling
    survives."""
    if not variant.is_right:
        m1, m2, m3, w_ie = _ned_terms(nom, full=False)
        c = nom.c_bn
        ct = c.swapaxes(-1, -2)
        sk_v, sk_w_ie, sk_g, sk_a, sk_w_b = _skews(
            nom.v_n, w_ie, gyro, accel, matvec(ct, w_ie)
        )
        sk_v_m2 = sk_v @ m2
        # the five C' X C sandwiches as one stack
        sw = ct @ np.array(
            [m2, m1 + m3, sk_v_m2, sk_v @ (2.0 * m1 + m3), sk_w_ie - sk_v_m2]
        ) @ c
        f[:, PHI, PHI] = -sk_g
        f[:, PHI, RV] = -sw[0]
        f[:, PHI, RR] = -sw[1]
        f[:, RV, PHI] = -sk_a
        f[:, RV, RV] = sw[2] - sk_g - sk_w_b
        f[:, RV, RR] = sw[3]
        f[:, RR, RV] = _I3
        f[:, RR, RR] = -sk_g + sw[4]
        return None
    m1, m2, m3, k_g, _, w_ie, r_n, w_en, grav = _ned_terms(nom, full=True)
    sk_v, sk_r, sk_w_ie, sk_w_en, sk_w_in, sk_2w_ie_en, sk_grav, sk_w_en_r = _skews(
        nom.v_n, r_n, w_ie, w_en, w_ie + w_en, 2.0 * w_ie + w_en, grav,
        cross(w_en.T, r_n.T).T,
    )
    sk_v_m2 = sk_v @ m2
    m13 = m1 + m3
    f[:, PHI, PHI] = -sk_w_in + m2 @ sk_v + m13 @ sk_r
    f[:, PHI, RV] = -m2
    f[:, PHI, RR] = -m13
    f[:, RV, PHI] = -sk_v @ m1 @ sk_r + sk_v @ sk_w_ie + sk_grav - k_g @ sk_r
    f[:, RV, RV] = -sk_2w_ie_en
    f[:, RV, RR] = sk_v @ m1 + k_g
    # position row: exact Jacobian in the local-chart coordinates the
    # filter corrects in (position error = estimate-frame-resolved ECEF
    # displacement); m2 doubles as the displacement-to-frame-angle map
    f[:, RR, PHI] = (sk_v_m2 + sk_w_en) @ sk_r - sk_w_en_r + sk_r @ f[:, PHI, PHI]
    f[:, RR, RV] = _I3 - sk_r @ m2
    f[:, RR, RR] = -sk_v_m2 - sk_w_en + sk_r @ f[:, PHI, RR]
    return nom.c_bn, sk_v, sk_r


def _ned_aux_blocks(variant, nom, gyro, accel, f):
    m1, m2, m3, _, dr, w_ie, r_n, w_en, grav = _ned_terms(nom, full=True)
    c = nom.c_bn
    sk_v, sk_r, sk_w_ie, sk_vbar = _skews(
        nom.v_n, r_n, w_ie, nom.v_n + cross(w_ie.T, r_n.T).T
    )
    if not variant.mems_simplified:
        # b = d(w_ie x r_eb^n)/d(dr) in local-chart coordinates; the ground
        # velocity recovered from the auxiliary one inherits it, so the
        # transport-rate sensitivity k1 carries -m2 @ b
        b = -sk_r @ m1 + sk_w_ie @ dr
        k1 = m1 + m3 - m2 @ b
        k2 = m2

    if not variant.is_right:  # LeftEst
        _affine_blocks(f, *-_skews(gyro, accel))
        if not variant.mems_simplified:
            # the five C' X C sandwiches as one stack
            sw = c.swapaxes(-1, -2) @ np.array(
                [k2, k1, sk_vbar @ k2, sk_vbar @ k1, sk_w_ie - b - sk_v @ m2]
            ) @ c
            f[:, PHI, RV] += -sw[0]
            f[:, PHI, RR] += -sw[1]
            f[:, RV, RV] += sw[2]
            f[:, RV, RR] += sw[3]
            # chart-coordinate position row: velocity error integrates
            # one-for-one (see the plain-frame left block)
            f[:, RR, RR] += sw[4]
        return None
    # RightTrue
    w_in = w_ie + w_en
    sk_w_in, sk_big_g, sk_w_en, sk_w_in_r = _skews(
        w_in, earth._gravitation(w_ie, grav, r_n), w_en, cross(w_in.T, r_n.T).T
    )
    _affine_blocks(f, -sk_w_in, sk_big_g)
    if not variant.mems_simplified:
        # transport-rate errors couple into the attitude row only
        q1 = k1 @ sk_r + k2 @ sk_vbar
        f[:, PHI, PHI] += q1
        f[:, PHI, RV] += -k2
        f[:, PHI, RR] += -k1
        # chart-coordinate position row: the frame-angle and
        # earth-rate-velocity sensitivities of the chart displacement
        # add earth-radius lever couplings (zero under the simplified
        # model by the Jacobi identity)
        bracket = b + sk_v @ m2 + sk_w_en
        f[:, RR, PHI] = bracket @ sk_r - sk_w_in_r + sk_r @ f[:, PHI, PHI]
        f[:, RR, RV] = _I3 + sk_r @ f[:, PHI, RV]
        f[:, RR, RR] = -bracket + sk_r @ f[:, PHI, RR]
    return c, sk_vbar, sk_r


def _ecef_blocks(variant, nom, gyro, accel, f):
    if not variant.is_right:
        w_b = matvec(nom.c_be.swapaxes(-1, -2), earth.W_IE_E)
        sk_g, sk_a, sk_w = _skews(gyro, accel, w_b)
        f[:, PHI, PHI] = -sk_g
        f[:, RV, PHI] = -sk_a
        f[:, RV, RV] = -sk_w - sk_g
        f[:, RR, RV] = _I3
        f[:, RR, RR] = sk_w - sk_g
        return None
    # each point's gravity in its own float code, as the mechanization has it
    grav = earth._gravity_e_rows(nom.r)
    sk_w = earth.SK_W_IE_E
    sk_v, sk_r, sk_grav = _skews(nom.v, nom.r, grav)
    f[:, PHI, PHI] = -sk_w
    f[:, RV, PHI] = sk_v @ sk_w + sk_grav
    f[:, RV, RV] = -2.0 * sk_w
    f[:, RR, PHI] = -sk_r @ sk_w
    f[:, RR, RV] = _I3
    return nom.c_be, sk_v, sk_r


def _ecef_inertial_blocks(variant, nom, gyro, accel, f):
    if not variant.is_right:
        _affine_blocks(f, *-_skews(gyro, accel))
        return None
    # RightEst (ECEF_Inertial) and RightTrue (ECEF_Aux) share these
    # blocks; only the input map's sign tells them apart
    w_ie = np.broadcast_to(earth.W_IE_E, nom.r.shape)
    big_g = earth._gravitation(w_ie, earth._gravity_e_rows(nom.r), nom.r)
    v_i = nom.v + cross(earth.W_IE_E, nom.r.T).T
    sk_big_g, sk_v_i, sk_r = _skews(big_g, v_i, nom.r)
    _affine_blocks(f, -earth.SK_W_IE_E, sk_big_g)
    return nom.c_be, sk_v_i, sk_r


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
    if not variant.invariant_update:
        raise IncompatibleMode(
            "left-invariant measurement requires the LeftEst error definition"
        )
    c, _ = variant.chart.attitude_position(nominal)
    h = np.zeros((3, 15))
    h[:, PHI] = -skew(lever_arm)
    h[:, RR] = _I3
    return h, c.T
