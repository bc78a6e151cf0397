"""Strapdown mechanization: NED (geodetic) and ECEF forms.

Continuous-time derivative functions plus RK4 stepping with
piecewise-constant IMU inputs. A step integrates the state packed into one
15-vector (rotation row by row, velocity, position), so every RK4 stage is
one vector expression for both frames. Both frames carry the earth-relative
velocity v_eb; the inertial and auxiliary velocities of the ECEF variants
are embedded from it by the variant's chart (``errormodels.EcefChart``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from liese_nav import earth
from liese_nav.liegroup import cross, matvec, skew, skew_stack


@dataclass
class ImuSample:
    t: float
    gyro: np.ndarray  # omega_ib^b, rad/s
    accel: np.ndarray  # f_ib^b, m/s^2


class Rows:
    """A stream of ``kind`` objects over one array whose first axis is the
    index: item k is ``kind(times[k], *values[k])``, or ``kind(*values[k])``
    without times. An IMU stream holds (n, 2, 3) rates (gyro, accel), or
    (n, 2, N, 3) for N members, and Python-float times; a bias track holds
    (n, 2, 3). Items are built on demand and their fields are views, so a
    write to one reaches the array; a slice is the stream of its rows."""

    def __init__(self, kind, values, times=None):
        self.kind, self.values, self.times = kind, values, times

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        if isinstance(k, slice):
            times = None if self.times is None else self.times[k]
            return Rows(self.kind, self.values[k], times)
        head = () if self.times is None else (self.times[k],)
        return self.kind(*head, *self.values[k])


@dataclass
class NavStateNED:
    c_bn: np.ndarray  # body-to-NED rotation
    v_n: np.ndarray  # v_eb^n
    geo: np.ndarray  # lat, lon, h

    def copy(self):
        return NavStateNED(self.c_bn.copy(), self.v_n.copy(), self.geo.copy())


@dataclass
class NavStateECEF:
    c_be: np.ndarray  # body-to-ECEF rotation
    v: np.ndarray  # v_eb^e
    r: np.ndarray  # r_eb^e

    def copy(self):
        return NavStateECEF(self.c_be.copy(), self.v.copy(), self.r.copy())


def stack_states(states):
    """One stacked state from a list of states of one type: every field
    gains a leading axis of len(states) points."""
    fields = zip(*(vars(s).values() for s in states))
    return type(states[0])(*(np.array(f) for f in fields))


def state_at(stacked, k):
    """Point k of a stacked state; a slice k gives the stacked points."""
    return type(stacked)(*(x[k] for x in vars(stacked).values()))


def _pack(state):
    """A state as one 15-vector: the rotation row by row, then the velocity,
    then the position; a stacked state packs to an (N, 15) stack."""
    rot, vel, pos = vars(state).values()
    return np.concatenate((rot.reshape(vel.shape[:-1] + (9,)), vel, pos), axis=-1)


def _fields(x):
    """(rotation, velocity, position) views into a packed 15-vector or an
    (N, 15) stack of them."""
    return x[..., :9].reshape(x.shape[:-1] + (3, 3)), x[..., 9:12], x[..., 12:]


def _ned_point(rest, t):
    """The earth terms of a NED derivative at one point, in Python floats:
    w_in^n, the Coriolis term, gravity and the geodetic rates, as one list
    of 12. ``rest`` is the packed state's tail (v_n, lat, lon, h) as floats,
    and ``t`` is tan(lat) as ``np.tan`` rounds it.

    The latitude's trig terms and curvature radii are evaluated once, and
    shared by the earth rate, transport rate, gravity and geodetic rates.
    """
    *v, lat, _, h = rest
    earth.check_state_latitude(lat)
    s, c = math.sin(lat), math.cos(lat)
    rm, rn = earth.radii(lat)
    (a0, a1, a2), (b0, b1, b2) = (
        earth._earth_rate_n(s, c), earth._transport_rate_n(t, rm, rn, h, v)
    )
    # the products and differences of liegroup.cross(2 w_ie + w_en, v)
    r0, r1, r2 = 2.0 * a0 + b0, 2.0 * a1 + b1, 2.0 * a2 + b2
    n0, n1, n2 = earth._n_rv_diagonal(c, rm, rn, h)
    return [
        a0 + b0, a1 + b1, a2 + b2,
        r1 * v[2] - r2 * v[1], r2 * v[0] - r0 * v[2], r0 * v[1] - r1 * v[0],
        *earth._gravity_n(s**2, rm, rn, h),
        n0 * v[0], n1 * v[1], n2 * v[2],
    ]


def _ned_rates(x, sk_gyro, accel):
    """The derivative of a packed NED state, packed alike; ``sk_gyro`` is
    skew(gyro), which a step builds once."""
    c_bn = x[:9].reshape(3, 3)
    rest = x[9:].tolist()
    t = _ned_point(rest, float(np.tan(rest[3])))
    f_n = (c_bn @ accel).tolist()
    out = np.empty(15)
    np.subtract(c_bn @ sk_gyro, skew(t[:3]) @ c_bn, out=out[:9].reshape(3, 3))
    out[9:12] = [a - b + gk for a, b, gk in zip(f_n, t[3:6], t[6:9])]
    out[12:] = t[9:]
    return out


def _ned_rates_stack(x, sk_gyro, accel):
    """:func:`_ned_rates` of an (N, 15) stack of packed states, with (N, 3, 3)
    ``sk_gyro`` and (N, 3) ``accel``: each member's earth terms are its own
    float evaluation, and the products and sums are the same BLAS calls and
    IEEE operations on stacks, so each row equals its single call bit for
    bit."""
    n = len(x)
    c_bn = x[:, :9].reshape(n, 3, 3)
    t = np.array(list(map(_ned_point, x[:, 9:].tolist(), np.tan(x[:, 12]).tolist())))
    out = np.empty((n, 15))
    np.subtract(
        c_bn @ sk_gyro, skew_stack(t[:, :3]) @ c_bn, out=out[:, :9].reshape(n, 3, 3)
    )
    out[:, 9:12] = matvec(c_bn, accel) - t[:, 3:6] + t[:, 6:9]
    out[:, 12:] = t[:, 9:]
    return out


def _ecef_rates(x, sk_gyro, accel):
    """The derivative of a packed ECEF state, packed alike, or, as
    :func:`_ned_rates_stack` has it, of an (N, 15) stack of them."""
    c_be, v, r = _fields(x)
    out = np.empty(x.shape)
    rot = out[..., :9].reshape(c_be.shape)
    np.subtract(c_be @ sk_gyro, earth.SK_W_IE_E @ c_be, out=rot)
    g = earth._gravity_e_rows(r)
    out[..., 9:12] = matvec(c_be, accel) - 2.0 * cross(earth.W_IE_E, v.T).T + g
    out[..., 12:] = v
    return out


def _rk4(state, dt, deriv):
    """The state one classical RK4 step later; deriv maps a packed state to
    its packed derivative."""
    x = _pack(state)
    k1 = deriv(x)
    k2 = deriv(x + (0.5 * dt) * k1)
    k3 = deriv(x + (0.5 * dt) * k2)
    k4 = deriv(x + dt * k3)
    return type(state)(*_fields(x + dt * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)))


def ned_step(state, imu, dt):
    """The NED state one RK4 step later. A stacked state (fields with a
    leading axis of N members) with (N, 3) IMU rates steps as one stack,
    each member equal to its single step bit for bit."""
    if state.c_bn.ndim == 3:
        sk_gyro, accel = skew_stack(imu.gyro), imu.accel
        return _rk4(state, dt, lambda x: _ned_rates_stack(x, sk_gyro, accel))
    sk_gyro, accel = skew(imu.gyro), imu.accel
    return _rk4(state, dt, lambda x: _ned_rates(x, sk_gyro, accel))


def ecef_step(state, imu, dt):
    """The ECEF state one RK4 step later, of one state or a stack, as
    :func:`ned_step` steps them, through one :func:`_ecef_rates`."""
    sk_gyro, accel = (skew_stack if state.c_be.ndim == 3 else skew)(imu.gyro), imu.accel
    return _rk4(state, dt, lambda x: _ecef_rates(x, sk_gyro, accel))


try:
    # the LAPACK gufunc np.linalg.svd calls, without the wrapper's checks
    # and errstate, which cost more than the 3x3 SVD itself
    from numpy.linalg._umath_linalg import svd_f

    _svd = functools.partial(svd_f, signature="d->ddd")
except ImportError:  # a private module: fall back to the public call
    _svd = np.linalg.svd


_FLIP = np.diag([1.0, 1.0, -1.0])
_FLIP.flags.writeable = False


def orthonormalize(c):
    """Project onto SO(3) (polar decomposition via SVD); an (N, 3, 3) stack
    projects each matrix, bit for bit as its single call.

    Raises
    ------
    np.linalg.LinAlgError
        If an entry is not finite (LAPACK's SVD does not return on an
        infinite entry), or if the SVD does not converge: the gufunc returns
        NaN factors there, where np.linalg.svd raises.
    """
    # one reduction is finite unless an entry is not finite or the finite
    # entries overflow the sum; only then are the entries checked one by one
    if not math.isfinite(c.sum()) and not np.isfinite(c).all():
        raise np.linalg.LinAlgError("non-finite entry in the matrix to project")
    u, _, vt = _svd(c)
    out = u @ vt
    if out.ndim == 3:
        return _signed_stack(u, vt, out)
    # det(out) = out[0] . (out[1] x out[2]) is +-1 here, so the triple
    # product in plain floats gives its sign at a sixth of np.linalg.det's cost
    x, y, z = out.tolist()
    triple = (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        + x[1] * (y[2] * z[0] - y[0] * z[2])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )
    if not abs(triple) > 0.5:  # true for NaN too
        raise np.linalg.LinAlgError("SVD did not converge")
    if triple < 0:
        out = u @ _FLIP @ vt
    return out


def _signed_stack(u, vt, out):
    """The stacked tail of :func:`orthonormalize`: each det(out) is +-1, so
    any determinant gives its sign."""
    det = np.linalg.det(out)
    if not (np.abs(det) > 0.5).all():  # true for NaN too
        raise np.linalg.LinAlgError("SVD did not converge")
    flip = det < 0
    if flip.any():
        out[flip] = u[flip] @ _FLIP @ vt[flip]
    return out


def ecef_to_ned_state(state):
    """The NED form of an ECEF state; a stacked state, whose fields carry a
    leading axis of N points, converts to a stacked NED state."""
    lat, lon, h = earth.ecef_to_llh(state.r.T)
    c_en = earth.dcm_ecef_to_ned(lat, lon)
    return NavStateNED(
        c_en @ state.c_be, matvec(c_en, state.v), np.stack([lat, lon, h], axis=-1)
    )
