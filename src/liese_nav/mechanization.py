"""Strapdown mechanization: NED (geodetic) and ECEF forms.

Continuous-time derivative functions plus RK4 stepping with
piecewise-constant IMU inputs. A step integrates the state packed into one
15-vector (rotation row by row, velocity, position), so every RK4 stage is
one vector expression for both frames. Both frames carry the earth-relative
velocity v_eb; the inertial and auxiliary velocities of the ECEF variants
are embedded from it by the variant's chart (``errormodels.EcefChart``).
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import earth
from liese_nav.liegroup import cross, matvec, skew


@dataclass
class ImuSample:
    t: float
    gyro: np.ndarray  # omega_ib^b, rad/s
    accel: np.ndarray  # f_ib^b, m/s^2


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
    """Point k of a stacked state."""
    return type(stacked)(*(x[k] for x in vars(stacked).values()))


def _pack(state):
    """A state as one 15-vector: the rotation row by row, then the velocity,
    then the position."""
    rot, vel, pos = vars(state).values()
    return np.concatenate((rot.ravel(), vel, pos))


def _fields(x):
    """(rotation, velocity, position) views into a packed 15-vector."""
    return x[:9].reshape(3, 3), x[9:12], x[12:]


def _ned_rates(x, sk_gyro, accel):
    """The derivative of a packed NED state, packed alike.

    The latitude's trig terms and curvature radii are evaluated once, in
    Python floats, and shared by the earth rate, transport rate, gravity
    and geodetic rates; ``sk_gyro`` is skew(gyro), which a step builds once.
    """
    c_bn = x[:9].reshape(3, 3)
    *v, lat, _, h = x[9:].tolist()
    earth.check_latitude(lat)
    s, c = math.sin(lat), math.cos(lat)
    rm, rn = earth.radii(lat)
    w_ie = earth._earth_rate_n(s, c)
    w_en = earth._transport_rate_n(float(np.tan(lat)), rm, rn, h, v)
    w_in = [a + b for a, b in zip(w_ie, w_en)]
    g = earth._gravity_n(s**2, rm, rn, h)
    coriolis = cross([2.0 * a + b for a, b in zip(w_ie, w_en)], v).tolist()
    f_n = (c_bn @ accel).tolist()
    out = np.empty(15)
    np.subtract(c_bn @ sk_gyro, skew(w_in) @ c_bn, out=out[:9].reshape(3, 3))
    out[9:] = [a - b + gk for a, b, gk in zip(f_n, coriolis, g)] + [
        n * u for n, u in zip(earth._n_rv_diagonal(c, rm, rn, h), v)
    ]
    return out


def _ecef_rates(x, sk_gyro, accel):
    """The derivative of a packed ECEF state, packed alike."""
    c_be, v, r = _fields(x)
    w_ie = earth.earth_rate_e()
    out = np.empty(15)
    np.subtract(c_be @ sk_gyro, skew(w_ie) @ c_be, out=out[:9].reshape(3, 3))
    g = earth.gravity_e(r)
    out[9:12] = c_be @ accel - 2.0 * cross(w_ie, v) + g
    out[12:] = v
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
    sk_gyro, accel = skew(imu.gyro), imu.accel
    return _rk4(state, dt, lambda x: _ned_rates(x, sk_gyro, accel))


def ecef_step(state, imu, dt):
    sk_gyro, accel = skew(imu.gyro), imu.accel
    return _rk4(state, dt, lambda x: _ecef_rates(x, sk_gyro, accel))


def orthonormalize(c):
    """Project onto SO(3) (polar decomposition via SVD)."""
    u, _, vt = np.linalg.svd(c)
    out = u @ vt
    # det(out) = out[0] . (out[1] x out[2]) is +-1 here, so the triple
    # product in plain floats gives its sign at a sixth of np.linalg.det's cost
    x, y, z = out.tolist()
    triple = (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        + x[1] * (y[2] * z[0] - y[0] * z[2])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )
    if triple < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


def ecef_to_ned_state(state):
    """The NED form of an ECEF state; a stacked state, whose fields carry a
    leading axis of N points, converts to a stacked NED state."""
    lat, lon, h = earth.ecef_to_llh(state.r.T)
    stacked = state.r.ndim == 2
    c_en = (earth.dcm_ecef_to_ned_array if stacked else earth.dcm_ecef_to_ned)(lat, lon)
    return NavStateNED(
        c_en @ state.c_be, matvec(c_en, state.v), np.stack([lat, lon, h], axis=-1)
    )
