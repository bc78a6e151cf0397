"""Strapdown mechanization: NED (geodetic) and ECEF forms.

Continuous-time derivative functions plus RK4/Euler stepping with
piecewise-constant IMU inputs. The gravity model can be overridden through
``gravity_fn`` (test hook; e.g. zero gravity, or a frozen model for
linearization checks).
"""

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
    v: np.ndarray  # v_eb^e ('earth') or v_ib^e ('inertial')
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


def ned_derivative(state, gyro, accel, gravity_fn=None):
    """Time derivatives of (C_b^n, v_eb^n, geo).

    The latitude's trig terms and curvature radii are evaluated once and
    shared by the earth rate, transport rate, gravity and geodetic rates.
    """
    lat, _, h = state.geo
    earth.check_latitude(lat)
    v = state.v_n
    s, c = np.sin(lat), np.cos(lat)
    rm, rn = earth.radii(lat)
    w_ie = earth._earth_rate_n(s, c)
    w_en = earth._transport_rate_n(np.tan(lat), rm, rn, h, v)
    w_in = w_ie + w_en
    if gravity_fn is None:
        g = earth._gravity_n(s**2, rm, rn, h)
    else:
        g = gravity_fn(lat, h)
    c_dot = state.c_bn @ skew(gyro) - skew(w_in) @ state.c_bn
    v_dot = state.c_bn @ accel - cross(2.0 * w_ie + w_en, v) + g
    geo_dot = earth._n_rv_diagonal(c, rm, rn, h) * v
    return c_dot, v_dot, geo_dot


def ecef_derivative(state, gyro, accel, convention="earth", gravity_fn=None):
    """Time derivatives of (C_b^e, v, r) for either velocity convention.

    'earth' uses v = v_eb^e; 'inertial' uses v = v_ib^e = v_eb^e + w_ie x r
    (the same equations also propagate the earth-rate auxiliary velocity).
    """
    w_ie = earth.earth_rate_e()
    c_dot = state.c_be @ skew(gyro) - skew(w_ie) @ state.c_be
    if convention == "earth":
        g = (gravity_fn or earth.gravity_e)(state.r)
        v_dot = state.c_be @ accel - 2.0 * cross(w_ie, state.v) + g
        r_dot = state.v.copy()
    elif convention == "inertial":
        big_g = (gravity_fn or earth.gravitation_e)(state.r)
        v_dot = state.c_be @ accel - cross(w_ie, state.v) + big_g
        r_dot = -cross(w_ie, state.r) + state.v
    else:
        raise ValueError(f"unknown velocity convention {convention!r}")
    return c_dot, v_dot, r_dot


def _rk4(state, gyro, accel, dt, deriv):
    k1 = deriv(state, gyro, accel)
    s2 = _advance(state, k1, 0.5 * dt)
    k2 = deriv(s2, gyro, accel)
    s3 = _advance(state, k2, 0.5 * dt)
    k3 = deriv(s3, gyro, accel)
    s4 = _advance(state, k3, dt)
    k4 = deriv(s4, gyro, accel)
    combined = tuple(
        (a + 2.0 * b + 2.0 * c + d) / 6.0 for a, b, c, d in zip(k1, k2, k3, k4)
    )
    return _advance(state, combined, dt)


def _advance(state, deriv, dt):
    """The state plus dt times its derivative, field by field."""
    x1, x2, x3 = vars(state).values()
    d1, d2, d3 = deriv
    return type(state)(x1 + dt * d1, x2 + dt * d2, x3 + dt * d3)


def ned_step(state, imu, dt, method="rk4", gravity_fn=None):
    deriv = lambda s, w, f: ned_derivative(s, w, f, gravity_fn=gravity_fn)
    if method == "rk4":
        return _rk4(state, imu.gyro, imu.accel, dt, deriv)
    if method == "euler":
        return _advance(state, deriv(state, imu.gyro, imu.accel), dt)
    raise ValueError(f"unknown integrator {method!r}")


def ecef_step(state, imu, dt, method="rk4", convention="earth", gravity_fn=None):
    deriv = lambda s, w, f: ecef_derivative(
        s, w, f, convention=convention, gravity_fn=gravity_fn
    )
    if method == "rk4":
        return _rk4(state, imu.gyro, imu.accel, dt, deriv)
    if method == "euler":
        return _advance(state, deriv(state, imu.gyro, imu.accel), dt)
    raise ValueError(f"unknown integrator {method!r}")


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
