"""Strapdown mechanization: NED (geodetic) and ECEF forms.

Continuous-time derivative functions plus RK4 stepping with
piecewise-constant IMU inputs. A step integrates the state packed into one
15-vector (rotation row by row, velocity, position): a stack of members as
an (N, 15) array, so every RK4 stage is one array expression, and a single
member as a row, the list of its 15 Python floats, whose stages are float
sums around one batched matrix product. A leg (:func:`leg`) packs the
state, keeps the packed form from step to step and unpacks the result.
Both frames carry the earth-relative velocity v_eb; the inertial and
auxiliary velocities of the ECEF variants are embedded from it by the
variant's chart (``errormodels.EcefChart``).
"""

import functools
import math
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from liese_nav import earth
from liese_nav.liegroup import cross, matvec, skew_stack


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
    the entries of skew(w_in^n) row by row, the Coriolis term, gravity and
    the geodetic rates, as one list of 18. ``rest`` is the packed state's
    tail (v_n, lat, lon, h) as floats, and ``t`` is tan(lat) as ``np.tan``
    rounds it.

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
    w0, w1, w2 = a0 + b0, a1 + b1, a2 + b2
    # the products and differences of liegroup.cross(2 w_ie + w_en, v)
    r0, r1, r2 = 2.0 * a0 + b0, 2.0 * a1 + b1, 2.0 * a2 + b2
    n0, n1, n2 = earth._n_rv_diagonal(c, rm, rn, h)
    return [
        0.0, -w2, w1, w2, 0.0, -w0, -w1, w0, 0.0,
        r1 * v[2] - r2 * v[1], r2 * v[0] - r0 * v[2], r0 * v[1] - r1 * v[0],
        *earth._gravity_n(s**2, rm, rn, h),
        n0 * v[0], n1 * v[1], n2 * v[2],
    ]


def _row_products(gyro, accel):
    """The matrix products of a row's derivative under the rates ``gyro``
    and ``accel``, as a function of the row's rotation C and a frame rate's
    skew(w), given as their 18 Python floats row by row: the floats of
    C [gyro x] - [w x] C and of C f.

    C and skew(w) go into one buffer beside skew(gyro), so C [gyro x] and
    [w x] C are one batched matmul, each matrix its own gemm as in the
    stacked derivatives, and C f stays its own gemv: folded into the gemm,
    it rounds differently.
    """
    buf = np.empty((3, 3, 3))  # skew(gyro), C, skew(w)
    flat = buf.reshape(27)
    g0, g1, g2 = gyro.tolist()
    flat[:9] = 0.0, -g2, g1, g2, 0.0, -g0, -g1, g0, 0.0
    lhs, rhs, c = buf[1:], buf[:2], buf[1]
    out = np.empty(18)  # C [gyro x], [w x] C
    prod = out.reshape(2, 3, 3)

    def products(c_and_sk_w):
        flat[9:] = c_and_sk_w
        np.matmul(lhs, rhs, out=prod)
        p = out.tolist()
        return [*map(sub, p[:9], p[9:])], c.dot(accel).tolist()

    return products


def _ned_row_rates(gyro, accel):
    """The derivative of a NED member packed as a row of 15 Python floats,
    as a function of the row, under the rates ``gyro`` and ``accel``; the
    derivative is a row alike, its products :func:`_row_products`' with
    w = w_in^n."""
    products = _row_products(gyro, accel)

    def rates(x):
        t = _ned_point(x[9:], float(np.tan(x[12])))
        rot, f_n = products(x[:9] + t[:9])
        return [*rot, *map(add, map(sub, f_n, t[9:12]), t[12:15]), *t[15:]]

    return rates


def _ned_rates_stack(x, sk_gyro, accel):
    """The derivative of an (N, 15) stack of packed NED states, packed alike,
    with (N, 3, 3) ``sk_gyro`` and (N, 3) ``accel``: each member's earth
    terms are its own float evaluation, and the products and sums are the
    same BLAS calls and IEEE operations as a row's (:func:`_ned_row_rates`),
    so each member equals its row bit for bit."""
    n = len(x)
    c_bn = x[:, :9].reshape(n, 3, 3)
    t = np.array(list(map(_ned_point, x[:, 9:].tolist(), np.tan(x[:, 12]).tolist())))
    out = np.empty((n, 15))
    np.subtract(
        c_bn @ sk_gyro, t[:, :9].reshape(n, 3, 3) @ c_bn,
        out=out[:, :9].reshape(n, 3, 3),
    )
    out[:, 9:12] = matvec(c_bn, accel) - t[:, 9:12] + t[:, 12:15]
    out[:, 12:] = t[:, 15:]
    return out


_SK_W_IE_ROW = earth.SK_W_IE_E.ravel().tolist()


def _ecef_row_rates(gyro, accel):
    """The derivative of an ECEF member packed as a row of 15 Python floats,
    as :func:`_ned_row_rates` has it, its products :func:`_row_products`'
    with w = w_ie. Gravity is ``earth.gravity_e`` of the row's three
    position floats, and the Coriolis term ``liegroup.cross`` of the earth
    rate (0, 0, w) and the velocity, the same IEEE products and differences
    in floats."""
    products = _row_products(gyro, accel)
    w = earth.EARTH_RATE

    def rates(x):
        rot, (f0, f1, f2) = products(x[:9] + _SK_W_IE_ROW)
        a0, a1, a2 = earth.gravity_e(x[12:]).tolist()
        v0, v1, v2 = x[9:12]
        return [
            *rot,
            f0 - 2.0 * (0.0 * v2 - w * v1) + a0,
            f1 - 2.0 * (w * v0 - 0.0 * v2) + a1,
            f2 - 2.0 * (0.0 * v1 - 0.0 * v0) + a2,
            v0, v1, v2,
        ]

    return rates


def _ecef_rates(x, sk_gyro, accel):
    """The derivative of an (N, 15) stack of packed ECEF states, packed
    alike, as :func:`_ned_rates_stack` has it: each member equals its row
    (:func:`_ecef_row_rates`) bit for bit."""
    c_be, v, r = _fields(x)
    out = np.empty(x.shape)
    rot = out[:, :9].reshape(c_be.shape)
    np.subtract(c_be @ sk_gyro, earth.SK_W_IE_E @ c_be, out=rot)
    g = earth._gravity_e_rows(r)
    out[:, 9:12] = matvec(c_be, accel) - 2.0 * cross(earth.W_IE_E, v.T).T + g
    out[:, 12:] = v
    return out


def _rk4(x, dt, deriv):
    """The packed (N, 15) stack x one classical RK4 step later; deriv maps a
    packed stack to its packed derivative."""
    k1 = deriv(x)
    k2 = deriv(x + (0.5 * dt) * k1)
    k3 = deriv(x + (0.5 * dt) * k2)
    k4 = deriv(x + dt * k3)
    return x + dt * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def _row_rk4(x, dt, deriv):
    """:func:`_rk4` of a row of Python floats: the same IEEE operations in
    the same order, entry by entry."""
    h = 0.5 * dt
    k1 = deriv(x)
    k2 = deriv([a + h * b for a, b in zip(x, k1)])
    k3 = deriv([a + h * b for a, b in zip(x, k2)])
    k4 = deriv([a + dt * b for a, b in zip(x, k3)])
    return [
        a + dt * ((b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)
        for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
    ]


def ned_step(x, gyro, accel, dt):
    """The packed NED state ``x`` one RK4 step later under the rates
    ``gyro`` (omega_ib^b, rad/s) and ``accel`` (f_ib^b, m/s^2).

    ``x`` is one member as a row (a list of 15 Python floats: the rotation
    row by row, v_n, lat, lon, h), which steps in floats to a row, or an
    (N, 15) stack of members with (N, 3) rates, which steps as one array,
    each member equal to its row's step bit for bit.
    """
    if isinstance(x, list):
        return _row_rk4(x, dt, _ned_row_rates(gyro, accel))
    sk_gyro = skew_stack(gyro)
    return _rk4(x, dt, lambda x: _ned_rates_stack(x, sk_gyro, accel))


def ecef_step(x, gyro, accel, dt):
    """The packed ECEF state ``x`` (the rotation row by row, v_eb^e,
    r_eb^e) one RK4 step later, a row or an (N, 15) stack, as
    :func:`ned_step` steps them."""
    if isinstance(x, list):
        return _row_rk4(x, dt, _ecef_row_rates(gyro, accel))
    sk_gyro = skew_stack(gyro)
    return _rk4(x, dt, lambda x: _ecef_rates(x, sk_gyro, accel))


def leg(state, step, gyros, accels, dt):
    """The pre-step states of a leg, stacked, and the state after it.

    ``step`` (:func:`ned_step` or :func:`ecef_step`) advances the packed
    state by each sample's rates, ``gyros`` and ``accels`` ((T, 3), or
    (T, N, 3) for N members), and :func:`orthonormalize` projects each
    step's rotation back onto SO(3). The state stays packed from step to
    step: a single member as a row of 15 Python floats, N members as an
    (N, 15) stack. The pre-step states come as one stacked state of T
    points, or of T x N, step by step.
    """
    x = _pack(state)
    row = x.ndim == 1
    if row:
        x = x.tolist()
    xs = []
    for gyro, accel in zip(gyros, accels):
        xs.append(x)
        x = step(x, gyro, accel, dt)
        # per-step SVD: projecting only on drift moved golden outputs by 2e-8 m
        if row:
            x[:9] = orthonormalize(x[:9])
        else:
            rot = x[:, :9].reshape(-1, 3, 3)
            rot[...] = orthonormalize(rot)
    xs.append(x)
    track = np.array(xs)  # the T pre-step states and the end state
    kind = type(state)
    return kind(*_fields(track[:-1].reshape(-1, 15))), kind(*_fields(track[-1]))


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
    """Project a rotation onto SO(3) (polar decomposition via SVD): one
    matrix as a row of its 9 Python floats, row by row, projects to a row
    alike; an (N, 3, 3) stack projects each matrix, bit for bit as its row.

    Raises
    ------
    np.linalg.LinAlgError
        If an entry is not finite (LAPACK's SVD does not return on an
        infinite entry), or if the SVD does not converge: the gufunc returns
        NaN factors there, where np.linalg.svd raises.
    """
    if not isinstance(c, list):
        return _orthonormalize_stack(c)
    # the sum is finite unless an entry is not finite or the finite entries
    # overflow it; only then are the entries checked one by one
    if not math.isfinite(sum(c)) and not all(map(math.isfinite, c)):
        raise np.linalg.LinAlgError("non-finite entry in the matrix to project")
    u, _, vt = _svd(np.array(c).reshape(3, 3))
    out = (u @ vt).ravel().tolist()
    # det(out) = out[0] . (out[1] x out[2]) is +-1 here, so the triple
    # product in plain floats gives its sign at a sixth of np.linalg.det's cost
    x0, x1, x2, y0, y1, y2, z0, z1, z2 = out
    triple = (
        x0 * (y1 * z2 - y2 * z1)
        + x1 * (y2 * z0 - y0 * z2)
        + x2 * (y0 * z1 - y1 * z0)
    )
    if not abs(triple) > 0.5:  # true for NaN too
        raise np.linalg.LinAlgError("SVD did not converge")
    if triple < 0:
        out = (u @ _FLIP @ vt).ravel().tolist()
    return out


def _orthonormalize_stack(c):
    """:func:`orthonormalize` of an (N, 3, 3) stack: each det(out) is +-1,
    so any determinant gives its sign."""
    if not math.isfinite(c.sum()) and not np.isfinite(c).all():
        raise np.linalg.LinAlgError("non-finite entry in the matrix to project")
    u, _, vt = _svd(c)
    out = u @ vt
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
