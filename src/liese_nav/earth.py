"""WGS-84 earth model: radii, gravity, transport rates, frame conversions.

Vectors of N points are component first, (3, N), as ``np.array([x, y, z])``
builds them; matrices of N points are (N, 3, 3) stacks.

``position_vector_n``, ``earth_rate_n``, ``gravity_n``, ``llh_to_ecef`` and
``dcm_ecef_to_ned`` have one numpy body each, which takes a float or arrays
of N points; the embeddings, retractions, metrics and the simulator call
them outside the propagation step. Equal inputs give equal bits either way
(tests/test_bit_identity.py).

The forms that run in every RK4 stage keep a Python-float body beside
their array one (``math.sin``, ``math.cos``, ``math.sqrt`` and float
``**``, which round as np.float64 scalars do), because a numpy call on one
point costs more than the float arithmetic it wraps, about 5 ``radii``
calls per NED step and 4 ``gravity_e`` calls, each with about 6 iterations
of the geodetic loop, per ECEF state and step (a stack's, one point at a
time: ``_gravity_e_rows``):
``radii`` and ``radii_array`` (of the sine), ``gravity_e`` and
``gravity_e_array``, the two loops of ``ecef_to_llh``, and the private
formula helpers below, which the mechanization and the F blocks call.
"""

import itertools
import math

import numpy as np

from liese_nav.errors import Divergence, PoleSingularity
from liese_nav.liegroup import matvec, skew, skew_stack

WGS84_A = 6378137.0
WGS84_E2 = 6.69437999014e-3
EARTH_RATE = 7.2921151467e-5
WGS84_MU = 3.986004418e14

# the earth rate in ECEF and its cross-product matrix, read-only
W_IE_E = np.array([0.0, 0.0, EARTH_RATE])
SK_W_IE_E = skew(W_IE_E)
W_IE_E.flags.writeable = SK_W_IE_E.flags.writeable = False

# Somigliana coefficients (normal gravity on the ellipsoid surface)
GRAV_EQUATOR = 9.7803253359
SOMIGLIANA_K = 1.931852652458e-3

POLE_MARGIN = 1e-6
_LAT_LIMIT = np.pi / 2 - POLE_MARGIN


def check_latitude(lat):
    if not abs(lat) <= _LAT_LIMIT:  # true for a NaN latitude too
        raise PoleSingularity(f"latitude {lat} too close to a pole")


def check_state_latitude(lat):
    """:func:`check_latitude` for the latitude of a propagated state: one
    that is no latitude at all (NaN, +-Inf or beyond +-pi/2) means the
    state diverged, and raises Divergence instead."""
    if not abs(lat) <= _LAT_LIMIT:
        if not abs(lat) <= math.pi / 2:
            raise Divergence(f"latitude {lat} is outside [-pi/2, pi/2]")
        check_latitude(lat)


def radii(lat):
    """Meridian and prime-vertical curvature radii (R_M, R_N)."""
    s2 = math.sin(lat) ** 2
    w = math.sqrt(1.0 - WGS84_E2 * s2)
    rn = WGS84_A / w
    rm = WGS84_A * (1.0 - WGS84_E2) / w**3
    return rm, rn


# Each formula below lives in one private helper that takes the latitude's
# trig terms (s, c, t = sin, cos, tan) and curvature radii precomputed, so a
# caller that needs several of them at one point evaluates those once. The
# vector helpers return float triples and the 3x3 terms their entries (see
# below); the F blocks gather a stack of points' floats into one array
# (``errormodels._ned_terms``), and _gravitation takes such stacks. The
# public functions are the same formulas as numpy bodies of a float or
# arrays of points (see the module docstring); the curvature and gradient
# terms that only the NED error models and the mechanization read
# (_radii_derivatives, _gravity_gradient_down, _n_rv_diagonal and the
# entries helpers) have no public form.


def _radii_derivatives(s, c):
    """d(R_M)/dlat and d(R_N)/dlat."""
    w2 = 1.0 - WGS84_E2 * s**2
    drn = WGS84_A * WGS84_E2 * s * c * w2**-1.5
    drm = 3.0 * WGS84_A * (1.0 - WGS84_E2) * WGS84_E2 * s * c * w2**-2.5
    return drm, drn


def _gravity_n(s2, rm, rn, h):
    g0 = GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / math.sqrt(1.0 - WGS84_E2 * s2)
    rbar = math.sqrt(rm * rn)
    return 0.0, 0.0, g0 * (rbar / (rbar + h)) ** 2


def gravity_n(lat, h):
    """Plumb-line gravity in NED axes, (0, 0, g_D).

    Somigliana normal gravity on the ellipsoid, attenuated with height by
    (R/(R+h))^2 where R is the Gaussian mean curvature radius, so that
    dg/dh = -2 g / (R + h) exactly.
    """
    s = np.sin(lat)
    rm, rn = radii_array(s)
    s2 = _pow(s, 2)
    g0 = GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / np.sqrt(1.0 - WGS84_E2 * s2)
    rbar = np.sqrt(rm * rn)
    g_down = g0 * _pow(rbar / (rbar + h), 2)
    zero = np.zeros(g_down.shape)
    return np.array([zero, zero, g_down])


def _gravity_gradient_down(g_down, rm, rn, h):
    """Coefficient k with d(g_D) = k * d(r_D); equals 2 g / (R + h)."""
    return 2.0 * g_down / (math.sqrt(rm * rn) + h)


def _position_vector_n(s, c, rn, h):
    return -WGS84_E2 * rn * s * c, 0.0, -(rn * (1.0 - WGS84_E2 * s**2) + h)


def position_vector_n(lat, h):
    """Earth-center to body vector resolved in the local NED frame."""
    s, c = np.sin(lat), np.cos(lat)
    _, rn = radii_array(s)
    return np.array(
        [
            -WGS84_E2 * rn * s * c,
            np.zeros(s.shape),
            -(rn * (1.0 - WGS84_E2 * _pow(s, 2)) + h),
        ]
    )


def _gravitation(w_ie, g, r):
    """Gravitational acceleration g + (w_ie x)(w_ie x) r, in NED or ECEF, of
    points given as (N, 3) rows, as the F blocks hold them."""
    sk_w = skew_stack(w_ie)
    return g + matvec(sk_w @ sk_w, r)


def _earth_rate_n(s, c):
    return EARTH_RATE * c, 0.0, -EARTH_RATE * s


def earth_rate_n(lat):
    s, c = np.sin(lat), np.cos(lat)
    return np.array([EARTH_RATE * c, np.zeros(s.shape), -EARTH_RATE * s])


def _transport_rate_n(t, rm, rn, h, vn):
    """omega_en^n for ground velocity vn = (vN, vE, vD); t is tan(lat)."""
    return vn[1] / (rn + h), -vn[0] / (rm + h), -vn[1] * t / (rn + h)


def _n_rv_diagonal(c, rm, rn, h):
    """Diagonal of N with (lat_dot, lon_dot, h_dot) = N @ vn for NED velocity
    vn; the caller checks the latitude against the poles."""
    return 1.0 / (rm + h), 1.0 / ((rn + h) * c), -1.0


# The 3x3 terms' entries row by row, as floats: the F blocks stack many
# points' entries as one array and read it as an (N, 3, 3) stack.


def _m1_entries(s, c, rm, h):
    """d(omega_ie^n) / d(r_eb^n) with d(lat) = d(r_N)/(R_M+h)."""
    return [
        -EARTH_RATE * s / (rm + h), 0.0, 0.0, 0.0, 0.0, 0.0,
        -EARTH_RATE * c / (rm + h), 0.0, 0.0,
    ]


def _m2_entries(t, rm, rn, h):
    """d(omega_en^n) / d(v^n)."""
    return [
        0.0, 1.0 / (rn + h), 0.0, -1.0 / (rm + h), 0.0, 0.0, 0.0, -t / (rn + h), 0.0
    ]


def _m3_entries(t, c, rm, rn, drm, drn, h, vn):
    """d(omega_en^n) / d(r_eb^n) at fixed velocity.

    Obtained by direct differentiation of omega_en^n(lat, h, v), including
    the latitude dependence of the curvature radii; d(lat) = d(r_N)/(R_M+h)
    and d(h) = -d(r_D).
    """
    vN, vE = vn[0], vn[1]
    # column 0: sensitivity to r_N through latitude; column 2: to r_D = -h
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


def _position_vector_gradient_entries(s, c, rm, rn, drn, h):
    """d(r_eb^n) / d(dr) for a local-level displacement dr = (dN, dE, dD).

    The earth-center vector depends on latitude and height only, with
    d(lat) = dN/(R_M+h) and d(h) = -dD; the east column is zero.
    """
    return [
        -WGS84_E2 * (drn * s * c + rn * (c**2 - s**2)) / (rm + h), 0.0, 0.0,
        0.0, 0.0, 0.0,
        (-drn * (1.0 - WGS84_E2 * s**2) + 2.0 * WGS84_E2 * rn * s * c) / (rm + h),
        0.0,
        1.0,
    ]


def llh_to_ecef(lat, lon, h):
    """ECEF position; (3,), or (3, N) for arrays of N points."""
    s, c = np.sin(lat), np.cos(lat)
    _, rn = radii_array(s)
    return np.array(
        [
            (rn + h) * c * np.cos(lon),
            (rn + h) * c * np.sin(lon),
            (rn * (1.0 - WGS84_E2) + h) * s,
        ]
    )


def ecef_to_llh(r):
    """Iterative ECEF to geodetic conversion (converges to <1e-9 m).

    For a (3, N) array of positions, returns arrays of N latitudes,
    longitudes and heights. A single position (a 3-vector or three Python
    floats) iterates in Python floats and takes the height once, after the
    loop; ``np.arctan2`` and ``np.hypot`` stay, because their libm forms
    round differently.
    """
    x, y, z = r
    if isinstance(x, np.ndarray):
        return _ecef_to_llh_array(x, y, z)
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


def dcm_ecef_to_ned(lat, lon):
    """C_e^n; (3, 3), or (N, 3, 3) for arrays of N points."""
    s, c = np.sin(lat), np.cos(lat)
    sl, cl = np.sin(lon), np.cos(lon)
    rows = [-s * cl, -s * sl, c, -sl, cl, np.zeros(s.shape), -c * cl, -c * sl, -s]
    # entries first, points last; matmul needs the stack C-ordered
    return np.array(rows).T.copy().reshape(s.shape + (3, 3))


def gravity_e(r):
    """Plumb-line gravity vector in ECEF, consistent with gravity_n, at one
    position ``r``: a 3-vector or, as a row step hands it over, three
    Python floats, which go to :func:`ecef_to_llh` as they are.

    The terms are Python floats; the rotation to ECEF stays the BLAS
    product, since a hand-expanded C' (0, 0, g) flips signed zeros.
    """
    lat, lon, h = ecef_to_llh(r)
    s, c = math.sin(lat), math.cos(lat)
    sl, cl = math.sin(lon), math.cos(lon)
    rm, rn = radii(lat)
    dcm = np.array([-s * cl, -s * sl, c, -sl, cl, 0.0, -c * cl, -c * sl, -s])
    return dcm.reshape(3, 3).T @ np.array(_gravity_n(s**2, rm, rn, h))


def _gravity_e_rows(r):
    """:func:`gravity_e` of each row of an (N, 3) stack, as its floats."""
    return np.array(list(map(gravity_e, r.tolist())))


# ---------------------------------------------------------------------------
# libm power and the array twins of the float forms above, for N points
# ---------------------------------------------------------------------------


def _pow(x, k):
    """``x ** k`` elementwise through libm ``pow``, as a np.float64 scalar
    computes it; numpy's array power loop rounds some results differently.
    A single point (a float or a np.float64) goes to ``math.pow`` directly."""
    if isinstance(x, float):
        return math.pow(x, k)
    x = np.asarray(x, dtype=float)
    out = map(math.pow, x.ravel().tolist(), itertools.repeat(k))
    return np.fromiter(out, float, x.size).reshape(x.shape)


def radii_array(s):
    """:func:`radii` in numpy calls, of the sines of latitudes ``s``."""
    s2 = _pow(s, 2)
    w = np.sqrt(1.0 - WGS84_E2 * s2)
    rn = WGS84_A / w
    rm = WGS84_A * (1.0 - WGS84_E2) / _pow(w, 3)
    return rm, rn


def gravity_e_array(r):
    """:func:`gravity_e` for a (3, N) array of positions; (3, N)."""
    lat, lon, h = ecef_to_llh(np.asarray(r, dtype=float))
    c_ne = np.swapaxes(dcm_ecef_to_ned(lat, lon), -1, -2)
    return matvec(c_ne, gravity_n(lat, h).T).T


def _ecef_to_llh_array(x, y, z):
    """The loop of :func:`ecef_to_llh` over N points at once.

    Each point stops at the iteration where the scalar loop breaks for it,
    and its height takes the branch the scalar loop takes for its latitude.
    """
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    h = np.zeros_like(lat)
    todo = np.arange(lat.size)  # points whose scalar loop has not broken
    for _ in range(12):
        old, pt, zt = lat[todo], p[todo], z[todo]
        s = np.sin(old)
        _, rn = radii_array(s)
        new = np.arctan2(zt + WGS84_E2 * rn * s, pt)
        converged = np.abs(new - old) < 1e-15
        low = np.abs(new) < 1.3
        high = ~low
        ht = np.empty_like(new)
        ht[low] = pt[low] / np.cos(new[low]) - rn[low]
        ht[high] = zt[high] / np.sin(new[high]) - rn[high] * (1.0 - WGS84_E2)
        lat[todo] = new
        h[todo] = ht
        todo = todo[~converged]
        if not todo.size:
            break
    return lat, lon, h
