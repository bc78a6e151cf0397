"""WGS-84 earth model: radii, gravity, transport rates, frame conversions.

Vectors of N points are component first, (3, N), as ``np.array([x, y, z])``
builds them; matrices of N points are (N, 3, 3) stacks.

``position_vector_n``, ``earth_rate_n``, ``gravity_n``, ``llh_to_ecef`` and
``dcm_ecef_to_ned`` have one numpy body each, which takes a float or arrays
of N points; the embeddings, retractions, metrics and the simulator call
them outside the propagation step. Equal inputs give equal bits either way
(tests/test_bit_identity.py).

The forms that run in every RK4 stage of a row step, one point at a time,
keep a Python-float body (``math.sin``, ``math.cos``, ``math.sqrt`` and
float ``**``, which round as np.float64 scalars do), because a numpy call on
one point costs more than the float arithmetic it wraps: ``_ned_point``,
one fused body of a NED point's stage terms, 4 calls per NED step; and
``gravity_e``, its rotation written out in floats, with ``radii`` and the
float loop of ``ecef_to_llh`` (its ufuncs on 0-d arrays), 4 calls per ECEF
step of about 6 iterations of the loop each. A stack steps with the same
bodies, one member at a time (``_gravity_e_rows``). Beside them stand
their array twins ``radii_array`` (of the sine), ``gravity_e_array`` and
the array loop of ``ecef_to_llh``. The F blocks' NED earth terms are no
float body: their stack is a whole leg's nominals, and
``errormodels._ned_terms`` evaluates it as one array pass.
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


def earth_rate_n(lat):
    s, c = np.sin(lat), np.cos(lat)
    return np.array([EARTH_RATE * c, np.zeros(s.shape), -EARTH_RATE * s])


def _ned_point(rest, t):
    """The earth terms of a NED derivative at one point, in Python floats:
    the entries of skew(w_in^n) row by row, the Coriolis term
    (2 w_ie + w_en) x v, gravity and the geodetic rates (lat, lon, h)',
    as one list of 18. ``rest`` is a packed state's tail (v_n, lat, lon, h)
    as floats, and ``t`` is tan(lat) as ``np.tan`` rounds it.

    One body with no formula helper call, only the latitude check: the sine
    and cosine, the radii, the earth rate (W c, 0, -W s), the transport rate
    (vE / (R_N + h), -vN / (R_M + h), -vE t / (R_N + h)), gravity and the
    geodetic rates (vN / (R_M + h), vE / ((R_N + h) c), -vD) take the IEEE
    operations of :func:`radii`, of :func:`gravity_e`'s normal gravity and
    of the per-term helpers that the body replaced, in their order.
    """
    v0, v1, v2, lat, _, h = rest
    check_state_latitude(lat)
    s, c = math.sin(lat), math.cos(lat)
    s2 = s**2
    w = math.sqrt(1.0 - WGS84_E2 * s2)
    rn = WGS84_A / w
    rm = WGS84_A * (1.0 - WGS84_E2) / w**3
    rnh, rmh = rn + h, rm + h
    a0, a2 = EARTH_RATE * c, -EARTH_RATE * s
    b0, b1, b2 = v1 / rnh, -v0 / rmh, -v1 * t / rnh
    # w_in = w_ie + w_en, and 2 w_ie + w_en, whose east entry is w_in's
    w0, w1, w2 = a0 + b0, 0.0 + b1, a2 + b2
    r0, r2 = 2.0 * a0 + b0, 2.0 * a2 + b2
    rbar = math.sqrt(rm * rn)
    return [
        0.0, -w2, w1, w2, 0.0, -w0, -w1, w0, 0.0,
        w1 * v2 - r2 * v1, r2 * v0 - r0 * v2, r0 * v1 - w1 * v0,
        0.0, 0.0,
        GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / w * (rbar / (rbar + h)) ** 2,
        1.0 / rmh * v0, 1.0 / (rnh * c) * v1, -1.0 * v2,
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
    loop; ``np.arctan2`` and ``np.hypot`` stay, as libm's forms round
    otherwise, on 0-d arrays made for the call (no scalar conversions).
    """
    x, y, z = r
    if isinstance(x, np.ndarray):
        return _ecef_to_llh_array(x, y, z)
    z = float(z)
    num, den, out = np.array(float(y)), np.array(float(x)), np.empty(())
    lon = np.arctan2(num, den)
    p = den[()] = float(np.hypot(den, num, out))
    num[()], out[()] = z, p * (1.0 - WGS84_E2)
    lat = float(np.arctan2(num, out, out))
    for _ in range(12):
        # radii(lat)'s prime-vertical radius, from the sine the update reads
        s = math.sin(lat)
        rn = WGS84_A / math.sqrt(1.0 - WGS84_E2 * s**2)
        num[()] = z + WGS84_E2 * rn * s
        new_lat = float(np.arctan2(num, den, out))
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
    position ``r`` (a 3-vector, or the three Python floats of a row step,
    which go to :func:`ecef_to_llh` as they are), as three Python floats:
    C' (0, 0, g_D) written out, each entry its one term that is no exact
    zero after ``0.0 +``, the +0.0 that a BLAS sum starts from.
    """
    lat, lon, h = ecef_to_llh(r)
    s, c = math.sin(lat), math.cos(lat)
    sl, cl = math.sin(lon), math.cos(lon)
    rm, rn = radii(lat)
    s2, rbar = s**2, math.sqrt(rm * rn)
    g0 = GRAV_EQUATOR * (1.0 + SOMIGLIANA_K * s2) / math.sqrt(1.0 - WGS84_E2 * s2)
    g = g0 * (rbar / (rbar + h)) ** 2
    return 0.0 + (-c * cl) * g, 0.0 + (-c * sl) * g, 0.0 + (-s) * g


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
