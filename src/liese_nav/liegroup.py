"""Matrix Lie group SE_2(3) and its algebra.

A group element is the triple ``(R, v, p)`` embedded in a 5x5 matrix as::

    | R  v  p |
    | 0  1  0 |
    | 0  0  1 |

Tangent vectors are ordered ``(phi, rho_v, rho_p)`` in R^9. The storage
format is the triple; the library never forms the dense 5x5 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from liese_nav.errors import NearPiRotation

# Below this angle the closed-form Rodrigues coefficients switch to their
# truncated Taylor series (4 terms), which is exact to double precision there.
SMALL_ANGLE = 1e-6

# Rotation angles within this distance of pi raise NearPiRotation: the axis
# extraction from the skew part is ill-conditioned in that neighbourhood.
NEAR_PI_MARGIN = 1e-5

# one shared identity, read-only so that no caller can modify it, and its
# entries row by row as Python floats
_I3 = np.eye(3)
_I3.flags.writeable = False
_I3_ROW = _I3.ravel().tolist()


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix such that ``skew(a) @ b == np.cross(a, b)``."""
    x, y, z = v
    # built flat and reshaped: a nested list takes numpy a third longer
    return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)


# skew(v)'s row-major entries as positions in (0, x, y, z, -x, -y, -z)
_SKEW_TAKE = np.array([0, 6, 2, 3, 0, 4, 5, 1, 0])


def skew_stack(v: np.ndarray) -> np.ndarray:
    """:func:`skew` of every row of an (N, 3) stack, as an (N, 3, 3) stack;
    each entry is the single call's, a negation or a zero, bit for bit."""
    n = len(v)
    signed = np.concatenate((np.zeros((n, 1)), v, -v), axis=1)
    return signed[:, _SKEW_TAKE].reshape(n, 3, 3)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, bit-identical to ``np.cross(a, b)``.

    Spelled out component by component: the same IEEE products and
    differences as ``np.cross``, without its broadcasting set-up, which
    dominates the cost for a single pair of 3-vectors.
    """
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for a matrix or an (N, 3, 3) stack times a 3-vector or an
    (N, 3) stack, broadcast over the leading axis.

    Each product is the same BLAS matrix-vector call as a single ``m @ v``,
    so stacked results equal per-sample ones bit for bit; ``v @ m.T`` is
    one matrix-matrix call that rounds differently.
    """
    return (m @ v[..., None])[..., 0]


def _exp_coeffs(angle: float) -> tuple[float, float, float]:
    """Return (sin(a)/a, (1-cos(a))/a^2, (1-sin(a)/a)/a^2), the coefficients
    of px and px @ px in the Rodrigues formula and the left Jacobian, with a
    small-angle series branch; ``angle`` is a Python float."""
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        s = 1.0 - a2 / 6.0 * (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0))
        c = 0.5 * (1.0 - a2 / 12.0 * (1.0 - a2 / 30.0 * (1.0 - a2 / 56.0)))
        j = (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0 * (1.0 - a2 / 72.0))) / 6.0
        return s, c, j
    if not angle < math.inf:
        # math.sin raises for an infinite angle; inf - inf is the NaN that
        # np.sin returns there (and a NaN angle passes through)
        nan = angle - angle
        return nan, nan, nan
    s = math.sin(angle) / angle
    half_sin = math.sin(0.5 * angle)
    return s, 2.0 * half_sin * half_sin / (angle * angle), (1.0 - s) / (angle * angle)


def _norm(phi: np.ndarray) -> float:
    """``np.linalg.norm`` of a 3-vector: its body, without the wrapper."""
    return math.sqrt(np.dot(phi, phi))


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Logarithm map of SO(3); an (N, 3, 3) stack gives (N, 3).

    The trace is summed and clipped in plain floats, in ``np.trace``'s
    order: the same bits as numpy scalar arithmetic at a tenth of its cost.
    A stack takes, element by element, the branch a single rotation takes.

    Raises
    ------
    NearPiRotation
        If a rotation angle is within ``NEAR_PI_MARGIN`` of pi.
    """
    if rot.ndim == 3:
        return _so3_log_stack(rot)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    cos_angle = min(max((r00 + r11 + r22 - 1.0) / 2.0, -1.0), 1.0)
    angle = float(np.arccos(cos_angle))
    if angle > np.pi - NEAR_PI_MARGIN:
        raise NearPiRotation(f"rotation angle {angle} within margin of pi")
    axis_vec = np.array([r21 - r12, r02 - r20, r10 - r01])
    if angle < SMALL_ANGLE:
        # axis_vec = 2 sin(angle) * axis; phi = axis_vec * angle / (2 sin(angle))
        a2 = angle * angle
        factor = 0.5 * (1.0 + a2 / 6.0 * (1.0 + a2 * 7.0 / 60.0))
        return factor * axis_vec
    return axis_vec * (angle / (2.0 * math.sin(angle)))


def _so3_log_stack(rot):
    cos_angle = (rot[:, 0, 0] + rot[:, 1, 1] + rot[:, 2, 2] - 1.0) / 2.0
    angle = np.arccos(np.clip(cos_angle, -1.0, 1.0))
    near_pi = np.flatnonzero(angle > np.pi - NEAR_PI_MARGIN)
    if near_pi.size:
        k = near_pi[0]
        raise NearPiRotation(f"rotation {k}: angle {angle[k]} within margin of pi")
    axis_vec = np.stack(
        [
            rot[:, 2, 1] - rot[:, 1, 2],
            rot[:, 0, 2] - rot[:, 2, 0],
            rot[:, 1, 0] - rot[:, 0, 1],
        ],
        axis=-1,
    )
    small = angle < SMALL_ANGLE
    big = ~small
    factor = np.empty_like(angle)
    a2 = angle[small] * angle[small]
    factor[small] = 0.5 * (1.0 + a2 / 6.0 * (1.0 + a2 * 7.0 / 60.0))
    factor[big] = angle[big] / (2.0 * np.sin(angle[big]))
    return factor[:, None] * axis_vec


def left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian of SO(3); an (N, 3) stack gives
    (N, 3, 3), each entry equal to its single call bit for bit."""
    if np.ndim(phi) == 2:
        return _left_jacobian_inv_stack(phi)
    angle = _norm(phi)
    px, px2 = _skew_and_square(phi)
    if angle < SMALL_ANGLE:
        c = _jinv_series(angle * angle)
    elif angle < math.inf:
        c = _jinv_closed(angle, math.sin(angle), math.cos(angle))
    else:  # an infinite or NaN angle: the NaN np.sin and np.cos return
        c = angle - angle
    # I - 0.5 px + c px^2 entry by entry, in numpy's order
    jinv = [i - 0.5 * p + c * q for i, p, q in zip(_I3_ROW, px, px2)]
    return np.array(jinv).reshape(3, 3)


def _skew_and_square(phi):
    """skew(phi) and skew(phi) @ skew(phi), the square one BLAS product,
    both as their 9 entries row by row in Python floats."""
    x, y, z = phi.tolist()
    px = [0.0, -z, y, z, 0.0, -x, -y, x, 0.0]
    sk = np.array(px).reshape(3, 3)
    return px, (sk @ sk).ravel().tolist()


# the px @ px coefficient of the inverse left Jacobian, for Python floats
# and for arrays alike: its series below SMALL_ANGLE, its closed form above


def _jinv_series(a2):
    # 1/12 + a^2/720 + a^4/30240 + ...
    return (1.0 + a2 / 60.0 * (1.0 + a2 * 10.0 / 420.0)) / 12.0


def _jinv_closed(a, sin_a, cos_a):
    return 1.0 / (a * a) - (1.0 + cos_a) / (2.0 * a * sin_a)


def _left_jacobian_inv_stack(phi):
    # (N,1,3) @ (N,3,1) is the dot product a single call's norm takes
    angle = np.sqrt((phi[:, None, :] @ phi[:, :, None])[:, 0, 0])
    px = skew_stack(phi)
    small = angle < SMALL_ANGLE
    c = np.empty_like(angle)
    c[small] = _jinv_series(angle[small] * angle[small])
    a = angle[~small]
    c[~small] = _jinv_closed(a, np.sin(a), np.cos(a))
    return _I3 - 0.5 * px + c[:, None, None] * (px @ px)


@dataclass
class GroupElement:
    """Element of SE_2(3) stored as the triple ``(R, v, p)``; fields with a
    leading axis of N elements make a stack, which ``compose``, ``inverse``
    and :func:`log_se23` take as they take one element. Each stacked product
    is the single element's BLAS call (``matvec``, stacked ``@``, a
    transpose as the swapped-axes view), so rows equal single calls bit for
    bit."""

    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.R @ other.R,
            matvec(self.R, other.v) + self.v,
            matvec(self.R, other.p) + self.p,
        )

    def inverse(self) -> "GroupElement":
        rt = self.R.mT
        return GroupElement(rt, -matvec(rt, self.v), -matvec(rt, self.p))


def exp_se23(xi: np.ndarray) -> GroupElement:
    """Group exponential: closed form via the SO(3) left Jacobian.

    The angle, skew(phi) and its square are computed once and shared by the
    rotation and the Jacobian; each product rounds as in the separate SO(3)
    exponential and left Jacobian, which ``tests/oracles.py`` keeps and
    ``tests/test_bit_identity.py`` pins this function to. The square and
    the Jacobian's products stay BLAS calls; the sums are Python floats,
    the same IEEE operations as numpy's on one element.

    An (N, 9) stack gives a stacked element whose rows equal their single
    calls bit for bit: each row's coefficients come from the same float
    code (``_exp_coeffs`` of its angle, so no ``np.sin`` replaces
    ``math.sin``), and the sums, the square and the Jacobian's products are
    the same IEEE operations and BLAS calls on the stack.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 2:
        return _exp_se23_stack(xi)
    phi = xi[:3]
    a, b, c = _exp_coeffs(_norm(phi))
    px, px2 = _skew_and_square(phi)
    # I + a px + b px^2 and I + b px + c px^2 entry by entry, in numpy's order
    rot_jac = np.array(
        [i + a * p + b * q for i, p, q in zip(_I3_ROW, px, px2)]
        + [i + b * p + c * q for i, p, q in zip(_I3_ROW, px, px2)]
    ).reshape(2, 3, 3)
    vp = matvec(rot_jac[1], xi[3:9].reshape(2, 3))
    return GroupElement(rot_jac[0], vp[0], vp[1])


def _exp_se23_stack(xi):
    phi = xi[:, :3]
    # (N,1,3) @ (N,3,1) is the dot product a single call's norm takes
    angle = np.sqrt((phi[:, None, :] @ phi[:, :, None])[:, 0, 0])
    coeffs = np.array(list(map(_exp_coeffs, angle.tolist())))
    a, b, c = coeffs.T[:, :, None, None]
    px = skew_stack(phi)
    px2 = px @ px
    rot = _I3 + a * px + b * px2
    jac = _I3 + b * px + c * px2
    vp = matvec(jac[:, None], xi[:, 3:9].reshape(-1, 2, 3))
    return GroupElement(rot, vp[:, 0], vp[:, 1])


def log_se23(element: GroupElement) -> np.ndarray:
    """Group logarithm, the inverse of :func:`exp_se23`; a stacked element
    gives an (N, 9) array."""
    phi = so3_log(element.R)
    jinv = left_jacobian_inv(phi)
    return np.concatenate(
        [phi, matvec(jinv, element.v), matvec(jinv, element.p)], axis=-1
    )
