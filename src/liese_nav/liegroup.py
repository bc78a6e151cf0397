"""Matrix Lie group SE_2(3) and its algebra.

A group element is the triple ``(R, v, p)`` embedded in a 5x5 matrix as::

    | R  v  p |
    | 0  1  0 |
    | 0  0  1 |

Tangent vectors are ordered ``(phi, rho_v, rho_p)`` in R^9. The storage
format is the triple; the dense 5x5 embedding is only materialized on
demand (``as_matrix``), mainly for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from liese_nav.errors import NearPiRotation, NotPSD, PatternViolation

# Below this angle the closed-form Rodrigues coefficients switch to their
# truncated Taylor series (4 terms), which is exact to double precision there.
SMALL_ANGLE = 1e-6

# Rotation angles within this distance of pi raise NearPiRotation: the axis
# extraction from the skew part is ill-conditioned in that neighbourhood.
NEAR_PI_MARGIN = 1e-5

_PATTERN_TOL = 1e-9


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix such that ``skew(a) @ b == np.cross(a, b)``."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


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


def unskew(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew`. Raises PatternViolation if ``m`` is not skew."""
    if np.max(np.abs(m + m.T)) > _PATTERN_TOL * max(1.0, np.max(np.abs(m))):
        raise PatternViolation("matrix is not skew-symmetric")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _rodrigues_coeffs(angle: float) -> tuple[float, float]:
    """Return (sin(a)/a, (1-cos(a))/a^2) with a small-angle series branch."""
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        s = 1.0 - a2 / 6.0 * (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0))
        c = 0.5 * (1.0 - a2 / 12.0 * (1.0 - a2 / 30.0 * (1.0 - a2 / 56.0)))
        return s, c
    half_sin = np.sin(0.5 * angle)
    return np.sin(angle) / angle, 2.0 * half_sin * half_sin / (angle * angle)


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Exponential map of SO(3) (Rodrigues formula)."""
    angle = float(np.linalg.norm(phi))
    a, b = _rodrigues_coeffs(angle)
    px = skew(phi)
    return np.eye(3) + a * px + b * (px @ px)


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
    return axis_vec * (angle / (2.0 * np.sin(angle)))


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


def left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3), J(phi) = sum_n (phi x)^n / (n+1)!."""
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


def left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian of SO(3)."""
    angle = float(np.linalg.norm(phi))
    px = skew(phi)
    if angle < SMALL_ANGLE:
        a2 = angle * angle
        # 1/12 + a^2/720 + a^4/30240 + ...
        c = (1.0 + a2 / 60.0 * (1.0 + a2 * 10.0 / 420.0)) / 12.0
        return np.eye(3) - 0.5 * px + c * (px @ px)
    half = 0.5 * angle
    cot_term = 1.0 / (angle * angle) - (1.0 + np.cos(angle)) / (
        2.0 * angle * np.sin(angle)
    )
    return np.eye(3) - 0.5 * px + cot_term * (px @ px)


def hat(xi: np.ndarray) -> np.ndarray:
    """Map a 9-vector (phi, rho_v, rho_p) to its 5x5 Lie-algebra matrix."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (9,):
        raise PatternViolation(f"expected 9-vector, got shape {xi.shape}")
    out = np.zeros((5, 5))
    out[:3, :3] = skew(xi[:3])
    out[:3, 3] = xi[3:6]
    out[:3, 4] = xi[6:9]
    return out


def vee(mat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`. Raises PatternViolation on a malformed matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (5, 5):
        raise PatternViolation(f"expected 5x5 matrix, got shape {mat.shape}")
    if np.max(np.abs(mat[3:, :])) > _PATTERN_TOL * max(1.0, np.max(np.abs(mat))):
        raise PatternViolation("bottom rows of a se_2(3) element must be zero")
    phi = unskew(mat[:3, :3])
    return np.concatenate([phi, mat[:3, 3], mat[:3, 4]])


@dataclass
class GroupElement:
    """Element of SE_2(3) stored as the triple ``(R, v, p)``."""

    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement()

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "GroupElement":
        """Build from a 5x5 embedding; checks the fixed block pattern."""
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (5, 5):
            raise PatternViolation(f"expected 5x5 matrix, got shape {mat.shape}")
        expected = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
        if np.max(np.abs(mat[3:, :] - expected)) > _PATTERN_TOL:
            raise PatternViolation("bottom rows must be [0 0 0 1 0; 0 0 0 0 1]")
        return GroupElement(mat[:3, :3].copy(), mat[:3, 3].copy(), mat[:3, 4].copy())

    def as_matrix(self) -> np.ndarray:
        out = np.eye(5)
        out[:3, :3] = self.R
        out[:3, 3] = self.v
        out[:3, 4] = self.p
        return out

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.R @ other.R,
            self.R @ other.v + self.v,
            self.R @ other.p + self.p,
        )

    def inverse(self) -> "GroupElement":
        rt = self.R.T
        return GroupElement(rt, -(rt @ self.v), -(rt @ self.p))

    def adjoint(self) -> np.ndarray:
        """9x9 adjoint: X exp(hat(xi)) X^-1 = exp(hat(adjoint(X) @ xi))."""
        out = np.zeros((9, 9))
        out[:3, :3] = self.R
        out[3:6, :3] = skew(self.v) @ self.R
        out[3:6, 3:6] = self.R
        out[6:9, :3] = skew(self.p) @ self.R
        out[6:9, 6:9] = self.R
        return out


def exp_se23(xi: np.ndarray) -> GroupElement:
    """Group exponential: closed form via the SO(3) left Jacobian."""
    xi = np.asarray(xi, dtype=float)
    phi = xi[:3]
    jac = left_jacobian(phi)
    return GroupElement(so3_exp(phi), jac @ xi[3:6], jac @ xi[6:9])


def log_se23(element: GroupElement) -> np.ndarray:
    """Group logarithm, the inverse of :func:`exp_se23`."""
    phi = so3_log(element.R)
    jinv = left_jacobian_inv(phi)
    return np.concatenate([phi, jinv @ element.v, jinv @ element.p])


def _psd_sqrt(cov: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric square root of a PSD matrix; raises NotPSD otherwise."""
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    if eigvals.min() < -tol * scale:
        raise NotPSD(f"minimum eigenvalue {eigvals.min()} below tolerance")
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def sample_concentrated_gaussian(
    mean: GroupElement,
    cov: np.ndarray,
    side: str,
    rng: np.random.Generator,
) -> GroupElement:
    """Draw from a concentrated Gaussian on SE_2(3).

    ``side='left'`` returns ``mean @ exp(hat(eps))`` and ``side='right'``
    returns ``exp(hat(eps)) @ mean`` with ``eps ~ N(0, cov)`` in R^9.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    eps = _psd_sqrt(cov) @ rng.standard_normal(9)
    perturbation = exp_se23(eps)
    if side == "left":
        return mean.compose(perturbation)
    return perturbation.compose(mean)
