"""The forward EKF pass (``run_forward``) and RTS smoothing over it.

The backward recursion is the standard Rauch-Tung-Striebel pass expressed in
the variant's error coordinates: the smoothed-vs-predicted state difference
at k+1 is mapped into a 15-vector with the group logarithm, pulled back
through the smoother gain, and retracted into the filtered nominal at k.
"""

from dataclasses import dataclass

import numpy as np

from liese_nav import filter as flt
from liese_nav.errors import SingularPredCov
from liese_nav.filter import apply_correction, error_state
from liese_nav.sensors import BiasState


@dataclass
class ForwardRecord:
    """One stored epoch of the forward pass.

    ``nav``/``bias``/``p_post`` are the post-update estimate at t. ``phi``
    is the accumulated transition matrix from t to the next epoch and
    ``p_pred``/``nav_pred``/``bias_pred`` the resulting next-epoch prior;
    they are None for the final record.
    """

    t: float
    nav: object
    bias: BiasState
    p_post: np.ndarray
    phi: np.ndarray = None
    p_pred: np.ndarray = None
    nav_pred: object = None
    bias_pred: BiasState = None


@dataclass
class SmoothedEpoch:
    t: float
    nav: object
    bias: BiasState
    p: np.ndarray


def run_forward(fs, imu, fixes, dt, noise=None, mode="se23"):
    """Filter the IMU samples from FilterState ``fs``, updating at the first
    epoch that reaches each GNSS fix. Returns (records, nis): a ForwardRecord
    per update, the last one (or, with no fix, the last prediction) final,
    and one {"t", "value"} NIS entry per update."""
    records, nis = [], []
    pending = None  # last post-update state awaiting its prediction leg
    phi_acc = np.eye(15)
    fix_iter = iter(fixes)
    fix = next(fix_iter, None)
    for sample in imu:
        fs, phi = flt.predict(fs, sample, dt, noise=noise)
        phi_acc = phi @ phi_acc
        if fix is not None and fs.t >= fix.t - 1e-9:
            if pending is not None:
                records.append(
                    ForwardRecord(
                        pending.t, pending.nav, pending.bias, pending.p,
                        phi_acc, fs.p.copy(), fs.nav.copy(), fs.bias.copy(),
                    )
                )
            fs, report = flt.update(fs, fix, mode=mode)
            nis.append({"t": fs.t, "value": float(report.nis)})
            pending = fs.copy()
            phi_acc = np.eye(15)
            fix = next(fix_iter, None)
    last = fs.copy() if pending is None else pending
    records.append(ForwardRecord(last.t, last.nav, last.bias, last.p))
    return records, nis


def rts_smooth(variant, records):
    """Backward RTS pass; returns a list of SmoothedEpoch, oldest first."""
    if not records:
        return []
    last = records[-1]
    out = [SmoothedEpoch(last.t, last.nav.copy(), last.bias.copy(), last.p_post.copy())]
    for rec in reversed(records[:-1]):
        nxt = out[-1]
        p_pred = rec.p_pred + 1e-12 * np.eye(15)
        try:
            # C = P_post Phi' P_pred^{-1}, via a solve on the transpose
            c = np.linalg.solve(p_pred, rec.phi @ rec.p_post).T
        except np.linalg.LinAlgError as exc:
            raise SingularPredCov(
                f"predicted covariance singular at t={rec.t}"
            ) from exc
        if not np.all(np.isfinite(c)):
            raise SingularPredCov(
                f"predicted covariance numerically singular at t={rec.t}"
            )
        dx_next = error_state(
            variant, nxt.nav, nxt.bias, rec.nav_pred, rec.bias_pred
        )
        dx = c @ dx_next
        nav, bias = apply_correction(variant, rec.nav, rec.bias, dx)
        p = rec.p_post + c @ (nxt.p - rec.p_pred) @ c.T
        p = 0.5 * (p + p.T)
        out.append(SmoothedEpoch(rec.t, nav, bias, p))
    out.reverse()
    return out
