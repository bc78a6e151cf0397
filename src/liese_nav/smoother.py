"""The forward EKF pass (``run_forward``) and RTS smoothing over it.

The backward recursion is the standard Rauch-Tung-Striebel pass expressed in
the variant's error coordinates: the smoothed-vs-predicted state difference
at k+1 is mapped into a 15-vector with the group logarithm, pulled back
through the smoother gain, and retracted into the filtered nominal at k.
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import filter as flt
from liese_nav.errors import Divergence, NonFiniteInput, SingularPredCov
from liese_nav.filter import _I15, apply_correction, error_state
from liese_nav.sensors import BiasState, ImuNoiseParams


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


def run_forward(starts, imus, fix_lists, dt, noise=None, mode="se23"):
    """Filter N members in lockstep from their start FilterStates
    ``starts``, IMU streams ``imus`` ((n, 2, 3) arrays of (gyro, accel),
    sample k at ``t0 + k * dt``, t0 the start time) and GNSS fix lists
    ``fix_lists``, all at the same times, updating each member with its fix
    after the first IMU step k at which ``t0 + k * dt`` reaches the fix's
    time (the states' own times sum ``dt`` step by step, and drift from
    that on a long run or a large start time). Returns (records, nis),
    one list per member, each equal to the member's own run bit for bit: a
    ForwardRecord per update, the last one (or, with no fix, the last
    prediction) final, and one {"t", "value"} NIS entry per update.

    The pass runs leg by leg: a leg ends at the step a fix is due, and is at
    least one step long, so two fixes due at one step apply on consecutive
    steps; the steps after the last fix form the final leg. The members
    advance as one stacked state (one member stays unstacked), one
    ``filter.predict`` per chunk of at most ``BLOCK`` rows, and each leg
    equals its step-by-step prediction bit for bit.

    Raises NonFiniteInput, naming the sample time (``t0 + k * dt`` for IMU
    sample k), if any IMU sample or fix position holds a NaN or an
    infinity, and Divergence, naming the variant and the time of the last
    state the pass reached, if the filter's states leave the finite numbers
    (a ``numpy.linalg.LinAlgError`` in a predict or an update, an
    ``OverflowError`` from a float power in the earth terms, or a latitude
    that is no latitude).
    """
    fs, lanes = flt.FilterState.stack(starts), len(starts)
    imu = imus[0] if lanes == 1 else np.stack(imus, axis=2)  # (n, 2, N, 3)
    groups = list(zip(*fix_lists))
    t0, start = fs.t, 0
    _check_finite(imu, groups, t0, dt)
    run = flt.RunConstants(fs.variant, noise or ImuNoiseParams(), dt)
    chunk = max(1, BLOCK // lanes)  # steps per predict: stacks of <= BLOCK rows
    records, nis = [[] for _ in range(lanes)], [[] for _ in range(lanes)]
    pending = [None] * lanes  # last post-update states awaiting their leg
    try:
        for group in groups:
            # the IMU step at which the group is due; fs.t sums dt
            stop = max(start + 1, math.ceil((group[0].t - t0 - 1e-9) / dt))
            if stop > len(imu):
                break
            fs, phi_acc = _leg(fs, imu, start, stop, run, chunk)
            phis = phi_acc.reshape(-1, 15, 15)
            for k, (prior, leg, fix) in enumerate(zip(fs.members(), phis, group)):
                if (last := pending[k]) is not None:
                    records[k].append(
                        ForwardRecord(
                            last.t, last.nav, last.bias, last.p,
                            leg.copy(), prior.p.copy(), prior.nav.copy(),
                            prior.bias.copy(),
                        )
                    )
                post, report = flt.update(prior, fix, mode=mode)
                nis[k].append({"t": post.t, "value": float(report.nis)})
                # update returns fresh arrays, and no later step writes to them
                pending[k] = post
            fs = flt.FilterState.stack(pending)
            start = stop
        fs, _ = _leg(fs, imu, start, len(imu), run, chunk)
    except (np.linalg.LinAlgError, OverflowError, Divergence) as exc:
        raise Divergence(
            f"{fs.variant.name} diverged at t={fs.t} or in the IMU leg after "
            f"it: {exc}"
        ) from exc
    for k, final in enumerate(fs.members()):
        last = final.copy() if pending[k] is None else pending[k]
        records[k].append(ForwardRecord(last.t, last.nav, last.bias, last.p))
    return records, nis


def _leg(fs, imu, start, stop, run, chunk):
    """Predict ``fs`` over the IMU steps [start, stop), ``chunk`` steps per
    ``filter.predict`` call; returns the state and the leg's accumulated
    transition matrix (the identity for an empty leg)."""
    phi_acc = _I15
    for lo in range(start, stop, chunk):
        fs, phi_acc = flt.predict(fs, imu[lo:min(stop, lo + chunk)], run, phi_acc)
    return fs, phi_acc


def _check_finite(imu, groups, t0, dt):
    """Raise NonFiniteInput at the first IMU sample, then at the first fix
    position, that holds a NaN or an infinity; one isfinite per stream.
    Sample k is named by its time t0 + k * dt."""
    bad = np.argwhere(~np.isfinite(imu))
    if bad.size:
        t = t0 + int(bad[0, 0]) * dt
        raise NonFiniteInput(f"non-finite IMU sample at t={t}")
    pos = np.array([[fix.pos for fix in group] for group in groups], float)
    bad = np.argwhere(~np.isfinite(pos))
    if bad.size:
        t = groups[bad[0, 0]][0].t
        raise NonFiniteInput(f"non-finite GNSS fix position at t={t}")


# Epochs per stacked solve (here and in the metrics and covariance.csv):
# 64 covariances (115 kB) stay below glibc's default 128 kB mmap threshold.
# Freeing whole-track stacks (1.8 MB on a 1000-epoch track) raises that
# threshold, and later allocations stay on the heap: perfbench's
# ecef-dense-gnss peak RSS read 4.5 MB (6 %) higher with them.
BLOCK = 64


def _gains(records):
    """The smoother gain C = P_post Phi' P_pred^-1 of every record but the
    final one, latest first, as the backward pass needs them.

    The gains do not depend on the backward recursion, so each block of
    epochs comes from one stacked solve on the transpose; each gain equals
    its per-epoch solve bit for bit. SingularPredCov names the epoch the
    backward pass reaches first.
    """
    for stop in range(len(records) - 1, 0, -BLOCK):
        block = records[max(0, stop - BLOCK):stop]
        p_pred = np.stack([rec.p_pred for rec in block])
        p_pred += 1e-12 * _I15
        rhs = np.stack([rec.phi @ rec.p_post for rec in block])
        try:
            c = np.linalg.solve(p_pred, rhs)
        except np.linalg.LinAlgError:
            c = None
        if c is None or not np.isfinite(c).all():
            for rec, a, b in zip(reversed(block), p_pred[::-1], rhs[::-1]):
                try:
                    ck = np.linalg.solve(a, b)
                except np.linalg.LinAlgError as exc:
                    raise SingularPredCov(
                        f"predicted covariance singular at t={rec.t}"
                    ) from exc
                if not np.isfinite(ck).all():
                    raise SingularPredCov(
                        f"predicted covariance numerically singular at t={rec.t}"
                    )
        yield from np.swapaxes(c, -1, -2)[::-1]


def rts_smooth(variant, records):
    """Backward RTS pass; returns a list of smoothed ``filter.FilterState``,
    oldest first."""
    if not records:
        return []
    last = records[-1]
    out = [
        flt.FilterState(
            variant, last.nav.copy(), last.bias.copy(), last.p_post.copy(), last.t
        )
    ]
    for rec, c in zip(reversed(records[:-1]), _gains(records)):
        nxt = out[-1]
        dx_next = error_state(
            variant, nxt.nav, nxt.bias, rec.nav_pred, rec.bias_pred
        )
        dx = c @ dx_next
        nav, bias = apply_correction(variant, rec.nav, rec.bias, dx)
        p = rec.p_post + c @ (nxt.p - rec.p_pred) @ c.T
        p = 0.5 * (p + p.T)
        out.append(flt.FilterState(variant, nav, bias, p, rec.t))
    out.reverse()
    return out
