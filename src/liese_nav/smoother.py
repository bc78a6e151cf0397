"""The forward EKF pass (``run_forward``) and RTS smoothing over it.

The backward recursion is the standard Rauch-Tung-Striebel pass expressed in
the variant's error coordinates: the smoothed-vs-predicted state difference
at k+1 is mapped into a 15-vector with the group logarithm, pulled back
through the smoother gain, and retracted into the filtered nominal at k.
The members of a block run both passes in lockstep, as one stack: the
forward pass keeps its records stacked over them, and the backward pass
takes those records as they are, so a standalone run (a block of one, whose
records hold its own unstacked states) and a block run the same code.
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import filter as flt
from liese_nav.errors import Divergence, NonFiniteInput, SingularPredCov
from liese_nav.filter import _I15, apply_correction, error_state
from liese_nav.liegroup import matvec
from liese_nav.sensors import BiasState, ImuNoiseParams


@dataclass
class ForwardRecord:
    """One stored epoch of the forward pass.

    ``nav``/``bias``/``p_post`` are the post-update estimate at t. ``phi``
    is the accumulated transition matrix from t to the next epoch and
    ``p_pred``/``nav_pred``/``bias_pred`` the resulting next-epoch prior;
    they are None for the final record. ``run_forward`` stacks every field
    but t over the members of a block (states as ``stack_states`` stacks
    them, matrices on a leading member axis); one member's are its own.
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
    that on a long run or a large start time). Returns (records, nis): one
    ForwardRecord per update, the last one (or, with no fix, the last
    prediction) final, each stacked over the members (one member's are its
    own), and one list per member of {"t", "value"} NIS entries, one per
    update. Member k of each record equals the member's own run bit for
    bit.

    The pass runs leg by leg: a leg ends at the step a fix is due, and is at
    least one step long, so two fixes due at one step apply on consecutive
    steps; the steps after the last fix form the final leg. The members
    advance as one stacked state (one member stays unstacked), one
    ``filter.predict`` per chunk of at most ``BLOCK`` rows, and each leg
    equals its step-by-step prediction bit for bit. At each fix they
    update as one stack, one ``filter.update`` with their fixes stacked
    (``GnssFix.stack``), and stay stacked: the pass keeps one stacked
    record per update, as it builds it.

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
    fixes = [flt.GnssFix.stack(group) for group in zip(*fix_lists)]
    t0, start = fs.t, 0
    _check_finite(imu, fixes, t0, dt)
    run = flt.RunConstants(fs.variant, noise or ImuNoiseParams(), dt)
    chunk = max(1, BLOCK // lanes)  # steps per predict: stacks of <= BLOCK rows
    records, nis = [], []
    post = None  # the last post-update state, awaiting its leg
    try:
        for fix in fixes:
            # the IMU step at which the fix is due; fs.t sums dt
            stop = max(start + 1, math.ceil((fix.t - t0 - 1e-9) / dt))
            if stop > len(imu):
                break
            fs, phi = _leg(fs, imu, start, stop, run, chunk)
            if post is not None:
                # the prior's nav and bias are views of the leg's tracks,
                # which the record would keep alive
                records.append(
                    ForwardRecord(
                        post.t, post.nav, post.bias, post.p,
                        phi, fs.p, fs.nav.copy(), fs.bias.copy(),
                    )
                )
            # update returns fresh arrays, and no later step writes to them
            fs, report = flt.update(fs, fix, mode=mode)
            nis.append((fs.t, np.reshape(report.nis, -1).tolist()))
            post = fs
            start = stop
        fs, _ = _leg(fs, imu, start, len(imu), run, chunk)
    except (np.linalg.LinAlgError, OverflowError, Divergence) as exc:
        raise Divergence(
            f"{fs.variant.name} diverged at t={fs.t} or in the IMU leg after "
            f"it: {exc}"
        ) from exc
    last = fs.copy() if post is None else post
    records.append(ForwardRecord(last.t, last.nav, last.bias, last.p))
    nis = [[{"t": t, "value": v[k]} for t, v in nis] for k in range(lanes)]
    return records, nis


def _leg(fs, imu, start, stop, run, chunk):
    """Predict ``fs`` over the IMU steps [start, stop), ``chunk`` steps per
    ``filter.predict`` call; returns the state and the leg's accumulated
    transition matrix (the identity for an empty leg)."""
    phi_acc = _I15
    for lo in range(start, stop, chunk):
        fs, phi_acc = flt.predict(fs, imu[lo:min(stop, lo + chunk)], run, phi_acc)
    return fs, phi_acc


def _check_finite(imu, fixes, t0, dt):
    """Raise NonFiniteInput at the first IMU sample, then at the first fix
    position, that holds a NaN or an infinity; one isfinite per stream.
    Sample k is named by its time t0 + k * dt."""
    bad = np.argwhere(~np.isfinite(imu))
    if bad.size:
        t = t0 + int(bad[0, 0]) * dt
        raise NonFiniteInput(f"non-finite IMU sample at t={t}")
    pos = np.array([fix.pos for fix in fixes], float)
    bad = np.argwhere(~np.isfinite(pos))
    if bad.size:
        t = fixes[bad[0, 0]].t
        raise NonFiniteInput(f"non-finite GNSS fix position at t={t}")


# Epochs, or member-epochs, per stacked solve or factorization (here, in
# the backward pass's gains, the metrics and the covariance check):
# 64 covariances (115 kB) stay below glibc's default 128 kB mmap threshold.
# Freeing whole-track stacks (1.8 MB on a 1000-epoch track) raises that
# threshold, and later allocations stay on the heap: perfbench's
# ecef-dense-gnss peak RSS read 4.5 MB (6 %) higher with them.
BLOCK = 64


def _gains(times, p_pred, rhs):
    """The smoother gains C = P_post Phi' P_pred^-1 of a chunk of epochs,
    from one stacked solve on the transpose, with ``rhs`` = Phi P_post:
    ``p_pred`` and ``rhs`` are (E, 15, 15) stacks of one matrix per epoch,
    or (E, N, 15, 15) stacks of a block's N members epoch by epoch, and
    ``times`` the E epochs' times. The gains do not depend on the backward
    recursion, and each equals its per-epoch solve bit for bit.
    SingularPredCov names the latest epoch whose solve fails, the one the
    backward pass reaches first.
    """
    p_pred = p_pred + 1e-12 * _I15
    try:
        c = np.linalg.solve(p_pred, rhs)
    except np.linalg.LinAlgError:
        c = None
    if c is None or not np.isfinite(c).all():
        shape = (len(times), -1, 15, 15)
        for t, a, b in zip(
            reversed(times), p_pred.reshape(shape)[::-1], rhs.reshape(shape)[::-1]
        ):
            try:
                ck = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                raise SingularPredCov(
                    f"predicted covariance singular at t={t}"
                ) from exc
            if not np.isfinite(ck).all():
                raise SingularPredCov(
                    f"predicted covariance numerically singular at t={t}"
                )
    return c.mT


def _pairs(records):
    """(record, gain) of every record but the final one, latest first. A
    chunk holds at most ``BLOCK`` member-epochs (one epoch at least), and
    its gains are one stacked solve."""
    chunk = max(1, BLOCK * 225 // records[-1].p_post.size)
    for stop in range(len(records) - 1, 0, -chunk):
        block = records[max(0, stop - chunk):stop]
        gains = _gains(
            [rec.t for rec in block],
            np.stack([rec.p_pred for rec in block]),
            np.stack([rec.phi @ rec.p_post for rec in block]),
        )
        yield from zip(reversed(block), gains[::-1])


def rts_smooth(variant, records):
    """Backward RTS pass over ``run_forward``'s records, each stacked over
    the members of a block (one member's are its own). Returns the smoothed
    ``filter.FilterState`` of every epoch, oldest first, stacked over the
    members as ``FilterState.stack`` stacks them: each member of a block's
    stacked state equals the member's own pass bit for bit.

    Each backward epoch is one ``error_state``, gain product and
    ``apply_correction`` over the stack, so a block's smoothed states exist
    at once, one stack per epoch, and a singular predicted covariance stops
    the whole block.
    """
    return _backward(variant, records[-1], _pairs(records))


def _backward(variant, last, pairs):
    """The smoothed states, oldest first, from the final record ``last``
    back through the (record, gain) ``pairs``, which come latest first;
    records, states and gains of one member, or stacked over the members
    alike."""
    out = [
        flt.FilterState(
            variant, last.nav.copy(), last.bias.copy(), last.p_post.copy(), last.t
        )
    ]
    for rec, c in pairs:
        nxt = out[-1]
        dx_next = error_state(
            variant, nxt.nav, nxt.bias, rec.nav_pred, rec.bias_pred
        )
        dx = matvec(c, dx_next)
        nav, bias = apply_correction(variant, rec.nav, rec.bias, dx)
        p = rec.p_post + c @ (nxt.p - rec.p_pred) @ c.mT
        p = 0.5 * (p + p.mT)
        out.append(flt.FilterState(variant, nav, bias, p, rec.t))
    out.reverse()
    return out
