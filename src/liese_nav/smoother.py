"""The forward EKF pass (``run_forward``) and RTS smoothing over it.

The backward recursion is the standard Rauch-Tung-Striebel pass expressed in
the variant's error coordinates: the smoothed-vs-predicted state difference
at k+1 is mapped into a 15-vector with the group logarithm, pulled back
through the smoother gain, and retracted into the filtered nominal at k.
The members of a block run both passes in lockstep, as one stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from liese_nav import filter as flt
from liese_nav.errors import Divergence, NonFiniteInput, SingularPredCov
from liese_nav.filter import _I15, apply_correction, error_state
from liese_nav.liegroup import matvec
from liese_nav.mechanization import stack_states, state_at
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


# ForwardRecord's fields after t, and those of them that are states
_FIELDS = ("nav", "bias", "p_post", "phi", "p_pred", "nav_pred", "bias_pred")
_STATES = {"nav", "bias", "nav_pred", "bias_pred"}


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
    equals its step-by-step prediction bit for bit. At each fix they
    update as one stack, one ``filter.update`` with their fixes stacked
    (``GnssFix.stack``), and stay stacked: the pass keeps one stacked
    record per update, and a member's records are views of them.

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
    if lanes > 1:
        records = [[_record_at(rec, k, rec.t) for rec in records] for k in range(lanes)]
    else:
        records = [records]
    nis = [[{"t": t, "value": v[k]} for t, v in nis] for k in range(lanes)]
    return records, nis


def _record_at(rec, k, t):
    """Row k (an index or a slice of rows) of a stacked record, as views,
    at time t."""
    prior = () if rec.phi is None else (
        rec.phi[k], rec.p_pred[k], state_at(rec.nav_pred, k),
        state_at(rec.bias_pred, k),
    )
    return ForwardRecord(
        t, state_at(rec.nav, k), state_at(rec.bias, k), rec.p_post[k], *prior
    )


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
# the metrics, the covariance check and covariance.csv):
# 64 covariances (115 kB) stay below glibc's default 128 kB mmap threshold.
# Freeing whole-track stacks (1.8 MB on a 1000-epoch track) raises that
# threshold, and later allocations stay on the heap: perfbench's
# ecef-dense-gnss peak RSS read 4.5 MB (6 %) higher with them.
BLOCK = 64


# Member-epochs per chunk of the lockstep backward pass. A chunk's six
# stacks of 15 x 15 matrices (its records' P_post, Phi and P_pred, Phi
# P_post, the ridged P_pred and the gains) take about 170 kB; at BLOCK
# member-epochs they took 690 kB, and a 4-member Monte-Carlo run peaked
# 0.6 MB higher in RSS (44.65 against 44.03 MB, median of 5 in-process
# runs of six calls each).
_LOCKSTEP_ROWS = 16


def _gains(times, p_pred, rhs):
    """The smoother gains C = P_post Phi' P_pred^-1 of a chunk of epochs,
    from one stacked solve on the transpose, with ``rhs`` = Phi P_post:
    ``p_pred`` and ``rhs`` hold one matrix per epoch, or the members of a
    block epoch by epoch, and ``times`` the epochs' times. The gains do not
    depend on the backward recursion, and each equals its per-epoch solve
    bit for bit. SingularPredCov names the latest epoch whose solve fails,
    the one the backward pass reaches first.
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


def _member_pairs(records):
    """(record, gain) of every record of one member but the final one,
    latest first, the gains from one stacked solve per BLOCK epochs."""
    for stop in range(len(records) - 1, 0, -BLOCK):
        block = records[max(0, stop - BLOCK):stop]
        gains = _gains(
            [rec.t for rec in block],
            np.stack([rec.p_pred for rec in block]),
            np.stack([rec.phi @ rec.p_post for rec in block]),
        )
        yield from zip(reversed(block), gains[::-1])


def _stack(flat):
    """One record whose fields stack those of the records ``flat``, one
    call per field, at the first one's time; a final record's missing
    prior stays missing."""
    first = flat[0]
    return ForwardRecord(
        first.t,
        *(
            (stack_states if name in _STATES else np.array)(
                [getattr(rec, name) for rec in flat]
            )
            for name in _FIELDS
            if getattr(first, name) is not None
        ),
    )


def _lockstep_pairs(records):
    """(record, gain) of every epoch of a block's members but the final
    one, latest first: each record stacked over the members, each gain an
    (N, 15, 15) stack. A chunk of at most ``_LOCKSTEP_ROWS`` member-epochs
    (one epoch at least) is restacked with one call per field, and its
    gains are one stacked solve; each epoch's record holds views of the
    chunk."""
    lanes = len(records)
    chunk = max(1, _LOCKSTEP_ROWS // lanes)
    for stop in range(len(records[0]) - 1, 0, -chunk):
        lo = max(0, stop - chunk)
        # epoch-major: epoch e's members are rows e * lanes ... + lanes
        flat = [member[e] for e in range(lo, stop) for member in records]
        times = [rec.t for rec in flat[::lanes]]
        stacked = _stack(flat)
        gains = _gains(times, stacked.p_pred, stacked.phi @ stacked.p_post)
        for e in reversed(range(len(times))):
            rows = slice(e * lanes, (e + 1) * lanes)
            yield _record_at(stacked, rows, times[e]), gains[rows]


def rts_smooth(variant, records):
    """Backward RTS pass over ``run_forward``'s records, one list per
    member, all members at the same epochs. Returns the smoothed
    ``filter.FilterState`` of every epoch, oldest first, stacked over the
    members as ``FilterState.stack`` stacks them: one member's are its own
    states, and each member of a block's stacked state equals the member's
    own pass bit for bit.

    One member runs unstacked on its own records. The members of a block of
    two or more run in lockstep: each backward epoch is one stacked
    ``error_state``, gain product and ``apply_correction`` over the
    members, and the records are restacked chunk by chunk
    (:func:`_lockstep_pairs`). So a block's smoothed states exist at once,
    one stack per epoch, and a singular predicted covariance stops the
    whole block.
    """
    if len(records) == 1:
        (own,) = records
        return _backward(variant, own[-1], _member_pairs(own)) if own else []
    last = _stack([member[-1] for member in records])
    return _backward(variant, last, _lockstep_pairs(records))


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
