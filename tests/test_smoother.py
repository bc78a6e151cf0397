"""RTS smoother against a vector-RTS oracle and dominance properties."""

import re

import numpy as np
import pytest

from liese_nav import earth, errors, filter as flt, sensors, smoother as smo
from liese_nav.errormodels import Variant
from liese_nav.errors import SingularPredCov
from liese_nav.mechanization import NavStateECEF
from liese_nav.sensors import BiasState, ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

from oracles import state_ned

GEN = TruthGenerator(
    TrajectorySpec(
        "circle", np.array([0.7, -1.2, 300.0]), speed=15.0, radius=250.0,
        heading0=0.4,
    )
)
LEVER = np.array([0.4, -0.2, 1.1])


def test_single_record_is_identity():
    # [TRIVIAL] RTS boundary condition
    variant = Variant("ECEF", "LeftEst")
    nav = GEN.state_ecef(3.0)
    rec = smo.ForwardRecord(3.0, nav, BiasState(), np.eye(15) * 0.1)
    out = smo.rts_smooth(variant, [[rec]])
    assert len(out) == 1
    assert np.array_equal(out[0].p, rec.p_post)
    assert np.array_equal(out[0].nav.r, nav.r)
    assert smo.rts_smooth(variant, [[]]) == []


def _rand_psd(rng, scale):
    a = rng.normal(size=(15, 15))
    return a @ a.T * scale + scale * np.eye(15)


def test_matches_vector_rts_in_linear_regime():
    # [DERIVED: vector-RTS oracle] with rotations at identity and tiny
    # errors the group recursion reduces to the standard linear smoother
    variant = Variant("ECEF", "LeftEst")
    rng = np.random.default_rng(7)
    ref = NavStateECEF(
        np.eye(3), np.array([10.0, -3.0, 1.0]), np.array([3.0e6, -4.0e6, 2.0e6])
    )
    ref_bias = BiasState()
    scales = np.concatenate(
        [np.full(3, 1e-8), np.full(3, 1e-6), np.full(3, 1e-5), np.full(6, 1e-9)]
    )

    def nav_of(x):
        return flt.apply_correction(variant, ref, ref_bias, x)

    n = 6
    x_post = [scales * rng.uniform(-1, 1, 15) for _ in range(n)]
    x_pred = [scales * rng.uniform(-1, 1, 15) for _ in range(n)]
    p_post = [_rand_psd(rng, 1e-2) for _ in range(n)]
    p_pred = [p + _rand_psd(rng, 1e-3) for p in p_post]
    phis = [np.eye(15) + 0.05 * rng.normal(size=(15, 15)) for _ in range(n)]

    records = []
    for k in range(n):
        nav_k, bias_k = nav_of(x_post[k])
        if k < n - 1:
            nav_p, bias_p = nav_of(x_pred[k + 1])
            records.append(
                smo.ForwardRecord(
                    float(k), nav_k, bias_k, p_post[k], phis[k],
                    p_pred[k + 1], nav_p, bias_p,
                )
            )
        else:
            records.append(smo.ForwardRecord(float(k), nav_k, bias_k, p_post[k]))

    out = smo.rts_smooth(variant, [records])

    # reference: standard vector RTS on the same numbers
    xs, ps = x_post[-1].copy(), p_post[-1].copy()
    expect = [(xs, ps)]
    for k in reversed(range(n - 1)):
        c = p_post[k] @ phis[k].T @ np.linalg.inv(
            p_pred[k + 1] + 1e-12 * np.eye(15)
        )
        xs = x_post[k] + c @ (xs - x_pred[k + 1])
        ps = p_post[k] + c @ (ps - p_pred[k + 1]) @ c.T
        expect.append((xs, 0.5 * (ps + ps.T)))
    expect.reverse()

    for ep, (x_ref, p_ref) in zip(out, expect):
        x_got = flt.error_state(variant, ep.nav, ep.bias, ref, ref_bias)
        assert np.max(np.abs(x_got - x_ref)) <= 1e-8
        assert np.max(np.abs(ep.p - p_ref)) <= 1e-8


def _records_with_pred_cov(bad_at, p_bad):
    """Four records of a static nav; the prior of record ``bad_at`` is
    ``p_bad``, every other one the identity."""
    nav = GEN.state_ecef(0.0)
    records = [
        smo.ForwardRecord(
            float(k), nav, BiasState(), np.eye(15), np.eye(15),
            p_bad if k == bad_at else np.eye(15), nav, BiasState(),
        )
        for k in range(3)
    ]
    return records + [smo.ForwardRecord(3.0, nav, BiasState(), np.eye(15))]


def test_singular_pred_cov_raises(monkeypatch):
    variant = Variant("ECEF", "LeftEst")
    for block in (smo.BLOCK, 2):  # the gains in one stacked solve, or in two
        monkeypatch.setattr(smo, "BLOCK", block)
        for p_bad in (
            np.full((15, 15), np.nan),
            # exactly singular once the 1e-12 ridge is added: solve raises
            -1e-12 * np.eye(15),
        ):
            for bad_at in range(3):
                records = _records_with_pred_cov(bad_at, p_bad)
                with pytest.raises(SingularPredCov, match=rf"t={bad_at}\.0$"):
                    smo.rts_smooth(variant, [records])


def test_singular_pred_cov_of_one_member_stops_its_lockstep_block():
    # the gains of a block are solved together: one member's singular
    # prior stops the whole block, named by its epoch
    variant = Variant("ECEF", "LeftEst")
    for p_bad in (np.full((15, 15), np.nan), -1e-12 * np.eye(15)):
        for bad_at in range(3):
            block = [
                _records_with_pred_cov(0, np.eye(15)),
                _records_with_pred_cov(bad_at, p_bad),
            ]
            with pytest.raises(SingularPredCov, match=rf"t={bad_at}\.0$"):
                smo.rts_smooth(variant, block)


@pytest.mark.parametrize("block", [None, 2], ids=["one-block", "two-blocks"])
def test_singular_pred_cov_names_the_epoch_the_backward_pass_meets_first(
    block, monkeypatch
):
    if block:
        monkeypatch.setattr(smo, "BLOCK", block)
    variant = Variant("ECEF", "LeftEst")
    records = _records_with_pred_cov(0, -1e-12 * np.eye(15))
    records[1].p_pred = np.full((15, 15), np.nan)
    with pytest.raises(SingularPredCov, match=r"numerically singular at t=1\.0$"):
        smo.rts_smooth(variant, [records])
    records[1].p_pred = np.eye(15)
    records[2].p_pred = -1e-12 * np.eye(15)
    with pytest.raises(SingularPredCov, match=r"covariance singular at t=2\.0$"):
        smo.rts_smooth(variant, [records])


# ---------------------------------------------------------------------------
# end-to-end dominance on a noisy circle run
# ---------------------------------------------------------------------------


def run_forward(variant, duration=20.0, dt=0.02, gnss_period=1.0, seed=5):
    rng = np.random.default_rng(seed)
    noise = ImuNoiseParams(
        sigma_g=1e-4, sigma_a=1e-3, sigma_bg=1e-7, sigma_ba=1e-6,
        tau_g=400.0, tau_a=900.0,
    )
    true_bias0 = BiasState(
        np.array([2e-4, -1e-4, 1.5e-4]), np.array([1e-3, -2e-3, 1.5e-3])
    )
    n = int(round(duration / dt))
    clean = GEN.synthesize_imu(duration, dt)
    biases = sensors.simulate_biases(noise, n, dt, rng, initial=true_bias0)
    imu = sensors.corrupt(clean, biases, noise, dt, rng)
    times = np.arange(gnss_period, duration + 1e-9, gnss_period)
    fixes = GEN.sample_gnss(times, LEVER, 1.5, rng)
    p0 = np.diag(
        np.concatenate(
            [
                np.full(3, 1e-3**2),
                np.full(3, 0.1**2),
                np.full(3, 1.0**2),
                np.full(3, 5e-4**2),
                np.full(3, 5e-3**2),
            ]
        )
    )
    if variant.frame in ("NED", "NED_Aux"):
        nav0 = state_ned(GEN, 0.0)
    else:
        nav0 = GEN.state_ecef(0.0)
    fs = flt.FilterState(variant, nav0, BiasState(), p0, 0.0)
    records, _ = smo.run_forward([fs], [imu], [fixes], dt, noise)
    return records[0]


def test_run_forward_without_a_fix_keeps_the_last_prediction():
    # [TRIVIAL: boundary] a window that ends before its first fix, or has
    # none, gives exactly one final record: the last prediction
    variant = Variant("NED", "LeftEst")
    dt = 0.02
    imu = GEN.synthesize_imu(0.5, dt)
    fs0 = flt.FilterState(variant, state_ned(GEN, 0.0), BiasState(), np.eye(15), 0.0)
    late = flt.GnssFix(1.0, GEN.state_ecef(1.0).r, np.eye(3), LEVER)
    expected = fs0
    run = flt.RunConstants(variant, ImuNoiseParams(), dt)
    for k in range(len(imu)):
        expected, _ = flt.predict(expected, imu[k:k + 1], run)
    for fixes in ([], [late]):
        (records,), (nis,) = smo.run_forward([fs0], [imu], [fixes], dt)
        assert nis == []
        assert len(records) == 1
        rec = records[0]
        assert rec.phi is None and rec.p_pred is None and rec.nav_pred is None
        assert rec.t == expected.t
        assert np.array_equal(rec.p_post, expected.p)
        assert np.array_equal(rec.nav.geo, expected.nav.geo)
        assert np.array_equal(rec.nav.c_bn, expected.nav.c_bn)


def test_fixes_apply_at_their_imu_step_far_from_time_zero():
    # [ROBUSTNESS] from t0 = 86400 s, 86400 + 0.01 rounds down, so the state
    # time, which sums dt step by step, falls behind the step count by about
    # 5e-12 s a step; each fix is still applied at the IMU step of its time,
    # not one step late, and the fix at the last step is not dropped
    dt, t0 = 0.01, 86400.0
    imu = GEN.synthesize_imu(10.0, dt)
    fixes = [
        flt.GnssFix(t0 + k, GEN.state_ecef(float(k)).r, np.eye(3), LEVER)
        for k in range(1, 11)
    ]
    fs = flt.FilterState(
        Variant("NED", "LeftEst"), state_ned(GEN, 0.0), BiasState(), np.eye(15), t0
    )
    (records,), (nis,) = smo.run_forward([fs], [imu], [fixes], dt)
    assert len(nis) == len(records) == len(fixes)
    for entry, rec, fix in zip(nis, records, fixes):
        assert abs(entry["t"] - fix.t) < 0.5 * dt
        assert rec.t == entry["t"]


@pytest.mark.parametrize("case", ["nan-gyro", "inf-accel", "nan-fix-position"])
def test_non_finite_input_raises_naming_the_sample_time(case):
    # [ROBUSTNESS] one bad IMU sample or fix position fails before the loop
    # and names its time, instead of ending in an SVD error many steps later
    dt = 0.02
    imu = GEN.synthesize_imu(4.0, dt)
    times = np.arange(1.0, 4.0 + 1e-9, 1.0)
    fixes = GEN.sample_gnss(times, LEVER, 1.5, np.random.default_rng(0))
    if case == "nan-gyro":
        imu[150, 0, 1], bad_t = np.nan, 150 * dt
    elif case == "inf-accel":
        imu[150, 1, 2], bad_t = -np.inf, 150 * dt
    else:
        fixes[2].pos[0], bad_t = np.nan, fixes[2].t
    fs = flt.FilterState(
        Variant("NED", "LeftEst"), state_ned(GEN, 0.0), BiasState(), np.eye(15), 0.0
    )
    with pytest.raises(errors.NonFiniteInput, match=re.escape(f"t={bad_t}")):
        smo.run_forward([fs], [imu], [fixes], dt)


def test_non_finite_imu_sample_is_named_by_its_time_from_the_start():
    # [ROBUSTNESS] a stream carries no times: sample k of a pass that starts
    # at t0 is named by t0 + k * dt, not by its index times dt
    dt, t0, k = 0.02, 0.25, 37
    imu = GEN.synthesize_imu(2.0, dt)
    imu[k, 1, 0] = np.nan
    fs = flt.FilterState(
        Variant("NED", "LeftEst"), state_ned(GEN, 0.0), BiasState(), np.eye(15), t0
    )
    message = re.escape(f"non-finite IMU sample at t={t0 + k * dt}") + "$"
    with pytest.raises(errors.NonFiniteInput, match=message):
        smo.run_forward([fs], [imu], [[]], dt)


def _pos_errors(navs, times):
    out = []
    for nav, t in zip(navs, times):
        truth = GEN.state_ecef(t)
        out.append(earth.llh_to_ecef(*nav.geo) - truth.r)
    return np.array(out)


def test_smoother_dominates_filter_on_circle():
    # [DERIVED: PSD-ordering property of RTS]
    variant = Variant("NED", "LeftEst")
    records = run_forward(variant)
    smoothed = smo.rts_smooth(variant, [records])
    times = [r.t for r in records]
    filt_err = _pos_errors([r.nav for r in records], times)
    smo_err = _pos_errors([e.nav for e in smoothed], times)
    rmse_f = np.sqrt(np.mean(np.sum(filt_err**2, axis=1)))
    rmse_s = np.sqrt(np.mean(np.sum(smo_err**2, axis=1)))
    assert rmse_s <= rmse_f + 1e-9
    for rec, ep in zip(records, smoothed):
        assert np.min(np.linalg.eigvalsh(rec.p_post - ep.p)) >= -1e-9
        assert np.max(np.abs(ep.p - ep.p.T)) <= 1e-12
    # boundary condition
    assert np.array_equal(smoothed[-1].p, records[-1].p_post)
