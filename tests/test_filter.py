"""EKF discretization, prediction, update, and correction oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from liese_nav import earth, filter as flt
from liese_nav.errormodels import Variant, supported_variants
from liese_nav.errors import IncompatibleMode
from liese_nav.sensors import BiasState, ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

from oracles import ImuSample, imu_instantaneous, one_row, state_ned

GEN = TruthGenerator(
    TrajectorySpec(
        "circle", np.array([0.7, -1.2, 300.0]), speed=15.0, radius=250.0,
        heading0=0.4,
    )
)
LEVER = np.array([0.4, -0.2, 1.1])
BIAS0 = BiasState(np.array([3e-4, -2e-4, 1e-4]), np.array([2e-3, 1e-3, -3e-3]))
P0 = np.diag(
    np.concatenate(
        [
            np.full(3, 1e-4**2),
            np.full(3, 0.1**2),
            np.full(3, 1.0**2),
            np.full(3, 1e-5**2),
            np.full(3, 1e-3**2),
        ]
    )
)


def make_fs(variant, t=5.0):
    if variant.frame in ("NED", "NED_Aux"):
        nav = state_ned(GEN, t)
    else:
        nav = GEN.state_ecef(t)
    return flt.FilterState(variant, nav, BIAS0.copy(), P0.copy(), t)


def truth_fix(t, sigma=1.5, offset=None):
    s = GEN.state_ecef(t)
    pos = s.r + s.c_be @ LEVER
    if offset is not None:
        pos = pos + offset
    return flt.GnssFix(t, pos, sigma**2 * np.eye(3), LEVER)


def predicted_antenna_ecef(fs):
    nav = fs.nav
    if fs.variant.frame in ("NED", "NED_Aux"):
        lat, lon, _ = nav.geo
        c_ne = earth.dcm_ecef_to_ned(lat, lon).T
        return earth.llh_to_ecef(*nav.geo) + c_ne @ (nav.c_bn @ LEVER)
    return nav.r + nav.c_be @ LEVER


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_zero_f():
    # [TRIVIAL] F = 0 collapses to Phi = I, Qd = G Qc G' dt
    rng = np.random.default_rng(0)
    g = rng.normal(size=(15, 12))
    qc = np.full(12, 0.3)
    phi, qd = flt.discretize(np.zeros((15, 15)), flt.noise_cov(g, qc), 0.5)
    assert np.array_equal(phi, np.eye(15))
    assert np.allclose(qd, g @ np.diag(qc) @ g.T * 0.5, atol=1e-14)


def test_discretize_scalar_exponential():
    # [DERIVED] a -1/tau diagonal matches exp(-dt/tau) through second order
    tau, dt = 50.0, 0.1
    f = np.zeros((15, 15))
    f[9, 9] = -1.0 / tau
    phi, _ = flt.discretize(f, np.zeros((15, 15)), dt)
    assert abs(phi[9, 9] - np.exp(-dt / tau)) <= (dt / tau) ** 3


def test_discretize_matches_van_loan():
    # [DERIVED: van Loan reference] trapezoidal Qd within 1% Frobenius
    rng = np.random.default_rng(3)
    dt = 0.01
    for _ in range(5):
        f = rng.normal(scale=1.0, size=(15, 15))
        g = rng.normal(scale=1.0, size=(15, 12))
        qc = rng.uniform(0.1, 2.0, size=12)
        phi, qd = flt.discretize(f, flt.noise_cov(g, qc), dt)
        m = np.zeros((30, 30))
        m[:15, :15] = -f
        m[:15, 15:] = g @ np.diag(qc) @ g.T
        m[15:, 15:] = f.T
        e = expm(m * dt)
        phi_vl = e[15:, 15:].T
        qd_vl = phi_vl @ e[:15, 15:]
        assert np.linalg.norm(qd - qd_vl) <= 0.01 * np.linalg.norm(qd_vl)
        assert np.linalg.norm(phi - phi_vl) <= 1e-4 * np.linalg.norm(phi_vl)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_bias_block_matches_scalar_kf():
    # [DERIVED: scalar KF oracle] the gyro-bias variance follows the scalar
    # recursion built from the same second-order/trapezoidal discretization
    variant = Variant("NED", "LeftEst")
    fs = make_fs(variant)
    noise = ImuNoiseParams(sigma_bg=2e-6, tau_g=100.0, tau_a=None)
    dt = 0.01
    gyro, accel = imu_instantaneous(GEN, fs.t)
    imu = one_row(ImuSample(fs.t, gyro + fs.bias.gyro, accel + fs.bias.accel))
    out, _ = flt.predict(fs, imu, flt.RunConstants(variant, noise, dt))
    a = -1.0 / 100.0
    phi_s = 1.0 + a * dt + 0.5 * (a * dt) ** 2
    qd_s = 0.5 * dt * (2e-6) ** 2 * (phi_s**2 + 1.0)
    assert out.p[9, 9] == pytest.approx(phi_s**2 * P0[9, 9] + qd_s, rel=1e-12)
    assert np.allclose(out.bias.gyro, fs.bias.gyro * np.exp(-dt / 100.0))
    assert np.allclose(out.bias.accel, fs.bias.accel)
    assert out.t == pytest.approx(fs.t + dt)


def test_predict_trace_grows_with_noise():
    # [TRIVIAL] PSD arithmetic: added Qd cannot shrink the total variance
    variant = Variant("ECEF", "RightEst")
    fs = make_fs(variant)
    noise = ImuNoiseParams(
        sigma_g=1e-4, sigma_a=1e-3, sigma_bg=1e-6, sigma_ba=1e-5,
        tau_g=None, tau_a=None,
    )
    gyro, accel = imu_instantaneous(GEN, fs.t)
    imu = one_row(ImuSample(fs.t, gyro + fs.bias.gyro, accel + fs.bias.accel))
    trace = np.trace(fs.p)
    run = flt.RunConstants(variant, noise, 0.01)
    for _ in range(20):
        fs, _ = flt.predict(fs, imu, run)
        assert np.trace(fs.p) >= trace
        trace = np.trace(fs.p)
    assert np.all(np.linalg.eigvalsh(fs.p) >= -1e-12)


def test_predict_tracks_mechanization_zero_noise():
    # bias-corrected nominal propagation follows the truth
    variant = Variant("NED", "LeftEst")
    fs = make_fs(variant, t=0.0)
    dt = 0.01
    run = flt.RunConstants(variant, ImuNoiseParams(tau_g=None, tau_a=None), dt)
    for biased in GEN.synthesize_imu(2.0, dt) + [BIAS0.gyro, BIAS0.accel]:
        fs, _ = flt.predict(fs, biased[None], run)
    truth = GEN.state_ecef(2.0)
    pos = earth.llh_to_ecef(*fs.nav.geo)
    assert np.linalg.norm(pos - truth.r) <= 1e-4


# ---------------------------------------------------------------------------
# update
# ---------------------------------------------------------------------------


def test_zero_innovation_keeps_nominal():
    # [TRIVIAL] z = 0: nominal untouched, covariance contracts
    for variant in (Variant("NED", "LeftEst"), Variant("ECEF", "RightTrue")):
        fs = make_fs(variant)
        fix = flt.GnssFix(fs.t, predicted_antenna_ecef(fs), 2.0 * np.eye(3), LEVER)
        out, report = flt.update(fs, fix)
        assert np.max(np.abs(report.z)) == 0.0
        if variant.frame == "NED":
            assert np.array_equal(out.nav.geo, fs.nav.geo)
            assert np.array_equal(out.nav.c_bn, fs.nav.c_bn)
            assert np.array_equal(out.nav.v_n, fs.nav.v_n)
        else:
            assert np.array_equal(out.nav.r, fs.nav.r)
        assert np.all(np.linalg.eigvalsh(fs.p - out.p) >= -1e-12)


@pytest.mark.parametrize("frame", ["NED", "ECEF"])
def test_invariant_mode_matches_se23(frame):
    # [PAPER] the two update paths are the same estimator
    variant = Variant(frame, "LeftEst")
    fs = make_fs(variant)
    fix = truth_fix(fs.t, sigma=1.5)
    out_a, rep_a = flt.update(fs, fix, mode="se23")
    out_b, rep_b = flt.update(fs, fix, mode="invariant")
    if frame == "NED":
        pa = earth.llh_to_ecef(*out_a.nav.geo)
        pb = earth.llh_to_ecef(*out_b.nav.geo)
        ca, va = out_a.nav.c_bn, out_a.nav.v_n
        cb, vb = out_b.nav.c_bn, out_b.nav.v_n
    else:
        pa, pb = out_a.nav.r, out_b.nav.r
        ca, va = out_a.nav.c_be, out_a.nav.v
        cb, vb = out_b.nav.c_be, out_b.nav.v
    assert np.linalg.norm(pa - pb) <= 1e-9
    assert np.max(np.abs(ca - cb)) <= 1e-12
    assert np.max(np.abs(va - vb)) <= 1e-10
    assert np.linalg.norm(out_a.p - out_b.p) <= 1e-10
    # gain relation: K_nav = K_body M with M the nav-to-body rotation
    c = fs.nav.c_bn if frame == "NED" else fs.nav.c_be
    assert np.allclose(rep_a.k, rep_b.k @ c.T, atol=1e-12)


def test_invariant_mode_requires_left_est():
    fs = make_fs(Variant("NED", "RightTrue"))
    with pytest.raises(IncompatibleMode):
        flt.update(fs, truth_fix(fs.t), mode="invariant")
    with pytest.raises(IncompatibleMode):
        flt.update(fs, truth_fix(fs.t), mode="bogus")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", flt.MODES)
def test_singular_innovation_covariance_raises(mode):
    # [TRIVIAL: boundary] a zero P and an exact fix make S = 0: the update
    # raises LinAlgError (which the forward pass reports as a divergence)
    # instead of feeding NaN back into the nominal
    fs = make_fs(Variant("ECEF", "LeftEst"))
    fs.p = np.zeros((15, 15))
    fix = truth_fix(fs.t, sigma=0.0, offset=np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        flt.update(fs, fix, mode=mode)


def test_joseph_update_keeps_psd():
    # [DERIVED] 1e4 random updates never break symmetry / PSD
    variant = Variant("ECEF", "LeftEst")
    rng = np.random.default_rng(11)
    fs0 = make_fs(variant)
    for _ in range(10_000):
        a = rng.normal(size=(15, 15))
        p = a @ a.T * 1e-4 + 1e-9 * np.eye(15)
        fs = flt.FilterState(variant, fs0.nav, fs0.bias, p, fs0.t)
        fix = truth_fix(fs.t, sigma=rng.uniform(0.5, 5.0),
                        offset=rng.normal(scale=3.0, size=3))
        out, _ = flt.update(fs, fix)
        assert np.max(np.abs(out.p - out.p.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(out.p)) >= -1e-10


# ---------------------------------------------------------------------------
# correction retraction                               [DERIVED: roundtrip]
# ---------------------------------------------------------------------------

DX_SCALES = np.concatenate(
    [np.full(3, 1e-4), np.full(3, 1e-2), np.full(3, 5.0), np.full(3, 1e-5),
     np.full(3, 1e-4)]
)


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_apply_correction_roundtrip(variant):
    # retraction followed by error extraction is the identity; the position
    # slot floor reflects double-precision geodetic coordinates (~1e-9 m)
    fs = make_fs(variant)
    rng = np.random.default_rng(21)
    atol = np.concatenate(
        [np.full(3, 1e-12), np.full(3, 1e-10), np.full(3, 2e-8),
         np.full(6, 1e-15)]
    )
    for _ in range(5):
        dx = DX_SCALES * rng.uniform(-1.0, 1.0, 15)
        nav_t, bias_t = flt.apply_correction(variant, fs.nav, fs.bias, dx)
        back = flt.error_state(variant, nav_t, bias_t, fs.nav, fs.bias)
        assert np.all(np.abs(back - dx) <= atol + 1e-9 * np.abs(dx))


def test_zero_correction_is_identity():
    # [TRIVIAL]
    fs = make_fs(Variant("NED_Aux", "LeftEst"))
    nav, bias = flt.apply_correction(fs.variant, fs.nav, fs.bias, np.zeros(15))
    assert np.array_equal(nav.geo, fs.nav.geo)
    assert np.array_equal(nav.c_bn, fs.nav.c_bn)
    assert np.array_equal(nav.v_n, fs.nav.v_n)
    assert np.array_equal(bias.gyro, fs.bias.gyro)


@pytest.mark.parametrize(
    "variant",
    [Variant("NED", "LeftEst"), Variant("ECEF", "RightTrue")],
    ids=lambda v: v.name,
)
def test_two_corrections_compose_to_first_order(variant):
    # [DERIVED: BCH first-order oracle] sequential vs summed corrections
    # differ at second order: scaling dx by 1/10 shrinks the gap ~100x
    fs = make_fs(variant)
    rng = np.random.default_rng(33)
    dx1 = DX_SCALES * rng.uniform(-1.0, 1.0, 15)
    dx2 = DX_SCALES * rng.uniform(-1.0, 1.0, 15)

    def gap(scale):
        a1, b1 = flt.apply_correction(variant, fs.nav, fs.bias, scale * dx1)
        a2, b2 = flt.apply_correction(variant, a1, b1, scale * dx2)
        c1, d1 = flt.apply_correction(
            variant, fs.nav, fs.bias, scale * (dx1 + dx2)
        )
        return np.linalg.norm(flt.error_state(variant, a2, b2, c1, d1))

    g1, g01 = gap(1.0), gap(0.1)
    assert g01 <= g1 / 25.0 + 1e-7
