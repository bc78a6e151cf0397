"""Error dynamics and measurement models against finite-difference oracles."""

import numpy as np
import pytest

from liese_nav import earth
from liese_nav.errormodels import (
    ECEF_CHART,
    Variant,
    error_dynamics,
    group_affine_dynamics,
    measurement_left_invariant,
    measurement_se23,
    supported_variants,
)
from liese_nav.errors import IncompatibleMode, UnsupportedVariant
from liese_nav.liegroup import exp_se23, so3_exp
from liese_nav.mechanization import NavStateNED
from liese_nav.sensors import BiasState
from liese_nav.simulator import TrajectorySpec, TruthGenerator

from oracles import FOracle, SCALES, assert_f_matches, ned_to_ecef_state, same_bits

GEN = TruthGenerator(
    TrajectorySpec(
        "circle", np.array([0.7, -1.2, 300.0]), speed=15.0, radius=250.0,
        heading0=0.4,
    )
)
BIAS_HAT = BiasState(
    np.array([3e-4, -2e-4, 1e-4]), np.array([2e-3, 1e-3, -3e-3])
)
TAU_G, TAU_A = 400.0, 900.0

# the mems-simplified flag is a no-op for the ECEF frame, so its oracle runs
# are covered by the full-model cases
ORACLE_VARIANTS = [
    v
    for v in supported_variants()
    if not (v.frame == "ECEF" and v.mems_simplified)
]


def nominal_for(variant, t):
    if variant.frame in ("NED", "NED_Aux"):
        nav = GEN.state_ned(t)
    else:
        nav = GEN.state_ecef(t)
    gyro, accel = GEN.imu_instantaneous(t)
    return nav, gyro, accel


def make_oracle(variant, t):
    nav, gyro, accel = nominal_for(variant, t)
    return (
        FOracle(variant, nav, gyro, accel, BIAS_HAT, tau_g=TAU_G, tau_a=TAU_A),
        nav,
        gyro,
        accel,
    )


# ---------------------------------------------------------------------------
# variant table
# ---------------------------------------------------------------------------


def test_supported_variant_table():
    names = {v.name for v in supported_variants(include_mems=False)}
    assert names == {
        "NED/LeftEst", "NED/LeftTrue", "NED/RightEst", "NED/RightTrue",
        "NED_Aux/LeftEst", "NED_Aux/RightTrue",
        "ECEF/LeftEst", "ECEF/LeftTrue", "ECEF/RightEst", "ECEF/RightTrue",
        "ECEF_Inertial/LeftEst", "ECEF_Inertial/LeftTrue",
        "ECEF_Inertial/RightEst",
        "ECEF_Aux/RightTrue",
    }


@pytest.mark.parametrize(
    "frame,error_def,mems",
    [
        ("NED", "BogusDef", False),
        ("Mars", "LeftEst", False),
        ("NED_Aux", "LeftTrue", False),
        ("NED_Aux", "RightEst", False),
        ("ECEF_Inertial", "RightTrue", False),
        ("ECEF_Aux", "LeftEst", False),
        ("NED", "LeftEst", True),
        ("ECEF_Inertial", "RightEst", True),
        ("ECEF_Aux", "RightTrue", True),
    ],
)
def test_unsupported_variants_rejected(frame, error_def, mems):
    with pytest.raises(UnsupportedVariant):
        Variant(frame, error_def, mems_simplified=mems)


# ---------------------------------------------------------------------------
# retraction / error extraction roundtrip           [DERIVED]
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=lambda v: v.name)
def test_retraction_roundtrip(variant):
    oracle, _, _, _ = make_oracle(variant, 11.0)
    rng = np.random.default_rng(7)
    atol = np.concatenate(
        [np.full(3, 1e-13), np.full(3, 1e-11), np.full(3, 2e-8), np.zeros(6)]
    )
    for _ in range(5):
        xi = SCALES * rng.uniform(-1.0, 1.0, 15)
        true0, b_true = oracle.retract(xi)
        db = np.concatenate(
            [b_true.gyro - BIAS_HAT.gyro, b_true.accel - BIAS_HAT.accel]
        )
        back = oracle.error_state(true0, oracle.est0, db)
        assert np.all(np.abs(back - xi) <= atol + 1e-9 * np.abs(xi))


# ---------------------------------------------------------------------------
# F against the finite-difference oracle            [DERIVED]
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=lambda v: v.name)
def test_f_matches_fd_oracle(variant):
    for t in (7.3, 23.6):
        oracle, nav, gyro, accel = make_oracle(variant, t)
        f, _ = error_dynamics(
            variant, nav, gyro, accel, tau_g=TAU_G, tau_a=TAU_A
        )
        assert_f_matches(f, oracle.fd_matrix(), label=f"{variant.name}@t={t}")


# ---------------------------------------------------------------------------
# structural consistency                            [DERIVED]
# ---------------------------------------------------------------------------


def random_nominals(variant, rng, n=10):
    """(nav, gyro, accel) at random attitudes, velocities and places."""
    for _ in range(n):
        geo = np.array(
            [rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0), rng.uniform(-400.0, 9e3)]
        )
        rot, vel = so3_exp(rng.normal(size=3)), rng.normal(scale=50.0, size=3)
        nav = NavStateNED(rot, vel, geo)
        if variant.chart is ECEF_CHART:
            nav = ned_to_ecef_state(nav)
        yield nav, rng.normal(scale=0.3, size=3), rng.normal(scale=8.0, size=3)


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_noise_columns_match_bias_columns(variant):
    # the IMU noises enter exactly where the bias errors do, through one
    # input map: sign * I for a left error, sign * Ad(X) for a right one
    sign = 1.0 if variant.inverts_true else -1.0
    rng = np.random.default_rng(17)
    for nav, gyro, accel in [nominal_for(variant, 5.0), *random_nominals(variant, rng)]:
        f, g = error_dynamics(variant, nav, gyro, accel, tau_g=TAU_G, tau_a=TAU_A)
        assert same_bits(g[:9, :6], f[:9, 9:15])
        assert np.array_equal(g[9:, 6:], np.eye(6))
        assert np.array_equal(g[:9, 6:], np.zeros((9, 6)))
        assert np.array_equal(g[9:, :6], np.zeros((6, 6)))
        if not variant.is_right:
            assert np.array_equal(g[:9, :6], sign * np.eye(9)[:, :6])
            continue
        ad = sign * variant.chart.embed(nav, variant.aux_velocity).adjoint()[:, :6]
        assert np.linalg.norm(g[:9, :6] - ad) <= 1e-12 * np.linalg.norm(ad)
        # a right error is autonomous: F does not depend on the IMU input
        f2, _ = error_dynamics(
            variant, nav, rng.normal(scale=0.3, size=3), rng.normal(scale=8.0, size=3),
            tau_g=TAU_G, tau_a=TAU_A,
        )
        assert same_bits(f, f2)


def test_bias_rows_gauss_markov():
    nav, gyro, accel = nominal_for(Variant("NED", "LeftEst"), 5.0)
    f, _ = error_dynamics(
        Variant("NED", "LeftEst"), nav, gyro, accel, tau_g=100.0, tau_a=200.0
    )
    assert np.allclose(f[9:12, 9:12], -np.eye(3) / 100.0)
    assert np.allclose(f[12:15, 12:15], -np.eye(3) / 200.0)
    assert np.array_equal(f[9:, :9], np.zeros((6, 9)))


def test_mems_flag_is_noop_for_ecef():
    for error_def in ("LeftTrue", "LeftEst", "RightEst", "RightTrue"):
        nav, gyro, accel = nominal_for(Variant("ECEF", error_def), 5.0)
        f0, g0 = error_dynamics(Variant("ECEF", error_def), nav, gyro, accel)
        f1, g1 = error_dynamics(
            Variant("ECEF", error_def, mems_simplified=True), nav, gyro, accel
        )
        assert np.array_equal(f0, f1) and np.array_equal(g0, g1)


@pytest.mark.parametrize(
    "frame,pair",
    [
        ("NED", ("LeftTrue", "LeftEst")),
        ("NED", ("RightEst", "RightTrue")),
        ("ECEF", ("LeftTrue", "LeftEst")),
        ("ECEF", ("RightEst", "RightTrue")),
    ],
)
def test_paired_definitions_flip_bias_columns(frame, pair):
    # true-referenced and estimate-referenced errors of the same handedness
    # share every non-bias block and negate the bias/noise columns
    nav, gyro, accel = nominal_for(Variant(frame, pair[0]), 9.0)
    fa, ga = error_dynamics(Variant(frame, pair[0]), nav, gyro, accel)
    fb, gb = error_dynamics(Variant(frame, pair[1]), nav, gyro, accel)
    assert np.array_equal(fa[:9, :9], fb[:9, :9])
    assert np.array_equal(fa[:9, 9:], -fb[:9, 9:])
    assert np.array_equal(ga[:9, :6], -gb[:9, :6])


# ---------------------------------------------------------------------------
# group-affine property of the deterministic flows  [DERIVED]
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "frame",
    ["NED", "NED_Aux", "ECEF", "ECEF_Inertial", "ECEF_Aux"],
)
def test_dynamics_are_group_affine(frame):
    error_def = sorted(
        {v.error_def for v in supported_variants() if v.frame == frame}
    )[0]
    variant = Variant(frame, error_def)
    nav, gyro, accel = nominal_for(variant, 13.0)
    w1, w2 = group_affine_dynamics(variant, nav, gyro, accel)
    flow = lambda x: x @ w1 + w2 @ x
    rng = np.random.default_rng(4)
    eye = np.eye(5)
    for _ in range(100):
        a = exp_se23(rng.normal(scale=0.5, size=9)).as_matrix()
        b = exp_se23(rng.normal(scale=0.5, size=9)).as_matrix()
        resid = flow(a @ b) - (flow(a) @ b + a @ flow(b) - a @ flow(eye) @ b)
        scale = max(1.0, np.linalg.norm(flow(a @ b)))
        assert np.linalg.norm(resid) <= 1e-9 * scale


def test_group_affine_matches_mechanization_ned():
    # the frozen (W1, W2) form reproduces the mechanization derivative at
    # the nominal itself
    from liese_nav.mechanization import ned_derivative
    from oracles import embed_ned

    variant = Variant("NED", "LeftEst")
    nav, gyro, accel = nominal_for(variant, 17.0)
    w1, w2 = group_affine_dynamics(variant, nav, gyro, accel)
    x = embed_ned(nav).as_matrix()
    x_dot = x @ w1 + w2 @ x
    c_dot, v_dot, _ = ned_derivative(nav, gyro, accel)
    assert np.allclose(x_dot[:3, :3], c_dot, atol=1e-12)
    assert np.allclose(x_dot[:3, 3], v_dot, atol=1e-9)


# ---------------------------------------------------------------------------
# measurement models                                [DERIVED]
# ---------------------------------------------------------------------------

LEVER = np.array([0.4, -0.2, 1.1])


def _antenna_nav(oracle, state, est_state):
    """Antenna position error resolved in the estimate's navigation frame."""
    if oracle.kind == "ecef":
        true_ant = state.r + state.c_be @ LEVER
        est_ant = est_state.r + est_state.c_be @ LEVER
        return true_ant - est_ant
    lat, lon, _ = est_state.geo
    c_en = earth.dcm_ecef_to_ned(lat, lon)
    c_ne = c_en.T
    true_ant = earth.llh_to_ecef(*state.geo) + (
        earth.dcm_ecef_to_ned(state.geo[0], state.geo[1]).T @ state.c_bn
    ) @ LEVER
    est_ant = earth.llh_to_ecef(*est_state.geo) + (c_ne @ est_state.c_bn) @ LEVER
    return c_en @ (true_ant - est_ant)


MEAS_VARIANTS = [
    Variant("NED", "LeftEst"),
    Variant("NED", "LeftTrue"),
    Variant("NED", "RightTrue"),
    Variant("NED", "RightEst"),
    Variant("ECEF", "LeftEst"),
    Variant("ECEF", "RightEst"),
    Variant("ECEF_Inertial", "LeftTrue"),
    Variant("ECEF_Aux", "RightTrue"),
    Variant("NED_Aux", "LeftEst"),
    Variant("NED_Aux", "RightTrue"),
]


# probe scales for the measurement differences; antenna positions are
# earth-radius vectors, so ~1e-9 m of rounding per evaluation sets the floor
MEAS_SCALES = np.concatenate(
    [np.full(3, 1e-3), np.full(3, 1e-3), np.full(3, 10.0), np.full(6, 1e-4)]
)


@pytest.mark.parametrize("variant", MEAS_VARIANTS, ids=lambda v: v.name)
def test_measurement_matrix_matches_fd(variant):
    oracle, nav, _, _ = make_oracle(variant, 19.0)
    h = measurement_se23(variant, nav, LEVER)
    fd = np.zeros((3, 15))
    for j in range(15):
        s = MEAS_SCALES[j]
        cols = []
        for sgn in (1.0, -1.0):
            xi = np.zeros(15)
            xi[j] = sgn * s
            true0, _ = oracle.retract(xi)
            cols.append(_antenna_nav(oracle, true0, oracle.est0))
        fd[:, j] = (cols[0] - cols[1]) / (2.0 * s)
    for j in range(15):
        tol = 5e-6 * (np.linalg.norm(h[:, j]) + 1.0) + 2e-9 / MEAS_SCALES[j]
        assert np.max(np.abs(fd[:, j] - h[:, j])) <= tol, f"column {j}"


def test_left_invariant_measurement_identity():
    # body-frame and navigation-frame forms are the same model: H = C @ H_b
    for variant in (Variant("NED", "LeftEst"), Variant("ECEF", "LeftEst")):
        nav, _, _ = nominal_for(variant, 19.0)
        h_nav = measurement_se23(variant, nav, LEVER)
        h_b, m = measurement_left_invariant(variant, nav, LEVER)
        c = nav.c_bn if variant.frame == "NED" else nav.c_be
        assert np.max(np.abs(h_nav - c @ h_b)) <= 1e-14 * np.max(np.abs(h_nav))
        assert np.array_equal(m, c.T)


def test_measurement_mode_compatibility():
    nav, _, _ = nominal_for(Variant("NED", "RightTrue"), 3.0)
    with pytest.raises(IncompatibleMode):
        measurement_left_invariant(Variant("NED", "RightTrue"), nav, LEVER)
