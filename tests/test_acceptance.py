"""End-to-end acceptance suite.

Each test pins one of the package-level acceptance properties: group-affine
structure of the deterministic dynamics, log-linearity of the error flows,
agreement of every F with the finite-difference oracle, measurement-model
identities, equivalence of the two update forms, zero-noise tracking,
Monte-Carlo filter consistency, smoother dominance, large-misalignment
convergence, and the Lie-algebra core. Runtime budgets are asserted where
the property is only useful if it is cheap to check.
"""

import time

import numpy as np
from scipy.stats import chi2

from liese_nav import cli, earth, filter as flt, sensors
from liese_nav import smoother as smo
from liese_nav.errormodels import (
    Variant,
    measurement_left_invariant,
    measurement_se23,
    supported_variants,
)
from liese_nav.liegroup import GroupElement, exp_se23, log_se23
from liese_nav.mechanization import NavStateECEF, NavStateNED
from liese_nav.sensors import BiasState, ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

from oracles import (
    FOracle, adjoint, as_matrix, assert_f_matches, dynamics_at, hat,
    imu_instantaneous, member_records, member_state, ref_group_affine_dynamics,
    so3_exp, state_ned,
)

CIRCLE = TruthGenerator(
    TrajectorySpec(
        "circle", np.array([0.7, -1.2, 300.0]), speed=15.0, radius=250.0,
        heading0=0.4,
    )
)
STRAIGHT = TruthGenerator(
    TrajectorySpec("straight", np.array([0.7, -1.2, 300.0]), speed=12.0,
                   heading0=0.8)
)
LEVER = np.array([0.4, -0.2, 1.1])
NOISE = ImuNoiseParams(
    sigma_g=1e-4, sigma_a=1e-3, sigma_bg=1e-7, sigma_ba=1e-6,
    tau_g=400.0, tau_a=900.0,
)
TRUE_BIAS0 = BiasState(
    np.array([2e-4, -1e-4, 1.5e-4]), np.array([1e-3, -2e-3, 1.5e-3])
)
BASE_VARIANTS = supported_variants(include_mems=False)
ORACLE_VARIANTS = [
    v
    for v in supported_variants()
    if not (v.frame == "ECEF" and v.mems_simplified)
]


def _rand_group(rng, v_scale=30.0, p_scale=2000.0):
    return GroupElement(
        so3_exp(rng.uniform(-2.0, 2.0, 3)),
        v_scale * rng.standard_normal(3),
        p_scale * rng.standard_normal(3),
    )


def test_criterion_1_group_affine_dynamics():
    # [DERIVED: algebraic identity] f(X) = X W1 + W2 X satisfies
    # f(AB) = f(A) B + A f(B) - A f(Id) B for every A, B; (W1, W2) is the
    # paper's group-affine form, which only the tests build
    rng = np.random.default_rng(0)
    start = time.monotonic()
    frames = {
        "NED": "LeftEst",
        "NED_Aux": "LeftEst",
        "ECEF": "LeftEst",
        "ECEF_Inertial": "LeftEst",
        "ECEF_Aux": "RightTrue",
    }
    for frame, error_def in frames.items():
        variant = Variant(frame, error_def)
        for _ in range(20):
            t = rng.uniform(0.0, 60.0)
            nav = (
                state_ned(CIRCLE, t)
                if frame in ("NED", "NED_Aux")
                else CIRCLE.state_ecef(t)
            )
            gyro = rng.standard_normal(3) * 0.1
            accel = rng.standard_normal(3) * 5.0
            w1, w2 = ref_group_affine_dynamics(variant, nav, gyro, accel)
            f = lambda x: x @ w1 + w2 @ x
            a = as_matrix(_rand_group(rng))
            b = as_matrix(_rand_group(rng))
            res = f(a @ b) - f(a) @ b - a @ f(b) + a @ f(np.eye(5)) @ b
            assert np.max(np.abs(res)) <= 1e-9
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: log-linearity of the nonlinear error flow
# ---------------------------------------------------------------------------

LOGLIN_BASE = np.concatenate(
    [np.full(3, 0.02), np.full(3, 0.2), np.full(3, 20.0),
     np.full(3, 1e-4), np.full(3, 1e-3)]
)
BIAS_HAT = BiasState(
    np.array([3e-4, -2e-4, 1e-4]), np.array([2e-3, 1e-3, -3e-3])
)
TAU_G, TAU_A = 400.0, 900.0


def _nav_of(oracle, state):
    """NavState view of an oracle flow state (for evaluating F along it)."""
    if oracle.kind == "ecef":
        v = state.v.copy()
        if oracle.inertial:
            v = v - np.cross(earth.W_IE_E, state.r)
        return NavStateECEF(state.c_be, v, state.r)
    lat, _, h = state.geo
    v = state.vel.copy()
    if oracle.aux:
        v = v - np.cross(
            earth.earth_rate_n(lat), earth.position_vector_n(lat, h)
        )
    return NavStateNED(state.c_bn, v, state.geo)


def _loglin_mismatch(variant, scale, rng, horizon=1.0, steps=50):
    nav0 = (
        state_ned(STRAIGHT, 0.0)
        if variant.frame in ("NED", "NED_Aux")
        else STRAIGHT.state_ecef(0.0)
    )
    gyro, accel = imu_instantaneous(STRAIGHT, 0.0)
    oracle = FOracle(variant, nav0, gyro, accel, BIAS_HAT,
                     tau_g=TAU_G, tau_a=TAU_A)
    dx0 = scale * LOGLIN_BASE * rng.uniform(-1.0, 1.0, 15)
    true0, b_true = oracle.retract(dx0)

    # transition matrix integrated along the estimated flow
    dt = horizon / steps
    est = oracle.est0.copy()
    phi = np.eye(15)
    t = 0.0
    for _ in range(steps):
        g_t = oracle.meas_gyro - BIAS_HAT.gyro * np.exp(-t / TAU_G)
        a_t = oracle.meas_accel - BIAS_HAT.accel * np.exp(-t / TAU_A)
        f, _ = dynamics_at(
            variant, _nav_of(oracle, est), g_t, a_t, tau_g=TAU_G, tau_a=TAU_A
        )
        phi = (np.eye(15) + f * dt + f @ f * (dt * dt / 2.0)) @ phi
        est = oracle._flow(est, BIAS_HAT, dt)
        t += dt

    true_h = oracle._flow(true0, b_true, horizon)
    est_h = oracle._flow(oracle.est0, BIAS_HAT, horizon)
    db_h = np.concatenate(
        [dx0[9:12] * np.exp(-horizon / TAU_G),
         dx0[12:15] * np.exp(-horizon / TAU_A)]
    )
    dx1 = oracle.error_state(true_h, est_h, db_h)
    return np.linalg.norm((dx1 - phi @ dx0) / LOGLIN_BASE)


def test_criterion_2_log_linearity():
    # [DERIVED: second-order remainder] shrinking the initial error 10x
    # shrinks the mismatch against Phi*dx0 by >= 50x (quadratic remainder)
    start = time.monotonic()
    for variant in BASE_VARIANTS:
        m_full = _loglin_mismatch(variant, 1.0, np.random.default_rng(5))
        m_tenth = _loglin_mismatch(variant, 0.1, np.random.default_rng(5))
        ratio = m_full / m_tenth
        assert ratio >= 50.0, f"{variant.name}: ratio {ratio:.1f}"
    assert time.monotonic() - start < 10.0


def test_criterion_3_f_matches_fd_at_random_nominals():
    # [DERIVED: FD oracle] every F block, 20 random nominals per variant
    start = time.monotonic()
    rng = np.random.default_rng(17)
    for variant in ORACLE_VARIANTS:
        for t in rng.uniform(0.0, 100.0, 20):
            nav = (
                state_ned(CIRCLE, t)
                if variant.frame in ("NED", "NED_Aux")
                else CIRCLE.state_ecef(t)
            )
            gyro, accel = imu_instantaneous(CIRCLE, t)
            oracle = FOracle(variant, nav, gyro, accel, BIAS_HAT,
                             tau_g=TAU_G, tau_a=TAU_A)
            f, _ = dynamics_at(
                variant, nav, gyro, accel, tau_g=TAU_G, tau_a=TAU_A
            )
            assert_f_matches(f, oracle.fd_matrix(),
                             label=f"{variant.name}@t={t:.2f}")
    assert time.monotonic() - start < 30.0


def test_criterion_4_measurement_identity():
    # [DERIVED: frame change] navigation-frame H equals C * body-frame H
    for variant in BASE_VARIANTS:
        if variant.error_def != "LeftEst":
            continue
        nav = (
            state_ned(CIRCLE, 9.0)
            if variant.frame in ("NED", "NED_Aux")
            else CIRCLE.state_ecef(9.0)
        )
        c = nav.c_bn if variant.frame in ("NED", "NED_Aux") else nav.c_be
        h_nav = measurement_se23(variant, nav, LEVER)
        h_body, m = measurement_left_invariant(variant, nav, LEVER)
        assert np.max(np.abs(h_nav - c @ h_body)) <= 1e-14
        assert np.max(np.abs(m - c.T)) <= 1e-15


SIGMAS0 = np.concatenate(
    [np.full(3, 1e-3), np.full(3, 0.1), np.full(3, 1.0),
     np.full(3, 5e-4), np.full(3, 5e-3)]
)


def _draws(variant, duration, dt, seed, clean):
    """One seed's initial FilterState, IMU stream, bias track and GNSS
    fixes, drawn from its own generator in the scenario runner's order."""
    rng = np.random.default_rng(seed)
    n = int(round(duration / dt))
    biases = sensors.simulate_biases(NOISE, n, dt, rng, initial=TRUE_BIAS0)
    imu = sensors.corrupt(clean, biases, NOISE, dt, rng)
    fixes = CIRCLE.sample_gnss(np.arange(1.0, duration + 1e-9, 1.0), LEVER, 1.5, rng)
    nav0, bias0 = flt.apply_correction(
        variant, state_ned(CIRCLE, 0.0), BiasState(),
        SIGMAS0 * rng.standard_normal(15),
    )
    fs = flt.FilterState(variant, nav0, bias0, np.diag(SIGMAS0**2), 0.0)
    return fs, imu, biases, fixes


def _forward(variant, mode, duration, dt, seed):
    """One filter pass; returns its records."""
    clean = CIRCLE.synthesize_imu(duration, dt)
    fs, imu, _, fixes = _draws(variant, duration, dt, seed, clean)
    return smo.run_forward([fs], [imu], [fixes], dt, NOISE, mode)[0]


def test_criterion_5_invariant_matches_se23():
    # [DERIVED: update-equivalence property] 60 s run, per-epoch agreement
    start = time.monotonic()
    variant = Variant("NED", "LeftEst")
    rec_a = _forward(variant, "se23", 60.0, 0.01, seed=11)
    rec_b = _forward(variant, "invariant", 60.0, 0.01, seed=11)
    assert len(rec_a) == len(rec_b)
    for ra, rb in zip(rec_a, rec_b):
        pa = earth.llh_to_ecef(*ra.nav.geo)
        pb = earth.llh_to_ecef(*rb.nav.geo)
        assert np.max(np.abs(pa - pb)) <= 1e-9
        assert np.linalg.norm(ra.p_post - rb.p_post) <= 1e-10
    assert time.monotonic() - start < 20.0


def test_criterion_6_zero_noise_tracking():
    # [DERIVED: zero-noise tracking oracle] integrator-only position error
    variant = Variant("NED", "LeftEst")
    dt = 0.005
    fs = flt.FilterState(
        variant, state_ned(CIRCLE, 0.0), BiasState(), np.eye(15) * 1e-6, 0.0
    )
    run = flt.RunConstants(variant, ImuNoiseParams(), dt)
    imu = CIRCLE.synthesize_imu(60.0, dt)
    for k in range(len(imu)):
        fs, _ = flt.predict(fs, imu[k:k + 1], run)
    err = np.linalg.norm(
        earth.llh_to_ecef(*fs.nav.geo) - CIRCLE.state_ecef(60.0).r
    )
    assert err <= 1e-3


def _lockstep_forward(variant, duration, dt, seeds, clean):
    """Filter and smooth a block of seeds, each with its own ``_draws``, in
    one lockstep ``run_forward`` (one stacked predict per IMU epoch) and
    one lockstep ``rts_smooth``. Returns per member (records, smoothed,
    biases)."""
    starts, imu, biases, fixes = map(
        list, zip(*(_draws(variant, duration, dt, seed, clean) for seed in seeds))
    )
    records, _ = smo.run_forward(starts, imu, fixes, dt, NOISE, "se23")
    smoothed = smo.rts_smooth(variant, records)
    return [
        (member_records(records, k), [member_state(fs, k) for fs in smoothed], b)
        for k, b in enumerate(biases)
    ]


def test_criterion_7_and_8_monte_carlo_consistency_and_smoother_dominance():
    # [DERIVED: chi^2 consistency + PSD ordering of RTS]
    start = time.monotonic()
    variant = Variant("NED", "LeftEst")
    duration, dt, n_runs, block = 60.0, 0.05, 200, cli.LOCKSTEP_BLOCK
    clean = CIRCLE.synthesize_imu(duration, dt)
    n = int(round(duration / dt))
    truth_ned = {}
    truth_ecef = {}
    tail_nees = []
    for first in range(0, n_runs, block):
        seeds = range(first, min(n_runs, first + block))
        members = _lockstep_forward(variant, duration, dt, seeds, clean)
        for seed, (records, smoothed, biases) in zip(seeds, members):
            filt_err, smo_err = [], []
            for rec, ep in zip(records, smoothed):
                if rec.t not in truth_ned:
                    truth_ned[rec.t] = state_ned(CIRCLE, rec.t)
                    truth_ecef[rec.t] = CIRCLE.state_ecef(rec.t).r
                # criterion 7: NEES of the full error state against the truth
                idx = min(n - 1, max(0, int(round(rec.t / dt)) - 1))
                dx = flt.error_state(
                    variant, truth_ned[rec.t], BiasState(*biases[idx]), rec.nav,
                    rec.bias,
                )
                if rec.t >= duration - 30.0:
                    tail_nees.append(float(dx @ np.linalg.solve(rec.p_post, dx)))
                # criterion 8: per-epoch covariance dominance
                assert np.min(np.linalg.eigvalsh(rec.p_post - ep.p)) >= -1e-9
                filt_err.append(
                    earth.llh_to_ecef(*rec.nav.geo) - truth_ecef[rec.t]
                )
                smo_err.append(earth.llh_to_ecef(*ep.nav.geo) - truth_ecef[rec.t])
            rmse_f = np.sqrt(np.mean(np.sum(np.array(filt_err) ** 2, axis=1)))
            rmse_s = np.sqrt(np.mean(np.sum(np.array(smo_err) ** 2, axis=1)))
            assert rmse_s <= rmse_f + 1e-9, f"seed {seed}: {rmse_s} > {rmse_f}"
    avg = float(np.mean(tail_nees))
    lo, hi = chi2.ppf(0.025, 15), chi2.ppf(0.975, 15)
    assert lo <= avg <= hi, f"time-averaged NEES {avg:.2f} outside [{lo:.2f}, {hi:.2f}]"
    assert time.monotonic() - start < 300.0


def test_criterion_9_large_misalignment_converges():
    # [DERIVED: convergence property; the 0.5 degree / 60 s threshold is a
    # project choice] 30 degree initial yaw error on a tight circle
    gen = TruthGenerator(
        TrajectorySpec(
            "circle", np.array([0.7, -1.2, 300.0]), speed=30.0, radius=100.0,
            heading0=0.4,
        )
    )
    variant = Variant("NED", "RightTrue")
    rng = np.random.default_rng(42)
    dt, duration = 0.02, 60.0
    n = int(round(duration / dt))
    clean = gen.synthesize_imu(duration, dt)
    biases = sensors.simulate_biases(NOISE, n, dt, rng, initial=TRUE_BIAS0)
    imu = sensors.corrupt(clean, biases, NOISE, dt, rng)
    fixes = gen.sample_gnss(np.arange(1.0, duration + 1e-9, 1.0), LEVER, 1.5, rng)
    nav0 = state_ned(gen, 0.0)
    cz, sz = np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)
    nav0.c_bn[:] = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]]) @ nav0.c_bn
    p0 = np.diag(
        np.concatenate(
            [np.full(3, 0.6**2), np.full(3, 18.0**2), np.full(3, 3.0**2),
             np.full(3, 5e-4**2), np.full(3, 5e-3**2)]
        )
    )
    fs = flt.FilterState(variant, nav0, BiasState(), p0, 0.0)
    fix_iter = iter(fixes)
    fix = next(fix_iter, None)
    run = flt.RunConstants(variant, NOISE, dt)
    for k in range(n):
        fs, _ = flt.predict(fs, imu[k:k + 1], run)
        if fix is not None and fs.t >= fix.t - 1e-9:
            fs, _ = flt.update(fs, fix)
            fix = next(fix_iter, None)
        assert np.isfinite(fs.p).all()
    eig = np.linalg.eigvalsh(fs.p)
    assert eig.min() >= -1e-6 * eig.max()
    truth = state_ned(gen, fs.t)
    dpsi = np.arctan2(fs.nav.c_bn[1, 0], fs.nav.c_bn[0, 0]) - np.arctan2(
        truth.c_bn[1, 0], truth.c_bn[0, 0]
    )
    dpsi = (dpsi + np.pi) % (2.0 * np.pi) - np.pi
    assert abs(np.rad2deg(dpsi)) < 0.5


def test_criterion_10_lie_core():
    # [DERIVED: series oracle + inverse pairs]
    start = time.monotonic()
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.uniform(-1.0, 1.0, 9) * np.array(
            [1.5, 1.5, 1.5, 10.0, 10.0, 10.0, 100.0, 100.0, 100.0]
        )
        g = exp_se23(xi)
        # exp/log roundtrip
        assert np.max(np.abs(log_se23(g) - xi)) <= 1e-10
        # truncated-series oracle for the matrix exponential
        m = hat(xi)
        series = np.eye(5)
        term = np.eye(5)
        for k in range(1, 30):
            term = term @ m / k
            series = series + term
        assert np.max(np.abs(as_matrix(g) - series)) <= 1e-12 * max(
            1.0, np.max(np.abs(series))
        )
        # adjoint conjugation: X exp(xi) X^-1 = exp(Ad_X xi)
        x = _rand_group(rng, v_scale=5.0, p_scale=50.0)
        small = 1e-3 * rng.standard_normal(9)
        lhs = x.compose(exp_se23(small)).compose(x.inverse())
        rhs = exp_se23(adjoint(x) @ small)
        assert np.max(np.abs(as_matrix(lhs) - as_matrix(rhs))) <= 1e-9
    assert time.monotonic() - start < 1.0
