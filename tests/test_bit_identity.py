"""The propagation hot path reproduces its reference arithmetic bit for bit.

The references in ``oracles`` are verbatim copies of the earth formulas,
strapdown steps, error dynamics and discretization from before the hot path
shared its trig terms and radii. Sharing only changes which values are
computed once, so every comparison here is ``np.array_equal``, never a
tolerance: the filter's outputs must stay byte-identical.
"""

import numpy as np
import pytest

import oracles
from liese_nav import earth, filter as flt, mechanization as mech
from liese_nav.errormodels import error_dynamics, supported_variants
from liese_nav.liegroup import cross, so3_exp
from liese_nav.mechanization import NavStateNED
from liese_nav.sensors import ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

ORIGIN = np.array([0.7, 0.2, 120.0])
DT = 0.02
DURATION = 30.0
# latitudes on both hemispheres, the equator and near the pole guard
LAT_H = [(0.7, 120.0), (-0.35, 2500.0), (0.0, 0.0), (1.45, -50.0)]


def assert_states_equal(a, b, label):
    for name, x, y in zip(vars(a), vars(a).values(), vars(b).values()):
        assert np.array_equal(x, y), f"{label}: {name} differs"


@pytest.fixture(scope="module")
def circle():
    spec = TrajectorySpec("circle", ORIGIN, speed=15.0, radius=250.0, heading0=0.4)
    gen = TruthGenerator(spec)
    return gen, gen.synthesize_imu(DURATION, DT)


def test_cross_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-9, 7)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-9, 7)
        assert np.array_equal(cross(a, b), np.cross(a, b))


@pytest.mark.parametrize("lat, h", LAT_H)
def test_earth_formulas_match_reference(lat, h):
    rng = np.random.default_rng(4)
    v = rng.normal(scale=20.0, size=3)
    pairs = [
        (earth.radii_derivatives(lat), oracles.ref_radii_derivatives(lat)),
        (earth.gravity_n(lat, h), oracles.ref_gravity_n(lat, h)),
        (earth.gravity_gradient_down(lat, h), oracles.ref_gravity_gradient_down(lat, h)),
        (earth.position_vector_n(lat, h), oracles.ref_position_vector_n(lat, h)),
        (
            earth.position_vector_gradient_n(lat, h),
            oracles.ref_position_vector_gradient_n(lat, h),
        ),
        (earth.gravitation_n(lat, h), oracles.ref_gravitation_n(lat, h)),
        (earth.earth_rate_n(lat), oracles.ref_earth_rate_n(lat)),
        (earth.transport_rate_n(lat, h, v), oracles.ref_transport_rate_n(lat, h, v)),
        (earth.n_rv(lat, h), oracles.ref_n_rv(lat, h)),
        (earth.m1_matrix(lat, h), oracles.ref_m1_matrix(lat, h)),
        (earth.m2_matrix(lat, h), oracles.ref_m2_matrix(lat, h)),
        (earth.m3_matrix(lat, h, v), oracles.ref_m3_matrix(lat, h, v)),
    ]
    r = earth.llh_to_ecef(lat, 0.3, h)
    pairs += [
        (earth.gravity_e(r), oracles.ref_gravity_e(r)),
        (earth.gravitation_e(r), oracles.ref_gravitation_e(r)),
    ]
    for k, (new, ref) in enumerate(pairs):
        assert np.array_equal(new, ref), f"formula {k}"


@pytest.mark.parametrize(
    "method, frozen_gravity",
    [("rk4", False), ("euler", False), ("rk4", True)],
)
def test_ned_step_matches_reference(circle, method, frozen_gravity):
    gen, samples = circle
    gravity_fn = None
    if frozen_gravity:  # the gravity hook the linearization oracles use
        gravity_fn = lambda lat, h: earth.gravity_n(ORIGIN[0], h)
    new = gen.state_ned(0.0)
    ref = new.copy()
    for k, s in enumerate(samples):
        # the derivative itself, whose last bits a step can round away
        d = mech.ned_derivative(new, s.gyro, s.accel, gravity_fn=gravity_fn)
        d0 = oracles.ref_ned_derivative(ref, s.gyro, s.accel, gravity_fn=gravity_fn)
        assert all(map(np.array_equal, d, d0)), f"derivative {k}"
        new = mech.ned_step(new, s, DT, method=method, gravity_fn=gravity_fn)
        ref = oracles.ref_ned_step(ref, s, DT, method=method, gravity_fn=gravity_fn)
        assert_states_equal(new, ref, f"step {k}")
        new.c_bn = mech.orthonormalize(new.c_bn)
        ref.c_bn = mech.orthonormalize(ref.c_bn)


@pytest.mark.parametrize("convention", ["earth", "inertial"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_ecef_step_matches_reference(circle, method, convention):
    gen, samples = circle
    new = gen.state_ecef(0.0)
    if convention == "inertial":
        new.v = new.v + np.cross(earth.earth_rate_e(), new.r)
    ref = new.copy()
    for k, s in enumerate(samples):
        d = mech.ecef_derivative(new, s.gyro, s.accel, convention=convention)
        d0 = oracles.ref_ecef_derivative(ref, s.gyro, s.accel, convention=convention)
        assert all(map(np.array_equal, d, d0)), f"derivative {k}"
        new = mech.ecef_step(new, s, DT, method=method, convention=convention)
        ref = oracles.ref_ecef_step(ref, s, DT, method=method, convention=convention)
        assert_states_equal(new, ref, f"step {k}")
        new.c_be = mech.orthonormalize(new.c_be)
        ref.c_be = mech.orthonormalize(ref.c_be)


def _nominals():
    rng = np.random.default_rng(11)
    out = []
    for lat, h in LAT_H:
        geo = np.array([lat, rng.uniform(-3.0, 3.0), h])
        out.append(
            NavStateNED(so3_exp(rng.normal(size=3)), rng.normal(scale=20.0, size=3), geo)
        )
    return out


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_error_dynamics_and_discretize_match_reference(variant):
    rng = np.random.default_rng(5)
    q_diag = ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6).q_diag()
    q_full = rng.normal(size=(12, 12))
    q_full = q_full @ q_full.T
    for nom in _nominals():
        if variant.frame.startswith("ECEF"):
            nom = mech.ned_to_ecef_state(nom)
        gyro = rng.normal(scale=0.1, size=3)
        accel = rng.normal(scale=5.0, size=3)
        for tau_g, tau_a in [(None, None), (400.0, 900.0)]:
            f, g = error_dynamics(variant, nom, gyro, accel, tau_g, tau_a)
            f0, g0 = oracles.ref_error_dynamics(variant, nom, gyro, accel, tau_g, tau_a)
            assert np.array_equal(f, f0)
            assert np.array_equal(g, g0)
            for qc in (q_diag, np.diag(q_diag), q_full):
                phi, qd = flt.discretize(f, g, qc, DT)
                phi0, qd0 = oracles.ref_discretize(f0, g0, qc, DT)
                assert np.array_equal(phi, phi0)
                assert np.array_equal(qd, qd0)
