"""The propagation hot path, the simulator side and the variant dispatch
reproduce their reference arithmetic bit for bit.

The references in ``oracles`` are verbatim copies of the earth formulas,
strapdown steps, error dynamics and discretization from before the hot path
shared its trig terms and radii, of the per-sample truth, sensor and metrics
code from before the simulator side was evaluated over whole time grids, and
of the embedding, retraction, measurement, update and forward-loop code from
before the frame and error-definition string chains became the flags and the
chart of ``Variant``, and of the SO(3) logarithm, RTS pass, NEES and
covariance rows from before the back end was evaluated over whole tracks.
Sharing values, stacking samples and moving a decision
only change how often, in what shape and where each value is computed, so
every comparison here is exact, never a tolerance: the outputs must stay
byte-identical.
"""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import one_row, same_bits, so3_exp
from liese_nav import cli, earth, filter as flt, mechanization as mech, sensors
from liese_nav import errormodels, smoother as smo
from liese_nav.errormodels import (
    Variant,
    error_dynamics,
    measurement_left_invariant,
    measurement_se23,
    supported_variants,
)
from liese_nav.errors import LieseNavError, NearPiRotation, NonFiniteInput, NotPSD
from liese_nav.liegroup import (
    NEAR_PI_MARGIN, SMALL_ANGLE, cross, exp_se23, left_jacobian_inv, log_se23,
    skew_stack, so3_log,
)
from liese_nav.mechanization import NavStateECEF, NavStateNED
from liese_nav.sensors import BiasState, ImuNoiseParams
from liese_nav.simulator import TrajectorySpec, TruthGenerator

SRC = Path(__file__).resolve().parents[1] / "src"
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
    return gen, oracles.imu_samples(gen.synthesize_imu(DURATION, DT), DT)


def test_cross_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-9, 7)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-9, 7)
        assert np.array_equal(cross(a, b), np.cross(a, b))


def _gravitation_n(lat, h):
    """The library's private gravitation term at (lat, h), as a stack of one."""
    w_ie, r_n = earth.earth_rate_n(lat), earth.position_vector_n(lat, h)
    return earth._gravitation(w_ie[None], earth.gravity_n(lat, h)[None], r_n[None])[0]


def _gravitation_e(r):
    """The library's private gravitation term at an ECEF position, as the
    ECEF_Inertial blocks build it, as a stack of one."""
    r = r[None]
    return earth._gravitation(earth.W_IE_E[None], earth._gravity_e_rows(r), r)[0]


def _matrix(entries):
    """A 3x3 term from its entries row by row, as the F blocks read them."""
    return np.array(entries).reshape(3, 3)


def _transport_rate_n(lat, h, v):
    """The float transport-rate term at (lat, h), as the F blocks' NED
    earth terms evaluated it per point (``oracles.float_transport_rate_n``)."""
    rm, rn = earth.radii(lat)
    return np.array(oracles.float_transport_rate_n(np.tan(lat), rm, rn, h, v))


@pytest.mark.parametrize("lat, h", LAT_H)
def test_earth_formulas_match_reference(lat, h):
    rng = np.random.default_rng(4)
    v = rng.normal(scale=20.0, size=3)
    # the terms with no public form, from the float bodies at (lat, h) that
    # the F blocks' array terms are pinned to (oracles.float_*)
    s, c, t = np.sin(lat), np.cos(lat), np.tan(lat)
    rm, rn = earth.radii(lat)
    drm, drn = oracles.float_radii_derivatives(s, c)
    g_down = earth.gravity_n(lat, h)[2]
    pairs = [
        ((drm, drn), oracles.ref_radii_derivatives(lat)),
        (earth.gravity_n(lat, h), oracles.ref_gravity_n(lat, h)),
        (
            oracles.float_gravity_gradient_down(g_down, rm, rn, h),
            oracles.ref_gravity_gradient_down(lat, h),
        ),
        (earth.position_vector_n(lat, h), oracles.ref_position_vector_n(lat, h)),
        (
            _matrix(
                oracles.float_position_vector_gradient_entries(s, c, rm, rn, drn, h)
            ),
            oracles.ref_position_vector_gradient_n(lat, h),
        ),
        (_gravitation_n(lat, h), oracles.ref_gravitation_n(lat, h)),
        (earth.earth_rate_n(lat), oracles.ref_earth_rate_n(lat)),
        (_transport_rate_n(lat, h, v), oracles.ref_transport_rate_n(lat, h, v)),
        (
            np.diag(oracles.float_n_rv_diagonal(c, rm, rn, h)),
            oracles.ref_n_rv(lat, h),
        ),
        (
            _matrix(oracles.float_m1_entries(s, c, rm, h)),
            oracles.ref_m1_matrix(lat, h),
        ),
        (
            _matrix(oracles.float_m2_entries(t, rm, rn, h)),
            oracles.ref_m2_matrix(lat, h),
        ),
        (
            _matrix(oracles.float_m3_entries(t, c, rm, rn, drm, drn, h, v)),
            oracles.ref_m3_matrix(lat, h, v),
        ),
    ]
    r = earth.llh_to_ecef(lat, 0.3, h)
    pairs += [
        (earth.gravity_e(r), oracles.ref_gravity_e(r)),
        (_gravitation_e(r), oracles.ref_gravitation_e(r)),
    ]
    for k, (new, ref) in enumerate(pairs):
        assert np.array_equal(new, ref), f"formula {k}"


def lib_derivative(rates, state, gyro, accel):
    """The library's derivative of one state as (rotation, velocity,
    position); ``rates`` is ``mech._ned_row_rates`` or
    ``mech._ecef_row_rates``, whose derivative maps the state's row of 15
    floats to the derivative's row."""
    row = mech._pack(state).tolist()
    return mech._fields(np.array(rates(gyro, accel)(row)))


# one case each; the ids keep the test names: RK4 with the library's own
# gravity, and the earth-relative ECEF velocity
@pytest.mark.parametrize("dt", [DT], ids=["rk4-False"])
def test_ned_step_matches_reference(circle, dt):
    gen, samples = circle
    new = oracles.state_ned(gen, 0.0)
    ref = new.copy()
    for k, s in enumerate(samples):
        # the derivative itself, whose last bits a step can round away
        d = lib_derivative(mech._ned_row_rates, new, s.gyro, s.accel)
        d0 = oracles.ref_ned_derivative(ref, s.gyro, s.accel)
        assert all(map(np.array_equal, d, d0)), f"derivative {k}"
        new = oracles.step_state(mech.ned_step, new, s.gyro, s.accel, dt)
        ref = oracles.ref_ned_step(ref, s, dt)
        assert_states_equal(new, ref, f"step {k}")
        new.c_bn = oracles.project(new.c_bn)
        ref.c_bn = oracles.project(ref.c_bn)


@pytest.mark.parametrize("dt", [DT], ids=["rk4-earth"])
def test_ecef_step_matches_reference(circle, dt):
    gen, samples = circle
    new = gen.state_ecef(0.0)
    ref = new.copy()
    for k, s in enumerate(samples):
        d = lib_derivative(mech._ecef_row_rates, new, s.gyro, s.accel)
        d0 = oracles.ref_ecef_derivative(ref, s.gyro, s.accel)
        assert all(map(np.array_equal, d, d0)), f"derivative {k}"
        new = oracles.step_state(mech.ecef_step, new, s.gyro, s.accel, dt)
        ref = oracles.ref_ecef_step(ref, s, dt)
        assert_states_equal(new, ref, f"step {k}")
        new.c_be = oracles.project(new.c_be)
        ref.c_be = oracles.project(ref.c_be)


@pytest.mark.parametrize("run_g", [False, True], ids=["own-g", "run-g"])
@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_error_dynamics_of_a_stack_equals_its_single_calls(variant, run_g):
    # one call over a stack of N nominals gives each point's F, and a right
    # error's G, of its single call bit for bit, with G built in the call or
    # handed over as the run's (``g=``); a left error's own G is one matrix
    rng = np.random.default_rng(17)
    navs = [_own_frame(variant, nom) for nom in _nominals() + _nominals()[::-1]]
    gyro = rng.normal(scale=0.1, size=(len(navs), 3))
    accel = rng.normal(scale=5.0, size=(len(navs), 3))
    g = rng.normal(size=(15, 12)) if run_g else None
    for tau in [(None, None), (400.0, 900.0)]:
        f, g_out = error_dynamics(
            variant, mech.stack_states(navs), gyro, accel, *tau, g=g
        )
        assert f.shape == (len(navs), 15, 15)
        stacked_g = variant.is_right and not run_g
        assert g_out.shape == ((len(navs),) if stacked_g else ()) + (15, 12)
        for k, nav in enumerate(navs):
            f_k, g_k = oracles.dynamics_at(
                variant, nav, gyro[k], accel[k], *tau, g=g
            )
            assert same_bits(f[k], f_k), (k, tau)
            assert same_bits(g_out[k] if stacked_g else g_out, g_k), (k, tau)


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
    for nom in _nominals():
        if variant.frame.startswith("ECEF"):
            nom = oracles.ned_to_ecef_state(nom)
        gyro = rng.normal(scale=0.1, size=3)
        accel = rng.normal(scale=5.0, size=3)
        for tau_g, tau_a in [(None, None), (400.0, 900.0)]:
            f, g = oracles.dynamics_at(variant, nom, gyro, accel, tau_g, tau_a)
            f0, g0 = oracles.ref_error_dynamics(variant, nom, gyro, accel, tau_g, tau_a)
            assert np.array_equal(f, f0)
            assert np.array_equal(g, g0)
            phi, qd = flt.discretize(f, flt.noise_cov(g, q_diag), DT)
            phi0, qd0 = oracles.ref_discretize(f0, g0, q_diag, DT)
            assert np.array_equal(phi, phi0)
            assert np.array_equal(qd, qd0)


# ---------------------------------------------------------------------------
# the hot path on random nominals
# ---------------------------------------------------------------------------
#
# The circle tests above visit one track. The hot path computes its earth
# terms in Python floats (math.sin, math.cos, math.sqrt, float **) where the
# references use np.float64 scalars; these properties pin that both round
# alike over the whole envelope: latitudes up to 1e-3 rad from either pole,
# heights from -500 m to 100 km, speeds up to 300 m/s per axis, any attitude.
# Entries compare by value, as in the circle tests, which is bit for bit for
# every nonzero entry. The sign of a zero is not compared: the references
# order some sums and products differently, so at exactly zero velocities or
# underflowing latitudes they give +0.0 where the library gives -0.0, e.g.
# h_dot = -1.0 * v_D at v_D = +0.0 against the reference's N @ v.

FINITE = dict(allow_nan=False, allow_infinity=False)
NOM_LAT = st.floats(-(np.pi / 2 - 1e-3), np.pi / 2 - 1e-3, **FINITE)
NOM_H = st.floats(-500.0, 1e5, **FINITE)


def triples(bound):
    return st.lists(
        st.floats(-bound, bound, **FINITE), min_size=3, max_size=3
    ).map(np.array)


@st.composite
def ned_nominals(draw):
    """(NED state, gyro, accel) at a random point of the envelope."""
    geo = np.array([draw(NOM_LAT), draw(st.floats(-np.pi, np.pi)), draw(NOM_H)])
    nav = NavStateNED(so3_exp(draw(triples(3.0))), draw(triples(300.0)), geo)
    return nav, draw(triples(2.0)), draw(triples(50.0))


def sized_lists(elements, low, high):
    """Lists of ``elements`` whose length is drawn uniformly from [low, high]:
    ``st.lists`` on its own seldom draws long ones."""
    return st.integers(low, high).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    )


def assert_equal_fields(new, ref, label):
    """Equal (rotation, velocity, position) triples, entry by entry."""
    for k, (x, y) in enumerate(zip(new, ref, strict=True)):
        assert np.array_equal(x, y), f"{label}: field {k} differs"


def test_earth_formulas_match_reference_on_random_points():
    # a last-bit change in one float term reaches some of these formulas at
    # under 1 % of points (e.g. splitting sqrt(rm * rn) moves gravity at
    # 0.8 %), so the sweep takes 5000 points of the envelope
    rng = np.random.default_rng(31)
    lats = rng.uniform(-(np.pi / 2 - 1e-3), np.pi / 2 - 1e-3, 5000).tolist()
    heights = rng.uniform(-500.0, 1e5, 5000).tolist()
    for lat, h, v in zip(lats, heights, rng.uniform(-300.0, 300.0, (5000, 3))):
        pairs = [
            (earth.radii(lat), oracles.ref_radii(lat)),
            (earth.gravity_n(lat, h), oracles.ref_gravity_n(lat, h)),
            (_gravitation_n(lat, h), oracles.ref_gravitation_n(lat, h)),
            (earth.position_vector_n(lat, h), oracles.ref_position_vector_n(lat, h)),
            (earth.earth_rate_n(lat), oracles.ref_earth_rate_n(lat)),
            (_transport_rate_n(lat, h, v), oracles.ref_transport_rate_n(lat, h, v)),
        ]
        for k, (new, ref) in enumerate(pairs):
            assert np.array_equal(new, ref), (k, lat, h)


def _ecef_edges():
    """Positions where a sign or branch of the geodetic conversion or of the
    gravity rotation turns: the equator (z = 0) with y = +-0 and x of either
    sign, the prime meridians' x = 0, the poles and latitudes above the
    1.3 rad height branch."""
    a, b = earth.WGS84_A, 6356752.314
    edges = [
        (x, y, 0.0) for x in (a + 100.0, -(a + 100.0)) for y in (0.0, -0.0)
    ]
    edges += [(0.0, a, 0.0), (-0.0, -a, 250.0), (0.0, 0.0, b), (0.0, -0.0, -b)]
    edges += [earth.llh_to_ecef(lat, lon, 300.0) for lat, lon in (
        (1.35, 0.0), (-1.4, 2.0), (1.3, -0.0), (POLE, 1.0), (-POLE, -3.0),
    )]
    return [np.array(e, dtype=float) for e in edges]


def test_gravity_e_and_ecef_to_llh_match_reference():
    # the Python-float loop and gravity terms against the numpy bodies, at
    # random points and at the signed-zero edges, where C' (0, 0, g) written
    # out without its leading 0.0 + flips the sign of zeros
    rng = np.random.default_rng(41)
    lat = rng.uniform(-POLE, POLE, 3000)
    lon = rng.uniform(-np.pi, np.pi, lat.size)
    h = rng.uniform(-500.0, 1e5, lat.size)
    points = list(earth.llh_to_ecef(lat, lon, h).T) + _ecef_edges()
    for k, r in enumerate(points):
        assert same_bits(earth.ecef_to_llh(r), oracles.ref_ecef_to_llh(r)), k
        assert same_bits(earth.gravity_e(r), oracles.ref_gravity_e(r)), k


@st.composite
def geodetic_edge_points(draw):
    """ECEF positions whose latitude is +-0.0, +-5e-324, within 1e-3 of the
    equator or anywhere up to the pole limit, whose longitude is +-0.0,
    +-pi/2, +-pi or any, and whose height is -500 m to 1e5 m."""
    lat = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            st.floats(-1e-3, 1e-3),
            st.floats(-earth._LAT_LIMIT, earth._LAT_LIMIT),
        )
    )
    lon = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]),
            st.floats(-np.pi, np.pi),
        )
    )
    return earth.llh_to_ecef(lat, lon, draw(NOM_H))


@settings(max_examples=400, deadline=None)
@given(r=geodetic_edge_points())
@example(r=np.array([6.4e6, 0.0, 0.0]))
def test_float_gravity_e_and_buffered_ecef_to_llh_match_their_references(r):
    # gravity_e's entries written out, each after 0.0 +, against the BLAS
    # product C' (0, 0, g); the loop on 0-d arrays against the loop on
    # Python floats; a 3-vector and a row step's three floats alike
    for point in (r, r.tolist()):
        assert same_bits(earth.ecef_to_llh(point), oracles.float_ecef_to_llh(point))
        assert same_bits(earth.gravity_e(point), oracles.ref_gravity_e(r))


@settings(max_examples=150, deadline=None)
@given(case=ned_nominals(), dt=st.sampled_from([0.005, 0.01, 0.02]))
def test_ned_step_matches_reference_on_random_nominals(case, dt):
    nav, gyro, accel = case
    d = lib_derivative(mech._ned_row_rates, nav, gyro, accel)
    d0 = oracles.ref_ned_derivative(nav, gyro, accel)
    assert_equal_fields(d, d0, "derivative")
    new = oracles.step_state(mech.ned_step, nav, gyro, accel, dt)
    ref = oracles.ref_ned_step(nav, oracles.ImuSample(0.0, gyro, accel), dt)
    assert_equal_fields(vars(new).values(), vars(ref).values(), "step")


@settings(max_examples=100, deadline=None)
@given(case=ned_nominals())
def test_ecef_step_matches_reference_on_random_nominals(case):
    nav, gyro, accel = case
    state = oracles.ned_to_ecef_state(nav)
    d = lib_derivative(mech._ecef_row_rates, state, gyro, accel)
    d0 = oracles.ref_ecef_derivative(state, gyro, accel)
    assert_equal_fields(d, d0, "derivative")
    new = oracles.step_state(mech.ecef_step, state, gyro, accel, DT)
    ref = oracles.ref_ecef_step(state, oracles.ImuSample(0.0, gyro, accel), DT)
    assert_equal_fields(vars(new).values(), vars(ref).values(), "step")


@settings(max_examples=60, deadline=None)
@given(
    cases=st.lists(ned_nominals(), min_size=2, max_size=6),
    dt=st.sampled_from([0.005, 0.01, 0.02]),
    data=st.data(),
)
def test_stacked_steps_equal_single_steps_on_random_nominals(cases, dt, data):
    # each member of one stacked ned_step or ecef_step equals its single
    # step in every bit, signed zeros included; the ECEF members take some
    # positions from the geodetic conversion's sign and branch edges
    navs, gyro, accel = zip(*cases)
    ecef = [oracles.ned_to_ecef_state(nav) for nav in navs]
    positions = st.none() | st.sampled_from(_ecef_edges())
    for nav in ecef:
        edge = data.draw(positions)
        if edge is not None:
            nav.r = edge.copy()
    for step, members in ((mech.ned_step, navs), (mech.ecef_step, ecef)):
        stacked = oracles.step_state(
            step, mech.stack_states(members), np.array(gyro), np.array(accel), dt
        )
        for k, nav in enumerate(members):
            single = oracles.step_state(step, nav, gyro[k], accel[k], dt)
            for name, x in vars(single).items():
                assert same_bits(getattr(stacked, name)[k], x), (step, k, name)


# latitudes within 1e-3 of the pole limit, two thirds of them within 1e-5
# or 1e-8, where legs of smo.BLOCK + 11 steps, or of one or two, at up to
# 300 m/s often cross it
NEAR_POLE = st.one_of(
    st.floats(0.0, 1e-3), st.floats(0.0, 1e-5), st.floats(0.0, 1e-8)
)


@settings(max_examples=120, deadline=None)
@given(
    case=ned_nominals(),
    steps=st.sampled_from([1, 2, smo.BLOCK + 11]),
    tau=st.sampled_from([(400.0, 900.0), (None, None)]),
    dt=st.sampled_from([0.005, 0.01, 0.02]),
    pole=st.none() | st.tuples(st.sampled_from([1.0, -1.0]), NEAR_POLE),
    seed=st.integers(0, 2**32 - 1),
)
def test_ned_leg_equals_its_steps_on_random_nominals(case, steps, tau, dt, pole, seed):
    # one NED member's predict steps its leg as a row of floats; its end
    # state and bias, and the chart's pre-step nominals, equal the leg's
    # ned_step and orthonormalize calls on state objects with the biases
    # decayed step by step, field by field and bit for bit; a leg that
    # crosses the pole limit raises what the per-step path raises
    nav, gyro, accel = case
    if pole is not None:
        sign, offset = pole
        nav.geo[0] = sign * (np.pi / 2 - earth.POLE_MARGIN - offset)
    rng = np.random.default_rng(seed)
    imu = np.stack([gyro, accel])
    imu = imu + rng.normal(scale=[[0.01], [0.5]], size=(steps, 2, 3))
    bias = BiasState(*rng.normal(scale=[[1e-3], [1e-2]], size=(2, 3)))
    variant = Variant("NED", "LeftEst")
    run = flt.RunConstants(variant, ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, *tau), dt)
    decay = [1.0 if t is None else np.exp(-dt / t) for t in tau]
    ref, b_g, b_a, befores, rates, error = nav, bias.gyro, bias.accel, [], [], None
    try:
        for raw_g, raw_a in imu:
            rates.append((raw_g - b_g, raw_a - b_a))
            befores.append(ref)
            ref = oracles.step_state(mech.ned_step, ref, *rates[-1], dt)
            ref.c_bn = oracles.project(ref.c_bn)
            b_g, b_a = decay[0] * b_g, decay[1] * b_a
    except LieseNavError as exc:
        error = exc
    fs = flt.FilterState(variant, nav, bias, np.eye(15), 0.0)
    if error is not None:
        with pytest.raises(LieseNavError) as exc:
            flt.predict(fs, imu, run)
        assert type(exc.value) is type(error)
        assert str(exc.value) == str(error)
        return
    out, _ = flt.predict(fs, imu, run)
    for name, x in vars(ref).items():
        assert same_bits(getattr(out.nav, name), x), name
    assert same_bits(out.bias.gyro, b_g) and same_bits(out.bias.accel, b_a)
    gyros, accels = map(np.array, zip(*rates))
    nominals, end = variant.chart.leg(nav, gyros, accels, dt)
    for k, before in enumerate(befores):
        for name, x in vars(before).items():
            assert same_bits(getattr(nominals, name)[k], x), (k, name)
    for name, x in vars(ref).items():
        assert same_bits(getattr(end, name), x), name


@st.composite
def ecef_nominals(draw):
    """(ECEF state, gyro, accel) at a random point of the envelope, its
    latitude sometimes exactly 0 or within 1e-3 of the pole limit and its
    longitude sometimes +-0, where the position's z or y is a signed zero
    and a hand-expanded gravity product would flip the sign of a zero."""
    nav, gyro, accel = draw(ned_nominals())
    limit = np.pi / 2 - earth.POLE_MARGIN
    pole = st.tuples(st.sampled_from([1.0, -1.0]), NEAR_POLE).map(
        lambda p: p[0] * (limit - p[1])
    )
    nav.geo[0] = draw(st.just(nav.geo[0]) | st.just(0.0) | pole)
    nav.geo[1] = draw(st.just(nav.geo[1]) | st.sampled_from([0.0, -0.0]))
    return oracles.ned_to_ecef_state(nav), gyro, accel


@settings(max_examples=120, deadline=None)
@given(
    case=ecef_nominals(),
    steps=st.sampled_from([1, 2, smo.BLOCK + 11]),
    tau=st.sampled_from([(400.0, 900.0), (None, None)]),
    dt=st.sampled_from([0.005, 0.01, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ecef_leg_equals_its_steps_on_random_nominals(case, steps, tau, dt, seed):
    # one ECEF member's predict steps its leg as a row of floats; its end
    # state and bias, and the chart's pre-step nominals, equal the leg's
    # steps on a stack of one (the array RK4 over mech._ecef_rates) followed
    # by the stacked orthonormalize, with the biases decayed step by step,
    # field by field and bit for bit
    nav, gyro, accel = case
    rng = np.random.default_rng(seed)
    imu = np.stack([gyro, accel])
    imu = imu + rng.normal(scale=[[0.01], [0.5]], size=(steps, 2, 3))
    bias = BiasState(*rng.normal(scale=[[1e-3], [1e-2]], size=(2, 3)))
    variant = Variant("ECEF", "LeftEst")
    run = flt.RunConstants(variant, ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, *tau), dt)
    decay = [1.0 if t is None else np.exp(-dt / t) for t in tau]
    ref, b_g, b_a, befores, rates = mech.stack_states([nav]), bias.gyro, bias.accel, [], []
    for raw_g, raw_a in imu:
        rates.append((raw_g - b_g, raw_a - b_a))
        befores.append(ref)
        ref = oracles.step_state(
            mech.ecef_step, ref, rates[-1][0][None], rates[-1][1][None], dt
        )
        ref.c_be[...] = mech.orthonormalize(ref.c_be)
        b_g, b_a = decay[0] * b_g, decay[1] * b_a
    fs = flt.FilterState(variant, nav, bias, np.eye(15), 0.0)
    out, _ = flt.predict(fs, imu, run)
    for name, x in vars(ref).items():
        assert same_bits(getattr(out.nav, name), x[0]), name
    assert same_bits(out.bias.gyro, b_g) and same_bits(out.bias.accel, b_a)
    gyros, accels = map(np.array, zip(*rates))
    nominals, end = variant.chart.leg(nav, gyros, accels, dt)
    for k, before in enumerate(befores):
        for name, x in vars(before).items():
            assert same_bits(getattr(nominals, name)[k], x[0]), (k, name)
    for name, x in vars(ref).items():
        assert same_bits(getattr(end, name), x[0]), name


@settings(max_examples=80, deadline=None)
@given(
    cases=st.lists(ecef_nominals(), min_size=1, max_size=6),
    dt=st.sampled_from([0.005, 0.01, 0.02]),
)
def test_ecef_rows_equal_their_members_of_a_stack_step(cases, dt):
    # an ECEF member's row derivative and row step (Python floats, gravity
    # from the position's three floats) equal its member of one (N, 15)
    # stack's derivative and step in every bit, signed zeros included
    navs, gyro, accel = zip(*cases)
    gyro, accel = np.array(gyro), np.array(accel)
    x = mech._pack(mech.stack_states(navs))
    d = mech._ecef_rates(x, skew_stack(gyro), accel)
    stacked = mech.ecef_step(x, gyro, accel, dt)
    for k, row in enumerate(x.tolist()):
        assert same_bits(mech._ecef_row_rates(gyro[k], accel[k])(row), d[k]), k
        assert same_bits(mech.ecef_step(row, gyro[k], accel[k], dt), stacked[k]), k


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
@settings(max_examples=40, deadline=None)
@given(case=ned_nominals(), biases=st.booleans())
def test_error_dynamics_matches_reference_on_random_nominals(variant, case, biases):
    nav, gyro, accel = case
    if variant.frame.startswith("ECEF"):
        nav = oracles.ned_to_ecef_state(nav)
    tau = (400.0, 900.0) if biases else (None, None)
    f, g = oracles.dynamics_at(variant, nav, gyro, accel, *tau)
    f0, g0 = oracles.ref_error_dynamics(variant, nav, gyro, accel, *tau)
    assert np.array_equal(f, f0)
    assert np.array_equal(g, g0)


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
@settings(max_examples=30, deadline=None)
@given(cases=sized_lists(ned_nominals(), 2, 24), biases=st.booleans())
def test_error_dynamics_of_a_stack_matches_reference_on_random_nominals(
    variant, cases, biases
):
    # one call over a stack of random nominals gives each point's reference
    # F and G, by value as above: the stacked block functions compute every
    # point's terms in the stack, not one point at a time
    navs, gyro, accel = zip(*cases)
    if variant.frame.startswith("ECEF"):
        navs = [oracles.ned_to_ecef_state(nav) for nav in navs]
    tau = (400.0, 900.0) if biases else (None, None)
    f, g = error_dynamics(
        variant, mech.stack_states(navs), np.array(gyro), np.array(accel), *tau
    )
    for k, nav in enumerate(navs):
        f0, g0 = oracles.ref_error_dynamics(variant, nav, gyro[k], accel[k], *tau)
        assert np.array_equal(f[k], f0), k
        assert np.array_equal(g[k] if variant.is_right else g, g0), k


# the NED F blocks' earth terms at the edges of the envelope: the pole
# limit, within 1e-3 of the equator, longitude 0, and signed-zero velocities
TERMS_LAT = st.one_of(
    st.floats(-earth._LAT_LIMIT, earth._LAT_LIMIT),
    st.sampled_from([earth._LAT_LIMIT, -earth._LAT_LIMIT, 0.0, -0.0]),
    st.floats(-1e-3, 1e-3),
)
SIGNED_SPEED = st.one_of(st.floats(-300.0, 300.0), st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None)
@given(
    points=sized_lists(
        st.tuples(
            TERMS_LAT,
            st.just(0.0) | st.floats(-np.pi, np.pi),
            st.floats(-500.0, 1e5),
            st.tuples(SIGNED_SPEED, SIGNED_SPEED, SIGNED_SPEED),
        ),
        1,
        64,
    )
)
def test_ned_terms_equal_their_float_loop(points):
    # the F blocks' NED earth terms, one numpy body over the stack, equal
    # the per-point float loop they replaced (oracles.float_ned_terms) in
    # every bit, signed zeros included, and in their layout, for the left
    # errors' terms and the right and auxiliary ones' full set
    nom = mech.stack_states([
        NavStateNED(np.eye(3), np.array(v), np.array([lat, lon, h]))
        for lat, lon, h, v in points
    ])
    for full in (False, True):
        terms = errormodels._ned_terms(nom, full)
        loop = oracles.float_ned_terms(nom, full)
        assert len(terms) == len(loop)
        for k, (x, y) in enumerate(zip(terms, loop)):
            assert same_bits(x, y) and x.strides == y.strides, (full, k)


def test_hot_path_keeps_numpy_tan_where_libm_tan_rounds_differently():
    # libm's tan and np.tan round differently on about 0.5 % of latitudes,
    # too few for the random nominals to meet reliably, and a last-bit
    # change in tan reaches the NED derivative at about 2 % of those; at
    # 300 such latitudes the NED derivative, step and error dynamics still
    # match the references, which use np.tan
    lats = np.random.default_rng(21).uniform(-1.5, 1.5, 100000)
    libm = np.array([math.tan(lat) for lat in lats.tolist()])
    split = lats[libm != np.tan(lats)][:300].tolist()
    assert len(split) == 300
    rng = np.random.default_rng(22)
    ned_variants = [v for v in supported_variants() if v.frame.startswith("NED")]
    for lat in split:
        nav = NavStateNED(
            so3_exp(rng.normal(size=3)),
            rng.normal(scale=200.0, size=3),
            np.array([lat, 0.3, 200.0]),
        )
        gyro = rng.normal(scale=0.1, size=3)
        accel = rng.normal(scale=5.0, size=3)
        d = lib_derivative(mech._ned_row_rates, nav, gyro, accel)
        d0 = oracles.ref_ned_derivative(nav, gyro, accel)
        assert_equal_fields(d, d0, f"derivative at {lat!r}")
        new = oracles.step_state(mech.ned_step, nav, gyro, accel, DT)
        ref = oracles.ref_ned_step(nav, oracles.ImuSample(0.0, gyro, accel), DT)
        assert_equal_fields(
            vars(new).values(), vars(ref).values(), f"step at {lat!r}"
        )
        for variant in ned_variants:
            f, g = oracles.dynamics_at(variant, nav, gyro, accel)
            f0, g0 = oracles.ref_error_dynamics(variant, nav, gyro, accel)
            assert np.array_equal(f, f0), (variant.name, lat)
            assert np.array_equal(g, g0), (variant.name, lat)


# ---------------------------------------------------------------------------
# the simulator side over whole time grids
# ---------------------------------------------------------------------------


def assert_row_equal(stacked, k, ref, label):
    for name, x, y in zip(vars(ref), vars(stacked).values(), vars(ref).values()):
        assert same_bits(x[k], y), f"{label}: {name} differs"


KINDS = {
    "stationary": dict(heading0=0.9),
    "straight": dict(speed=12.0, heading0=-2.1),
    "circle": dict(speed=15.0, radius=250.0, heading0=0.4),
    "figure_eight": dict(amplitude=200.0, period=40.0, heading0=1.1),
}
# the second origin lies beyond 1.3 rad, where ecef_to_llh switches its
# height formula
ORIGINS = {"north": [0.7, 0.2, 120.0], "south-polar": [-1.35, -2.9, 800.0]}


def generators(kind, origin):
    spec = TrajectorySpec(kind, np.array(ORIGINS[origin]), **KINDS[kind])
    return TruthGenerator(spec), oracles.RefTruthGenerator(spec)


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("kind", KINDS)
def test_truth_states_match_reference(kind, origin):
    gen, ref = generators(kind, origin)
    times = np.arange(0.0, 45.0, 0.29)
    ecef, ned = gen.states_ecef(times), gen.states_ned(times)
    for k, t in enumerate(times):
        assert_row_equal(ecef, k, ref.state_ecef(t), f"ecef t={t}")
        assert_row_equal(ned, k, ref.state_ned(t), f"ned t={t}")
    for t in (0.0, 7.3, 1e3):
        assert_states_equal(gen.state_ecef(t), ref.state_ecef(t), f"single t={t}")
        assert_states_equal(oracles.state_ned(gen, t), ref.state_ned(t), f"single t={t}")


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("kind", KINDS)
def test_imu_samples_match_reference(kind, origin):
    gen, ref = generators(kind, origin)
    new = oracles.imu_samples(gen.synthesize_imu(20.0, 0.02), 0.02)
    old = ref.synthesize_imu(20.0, 0.02)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.t == b.t
        assert same_bits(a.gyro, b.gyro) and same_bits(a.accel, b.accel), a.t
    for t in (0.0, 3.3, 1e3):
        for x, y in zip(oracles.imu_instantaneous(gen, t), ref.imu_instantaneous(t)):
            assert same_bits(x, y), t


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("kind", KINDS)
def test_gnss_fixes_match_reference(kind, origin):
    gen, ref = generators(kind, origin)
    times = np.arange(0.5, 40.0, 0.5)
    lever = np.array([0.4, -0.2, 1.1])
    new = gen.sample_gnss(times, lever, 1.5, np.random.default_rng(3))
    old = ref.sample_gnss(times, lever, 1.5, np.random.default_rng(3))
    assert len(new) == len(old)
    for fix, (t0, pos0, r0) in zip(new, old):
        assert fix.t == t0, t0
        assert same_bits(fix.pos, pos0) and same_bits(fix.r, r0), t0


def _rotations():
    """Rotations whose Shepperd pivot is each of the four components."""
    rng = np.random.default_rng(8)
    out = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])]
    out.append(np.diag([-1.0, -1.0, 1.0]))
    for _ in range(400):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.pi)
        out.append(so3_exp(axis / np.linalg.norm(axis) * angle))
    return np.array(out)


def test_quaternions_match_reference_on_every_pivot():
    c = _rotations()
    cand = np.column_stack(
        [1.0 + np.trace(c, axis1=1, axis2=2)]
        + [1.0 + 2.0 * c[:, i, i] - np.trace(c, axis1=1, axis2=2) for i in range(3)]
    )
    assert set(np.argmax(cand, axis=1)) == {0, 1, 2, 3}
    q = cli.dcm_to_quaternion(c)
    for k, m in enumerate(c):
        ref = oracles.ref_dcm_to_quaternion(m)
        assert same_bits(q[k], ref), k
        assert same_bits(cli.dcm_to_quaternion(m[None])[0], ref), k


POLE = np.pi / 2 - earth.POLE_MARGIN
LATITUDES = st.one_of(
    st.floats(-POLE, POLE),
    st.floats(1.3, POLE),
    st.floats(-POLE, -1.3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(LATITUDES, st.floats(-np.pi, np.pi), st.floats(-500.0, 1e5)),
        min_size=1,
        max_size=30,
    )
)
def test_ecef_to_llh_array_matches_scalar(points):
    r = np.array([earth.llh_to_ecef(*p) for p in points]).T
    lat, lon, h = earth.ecef_to_llh(r)
    for k in range(r.shape[1]):
        scalar = earth.ecef_to_llh(r[:, k])
        assert same_bits([lat[k], lon[k], h[k]], scalar), points[k]


def test_earth_array_twins_match_scalar():
    # radii and gravity_e keep a float body beside their array twin; the
    # other forms have one numpy body, whose call on arrays must equal its
    # calls on the points' Python floats
    rng = np.random.default_rng(12)
    lat = np.concatenate(
        [[-POLE, -1.3, -0.35, 0.0, 0.7, 1.2999, 1.3, 1.45, POLE],
         rng.uniform(-POLE, POLE, 200)]
    )
    lon = rng.uniform(-np.pi, np.pi, lat.size)
    h = rng.uniform(-500.0, 1e5, lat.size)
    rm, rn = earth.radii_array(np.sin(lat))
    r = earth.llh_to_ecef(lat, lon, h)
    g_e = earth.gravity_e_array(r)
    merged = {
        "position_vector_n": (earth.position_vector_n(lat, h).T, (lat, h)),
        "earth_rate_n": (earth.earth_rate_n(lat).T, (lat,)),
        "gravity_n": (earth.gravity_n(lat, h).T, (lat, h)),
        "llh_to_ecef": (r.T, (lat, lon, h)),
        "dcm_ecef_to_ned": (earth.dcm_ecef_to_ned(lat, lon), (lat, lon)),
    }
    for k in range(lat.size):
        assert same_bits([rm[k], rn[k]], earth.radii(lat[k])), k
        assert same_bits(g_e[:, k], earth.gravity_e(r[:, k])), k
        for name, (stacked, args) in merged.items():
            point = [float(a[k]) for a in args]
            assert same_bits(stacked[k], getattr(earth, name)(*point)), (name, k)


@pytest.mark.parametrize("tau", [(400.0, 900.0), (None, None)], ids=["gm", "rc"])
def test_bias_and_noise_draws_match_reference(tau):
    params = ImuNoiseParams(2e-4, 3e-3, 1e-5, 2e-4, *tau)
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=15.0, radius=250.0, heading0=0.4)
    )
    clean = gen.synthesize_imu(10.0, 0.02)
    initial = BiasState(np.array([2e-4, -1e-4, 1.5e-4]), np.array([1e-3, -2e-3, 0.0]))
    rng, rng0 = np.random.default_rng(21), np.random.default_rng(21)
    biases = sensors.simulate_biases(params, len(clean), 0.02, rng, initial)
    biases0 = oracles.ref_simulate_biases(params, len(clean), 0.02, rng0, initial)
    imu = sensors.corrupt(clean, biases, params, 0.02, rng)
    imu0 = oracles.ref_corrupt(
        oracles.imu_samples(clean, 0.02), biases0, params, 0.02, rng0
    )
    for b, b0 in zip(oracles.bias_states(biases), biases0, strict=True):
        assert same_bits(b.gyro, b0.gyro) and same_bits(b.accel, b0.accel)
    for s, s0 in zip(oracles.imu_samples(imu, 0.02), imu0, strict=True):
        assert s.t == s0.t
        assert same_bits(s.gyro, s0.gyro) and same_bits(s.accel, s0.accel)
    # both streams leave the generator at the same place
    assert same_bits(rng.standard_normal(4), rng0.standard_normal(4))


def test_q_diag_matches_concatenation():
    for params in (ImuNoiseParams(), ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6)):
        assert same_bits(params.q_diag(), oracles.ref_q_diag(params))


# the LAPACK gufunc and the np.linalg.svd fallback taken when the private
# module cannot be imported
SVD_PATHS = {"gufunc": mech._svd, "fallback": np.linalg.svd}
DET_PATHS = {"gufunc": mech._det, "fallback": np.linalg.det}


def test_orthonormalize_matches_reference_on_reflections(monkeypatch):
    rng = np.random.default_rng(14)
    for k in range(50):
        c = so3_exp(rng.normal(size=3)) + 1e-3 * rng.normal(size=(3, 3))
        if k % 2:  # a reflection: the polar factor has det -1
            c = c @ np.diag([1.0, 1.0, -1.0])
            u, _, vt = np.linalg.svd(c)
            assert np.linalg.det(u @ vt) < 0
        for path, svd in SVD_PATHS.items():
            monkeypatch.setattr(mech, "_svd", svd)
            out = oracles.project(c)
            assert same_bits(out, oracles.ref_orthonormalize(c)), (k, path)
            assert np.linalg.det(out) > 0


@pytest.mark.parametrize("path", SVD_PATHS)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_orthonormalize_raises_on_nan_on_both_paths(path, monkeypatch):
    # np.linalg.svd raises for a NaN entry; the bare gufunc returns NaN
    # factors, which the triple-product check turns into the same error
    monkeypatch.setattr(mech, "_svd", SVD_PATHS[path])
    c = so3_exp(np.array([0.1, -0.2, 0.3]))
    c[1, 2] = np.nan
    for bad in (c, np.full((3, 3), np.nan)):
        with pytest.raises(np.linalg.LinAlgError):
            oracles.ref_orthonormalize(bad)
        with pytest.raises(np.linalg.LinAlgError):
            oracles.project(bad)


@pytest.mark.parametrize("path", SVD_PATHS)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_orthonormalize_raises_on_inf_without_hanging(path, stacked):
    # LAPACK's SVD never returns on an infinite entry, so the check runs in
    # its own interpreter under a timeout: a hang fails instead of stalling
    code = f"""
import numpy as np
from liese_nav import mechanization as mech
if {path!r} == "fallback":
    mech._svd = np.linalg.svd
c = np.eye(3)
c[0, 0] = np.inf
if {stacked}:
    c = np.stack([np.eye(3), c])
else:
    c = c.ravel().tolist()
try:
    mech.orthonormalize(c)
except np.linalg.LinAlgError:
    print("raised")
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=30,
    )
    assert out.stdout.strip() == "raised", out.stderr[-2000:]


def _stacked_predicts(variant, monkeypatch, path):
    """One stacked predict of N members against the N single predicts, bit
    for bit, field by field, over 200 steps from random nominals; member 0
    is turned into a reflection every 50 steps, so its SVD takes the
    determinant flip."""
    monkeypatch.setattr(mech, "_svd", SVD_PATHS[path])
    monkeypatch.setattr(mech, "_det", DET_PATHS[path])
    run = flt.RunConstants(
        variant, ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, 400.0, 900.0), DT
    )
    rng = np.random.default_rng(41)
    members = []
    for lat in (0.7, -1.2, 0.0, 1.45, -0.35):
        nav = NavStateNED(
            so3_exp(rng.normal(size=3)),
            rng.normal(scale=100.0, size=3),
            np.array([lat, rng.uniform(-3.0, 3.0), rng.uniform(-500.0, 1e4)]),
        )
        p = rng.normal(size=(15, 15))
        bias = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
        members.append(
            flt.FilterState(variant, _own_frame(variant, nav), bias, p @ p.T, 0.0)
        )
    stack = flt.FilterState.stack(members)
    rot = next(iter(vars(stack.nav)))  # c_bn or c_be
    flips = 0
    for step in range(200):
        if step % 50 == 0:
            for nav in (members[0].nav, mech.state_at(stack.nav, 0)):
                c = getattr(nav, rot)
                c[:] = c @ np.diag([1.0, 1.0, -1.0])
            flips += 1
        gyro = rng.normal(scale=0.1, size=(len(members), 3))
        accel = rng.normal(scale=5.0, size=(len(members), 3))
        stack, phi = flt.predict(
            stack, one_row(oracles.ImuSample(step * DT, gyro, accel)), run
        )
        for k, (fs, g, a) in enumerate(zip(members, gyro, accel)):
            members[k], phi_k = flt.predict(
                fs, one_row(oracles.ImuSample(step * DT, g, a)), run
            )
            single, label = members[k], f"step {step} member {k}"
            assert same_bits(phi[k], phi_k), label
            assert same_bits(stack.p[k], single.p), label
            for name, x in vars(stack.nav).items():
                assert same_bits(x[k], getattr(single.nav, name)), (label, name)
            assert same_bits(stack.bias.gyro[k], single.bias.gyro), label
            assert same_bits(stack.bias.accel[k], single.bias.accel), label
            assert stack.t == single.t
    assert np.linalg.det(getattr(members[0].nav, rot)) > 0 and flips == 4


@pytest.mark.parametrize("path", SVD_PATHS)
def test_stacked_predict_matches_member_predicts(path, monkeypatch):
    # the stacked NED step and left-error F
    _stacked_predicts(Variant("NED", "LeftEst"), monkeypatch, path)


@pytest.mark.parametrize("path", SVD_PATHS)
def test_stacked_ecef_predict_matches_member_predicts(path, monkeypatch):
    # the stacked ECEF step, and a right error's F and G Qc G' on the
    # stack, each point's gravity from its own gravity_e call
    _stacked_predicts(Variant("ECEF", "RightEst"), monkeypatch, path)


LEG_CASES = {
    "NED/LeftEst": ("NED", "LeftEst", 1),
    "NED/LeftEst-4-members": ("NED", "LeftEst", 4),
    "ECEF/LeftEst": ("ECEF", "LeftEst", 1),
    "NED/RightEst": ("NED", "RightEst", 1),
}


def _leg_start(frame, error_def, members, rng):
    """A random start state of the variant, stacked for several members, and
    a random IMU leg of smo.BLOCK + 11 steps with the members' rates."""
    variant = Variant(frame, error_def)
    states = []
    for nom in _nominals()[:members]:
        nav = _own_frame(variant, nom)
        p = rng.normal(size=(15, 15))
        bias = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
        states.append(flt.FilterState(variant, nav, bias, p @ p.T, 0.25))
    fs = flt.FilterState.stack(states)  # one member stays unstacked
    steps = smo.BLOCK + 11
    lanes = (members,) if members > 1 else ()
    imu = np.stack(
        [
            rng.normal(scale=0.1, size=(steps, *lanes, 3)),
            rng.normal(scale=5.0, size=(steps, *lanes, 3)),
        ],
        axis=1,
    )
    return variant, fs, imu


@pytest.mark.parametrize("case", LEG_CASES)
def test_leg_predict_matches_one_step_legs(case):
    # one predict over a leg longer than smo.BLOCK equals the leg's one-step
    # predicts chained through phi_acc, bit for bit in nav, bias, P, Phi_acc
    # and t; a single member's leg also equals the per-step reference
    # predict of the previous design, whose Phi is multiplied on outside
    frame, error_def, members = LEG_CASES[case]
    variant, fs, imu = _leg_start(frame, error_def, members, np.random.default_rng(43))
    noise = ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, 400.0, 900.0)
    run = flt.RunConstants(variant, noise, DT)
    leg = flt.predict(fs, imu, run)
    steps = (fs, flt._I15)
    for k in range(len(imu)):
        steps = flt.predict(steps[0], imu[k:k + 1], run, steps[1])
    assert_same(leg, steps, f"{case} leg")
    t = fs.t
    for _ in range(len(imu)):
        t += DT
    # the time sums dt step by step, which t0 + k dt would not reproduce
    assert leg[0].t == t != fs.t + len(imu) * DT
    if members == 1:
        ref, acc = fs, np.eye(15)
        for sample in oracles.imu_samples(imu, DT, fs.t):
            ref, phi = oracles.ref_predict(ref, sample, DT, noise)
            acc = phi @ acc
        assert_same(leg, (ref, acc), f"{case} reference")


def _perturbed_ned(truth, rng):
    return NavStateNED(
        truth.c_bn @ so3_exp(rng.normal(scale=1e-3, size=3)),
        truth.v_n + rng.normal(scale=0.1, size=3),
        truth.geo + rng.normal(scale=[1e-6, 1e-6, 1.0]),
    )


def test_cli_tracks_and_metrics_match_reference():
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=15.0, radius=250.0, heading0=0.4)
    )
    rng = np.random.default_rng(16)
    times = np.sort(rng.uniform(0.0, 30.0, 40))
    truths = [oracles.RefTruthGenerator(gen.spec).state_ned(t) for t in times]
    neds = [_perturbed_ned(t, rng) for t in truths]
    ecefs = [oracles.ned_to_ecef_state(n) for n in neds]

    # the one NED conversion the ECEF tracks share
    as_ned = Variant("ECEF", "LeftEst").chart.as_ned(mech.stack_states(ecefs))
    for k, nav in enumerate(ecefs):
        assert_row_equal(as_ned, k, oracles.ref_ecef_to_ned_state(nav), f"epoch {k}")

    rows = cli._traj_rows(times, mech.stack_states(neds))
    for t, ned, row in zip(times, neds, rows, strict=True):
        q = oracles.ref_dcm_to_quaternion(ned.c_bn)
        assert row == cli._fmt(
            [float(t), *ned.geo.tolist(), *ned.v_n.tolist(), *q.tolist()]
        )

    new = cli._epoch_errors(gen.states_ned(times), mech.stack_states(neds))
    for x, y in zip(new, oracles.ref_epoch_errors(truths, neds), strict=True):
        assert same_bits(x, y)


# ---------------------------------------------------------------------------
# the variant dispatch: one chart per frame family, two error-definition flags
# ---------------------------------------------------------------------------


def assert_same(a, b, label, equal=same_bits):
    """same_bits (or ``equal``) through states, records, reports, group
    elements and the tuples, lists and dicts that hold them."""
    if hasattr(a, "__dict__"):
        assert type(a) is type(b), label
        for name, x in vars(a).items():
            assert_same(x, getattr(b, name), f"{label}.{name}", equal)
    elif isinstance(a, (tuple, list, dict)):
        assert type(a) is type(b) and len(a) == len(b), label
        for k, x in (a.items() if isinstance(a, dict) else enumerate(a)):
            assert_same(x, b[k], f"{label}[{k}]", equal)
    elif a is None or isinstance(a, str):
        assert a == b, label
    else:
        assert equal(a, b), label


def _modes(variant):
    return [m for m in flt.MODES if m == "se23" or variant.error_def == "LeftEst"]


def _own_frame(variant, nav):
    return oracles.ned_to_ecef_state(nav) if variant.frame.startswith("ECEF") else nav


@pytest.mark.parametrize("aux", [False, True], ids=["plain", "aux"])
@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_chart_embed_of_a_stack_equals_its_single_embeds(variant, aux):
    # one embedding per chart: stacked states embed row by row as each
    # state does alone, with or without the auxiliary velocity
    navs = [_own_frame(variant, nav) for nav in _nominals()]
    stacked = variant.chart.embed(mech.stack_states(navs), aux)
    for k, nav in enumerate(navs):
        single = variant.chart.embed(nav, aux)
        for name in ("R", "v", "p"):
            a, b = getattr(stacked, name)[k], getattr(single, name)
            assert same_bits(a, b), (variant.name, k, name)


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_dispatch_matches_reference(variant):
    rng = np.random.default_rng(23)
    scale = np.repeat([1e-3, 0.1, 1.0, 5e-4, 5e-3], 3)
    noise = ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, 400.0, 900.0)
    # a zero lever arm makes exact zeros in H, whose sign repr() would print
    for k, (truth, lever) in enumerate(
        zip(_nominals(), [np.array([0.4, -0.2, 1.1]), np.zeros(3)] * 2)
    ):
        label = f"{variant.name} nominal {k}"
        true_nav = _own_frame(variant, truth)
        est = _own_frame(variant, _perturbed_ned(truth, rng))
        b_true = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
        b_est = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
        gyro, accel = rng.normal(scale=0.1, size=3), rng.normal(scale=5.0, size=3)

        assert_same(
            variant.chart.embed(est, variant.aux_velocity),
            oracles.ref_embed(variant, est),
            label,
        )
        assert_same(
            flt.error_state(variant, true_nav, b_true, est, b_est),
            oracles.ref_error_state(variant, true_nav, b_true, est, b_est),
            label,
        )
        dx = scale * rng.standard_normal(15)
        for d in (dx, np.concatenate([np.zeros(9), dx[9:]])):
            assert_same(
                flt.apply_correction(variant, est, b_est, d),
                oracles.ref_apply_correction(variant, est, b_est, d),
                label,
            )
        assert_same(
            measurement_se23(variant, est, lever),
            oracles.ref_measurement_se23(variant, est, lever),
            label,
        )
        if variant.error_def == "LeftEst":
            assert_same(
                measurement_left_invariant(variant, est, lever),
                oracles.ref_measurement_left_invariant(variant, est, lever),
                label,
            )

        p = rng.normal(size=(15, 15)) * scale
        fs = flt.FilterState(variant, est, b_est, p @ p.T + np.diag(scale**2), 3.0)
        sample = oracles.ImuSample(3.0, gyro, accel)
        assert_same(
            flt.predict(fs, one_row(sample), flt.RunConstants(variant, noise, DT)),
            oracles.ref_predict(fs, sample, DT, noise),
            label,
        )
        fix = flt.GnssFix(
            3.0,
            earth.llh_to_ecef(*truth.geo) + rng.normal(scale=2.0, size=3),
            np.diag([1.5, 2.0, 3.0]),
            lever,
        )
        assert_same(
            variant.chart.innovation(est, fix),
            oracles.ref_innovation_nav(est, variant, fix),
            label,
        )
        for mode in _modes(variant):
            assert_same(
                flt.update(fs, fix, mode),
                oracles.ref_update(fs, fix, mode),
                f"{label} {mode}",
            )


def _scenario(frame, error_def, mode):
    return cli.ScenarioConfig(
        trajectory={
            "kind": "circle", "origin_lat_rad": 0.7, "origin_lon_rad": -1.2,
            "origin_h_m": 300.0, "speed_m_s": 15.0, "radius_m": 250.0,
            "heading0_rad": 0.4,
        },
        duration_s=10.0,
        imu_dt_s=DT,
        gnss={"period_s": 1.0, "sigma_pos_m": 1.5, "lever_arm_b_m": [0.4, -0.2, 1.1]},
        noise={
            "sigma_g_rad_s_sqrt_hz": 1e-4, "sigma_a_m_s2_sqrt_hz": 1e-3,
            "sigma_bg_rad_s_sqrt_s": 1e-7, "sigma_ba_m_s2_sqrt_s": 1e-6,
            "tau_g_s": 400.0, "tau_a_s": 900.0,
        },
        initial={
            "attitude_sigma_rad": 1e-3, "velocity_sigma_m_s": 0.1,
            "position_sigma_m": 1.0, "bias_g_sigma_rad_s": 5e-4,
            "bias_a_sigma_m_s2": 5e-3, "yaw_error_rad": 0.3,
        },
        variant={"frame": frame, "error_def": error_def},
        mode=mode,
        seed=9,
    )


@pytest.mark.parametrize(
    "frame, error_def, mode",
    [("NED", "RightEst", "se23"), ("ECEF_Inertial", "LeftEst", "invariant")],
)
def test_forward_pass_matches_reference(frame, error_def, mode):
    cfg = _scenario(frame, error_def, mode)
    sim = cli._simulate(cfg)
    fixes = sim.fixes
    starts = [
        init(cfg, sim.variant, sim.gen, copy.deepcopy(sim.rng))
        for init in (cli._initial_state, oracles.ref_initial_state)
    ]
    assert_same(starts[0], starts[1], "initial state")
    fs0 = [flt.FilterState(sim.variant, *start, 0.0) for start in starts]
    records, (nis,) = smo.run_forward(
        [fs0[0]], [sim.imu], [fixes], DT, sim.noise, mode
    )
    new = records, nis
    ref = oracles.ref_forward(
        fs0[1], oracles.imu_samples(sim.imu, DT), fixes, DT, sim.noise, mode
    )
    assert len(new[0]) == 10  # one record per fix, the last one final
    assert_same(new, ref, "forward pass")


@pytest.mark.parametrize(
    "frame, error_def, mode",
    [("NED", "LeftEst", "se23"), ("ECEF", "LeftEst", "invariant")],
)
def test_forward_legs_match_reference_on_irregular_fixes(frame, error_def, mode):
    # a fix due before the first step applies after it, two fixes due at one
    # step apply on consecutive steps, and a 3 s gap makes a leg of 150 steps
    # (more than smo.BLOCK); records and NIS equal the step-by-step reference
    cfg = _scenario(frame, error_def, mode)
    sim = cli._simulate(cfg)
    f = sim.fixes
    fixes = [dataclasses.replace(f[0], t=-0.5), f[0], f[1], f[1], *f[4:]]
    start = cli._initial_state(cfg, sim.variant, sim.gen, sim.rng)
    fs0 = flt.FilterState(sim.variant, *start, 0.0)
    records, (nis,) = smo.run_forward(
        [fs0], [sim.imu], [fixes], DT, sim.noise, mode
    )
    new = records, nis
    ref = oracles.ref_forward(
        fs0, oracles.imu_samples(sim.imu, DT), fixes, DT, sim.noise, mode
    )
    steps = [round(entry["t"] / DT) for entry in new[1]]
    assert steps == [1, 50, 100, 101, 250, 300, 350, 400, 450, 500]
    assert_same(new, ref, "forward pass")


def _members(n, error_def="LeftEst"):
    """Start states, IMU streams and fix lists of n members of one NED
    scenario (seeds 9, 10, ...), drawn as the Monte-Carlo runner draws them."""
    base = _scenario("NED", error_def, "se23")
    draws = []
    for k in range(n):
        cfg = dataclasses.replace(base, seed=base.seed + k)
        sim = cli._simulate(cfg)
        draws.append((cli._start(cfg, sim), sim.imu, sim.fixes))
    return base, sim.noise, [list(x) for x in zip(*draws)]


@pytest.mark.parametrize(
    "n,steps,error_def",
    [
        # NED/LeftEst keeps its ids of n and steps alone
        pytest.param(
            n, steps, error_def,
            id=f"{n}-{label}" + ("" if error_def == "LeftEst" else f"-{error_def}"),
        )
        for error_def in ("LeftEst", "LeftTrue")
        for n in (2, 3)
        for steps, label in ((None, "whole"), (40, "before-first-fix"))
    ],
)
def test_lockstep_forward_matches_member_forwards(n, steps, error_def):
    # one run_forward over n members equals each member's own run_forward,
    # a block of one, which runs unstacked, bit for bit; 40 steps (0.8 s)
    # end before the first fix at 1 s, so each member's one record is its
    # final prediction
    cfg, noise, (starts, imus, fixes) = _members(n, error_def)
    if steps:
        imus = [imu[:steps] for imu in imus]
    singles = [
        smo.run_forward([fs.copy()], [imu], [member_fixes], DT, noise, cfg.mode)
        for fs, imu, member_fixes in zip(starts, imus, fixes)
    ]
    records, nis = smo.run_forward(starts, imus, fixes, DT, noise, cfg.mode)
    lockstep = ([oracles.member_records(records, k) for k in range(n)], nis)
    expected = (
        [records for records, _ in singles], [nis for _, (nis,) in singles]
    )
    assert_same(lockstep, expected, "lockstep forward pass")
    assert [len(records) for records in lockstep[0]] == [1 if steps else 10] * n


@pytest.mark.parametrize("stream", ["imu", "fix"])
@pytest.mark.parametrize("bad", [0, 2])
def test_lockstep_forward_names_a_members_non_finite_input(bad, stream):
    # a NaN in member bad's IMU stream or fix list stops the lockstep pass
    # before its loop, naming the sample's time
    cfg, noise, (starts, imus, fixes) = _members(3)
    if stream == "imu":
        imus[bad][150, 1, 1], t = np.nan, 150 * DT
    else:
        fixes[bad][4].pos[2], t = np.nan, fixes[bad][4].t
    with pytest.raises(NonFiniteInput, match=re.escape(f"t={t}")):
        smo.run_forward(starts, imus, fixes, DT, noise, cfg.mode)


# ---------------------------------------------------------------------------
# the back end over whole tracks: logarithm, smoother gains, NEES, covariance
# ---------------------------------------------------------------------------


def _log_cases():
    """Rotations on both sides of the small-angle switch, up to the near-pi
    margin, and near-identity matrices off SO(3) whose trace the clip cuts."""
    rng = np.random.default_rng(31)
    axes = rng.normal(size=(3000, 3))
    axes /= np.sqrt(np.sum(axes * axes, axis=1))[:, None]
    angles = np.concatenate(
        [
            10.0 ** rng.uniform(-10.0, np.log10(3.0), 2000),
            SMALL_ANGLE * (1.0 + rng.uniform(-1e-3, 1e-3, 500)),
            np.pi - NEAR_PI_MARGIN * rng.uniform(1.01, 3.0, 500),
        ]
    )
    rots = [so3_exp(a * x) for a, x in zip(angles, axes)]
    rots += [np.eye(3), np.eye(3) + 1e-15 * rng.normal(size=(3, 3))]
    rots += [np.eye(3) + np.diag(rng.uniform(0.0, 1e-14, 3)) for _ in range(20)]
    return np.stack(rots)


def test_so3_log_matches_reference():
    rots = _log_cases()
    angles = np.arccos(np.clip((np.trace(rots, axis1=1, axis2=2) - 1) / 2, -1, 1))
    assert (angles < SMALL_ANGLE).sum() >= 500 and (angles > 3.0).sum() >= 500
    stacked = so3_log(rots)
    for k, rot in enumerate(rots):
        ref = oracles.ref_so3_log(rot)
        assert same_bits(so3_log(rot), ref), k
        assert same_bits(stacked[k], ref), k


def test_so3_log_raises_near_pi_in_both_forms():
    axis = np.array([0.6, -0.8, 0.0])
    near_pi = so3_exp((np.pi - 0.5 * NEAR_PI_MARGIN) * axis)
    for log in (oracles.ref_so3_log, so3_log):
        with pytest.raises(NearPiRotation):
            log(near_pi)
    rots = _log_cases()
    rots[1234] = near_pi
    with pytest.raises(NearPiRotation, match="rotation 1234"):
        so3_log(rots)


def _forward(frame, error_def, mode):
    cfg = _scenario(frame, error_def, mode)
    sim = cli._simulate(cfg)
    fs = flt.FilterState(
        sim.variant, *cli._initial_state(cfg, sim.variant, sim.gen, sim.rng), 0.0
    )
    records, (nis,) = smo.run_forward(
        [fs], [sim.imu], [sim.fixes], DT, sim.noise, mode
    )
    return cfg, sim, records, nis


def _metrics(cfg, sim, records, smoothed, nis):
    as_ned = sim.variant.chart.as_ned
    tracks = [
        as_ned(mech.stack_states([e.nav for e in track]))
        for track in (records, smoothed)
    ]
    return cli._metrics([cfg], [sim], [records], [tracks], [nis])[0]


BACK_END_CASES = [
    ("NED", "RightEst", "se23"),
    ("ECEF", "LeftEst", "invariant"),
    ("NED_Aux", "LeftEst", "se23"),
]


# a block of 3 epochs splits the 10 records into four stacked solves
@pytest.mark.parametrize("block", [None, 3], ids=["one-block", "four-blocks"])
@pytest.mark.parametrize("frame, error_def, mode", BACK_END_CASES)
def test_back_end_matches_reference(frame, error_def, mode, block, monkeypatch):
    if block:
        monkeypatch.setattr(smo, "BLOCK", block)
    cfg, sim, records, nis = _forward(frame, error_def, mode)
    variant = sim.variant
    smoothed = smo.rts_smooth(variant, records)
    assert_same(smoothed, oracles.ref_rts_smooth(variant, records), "smoother")
    truth = variant.chart.states(sim.gen, [r.t for r in records])
    ref_nees = oracles.ref_nees(
        variant, [mech.state_at(truth, k) for k in range(len(records))],
        oracles.bias_states(sim.biases), DT, records,
    )
    metrics = _metrics(cfg, sim, records, smoothed, nis)
    assert_same(metrics["nees"], ref_nees, "nees")
    assert list(cli._cov_rows(records)) == oracles.ref_cov_rows(records)


@pytest.mark.parametrize("block", [None, 3], ids=["one-block", "four-blocks"])
def test_singular_covariance_raises_naming_its_epoch(block, monkeypatch):
    # a singular P, which the Cholesky check before the metrics refuses,
    # raises from the stacked NEES solve too, naming its own epoch whichever
    # block it is in, where its block used to fall back to a NaN NEES
    if block:
        monkeypatch.setattr(smo, "BLOCK", block)
    cfg, sim, records, nis = _forward("NED", "LeftEst", "se23")
    smoothed = smo.rts_smooth(sim.variant, records)
    records[4].p_post = np.zeros((15, 15))
    with pytest.raises(NotPSD, match=f"t={records[4].t} is singular"):
        _metrics(cfg, sim, records, smoothed, nis)


def test_cov_rows_match_reference_on_signed_zeros_and_extremes(monkeypatch):
    monkeypatch.setattr(smo, "BLOCK", 7)
    rng = np.random.default_rng(37)
    records = []
    for k in range(20):
        a = rng.normal(size=(15, 15)) * 10.0 ** rng.uniform(-300, 300, (15, 15))
        p = 0.5 * (a + a.T)
        zero = rng.random((15, 15)) < 0.2
        p[zero | zero.T] = 0.0
        p[:, 3] = p[3, :] = -0.0
        p[7, 2] = p[2, 7] = 5e-324
        p[1, 9] = p[9, 1] = np.inf
        records.append(smo.ForwardRecord(0.1 * k + 1e-17, None, None, p))
    assert list(cli._cov_rows(records)) == oracles.ref_cov_rows(records)


# ---------------------------------------------------------------------------
# the retraction path: group exponential and logarithm, stacked error states
# ---------------------------------------------------------------------------


def _tangent_cases():
    """20,000 tangent vectors with rotation angles from 1e-9 to 2.5 rad, a
    third of them on the small-angle series branch."""
    rng = np.random.default_rng(43)
    n = 20000
    axes = rng.normal(size=(n, 3))
    axes /= np.sqrt(np.sum(axes * axes, axis=1))[:, None]
    angles = 10.0 ** rng.uniform(-9.0, np.log10(2.5), n)
    angles[:50] = SMALL_ANGLE * (1.0 + rng.uniform(-1e-3, 1e-3, 50))
    rest = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return np.concatenate([angles[:, None] * axes, rest], axis=1)


def test_exp_and_log_se23_match_reference():
    cases = _tangent_cases()
    angles = np.sqrt(np.sum(cases[:, :3] ** 2, axis=1))
    assert (angles < SMALL_ANGLE).sum() >= 5000 and (angles > 1.0).sum() >= 500
    jinv = left_jacobian_inv(cases[:, :3])
    for k, xi in enumerate(cases):
        x, ref = exp_se23(xi), oracles.ref_exp_se23(xi)
        assert_same(x, ref, f"exp {k}")
        # the separate SO(3) exponential and left Jacobian round as exp_se23
        jac = oracles.left_jacobian(xi[:3])
        assert same_bits(x.R, so3_exp(xi[:3])), k
        assert same_bits(x.v, jac @ xi[3:6]) and same_bits(x.p, jac @ xi[6:9]), k
        assert same_bits(log_se23(x), oracles.ref_log_se23(x)), k
        ref_jinv = oracles.ref_left_jacobian_inv(xi[:3])
        assert same_bits(left_jacobian_inv(xi[:3]), ref_jinv), k
        assert same_bits(jinv[k], ref_jinv), k


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_exp_se23_gives_the_reference_nan():
    # np.sin(inf) is NaN where math.sin(inf) raises ValueError; the Python
    # float path must return the reference's NaN arrays, not raise
    for bad in (np.inf, -np.inf, np.nan):
        for slot in (0, 2, 4, 8):
            xi = np.linspace(0.1, 0.9, 9)
            xi[slot] = bad
            new, ref = exp_se23(xi), oracles.ref_exp_se23(xi)
            assert_same(new, ref, f"{bad} at {slot}")
            if slot < 3:
                assert np.all(np.isnan(new.R)) and np.all(np.isnan(new.v))
                assert same_bits(
                    left_jacobian_inv(xi[:3]), oracles.ref_left_jacobian_inv(xi[:3])
                )


def _error_epochs(variant, rng, n):
    """Stacked truth and estimates at n epochs of a circle: perturbations
    from 1 mrad down to none at all, so both logarithm branches run."""
    gen = TruthGenerator(
        TrajectorySpec("circle", ORIGIN, speed=15.0, radius=250.0, heading0=0.4)
    )
    times = np.sort(rng.uniform(0.0, 60.0, n))
    truth = variant.chart.states(gen, times)
    est = []
    for k in range(n):
        ned = oracles.state_ned(gen, times[k])
        scale = 10.0 ** -(k % 12)
        if k % 12 == 11:
            scale = 0.0
        ned = NavStateNED(
            ned.c_bn @ so3_exp(rng.normal(scale=1e-3 * scale, size=3)),
            ned.v_n + rng.normal(scale=0.1 * scale, size=3),
            ned.geo + rng.normal(scale=[1e-6 * scale, 1e-6 * scale, scale]),
        )
        est.append(_own_frame(variant, ned))
    biases = [BiasState(*rng.normal(scale=1e-3, size=(2, 3))) for _ in range(2 * n)]
    return truth, est, biases[:n], biases[n:]


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
def test_error_states_match_reference(variant):
    # the metrics' stacked error, against the verbatim per-epoch error
    rng = np.random.default_rng(47)
    truth, est, b_true, b_est = _error_epochs(variant, rng, 120)
    new = flt.error_state(
        variant, truth, mech.stack_states(b_true), mech.stack_states(est),
        mech.stack_states(b_est),
    )
    assert new.shape == (120, 15)
    for k in range(120):
        ref = oracles.ref_error_state(
            variant, mech.state_at(truth, k), b_true[k], est[k], b_est[k]
        )
        assert same_bits(new[k], ref), k


# ---------------------------------------------------------------------------
# a block's members as one stack past the forward pass: the exponential, the
# retraction, the update and the lockstep backward pass, each member against
# its own call
# ---------------------------------------------------------------------------


def assert_member(stacked, k, single, label):
    """Member k of a stacked state, record, report or group element (every
    array field indexed by k, every state field by ``state_at``) equals
    ``single`` bit for bit; times and variants compare as they are."""
    for name, x in vars(stacked).items():
        y = getattr(single, name)
        if hasattr(x, "__dict__") and not isinstance(x, Variant):
            x = mech.state_at(x, k)
        elif isinstance(x, np.ndarray):
            x = x[k]
        assert_same(x, y, f"{label}.{name}")


@st.composite
def tangents(draw):
    """A tangent 9-vector: its rotation part on the series branch below
    SMALL_ANGLE, exactly zero, or up to about 5 rad; sometimes the whole
    row is zero, and sometimes one entry is not finite."""
    scale = draw(st.sampled_from([3.0, 1.0, 1e-7, 1e-12, 0.0]))
    xi = np.concatenate(
        [scale * draw(triples(1.0)), draw(triples(100.0)), draw(triples(1e4))]
    )
    if draw(st.integers(0, 9)) == 0:
        xi[:] = 0.0
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        xi[draw(st.integers(0, 8))] = bad
    return xi


def same_bits_but_nan(a, b):
    """:func:`same_bits` of the entries that are not NaN, and NaN at the same
    places: a NaN's sign bit is not reproducible even between two single
    exp_se23 calls of one non-finite row (the first call of a process gave
    some NaN entries the other sign than the later ones), and no NaN
    reaches an output, since it stops the run."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(
        np.where(nan, 0.0, a), np.where(nan, 0.0, b)
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=300, deadline=None)
@given(rows=st.lists(tangents(), min_size=2, max_size=6))
def test_stacked_exp_se23_equals_its_single_calls(rows):
    stacked = exp_se23(np.array(rows))
    for k, xi in enumerate(rows):
        single = exp_se23(xi)
        for name in ("R", "v", "p"):
            a, b = getattr(stacked, name)[k], getattr(single, name)
            if np.isfinite(xi).all():
                assert same_bits(a, b), (k, name)
            else:
                assert same_bits_but_nan(a, b), (k, name)


def _outcome(call, *args):
    """call(*args), or the type of the error it raises."""
    try:
        return call(*args)
    except (LieseNavError, np.linalg.LinAlgError) as exc:
        return type(exc)


def assert_same_outcome(new, ref, label):
    """Equal results, NaN entries compared by place, or the same error."""
    if isinstance(new, type) or isinstance(ref, type):
        assert new is ref, label
    else:
        assert_same(new, ref, label, same_bits_but_nan)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
@settings(max_examples=25, deadline=None)
@given(
    case=ned_nominals(),
    xi=tangents(),
    seed=st.integers(0, 2**32 - 1),
    tau=st.sampled_from([(400.0, 900.0), (None, None)]),
)
def test_single_member_paths_match_reference(variant, case, xi, seed, tau):
    # one member's retraction, error state and one-step predict against the
    # per-call references: group errors on the series branch, exactly zero
    # or not finite, and both kinds of bias model
    truth, gyro, accel = case
    rng = np.random.default_rng(seed)
    nav = _own_frame(variant, truth)
    bias = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
    dx = np.concatenate([xi, rng.normal(scale=np.repeat([5e-4, 5e-3], 3))])
    out = _outcome(flt.apply_correction, variant, nav, bias, dx)
    ref = _outcome(oracles.ref_apply_correction, variant, nav, bias, dx)
    assert_same_outcome(out, ref, f"{variant.name} apply_correction")
    if not xi.any():
        # a zero group error keeps the state as it is, unprojected
        assert_same(out[0], nav, f"{variant.name} kept state")
    # the retracted state's error against the estimate; where the retraction
    # refused a non-finite rotation, the estimate's own (zero) error
    true_nav, true_bias = out if isinstance(out, tuple) else (nav, bias)
    b_est = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
    args = variant, true_nav, true_bias, nav, b_est
    assert_same_outcome(
        _outcome(flt.error_state, *args),
        _outcome(oracles.ref_error_state, *args),
        f"{variant.name} error_state",
    )
    scale = np.repeat([1e-3, 0.1, 1.0, 5e-4, 5e-3], 3)
    p = rng.normal(size=(15, 15)) * scale
    fs = flt.FilterState(variant, nav, bias, p @ p.T + np.diag(scale**2), 3.0)
    sample = oracles.ImuSample(3.0, gyro, accel)
    noise = ImuNoiseParams(1e-4, 1e-3, 1e-7, 1e-6, *tau)
    run = flt.RunConstants(variant, noise, DT)
    assert_same_outcome(
        _outcome(flt.predict, fs, one_row(sample), run),
        _outcome(oracles.ref_predict, fs, sample, DT, noise),
        f"{variant.name} predict",
    )


def _scaled_errors(rng, n, still):
    """n estimated errors of the filter's scales; the members in ``still``
    have a zero group error dx[:9]."""
    dx = np.repeat([1e-3, 0.1, 1.0, 5e-4, 5e-3], 3) * rng.standard_normal((n, 15))
    dx[still, :9] = 0.0
    return dx


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
@settings(max_examples=20, deadline=None)
@given(
    cases=st.lists(ned_nominals(), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_apply_correction_equals_member_calls(variant, cases, seed, data):
    # both charts, with and without an auxiliary velocity; members with a
    # zero group error keep their state, unprojected, as a single call does
    rng = np.random.default_rng(seed)
    navs = [_own_frame(variant, nav) for nav, _, _ in cases]
    biases = [BiasState(*rng.normal(scale=1e-3, size=(2, 3))) for _ in navs]
    still = data.draw(st.lists(st.booleans(), min_size=len(navs), max_size=len(navs)))
    dx = _scaled_errors(rng, len(navs), still)
    stacked = flt.apply_correction(
        variant, mech.stack_states(navs), mech.stack_states(biases), dx
    )
    for k, (nav, bias) in enumerate(zip(navs, biases)):
        single = flt.apply_correction(variant, nav, bias, dx[k])
        for x, y in zip(stacked, single):
            assert_row_equal(x, k, y, f"{variant.name} member {k}")


@pytest.mark.parametrize("variant", supported_variants(), ids=lambda v: v.name)
@settings(max_examples=15, deadline=None)
@given(
    cases=st.lists(ned_nominals(), min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    lever=st.sampled_from([np.array([0.4, -0.2, 1.1]), np.zeros(3)]),
)
def test_stacked_update_equals_member_updates(variant, cases, seed, lever):
    # nav, bias, P, NIS and the rest of the report, in every mode the
    # variant has; a zero lever arm makes exact zeros in H
    rng = np.random.default_rng(seed)
    scale = np.repeat([1e-3, 0.1, 1.0, 5e-4, 5e-3], 3)
    members, fixes = [], []
    for truth, _, _ in cases:
        est = _own_frame(variant, _perturbed_ned(truth, rng))
        p = rng.normal(size=(15, 15)) * scale
        bias = BiasState(*rng.normal(scale=1e-3, size=(2, 3)))
        members.append(
            flt.FilterState(variant, est, bias, p @ p.T + np.diag(scale**2), 3.0)
        )
        pos = earth.llh_to_ecef(*truth.geo) + rng.normal(scale=2.0, size=3)
        fixes.append(flt.GnssFix(3.0, pos, np.diag([1.5, 2.0, 3.0]), lever.copy()))
    stack, fix = flt.FilterState.stack(members), flt.GnssFix.stack(fixes)
    for mode in _modes(variant):
        out, report = flt.update(stack, fix, mode)
        assert report.nis.shape == (len(members),)
        for k, (fs, member_fix) in enumerate(zip(members, fixes)):
            label = f"{variant.name} {mode} member {k}"
            single, single_report = flt.update(fs, member_fix, mode)
            assert_member(out, k, single, label)
            assert_member(report, k, single_report, label)


def _block(frame, error_def, mode, n):
    """Start states, IMU streams and fix lists of n members (seeds 9, 10,
    ...) of one scenario, drawn as the Monte-Carlo runner draws them."""
    base = _scenario(frame, error_def, mode)
    draws = []
    for k in range(n):
        cfg = dataclasses.replace(base, seed=base.seed + k)
        sim = cli._simulate(cfg)
        draws.append((cli._start(cfg, sim), sim.imu, sim.fixes))
    return sim.variant, sim.noise, [list(x) for x in zip(*draws)]


# chunks of BLOCK (64) member-epochs hold the 9 epochs before the final
# one at once; chunks of 16 take 3 members five epochs at a time and 2
# members eight at a time, and chunks of 5 one and two epochs at a time, so
# they split the epochs unevenly; chunks of 1, fewer rows than members, take
# one epoch at a time
@pytest.mark.parametrize(
    "rows", [None, 16, 5, 1], ids=["BLOCK-rows", "16-rows", "5-rows", "1-row"]
)
@pytest.mark.parametrize(
    "frame, error_def, mode, n",
    [
        ("NED", "LeftEst", "se23", 3),
        ("NED", "RightEst", "se23", 2),
        ("NED_Aux", "RightTrue", "se23", 2),
        ("ECEF", "LeftEst", "invariant", 3),
        ("ECEF_Inertial", "RightEst", "se23", 2),
    ],
)
def test_lockstep_backward_pass_equals_member_passes(
    frame, error_def, mode, n, rows, monkeypatch
):
    variant, noise, (starts, imus, fixes) = _block(frame, error_def, mode, n)
    records, _ = smo.run_forward(starts, imus, fixes, DT, noise, mode)
    if rows:
        monkeypatch.setattr(smo, "BLOCK", rows)
    lockstep = smo.rts_smooth(variant, records)
    for k in range(n):
        member = oracles.member_records(records, k)
        own = smo.rts_smooth(variant, member)
        assert len(own) == len(lockstep) == len(member)
        for e, (stacked, single) in enumerate(zip(lockstep, own)):
            assert_member(stacked, k, single, f"{variant.name} member {k} epoch {e}")
