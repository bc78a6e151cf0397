"""Earth model checks, mostly against finite-difference oracles."""

import numpy as np
import pytest

from liese_nav import earth
from liese_nav.errors import PoleSingularity

from oracles import ref_gravitation_n, ref_transport_rate_n


def _matrix(entries):
    """A 3x3 term from its entries row by row, as the F blocks read them."""
    return np.array(entries).reshape(3, 3)


def test_earth_rate_magnitude():
    # [TRIVIAL] exact rate constant
    assert earth.EARTH_RATE == 7.2921151467e-5
    assert np.linalg.norm(earth.earth_rate_n(0.7)) == pytest.approx(
        earth.EARTH_RATE, rel=1e-15
    )


def test_radii_derivatives_fd():
    # [DERIVED] analytic dR/dlat vs central differences
    for lat in (0.1, 0.7, 1.2):
        drm, drn = earth._radii_derivatives(np.sin(lat), np.cos(lat))
        eps = 1e-5
        rm_p, rn_p = earth.radii(lat + eps)
        rm_m, rn_m = earth.radii(lat - eps)
        assert drm == pytest.approx((rm_p - rm_m) / (2 * eps), rel=1e-6)
        assert drn == pytest.approx((rn_p - rn_m) / (2 * eps), rel=1e-6)


def test_somigliana_latitude_dependence():
    # [DERIVED] normal gravity grows monotonically from equator to pole
    lats = np.linspace(0.0, np.pi / 2 - 0.01, 30)
    gs = [earth.gravity_n(lat, 0.0)[2] for lat in lats]
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert gs[0] == pytest.approx(9.7803253359, abs=1e-9)


def test_free_air_height_gradient():
    # [DERIVED] dg/dh equals -2 g / (Rbar + h) for the implemented model
    lat, h = 0.6, 500.0
    rm, rn = earth.radii(lat)
    k = earth._gravity_gradient_down(earth.gravity_n(lat, h)[2], rm, rn, h)
    eps = 0.5
    g_p = earth.gravity_n(lat, h + eps)[2]
    g_m = earth.gravity_n(lat, h - eps)[2]
    assert (g_p - g_m) / (2 * eps) == pytest.approx(-k, rel=1e-9)
    assert k == pytest.approx(3.08e-6, rel=0.02)


def test_transport_rate_example():
    # [DERIVED] definition check at vN=vE=30 m/s
    lat, h = 0.7, 100.0
    rm, rn = earth.radii(lat)
    w = ref_transport_rate_n(lat, h, np.array([30.0, 30.0, 0.0]))
    assert w[0] == pytest.approx(30.0 / (rn + h), rel=1e-12)
    assert w[1] == pytest.approx(-30.0 / (rm + h), rel=1e-12)
    assert w[2] == pytest.approx(-30.0 * np.tan(lat) / (rn + h), rel=1e-12)


def test_m1_fd():
    # [DERIVED] M1 vs finite differences of omega_ie^n through latitude
    lat, h = 0.8, 200.0
    rm, _ = earth.radii(lat)
    m1 = _matrix(earth._m1_entries(np.sin(lat), np.cos(lat), rm, h))
    step_rn = 10.0  # meters north
    dlat = step_rn / (rm + h)
    fd = (earth.earth_rate_n(lat + dlat) - earth.earth_rate_n(lat - dlat)) / (
        2 * step_rn
    )
    assert np.allclose(m1[:, 0], fd, rtol=1e-6, atol=1e-18)
    assert np.allclose(m1[:, 1:], 0.0)


def test_m2_fd():
    lat, h = 0.8, 200.0
    vn = np.array([25.0, -40.0, 3.0])
    rm, rn = earth.radii(lat)
    m2 = _matrix(earth._m2_entries(np.tan(lat), rm, rn, h))
    for j in range(3):
        dv = np.zeros(3)
        dv[j] = 1e-3
        fd = (
            ref_transport_rate_n(lat, h, vn + dv)
            - ref_transport_rate_n(lat, h, vn - dv)
        ) / 2e-3
        assert np.allclose(m2[:, j], fd, rtol=1e-9, atol=1e-18)


def test_m3_fd():
    # [DERIVED] M3 vs finite differences through position at fixed velocity
    lat, h = 0.8, 200.0
    vn = np.array([25.0, -40.0, 3.0])
    rm, rn = earth.radii(lat)
    drm, drn = earth._radii_derivatives(np.sin(lat), np.cos(lat))
    m3 = _matrix(
        earth._m3_entries(np.tan(lat), np.cos(lat), rm, rn, drm, drn, h, vn)
    )

    def omega_en(dr):
        # dr = NED position displacement
        lat2 = lat + dr[0] / (rm + h)
        h2 = h - dr[2]
        return ref_transport_rate_n(lat2, h2, vn)

    for j in range(3):
        dr = np.zeros(3)
        dr[j] = 5.0
        fd = (omega_en(dr) - omega_en(-dr)) / 10.0
        assert np.allclose(m3[:, j], fd, rtol=1e-5, atol=1e-20)


def test_llh_ecef_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lat = rng.uniform(-1.4, 1.4)
        lon = rng.uniform(-np.pi, np.pi)
        h = rng.uniform(-100.0, 10000.0)
        r = earth.llh_to_ecef(lat, lon, h)
        lat2, lon2, h2 = earth.ecef_to_llh(r)
        assert abs(lat2 - lat) * 6.4e6 < 1e-6
        assert abs(lon2 - lon) < 1e-12
        assert abs(h2 - h) < 1e-6


def test_position_vector_consistency():
    # [DERIVED] own-frame position vector equals C_e^n times the ECEF vector
    lat, lon, h = 0.62, -1.1, 350.0
    r_e = earth.llh_to_ecef(lat, lon, h)
    r_n = earth.dcm_ecef_to_ned(lat, lon) @ r_e
    assert np.allclose(r_n, earth.position_vector_n(lat, h), atol=1e-8)
    assert r_n[1] == pytest.approx(0.0, abs=1e-8)


def test_gravity_ecef_points_down():
    lat, lon, h = 0.62, -1.1, 350.0
    r = earth.llh_to_ecef(lat, lon, h)
    g = earth.gravity_e(r)
    # gravity is within a few milliradians of -r_hat (ellipsoidal deflection)
    cosang = -g @ r / (np.linalg.norm(g) * np.linalg.norm(r))
    assert cosang > 0.99999
    # consistency with the NED model by construction
    g_n = earth.dcm_ecef_to_ned(lat, lon) @ g
    assert np.allclose(g_n, earth.gravity_n(lat, h), atol=1e-12)


def test_gravitation_relation():
    # [DERIVED] G = g + (omega x)^2 r in both frames
    lat, lon, h = 0.3, 0.4, 10.0
    r_e = earth.llh_to_ecef(lat, lon, h)
    big_g_e = earth.gravitation_e(r_e)
    big_g_n = ref_gravitation_n(lat, h)
    assert np.allclose(
        earth.dcm_ecef_to_ned(lat, lon) @ big_g_e, big_g_n, atol=1e-10
    )


def test_pole_singularity():
    with pytest.raises(PoleSingularity):
        earth.check_latitude(np.pi / 2 - 1e-8)
    with pytest.raises(PoleSingularity):
        earth.check_latitude(float("nan"))  # no latitude at all
    earth.check_latitude(np.pi / 2 - 1e-3)  # fine away from the guard band
