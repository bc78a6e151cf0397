"""Core algebra checks: series oracles, roundtrips, adjoint, sampling."""

import numpy as np
import pytest

from liese_nav.errors import NearPiRotation, NotPSD
from liese_nav.liegroup import (
    GroupElement,
    exp_se23,
    left_jacobian_inv,
    log_se23,
    skew,
    so3_log,
)

from oracles import adjoint, as_matrix, hat, left_jacobian, so3_exp


def _psd_sqrt(cov, tol=1e-10):
    """Symmetric square root of a PSD matrix; raises NotPSD otherwise."""
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    if eigvals.min() < -tol * scale:
        raise NotPSD(f"minimum eigenvalue {eigvals.min()} below tolerance")
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def sample_concentrated_gaussian(mean, cov, side, rng):
    """Draw from a concentrated Gaussian on SE_2(3).

    ``side='left'`` returns ``mean @ exp(hat(eps))`` and ``side='right'``
    returns ``exp(hat(eps)) @ mean`` with ``eps ~ N(0, cov)`` in R^9.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    eps = _psd_sqrt(cov) @ rng.standard_normal(9)
    perturbation = exp_se23(eps)
    if side == "left":
        return mean.compose(perturbation)
    return perturbation.compose(mean)


def random_xi(rng, scale=1.0):
    return rng.uniform(-scale, scale, 9)


def series_exp(mat, terms):
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for n in range(1, terms):
        term = term @ mat / n
        out = out + term
    return out


class TestSeriesOracles:
    def test_group_exp_matches_series(self):
        # [DERIVED] closed form vs sum_n hat(xi)^n / n! truncated at n=60
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = random_xi(rng, 2.0)
            closed = as_matrix(exp_se23(xi))
            summed = series_exp(hat(xi), 60)
            assert np.max(np.abs(closed - summed)) <= 1e-12

    def test_left_jacobian_matches_series(self):
        # [DERIVED] J(phi) = sum_n (phi x)^n / (n+1)! truncated at n=40
        rng = np.random.default_rng(2)
        for _ in range(50):
            phi = rng.uniform(-2.0, 2.0, 3)
            px = skew(phi)
            summed = np.zeros((3, 3))
            term = np.eye(3)
            fact = 1.0
            for n in range(40):
                fact *= n + 1
                summed = summed + term / fact
                term = term @ px
            assert np.max(np.abs(left_jacobian(phi) - summed)) <= 1e-12

    def test_left_jacobian_inverse_consistent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(-2.0, 2.0, 3)
            prod = left_jacobian(phi) @ left_jacobian_inv(phi)
            assert np.max(np.abs(prod - np.eye(3))) <= 1e-12

    def test_small_angle_branch_continuity(self):
        # values just below and above the switchover agree to double precision
        for mag in (0.5e-6, 0.99e-6, 1.01e-6, 2e-6):
            phi = np.array([0.6, -0.48, 0.64]) * mag
            exact_a = np.sin(mag) / mag
            rot = so3_exp(phi)
            assert np.allclose(rot, np.eye(3) + exact_a * skew(phi) + 0.5 * skew(phi) @ skew(phi), atol=1e-18)
            assert np.max(np.abs(left_jacobian(phi) @ left_jacobian_inv(phi) - np.eye(3))) < 1e-12


class TestRoundtrips:
    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            xi = random_xi(rng, 1.5)
            back = log_se23(exp_se23(xi))
            assert np.max(np.abs(back - xi)) <= 1e-10

    def test_log_exp_roundtrip_tiny(self):
        rng = np.random.default_rng(5)
        for scale in (1e-9, 1e-6, 1e-3):
            xi = random_xi(rng, scale)
            back = log_se23(exp_se23(xi))
            assert np.max(np.abs(back - xi)) <= 1e-10 * max(1.0, scale)

    def test_so3_log_near_pi_raises(self):
        axis = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NearPiRotation):
            so3_log(so3_exp(axis * (np.pi - 1e-7)))
        # outside the guard band the log still works
        phi = axis * (np.pi - 1e-3)
        assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)

    def test_compose_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = exp_se23(random_xi(rng))
            b = exp_se23(random_xi(rng))
            ab = a.compose(b)
            assert np.allclose(as_matrix(ab), as_matrix(a) @ as_matrix(b), atol=1e-12)
            ident = as_matrix(ab.compose(ab.inverse()))
            assert np.max(np.abs(ident - np.eye(5))) <= 1e-12


class TestAdjoint:
    def test_adjoint_conjugation(self):
        # [DERIVED] X exp(hat(xi)) X^-1 == exp(hat(Ad_X xi))
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = exp_se23(random_xi(rng, 1.0))
            xi = random_xi(rng, 0.5)
            lhs = as_matrix(x.compose(exp_se23(xi)).compose(x.inverse()))
            rhs = as_matrix(exp_se23(adjoint(x) @ xi))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestSampling:
    def test_rejects_indefinite_covariance(self):
        cov = np.eye(9)
        cov[0, 0] = -1.0
        with pytest.raises(NotPSD):
            sample_concentrated_gaussian(
                GroupElement(), cov, "left", np.random.default_rng(0)
            )

    def test_left_sample_statistics(self):
        # [DERIVED] Monte Carlo: log(mean^-1 X) should have covariance ~ P
        rng = np.random.default_rng(8)
        mean = exp_se23(random_xi(rng, 0.5))
        cov = np.diag(np.linspace(1e-4, 9e-4, 9))
        draws = np.array(
            [
                log_se23(mean.inverse().compose(
                    sample_concentrated_gaussian(mean, cov, "left", rng)
                ))
                for _ in range(4000)
            ]
        )
        sample_cov = np.cov(draws.T)
        assert np.max(np.abs(sample_cov - cov)) < 5e-5
        assert np.max(np.abs(draws.mean(axis=0))) < 2e-3

    def test_right_sample_statistics(self):
        rng = np.random.default_rng(9)
        mean = exp_se23(random_xi(rng, 0.5))
        cov = 4e-4 * np.eye(9)
        draws = np.array(
            [
                log_se23(
                    sample_concentrated_gaussian(mean, cov, "right", rng).compose(
                        mean.inverse()
                    )
                )
                for _ in range(4000)
            ]
        )
        sample_cov = np.cov(draws.T)
        assert np.max(np.abs(sample_cov - cov)) < 5e-5
