"""Scenario simulation: analytic truth trajectories, IMU and GNSS synthesis.

Trajectories are defined as exact analytic curves in the local tangent plane
of the origin, mapped rigidly to ECEF (closed curves therefore close
exactly). IMU measurements are obtained by inverse mechanization with exact
analytic derivatives, so integrating them through the strapdown equations
reproduces the truth up to integrator error.
"""

from dataclasses import dataclass

import numpy as np

from liese_nav import earth
from liese_nav.errors import ConfigError, NonMonotoneTime
from liese_nav.filter import GnssFix
from liese_nav.liegroup import matvec
from liese_nav.mechanization import (
    NavStateECEF,
    NavStateNED,
    ecef_to_ned_state,
    state_at,
)

TRAJECTORY_KINDS = ("stationary", "straight", "circle", "figure_eight")


@dataclass
class TrajectorySpec:
    kind: str
    origin: np.ndarray  # lat, lon, h
    speed: float = 0.0
    radius: float = 200.0
    heading0: float = 0.0
    amplitude: float = 300.0  # figure-eight half-width
    period: float = 60.0  # figure-eight period

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "circle" and (self.radius <= 0 or self.speed <= 0):
            raise ConfigError("circle requires positive speed and radius")


def _rot_z(psi):
    """Yaw rotations, (N, 3, 3), for an array of N angles."""
    c, s = np.cos(psi), np.sin(psi)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, -s, zero, s, c, zero, zero, zero, one], axis=-1).reshape(
        c.shape + (3, 3)
    )


class TruthGenerator:
    """Evaluates the analytic truth and synthesizes sensor streams.

    Every quantity is evaluated over an array of times in one pass; the
    single-time methods are the N = 1 case of the same code.
    """

    def __init__(self, spec: TrajectorySpec):
        self.spec = spec
        lat, lon, h = spec.origin
        earth.check_latitude(lat)
        self.r0_e = earth.llh_to_ecef(lat, lon, h)
        self.c_n0_e = earth.dcm_ecef_to_ned(lat, lon).T

    # -- tangent-plane kinematics ------------------------------------------

    def _plane(self, t):
        """Position, velocity, acceleration (NED plane; (N, 3) each) plus
        yaw (N,) and yaw rate at the times t (N,)."""
        s = self.spec
        t = np.asarray(t, dtype=float)
        zero = np.zeros_like(t)
        rest = np.zeros(t.shape + (3,))
        yaw0 = np.full(t.shape, s.heading0)
        if s.kind == "stationary":
            return rest, rest, rest, yaw0, 0.0
        if s.kind == "straight":
            u = s.speed * np.array([np.cos(s.heading0), np.sin(s.heading0), 0.0])
            return u * t[:, None], np.broadcast_to(u, rest.shape), rest, yaw0, 0.0
        if s.kind == "circle":
            omega = s.speed / s.radius
            psi = s.heading0 + omega * t
            p = (s.speed / omega) * np.stack(
                [
                    np.sin(psi) - np.sin(s.heading0),
                    -np.cos(psi) + np.cos(s.heading0),
                    zero,
                ],
                axis=-1,
            )
            u = s.speed * np.stack([np.cos(psi), np.sin(psi), zero], axis=-1)
            a = s.speed * omega * np.stack([-np.sin(psi), np.cos(psi), zero], axis=-1)
            return p, u, a, psi, omega
        # figure_eight: Gerono lemniscate, constant yaw
        w = 2.0 * np.pi / s.period
        amp = s.amplitude
        p = np.stack(
            [amp * np.sin(w * t), 0.5 * amp * np.sin(2.0 * w * t), zero], axis=-1
        )
        u = np.stack(
            [amp * w * np.cos(w * t), amp * w * np.cos(2.0 * w * t), zero], axis=-1
        )
        a = np.stack(
            [
                -amp * w * w * np.sin(w * t),
                -2.0 * amp * w * w * np.sin(2.0 * w * t),
                zero,
            ],
            axis=-1,
        )
        return p, u, a, yaw0, 0.0

    # -- earth-frame truth -------------------------------------------------

    def _kinematics(self, times):
        """Stacked ECEF truth, ECEF acceleration and yaw rate at the times."""
        p, u, a, psi, psi_dot = self._plane(times)
        state = NavStateECEF(
            self.c_n0_e @ _rot_z(psi),
            matvec(self.c_n0_e, u),
            self.r0_e + matvec(self.c_n0_e, p),
        )
        return state, matvec(self.c_n0_e, a), psi_dot

    def states_ecef(self, times) -> NavStateECEF:
        """ECEF truth at an array of N times: fields (N, 3, 3), (N, 3), (N, 3)."""
        return self._kinematics(times)[0]

    def states_ned(self, times) -> NavStateNED:
        """NED truth at an array of N times: fields (N, 3, 3), (N, 3), (N, 3)."""
        return ecef_to_ned_state(self.states_ecef(times))

    def state_ecef(self, t) -> NavStateECEF:
        return state_at(self.states_ecef([t]), 0)

    def imu_at(self, times):
        """Exact (gyro, accel), (N, 3) each, at the times by inverse
        mechanization."""
        state, a_e, psi_dot = self._kinematics(times)
        c_eb = np.swapaxes(state.c_be, -1, -2)
        w_ie = earth.W_IE_E
        gyro = np.array([0.0, 0.0, psi_dot]) + matvec(c_eb, w_ie)
        g_e = earth.gravity_e_array(state.r.T).T
        accel = matvec(c_eb, a_e + 2.0 * np.cross(w_ie, state.v) - g_e)
        return gyro, accel

    # -- sensor streams ----------------------------------------------------

    def synthesize_imu(self, duration, dt):
        """Noise-free IMU stream, one (n, 2, 3) array of (gyro, accel);
        sample k is valid over [k*dt, (k+1)*dt).

        Rates are evaluated at the interval midpoint, which keeps the
        piecewise-constant representation second-order accurate.
        """
        t = np.arange(int(round(duration / dt))) * dt
        return np.stack(self.imu_at(t + 0.5 * dt), axis=1)

    def sample_gnss(self, times, lever_arm_b, sigma_pos, rng):
        """GnssFix of each antenna position in ECEF with isotropic white noise."""
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise NonMonotoneTime("GNSS timestamps must be strictly increasing")
        s = self.states_ecef(times)
        noise = sigma_pos * rng.standard_normal((times.size, 3))
        pos = s.r + matvec(s.c_be, lever_arm_b) + noise
        var = sigma_pos**2
        return [GnssFix(t, p, var * np.eye(3), lever_arm_b) for t, p in zip(times, pos)]
