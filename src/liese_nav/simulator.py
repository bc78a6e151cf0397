"""Scenario simulation: analytic truth trajectories, IMU and GNSS synthesis.

Trajectories are defined as exact analytic curves in the local tangent plane
of the origin, mapped rigidly to ECEF (closed curves therefore close
exactly). IMU measurements are obtained by inverse mechanization with exact
analytic derivatives, so integrating them through the strapdown equations
reproduces the truth up to integrator error.
"""

from dataclasses import dataclass, field

import numpy as np

from liese_nav import earth
from liese_nav.errors import ConfigError, NonMonotoneTime
from liese_nav.liegroup import cross
from liese_nav.mechanization import ImuSample, NavStateECEF, ecef_to_ned_state

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
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TruthGenerator:
    """Evaluates the analytic truth and synthesizes sensor streams."""

    def __init__(self, spec: TrajectorySpec):
        self.spec = spec
        lat, lon, h = spec.origin
        earth.check_latitude(lat)
        self.r0_e = earth.llh_to_ecef(lat, lon, h)
        self.c_n0_e = earth.dcm_ecef_to_ned(lat, lon).T

    # -- tangent-plane kinematics ------------------------------------------

    def _plane(self, t):
        """Position, velocity, acceleration (NED plane) plus yaw, yaw rate."""
        s = self.spec
        if s.kind == "stationary":
            z = np.zeros(3)
            return z, z, z, s.heading0, 0.0
        if s.kind == "straight":
            u = s.speed * np.array([np.cos(s.heading0), np.sin(s.heading0), 0.0])
            return u * t, u, np.zeros(3), s.heading0, 0.0
        if s.kind == "circle":
            omega = s.speed / s.radius
            psi = s.heading0 + omega * t
            p = (s.speed / omega) * np.array(
                [
                    np.sin(psi) - np.sin(s.heading0),
                    -np.cos(psi) + np.cos(s.heading0),
                    0.0,
                ]
            )
            u = s.speed * np.array([np.cos(psi), np.sin(psi), 0.0])
            a = s.speed * omega * np.array([-np.sin(psi), np.cos(psi), 0.0])
            return p, u, a, psi, omega
        # figure_eight: Gerono lemniscate, constant yaw
        w = 2.0 * np.pi / s.period
        amp = s.amplitude
        p = np.array([amp * np.sin(w * t), 0.5 * amp * np.sin(2.0 * w * t), 0.0])
        u = np.array(
            [amp * w * np.cos(w * t), amp * w * np.cos(2.0 * w * t), 0.0]
        )
        a = np.array(
            [
                -amp * w * w * np.sin(w * t),
                -2.0 * amp * w * w * np.sin(2.0 * w * t),
                0.0,
            ]
        )
        return p, u, a, s.heading0, 0.0

    # -- earth-frame truth -------------------------------------------------

    def state_ecef(self, t) -> NavStateECEF:
        p, u, _, psi, _ = self._plane(t)
        return NavStateECEF(
            self.c_n0_e @ _rot_z(psi),
            self.c_n0_e @ u,
            self.r0_e + self.c_n0_e @ p,
        )

    def state_ned(self, t):
        return ecef_to_ned_state(self.state_ecef(t))

    def imu_instantaneous(self, t):
        """Exact (gyro, accel) at time t by inverse mechanization."""
        p, u, a, psi, psi_dot = self._plane(t)
        c_be = self.c_n0_e @ _rot_z(psi)
        r_e = self.r0_e + self.c_n0_e @ p
        v_e = self.c_n0_e @ u
        a_e = self.c_n0_e @ a
        w_ie = earth.earth_rate_e()
        gyro = np.array([0.0, 0.0, psi_dot]) + c_be.T @ w_ie
        accel = c_be.T @ (a_e + 2.0 * cross(w_ie, v_e) - earth.gravity_e(r_e))
        return gyro, accel

    # -- sensor streams ----------------------------------------------------

    def synthesize_imu(self, duration, dt):
        """Noise-free IMU stream; sample k is valid over [k*dt, (k+1)*dt).

        Rates are evaluated at the interval midpoint, which keeps the
        piecewise-constant representation second-order accurate.
        """
        n = int(round(duration / dt))
        samples = []
        for k in range(n):
            t = k * dt
            gyro, accel = self.imu_instantaneous(t + 0.5 * dt)
            samples.append(ImuSample(t, gyro, accel))
        return samples

    def sample_gnss(self, times, lever_arm_b, sigma_pos, rng):
        """GNSS antenna positions in ECEF with isotropic white noise."""
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise NonMonotoneTime("GNSS timestamps must be strictly increasing")
        fixes = []
        for t in times:
            s = self.state_ecef(t)
            pos = s.r + s.c_be @ lever_arm_b + sigma_pos * rng.standard_normal(3)
            fixes.append((t, pos, sigma_pos**2 * np.eye(3)))
        return fixes
