"""
Actuator-reflected inverse dynamics for joints driven by self-locking
transmissions (worm gears, lead screws), where friction dominates the
torque budget.

Model and sign conventions
--------------------------
All torques are expressed at the motor shaft; motor velocity is
``ratio * joint velocity`` (the ratio is rad of motor per rad, or per
meter, of joint travel). ``load`` is the torque the joint must exert on
the mechanism output, positive along the positive joint direction.

Per sample the motor torque is::

    tau = J * a_m + b_c * sign(w_m) + b_v * w_m + reflected_load

with J the reflected inertia, (b_c, b_v) the bearing Coulomb and viscous
coefficients, and the load reflected directionally through the classical
inclined-plane transmission efficiency with friction angle atan(mu):

- driving  (load opposes motion):  load / (ratio * eta),
  eta  = tan(lam) / tan(lam + atan(mu)),
- overhauling (load assists motion): load * eta' / ratio,
  eta' = tan(lam - atan(mu)) / tan(lam), clamped to 0 once
  lam <= atan(mu) (self-locking: nothing reaches the motor).

Inside a Karnopp zero-velocity band (|w_m| < 1e-6 rad/s) the static
coefficient mu_s replaces mu_c in the reflection. With no commanded
acceleration the output is the torque leaking through the transmission
(zero for a self-locking drive), set to exactly zero whenever the bearing
Coulomb level b_c can hold it; with commanded acceleration the output is
the breakaway torque for the impending direction.

The drive records (`TransmissionSpec`, `FrictionParams`) and their config
file live in the numpy-free `transmission` module; this module re-exports
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import configfile, csvfile
from ._inputs import floats, real
from .errors import (
    DegenerateRangeError,
    DomainError,
    MisalignedTracesError,
    TrajectoryOverflowError,
)
from .transmission import (  # noqa: F401 (re-exported)
    FrictionParams,
    TransmissionKind,
    TransmissionSpec,
    load_transmission_config,
    save_transmission_config,
)

# Karnopp zero-velocity band at the motor shaft, rad/s.
STATIC_VELOCITY_BAND = 1e-6

_ACCEL_EPS = 1e-12
_TIME_TOL = 1e-8


class Direction(Enum):
    DRIVING = "driving"
    OVERHAULING = "overhauling"


def is_self_locking(spec: TransmissionSpec, params: FrictionParams) -> bool:
    """True when static friction prevents back-driving from the load side."""
    return spec.lead_angle <= math.atan(params.mu_s)


@dataclass(frozen=True, eq=False)
class JointTrajectory:
    """Sampled joint motion; acceleration is differentiated when absent."""

    time: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray | None = None

    def __post_init__(self):
        t = floats("trajectory time", self.time, (None,))
        v = floats("trajectory velocity", self.velocity, (None,))
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "velocity", v)
        if t.shape != v.shape or t.size < 2:
            raise DomainError("trajectory needs matching 1-d time/velocity arrays")
        # Compared, not differenced: a span past the float range overflows.
        if np.any(t[1:] <= t[:-1]):
            raise DomainError("trajectory time must be strictly increasing")
        if self.acceleration is not None:
            a = floats("trajectory acceleration", self.acceleration, (None,))
            if a.shape != t.shape:
                raise DomainError("acceleration must match the time grid")
            object.__setattr__(self, "acceleration", a)

    def accelerations(self) -> np.ndarray:
        if self.acceleration is not None:
            return self.acceleration
        # Without warnings: a time step past the float range is inf, which
        # leaves a slope of 0, or NaN beside a finite step.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.gradient(self.velocity, self.time)


@dataclass(frozen=True, eq=False)
class TorqueTrace:
    """Motor-shaft torque samples on the trajectory time grid."""

    time: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        t = floats("trace time", self.time, (None,))
        tau = floats("trace torque", self.torque, (None,))
        if t.shape != tau.shape:
            raise DomainError("trace needs matching 1-d time/torque arrays")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "torque", tau)


def efficiency(lead_angle: float, mu: float, direction: Direction) -> float:
    """Inclined-plane transmission efficiency for friction coefficient mu."""
    rho = math.atan(mu)
    if direction is Direction.DRIVING:
        if lead_angle + rho >= math.pi / 2.0:
            raise DomainError("lead angle plus friction angle reaches 90 deg")
        return math.tan(lead_angle) / math.tan(lead_angle + rho)
    return max(0.0, math.tan(lead_angle - rho) / math.tan(lead_angle))


def reflect_load(spec: TransmissionSpec, mu: float, load, motion_sign):
    """
    Joint-side load reflected onto the motor shaft through friction mu:
    driving where load * motion_sign > 0, overhauling elsewhere. Serves
    scalars (returns a float) and arrays alike, without numpy warnings: a
    reflection past the float range is inf.
    """
    eta_d = efficiency(spec.lead_angle, mu, Direction.DRIVING)
    eta_o = efficiency(spec.lead_angle, mu, Direction.OVERHAULING)
    driving = load * motion_sign > 0.0
    # np.divide, not `/`: for a scalar load, Python float division by a
    # ratio * eta_d that underflowed to 0 raises, even where np.where drops it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reflected = np.where(driving, np.divide(load, spec.ratio * eta_d),
                             load * eta_o / spec.ratio)
    return reflected if reflected.ndim else float(reflected)


def inverse_dynamics(spec: TransmissionSpec, params: FrictionParams,
                     load_torque_fn, traj: JointTrajectory) -> TorqueTrace:
    """
    Motor torque trace for a joint trajectory under a time-dependent load.

    load_torque_fn maps the trajectory time array (or a scalar time) to the
    joint-side load torque; pass ``None`` for an unloaded motion. Raises
    TrajectoryOverflowError, without numpy warnings, when huge finite
    samples overflow the motor velocity, acceleration or torque.
    """
    t = traj.time
    with np.errstate(over="ignore", invalid="ignore"):
        w_m = spec.ratio * traj.velocity
        a_m = spec.ratio * traj.accelerations()
        if load_torque_fn is None:
            load = np.zeros_like(t)
        else:
            load = floats("load torque", load_torque_fn(t))
            if load.shape not in ((), t.shape):
                raise DomainError(f"load torque: expected {t.size} values, got shape {load.shape}")
            load = np.broadcast_to(load, t.shape)

        inertial = spec.reflected_inertia * a_m

        sign_w = np.sign(w_m)
        kinetic = (
            inertial
            + params.b_c * sign_w
            + params.b_v * w_m
            + reflect_load(spec, params.mu_c, load, sign_w)
        )

        sign_a = np.sign(a_m)
        breakaway = (
            inertial
            + params.b_c * sign_a
            + reflect_load(spec, params.mu_s, load, sign_a)
        )
        # A zero motion sign takes the overhauling branch: the load back-drives.
        leak = reflect_load(spec, params.mu_s, load, 0.0)
        holding = np.where(np.abs(leak) <= params.b_c, 0.0, leak)
        static = np.where(np.abs(a_m) > _ACCEL_EPS, breakaway, holding)

        torque = np.where(np.abs(w_m) >= STATIC_VELOCITY_BAND, kinetic, static)
    if not (np.isfinite(w_m).all() and np.isfinite(a_m).all() and np.isfinite(torque).all()):
        raise TrajectoryOverflowError(
            "motor velocity, acceleration or torque of the trajectory overflows"
        )
    return TorqueTrace(t, torque)


def payload_curve(spec: TransmissionSpec, params: FrictionParams,
                  load_torque: float, velocity_grid) -> np.ndarray:
    """
    Steady-state motor torque demand over a grid of motor velocities
    (positive, ascending), as an (n, 2) array of (velocity, torque) rows
    ready to overlay on a motor torque-speed limit curve. Raises
    DomainError, without numpy warnings, when a torque overflows.
    """
    grid = floats("velocity grid", velocity_grid, (None,))
    if grid.size == 0:
        raise DomainError("velocity grid must be a non-empty 1-d array")
    if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
        raise DomainError("velocity grid must be positive and ascending")
    with np.errstate(over="ignore", invalid="ignore"):
        reflected = reflect_load(spec, params.mu_c, real("load_torque", load_torque), 1.0)
        torque = params.b_c + params.b_v * grid + reflected
    if not np.isfinite(torque).all():
        raise DomainError("motor torque of the payload curve overflows")
    return np.column_stack([grid, torque])


def nrmsd(simulated: TorqueTrace, measured: TorqueTrace) -> float:
    """Root-mean-square deviation normalized by the measured range."""
    # Times a span past the float range apart differ by inf: not close.
    with np.errstate(over="ignore"):
        aligned = simulated.time.shape == measured.time.shape and np.allclose(
            simulated.time, measured.time, rtol=_TIME_TOL, atol=_TIME_TOL)
    if not aligned:
        raise MisalignedTracesError("traces do not share a time grid")
    spread = float(measured.torque.max()) - float(measured.torque.min())
    if not math.isfinite(spread):
        raise DomainError("measured torque range is not finite")
    if spread < 1e-12:
        raise DegenerateRangeError("measured torque range is numerically zero")
    value = _range_rms(simulated.torque, measured.torque, spread)
    if not math.isfinite(value):
        raise DomainError("nrmsd exceeds the float range")
    return value


def _range_rms(predicted: np.ndarray, observed: np.ndarray, spread: float) -> float:
    """
    rms(predicted - observed) / spread, the formula of `nrmsd`, without
    numpy warnings. When the squares overflow, both arrays are scaled into
    [-1, 1] first; inf only when the result itself exceeds the float range.
    """
    with np.errstate(over="ignore"):
        diff = predicted - observed
        value = float(math.sqrt(np.mean(diff * diff)) / spread)
    if not math.isfinite(value):
        scale = max(float(np.max(np.abs(predicted))), float(np.max(np.abs(observed))))
        diff = predicted / scale - observed / scale
        value = math.sqrt(np.mean(diff * diff)) * (scale / spread)
    return value


# ---------------------------------------------------------------------------
# file formats owned by this module

def read_trace_csv(path):
    """Read a `time_s,value` CSV into (time, value) arrays."""
    data = csvfile.read_numeric_csv(path, ("time_s", "value"), DomainError, "trace")
    return data[:, 0], data[:, 1]


def write_trace_csv(path, time, value,
                    precision: int = configfile.DEFAULT_PRECISION) -> None:
    """Write (time, value) arrays as a `time_s,value` CSV."""
    csvfile.write_numeric_csv(path, ("time_s", "value"),
                              np.column_stack([time, value]), precision)


def read_trajectory_csv(path) -> JointTrajectory:
    """Read a velocity trace CSV as a joint trajectory."""
    t, v = read_trace_csv(path)
    return JointTrajectory(t, v)
