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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import configfile, csvfile
from .errors import (
    DegenerateRangeError,
    DomainError,
    MisalignedTracesError,
    TrajectoryOverflowError,
)

# Karnopp zero-velocity band at the motor shaft, rad/s.
STATIC_VELOCITY_BAND = 1e-6

_ACCEL_EPS = 1e-12
_TIME_TOL = 1e-8


class TransmissionKind(Enum):
    WORM_GEAR = "wormgear"
    LEAD_SCREW = "leadscrew"


class Direction(Enum):
    DRIVING = "driving"
    OVERHAULING = "overhauling"


@dataclass(frozen=True)
class FrictionParams:
    """Per-joint friction set: transmission mu_s/mu_c, bearing b_c/b_v."""

    mu_s: float  # static transmission friction, dimensionless
    mu_c: float  # Coulomb transmission friction, dimensionless
    b_c: float   # bearing Coulomb torque, N*m
    b_v: float   # bearing viscous coefficient, N*m*s/rad

    def __post_init__(self):
        for name in ("mu_s", "mu_c", "b_c", "b_v"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"{name} must be nonnegative")
        if self.mu_s < self.mu_c:
            raise DomainError("mu_s must be >= mu_c (breakaway >= sliding)")


@dataclass(frozen=True)
class TransmissionSpec:
    """Self-locking drive geometry as seen from the motor shaft."""

    kind: TransmissionKind
    ratio: float              # rad motor per rad/m joint
    lead_angle: float         # radians
    reflected_inertia: float  # kg*m^2 at the motor shaft

    def __post_init__(self):
        if not self.ratio > 0.0:
            raise DomainError("ratio must be positive")
        if not 0.0 < self.lead_angle < math.pi / 2.0:
            raise DomainError("lead_angle must lie in (0, pi/2)")
        if not self.reflected_inertia >= 0.0:
            raise DomainError("reflected_inertia must be nonnegative")


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
        t = np.asarray(self.time, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "velocity", v)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise DomainError("trajectory needs matching 1-d time/velocity arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("trajectory samples must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("trajectory time must be strictly increasing")
        if self.acceleration is not None:
            a = np.asarray(self.acceleration, dtype=float)
            if a.shape != t.shape or not np.all(np.isfinite(a)):
                raise DomainError("acceleration must match the time grid")
            object.__setattr__(self, "acceleration", a)

    def accelerations(self) -> np.ndarray:
        if self.acceleration is not None:
            return self.acceleration
        return np.gradient(self.velocity, self.time)


@dataclass(frozen=True, eq=False)
class TorqueTrace:
    """Motor-shaft torque samples on the trajectory time grid."""

    time: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time, dtype=float)
        tau = np.asarray(self.torque, dtype=float)
        if t.shape != tau.shape or t.ndim != 1:
            raise DomainError("trace needs matching 1-d time/torque arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(tau))):
            raise DomainError("torque trace samples must be finite")
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
    scalars (returns a float) and arrays alike.
    """
    eta_d = efficiency(spec.lead_angle, mu, Direction.DRIVING)
    eta_o = efficiency(spec.lead_angle, mu, Direction.OVERHAULING)
    driving = load * motion_sign > 0.0
    reflected = np.where(driving, load / (spec.ratio * eta_d), load * eta_o / spec.ratio)
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
            load = np.broadcast_to(np.asarray(load_torque_fn(t), dtype=float), t.shape)

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
    ready to overlay on a motor torque-speed limit curve.
    """
    grid = np.asarray(velocity_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("velocity grid must be a non-empty 1-d array")
    if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
        raise DomainError("velocity grid must be positive and ascending")
    reflected = reflect_load(spec, params.mu_c, load_torque, 1.0)
    torque = params.b_c + params.b_v * grid + reflected
    return np.column_stack([grid, torque])


def nrmsd(simulated: TorqueTrace, measured: TorqueTrace) -> float:
    """Root-mean-square deviation normalized by the measured range."""
    if simulated.time.shape != measured.time.shape or not np.allclose(
        simulated.time, measured.time, rtol=_TIME_TOL, atol=_TIME_TOL
    ):
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


_KIND_NAMES = {k.value: k for k in TransmissionKind}


def load_transmission_config(path):
    """
    Read a transmission/friction config with keys kind, ratio,
    lead_angle_deg, reflected_inertia, mu_s, mu_c, b_c, b_v. Returns
    (TransmissionSpec, FrictionParams). Unknown keys are rejected.
    """
    kv = configfile.read_kv(path)
    try:
        kind_raw = kv.pop("kind").lower()
        spec = TransmissionSpec(
            kind=_KIND_NAMES.get(kind_raw) or _bad_kind(path, kind_raw),
            ratio=configfile.parse_float(kv.pop("ratio"), "ratio"),
            lead_angle=math.radians(
                configfile.parse_float(kv.pop("lead_angle_deg"), "lead_angle_deg")
            ),
            reflected_inertia=configfile.parse_float(
                kv.pop("reflected_inertia"), "reflected_inertia"
            ),
        )
        params = FrictionParams(
            mu_s=configfile.parse_float(kv.pop("mu_s"), "mu_s"),
            mu_c=configfile.parse_float(kv.pop("mu_c"), "mu_c"),
            b_c=configfile.parse_float(kv.pop("b_c"), "b_c"),
            b_v=configfile.parse_float(kv.pop("b_v"), "b_v"),
        )
    except KeyError as exc:
        raise DomainError(f"transmission config {path}: missing key {exc}") from None
    if kv:
        raise DomainError(f"transmission config {path}: unknown keys {sorted(kv)}")
    return spec, params


def _bad_kind(path, raw):
    names = sorted(_KIND_NAMES)
    raise DomainError(f"transmission config {path}: kind must be one of {names}, got {raw!r}")


def save_transmission_config(path, spec: TransmissionSpec, params: FrictionParams,
                             comments=(),
                             precision: int = configfile.DEFAULT_PRECISION) -> None:
    """Write a config that load_transmission_config reads back unchanged."""
    ff = lambda x: configfile.format_float(x, precision)
    items = [
        ("kind", spec.kind.value),
        ("ratio", ff(spec.ratio)),
        ("lead_angle_deg", ff(math.degrees(spec.lead_angle))),
        ("reflected_inertia", ff(spec.reflected_inertia)),
        ("mu_s", ff(params.mu_s)),
        ("mu_c", ff(params.mu_c)),
        ("b_c", ff(params.b_c)),
        ("b_v", ff(params.b_v)),
    ]
    configfile.write_kv(path, items, comments)
