"""
Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and returns plain arrays plus the
files it wrote; the same seed gives byte-identical files. The sizes below
are the workload shapes the benchmark is defined on: changing one changes
what every recorded number means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ssmkit import dynamics, kinematics

# ik_path: targets per pass of the tool path, by class.
IK_COUNTS = {"generic": 1400, "tangent": 200, "singular": 200, "unreachable": 200}
# Generic targets keep theta2 this far from 0 and pi, where the two-axis
# solve is tangent on the reference build.
IK_GENERIC_MARGIN = 0.2
# Tool polar angle of the tilted (unreachable) targets, degrees. The
# reference band is 80..140 deg.
IK_TILT_POLAR_DEG = (15.0, 60.0)

# identify_log: a 200 Hz log of joints 1, 2 and 4.
RATE_HZ = 200.0
PLATEAU_S = 2.5
REST_S = 0.5
RAMP_SAMPLES = 20
CYCLES = 5
SPEEDS_PER_DIRECTION = 6
TEST_LOAD = 1.0
TORQUE_NOISE = 0.01  # relative, per sample
# Joint speeds (joint units per second) are spread over these ranges.
JOINT_SPEED_RANGE = {1: (math.radians(10.0), math.radians(60.0)),
                     2: (math.radians(10.0), math.radians(60.0)),
                     4: (0.002, 0.012)}

# design_io: workspace grid N x N, trajectory length, payload points.
WORKSPACE_N = 300
TRAJ_SAMPLES = 60_000
TRAJ_RATE_HZ = 1000.0
PAYLOAD_POINTS = 60_000
MEASURED_NOISE = 0.005  # share of the model torque range


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per workload, so workloads never share draws.
    Negative seeds map to distinct 64-bit values."""
    return np.random.default_rng([seed & (2**64 - 1), sum(map(ord, stream))])


# ---------------------------------------------------------------------------
# ik_path

@dataclass
class IkTarget:
    kind: str
    geom: kinematics.MechanismGeometry
    state: kinematics.JointState
    pose: object


def _rotate(axis, angle, m):
    """Rodrigues rotation applied to a 3x3 matrix (independent of ssmkit)."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    r = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return r @ m


def _theta4(rng):
    return float(rng.uniform(0.005, 0.05) * rng.choice([-1.0, 1.0]))


def ik_targets(seed: int, reference: kinematics.MechanismGeometry):
    """The tool path: target poses of every class, in a seeded order."""
    rng = rng_for(seed, "ik_path")
    singular_geom = kinematics.build_geometry(math.radians(60.0), math.radians(60.0))
    targets = []
    for kind, count in IK_COUNTS.items():
        for _ in range(count):
            t1, t3 = (float(a) for a in rng.uniform(-math.pi, math.pi, 2))
            t4 = _theta4(rng)
            geom = reference
            if kind == "tangent":
                t2 = 0.0
            elif kind == "singular":
                geom, t1, t2 = singular_geom, 0.0, math.pi
            else:
                t2 = float(rng.uniform(IK_GENERIC_MARGIN, math.pi - IK_GENERIC_MARGIN)
                           * rng.choice([-1.0, 1.0]))
            state = kinematics.JointState(t1, t2, t3, t4)
            pose = kinematics.forward_kinematics(geom, state)
            if kind == "unreachable":
                pose = _tilt_off_band(pose, geom, rng)
            targets.append(IkTarget(kind, geom, state, pose))
    order = rng.permutation(len(targets))
    return [targets[i] for i in order]


def _tilt_off_band(pose, geom, rng):
    """Rotate the tool axis towards the roll axis, outside the tilt band."""
    u = pose.rotation @ geom.v4
    polar = math.acos(max(-1.0, min(1.0, float(u @ geom.omega1))))
    goal = math.radians(rng.uniform(*IK_TILT_POLAR_DEG))
    axis = np.cross(u, geom.omega1)
    axis /= np.linalg.norm(axis)
    return type(pose)(_rotate(axis, polar - goal, pose.rotation), pose.position.copy())


# ---------------------------------------------------------------------------
# identify_log

def breakaway_torque(spec, params, load, s):
    """Motor torque at motion onset in direction s (static branch)."""
    lam = spec.lead_angle
    rho = math.atan(params.mu_s)
    eta_d = math.tan(lam) / math.tan(lam + rho)
    eta_o = max(0.0, math.tan(lam - rho) / math.tan(lam))
    reflected = load / (spec.ratio * eta_d) if load * s > 0 else load * eta_o / spec.ratio
    return params.b_c * s + reflected


def _speeds(rng, joint):
    lo, hi = JOINT_SPEED_RANGE[joint]
    base = np.linspace(lo, hi, SPEEDS_PER_DIRECTION)
    jitter = 0.25 * (hi - lo) / SPEEDS_PER_DIRECTION
    return base + rng.uniform(-jitter, jitter, SPEEDS_PER_DIRECTION)


def _ramp(a, b, n):
    """n samples strictly between a and b, evenly spaced."""
    return a + (b - a) * np.arange(1, n + 1) / (n + 1)


def _through_zero(a, b):
    """A reversal from a to b that never samples near zero velocity, so the
    breakaway scan sees no rest in it."""
    half = RAMP_SAMPLES // 2
    return np.concatenate([_ramp(a, 0.0, half), _ramp(0.0, b, half)])


def _back_to_back(rng, speeds, cycles):
    """Signed plateaus with no rest: +w, -w pairs in a seeded order per cycle,
    joined by ramps."""
    per = int(round(PLATEAU_S * RATE_HZ))
    levels = [s * w for _ in range(cycles)
              for w in speeds[rng.permutation(speeds.size)] for s in (1.0, -1.0)]
    parts = [np.full(per, levels[0])]
    for a, b in zip(levels, levels[1:]):
        parts += [_through_zero(a, b), np.full(per, b)]
    return np.concatenate(parts), []


def _with_rests(rng, speeds, cycles):
    """Per speed and cycle: rest, ramp up, +w plateau, reversal through one
    zero sample, -w plateau, ramp down.

    Only the rest-to-+w starts are onsets: the single zero sample of the
    reversal is shorter than any rest the breakaway scan accepts."""
    per = int(round(PLATEAU_S * RATE_HZ))
    rest = int(round(REST_S * RATE_HZ))
    half = RAMP_SAMPLES // 2
    parts, onsets, n = [], [], 0
    for _ in range(cycles):
        for w in speeds[rng.permutation(speeds.size)]:
            onsets.append(n + rest)
            block = np.concatenate([
                np.zeros(rest), _ramp(0.0, w, RAMP_SAMPLES), np.full(per, w),
                _ramp(w, 0.0, half), np.zeros(1), _ramp(0.0, -w, half),
                np.full(per, -w), _ramp(-w, 0.0, RAMP_SAMPLES),
            ])
            parts.append(block)
            n += block.size
    return np.concatenate(parts), onsets


@dataclass
class TelemetryInputs:
    csv: Path
    rows: int
    rows_per_joint: dict
    onsets: dict     # joint -> number of generated rest-to-motion onsets
    truth: dict      # joint -> FrictionParams the torque was generated with
    load: float


def telemetry(seed: int, drives: dict, path: Path, joints=(1, 2, 4),
              cycles: int = CYCLES) -> TelemetryInputs:
    """Write the telemetry CSV: joints 1 and 2 back-to-back, joint 4 with rests."""
    rng = rng_for(seed, f"identify_log/{cycles}")
    columns, onsets, truth, per_joint = [], {}, {}, {}
    for joint in joints:
        spec, params = drives[joint]
        speeds = _speeds(rng, joint)
        shape = _with_rests if joint == 4 else _back_to_back
        v, starts = shape(rng, speeds, cycles)
        t = np.arange(v.size) / RATE_HZ
        traj = dynamics.JointTrajectory(t, v)
        tau = dynamics.inverse_dynamics(spec, params, lambda _t: TEST_LOAD, traj).torque
        for i in starts:
            tau[i] = breakaway_torque(spec, params, TEST_LOAD, 1.0)
        tau = tau * (1.0 + TORQUE_NOISE * rng.standard_normal(tau.size))
        columns.append((t, np.full(v.size, joint), spec.ratio * v, tau))
        onsets[joint] = len(starts)
        truth[joint] = params
        per_joint[joint] = int(v.size)
    t, jid, w, tau = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((jid, t))
    data = np.column_stack([t[order], jid[order], w[order], tau[order]])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,joint_id,velocity,torque\n")
        np.savetxt(fh, data, fmt=["%.3f", "%d", "%.9g", "%.9g"], delimiter=",")
    return TelemetryInputs(path, int(data.shape[0]), per_joint, onsets, truth, TEST_LOAD)


# ---------------------------------------------------------------------------
# design_io

def motor_torque(spec, params, load, time, velocity):
    """Inverse-dynamics oracle: the documented torque model written out
    again with numpy alone, so the benchmark does not grade ssmkit against
    itself."""
    lam = spec.lead_angle

    def eff(mu, driving):
        rho = math.atan(mu)
        if driving:
            return math.tan(lam) / math.tan(lam + rho)
        return max(0.0, math.tan(lam - rho) / math.tan(lam))

    def reflect(sign, mu):
        return np.where(load * sign > 0.0, load / (spec.ratio * eff(mu, True)),
                        load * eff(mu, False) / spec.ratio)

    w = spec.ratio * velocity
    a = spec.ratio * np.gradient(velocity, time)
    inertial = spec.reflected_inertia * a
    kinetic = inertial + params.b_c * np.sign(w) + params.b_v * w + reflect(np.sign(w), params.mu_c)
    breakaway = inertial + params.b_c * np.sign(a) + reflect(np.sign(a), params.mu_s)
    leak = load * eff(params.mu_s, False) / spec.ratio
    holding = 0.0 if abs(leak) <= params.b_c else leak
    static = np.where(np.abs(a) > 1e-12, breakaway, holding)
    return np.where(np.abs(w) >= 1e-6, kinetic, static)


@dataclass
class DesignInputs:
    trajectory: Path
    measured: Path
    load: float
    vmax: float
    expected_nrmsd: float


def _write_trace(path, time, value):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,value\n")
        np.savetxt(fh, np.column_stack([time, value]), fmt="%.17g", delimiter=",")


def design(seed: int, drive, work: Path) -> DesignInputs:
    """Write the simulate inputs: a multi-sine joint-1 trajectory that
    reverses direction, and a measured torque trace made from the oracle
    model plus seeded noise."""
    rng = rng_for(seed, "design_io")
    spec, params = drive
    load = float(rng.uniform(0.5, 2.0))
    vmax = float(rng.uniform(100.0, 300.0))
    t = np.arange(TRAJ_SAMPLES) / TRAJ_RATE_HZ
    amp = rng.uniform(0.05, 0.4, 3)
    freq = rng.uniform(0.1, 1.5, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    v = (amp[:, None] * np.sin(2.0 * math.pi * freq[:, None] * t + phase[:, None])).sum(axis=0)
    model = motor_torque(spec, params, load, t, v)
    noise = MEASURED_NOISE * float(np.ptp(model)) * rng.standard_normal(t.size)
    measured = model + noise
    traj_path, meas_path = work / "trajectory.csv", work / "measured.csv"
    _write_trace(traj_path, t, v)
    _write_trace(meas_path, t, measured)
    expected = math.sqrt(float(np.mean(noise * noise))) / float(np.ptp(measured))
    return DesignInputs(traj_path, meas_path, load, vmax, expected)
