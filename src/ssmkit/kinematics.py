"""
Mechanism definition, forward kinematics, and closed-form inverse
kinematics of the 4-DoF RCM mechanism: three revolute joints whose axes
meet at the remote center plus a translation along the tool axis.

Canonical axis placement: omega1 is +z, omega2 lies in the xz-plane at
angle alpha from omega1, omega3 (= the tool direction v4) lies in the same
plane at angle beta from omega2, on the far side from omega1. Only the
relative angles are physical; the fixed frame makes configs portable and
tests deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import configfile
from .band import check_axis_angles
from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    NoSolutionError,
    UnreachableError,
)
from .screws import Pose, _rotation_rows, ensure_rotation, normalize_angle, rodrigues
from .subproblems import _rotation_angle, _two_axis_points

# Tool direction within this angle (radians) of the roll axis makes theta1
# indeterminate; the solver then pins theta1 = 0 and flags the result.
SINGULARITY_TOL = 1e-8

_FIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MechanismGeometry:
    """Joint axes and reference tool orientation of one mechanism build."""

    alpha: float
    beta: float
    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    v4: np.ndarray
    r0: np.ndarray


@dataclass(frozen=True)
class JointState:
    """Joint coordinates: three angles (radians) and one translation (m)."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float


@dataclass(frozen=True)
class IkSolutionSet:
    """All joint-space branches reproducing a target pose.

    residuals holds one (position error m, rotation Frobenius error) pair
    per branch; singular marks targets whose tool axis aligns with the
    roll axis, where theta1 was pinned to zero.
    """

    branches: tuple[JointState, ...]
    residuals: tuple[tuple[float, float], ...]
    singular: bool = False


def build_geometry(alpha: float, beta: float, r0=None) -> MechanismGeometry:
    """Construct the canonical geometry for axis angles alpha and beta."""
    check_axis_angles(alpha, beta)
    r0 = np.eye(3) if r0 is None else ensure_rotation(r0)
    omega1 = np.array([0.0, 0.0, 1.0])
    omega2 = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    ab = alpha + beta
    omega3 = np.array([math.sin(ab), 0.0, math.cos(ab)])
    return MechanismGeometry(alpha, beta, omega1, omega2, omega3, omega3.copy(), r0)


def _check_tool_axis(geom: MechanismGeometry) -> None:
    if abs(math.sin(geom.beta)) < 1e-9:
        raise DegenerateGeometryError(
            "beta ~ 0 or pi puts the tool axis on the second joint axis"
        )


def probe_point_defaults(geom: MechanismGeometry):
    """
    Default probe points of the probe-point IK reduction: p1 on the tool
    axis, p2 on the third joint axis, p3 off it. p3 = +y is exactly
    perpendicular to omega3 under the canonical axis placement.
    """
    _check_tool_axis(geom)
    return geom.v4.copy(), geom.v4.copy(), np.array([0.0, 1.0, 0.0])


def forward_kinematics(geom: MechanismGeometry, theta: JointState) -> Pose:
    """Tool pose for a joint state: rotations composed onto r0, position
    obtained by rotating the tool-axis translation with the first two
    joints only (spin about the tool axis does not move the tip)."""
    r1 = rodrigues(geom.omega1, theta.theta1)
    r2 = rodrigues(geom.omega2, theta.theta2)
    r3 = rodrigues(geom.omega3, theta.theta3)
    r12 = r1 @ r2
    return Pose(r12 @ r3 @ geom.r0, r12 @ (geom.v4 * theta.theta4))


def _matmul(a, b):
    """Product of two 3x3 matrices given as rows of floats."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return [
        (x * b00 + y * b10 + z * b20,
         x * b01 + y * b11 + z * b21,
         x * b02 + y * b12 + z * b22)
        for x, y, z in a
    ]


def inverse_kinematics(geom: MechanismGeometry, target: Pose) -> IkSolutionSet:
    """
    All closed-form joint-space branches reaching `target`. The spin about
    the tool axis leaves it in place, so the target fixes the tool axis
    u = R r0^T v4 = R1 R2 v4 and the tip p = u theta4: theta4 = p . u, one
    two-axis rotation solve takes v4 onto u (theta1, theta2), and theta3 is
    the angle of (R1 R2)^T R r0^T about omega3. Candidate branches are
    verified against forward kinematics and kept only when both the
    position and rotation errors fall below `_FIT_TOL`.
    Scalar arithmetic throughout: the target is read into floats once.
    """
    _check_tool_axis(geom)
    rot = target.rotation.tolist()
    px, py, pz = target.position.tolist()
    r0 = geom.r0.tolist()
    w1 = geom.omega1.tolist()
    w2 = geom.omega2.tolist()
    w3 = geom.omega3.tolist()
    v4 = geom.v4.tolist()

    # The target's tool axis u = R (r0^T v4) and its +y column yt = R (r0^T e_y).
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = r0
    vx, vy, vz = v4
    bx = a0 * vx + b0 * vy + c0 * vz
    by = a1 * vx + b1 * vy + c1 * vz
    bz = a2 * vx + b2 * vy + c2 * vz
    u = [rx * bx + ry * by + rz * bz for rx, ry, rz in rot]
    yt = [rx * b0 + ry * b1 + rz * b2 for rx, ry, rz in rot]
    ux, uy, uz = u
    theta4 = px * ux + py * uy + pz * uz

    w1x, w1y, w1z = w1
    cx = uy * w1z - uz * w1y
    cy = uz * w1x - ux * w1z
    cz = ux * w1y - uy * w1x
    singular = math.sqrt(cx * cx + cy * cy + cz * cz) <= SINGULARITY_TOL

    pairs = []
    if singular:
        try:
            pairs.append((0.0, _rotation_angle(w2, v4, u, _FIT_TOL)))
        except (NoSolutionError, DegenerateInputError):
            pass
    else:
        for c in _two_axis_points(w1, w2, v4, u, _FIT_TOL):
            try:
                pairs.append((_rotation_angle(w1, c, u, _FIT_TOL),
                              _rotation_angle(w2, v4, c, _FIT_TOL)))
            except (NoSolutionError, DegenerateInputError):
                continue

    tx, ty, tz = (x * theta4 for x in v4)
    yx, yy, yz = yt
    branches: list[JointState] = []
    residuals: list[tuple[float, float]] = []
    for theta1, theta2 in pairs:
        r12 = _matmul(_rotation_rows(w1, theta1), _rotation_rows(w2, theta2))
        (m0, m1, m2), (n0, n1, n2), (o0, o1, o2) = r12
        # +y column of (R1 R2)^T R r0^T, which is R3 e_y for the true theta3.
        q3 = (m0 * yx + n0 * yy + o0 * yz,
              m1 * yx + n1 * yy + o1 * yz,
              m2 * yx + n2 * yy + o2 * yz)
        try:
            theta3 = _rotation_angle(w3, (0.0, 1.0, 0.0), q3, _FIT_TOL)
        except (NoSolutionError, DegenerateInputError):
            continue

        dx = m0 * tx + m1 * ty + m2 * tz - px
        dy = n0 * tx + n1 * ty + n2 * tz - py
        dz = o0 * tx + o1 * ty + o2 * tz - pz
        pos_err = math.sqrt(dx * dx + dy * dy + dz * dz)
        rot_sq = 0.0
        for (f0, f1, f2), (g0, g1, g2) in zip(
            _matmul(_matmul(r12, _rotation_rows(w3, theta3)), r0), rot
        ):
            d0, d1, d2 = f0 - g0, f1 - g1, f2 - g2
            rot_sq += d0 * d0 + d1 * d1 + d2 * d2
        rot_err = math.sqrt(rot_sq)
        if pos_err < _FIT_TOL and rot_err < _FIT_TOL:
            branches.append(
                JointState(
                    normalize_angle(theta1),
                    normalize_angle(theta2),
                    normalize_angle(theta3),
                    theta4,
                )
            )
            residuals.append((pos_err, rot_err))

    if not branches:
        raise UnreachableError("no joint-space branch reproduces the target pose")

    order = sorted(
        range(len(branches)),
        key=lambda i: (branches[i].theta1, branches[i].theta2, branches[i].theta3),
    )
    return IkSolutionSet(
        tuple(branches[i] for i in order),
        tuple(residuals[i] for i in order),
        singular,
    )


def load_mechanism_config(path) -> MechanismGeometry:
    """
    Read a mechanism config: keys alpha_deg, beta_deg, and optionally r0
    (nine numbers, row-major reference orientation, default identity).
    """
    kv = configfile.read_config(path, "mechanism config", ("alpha_deg", "beta_deg"), ("r0",))
    alpha = math.radians(configfile.parse_float(kv["alpha_deg"], "alpha_deg"))
    beta = math.radians(configfile.parse_float(kv["beta_deg"], "beta_deg"))
    r0 = None
    if "r0" in kv:
        r0 = np.array(configfile.parse_floats(kv["r0"], "r0", 9)).reshape(3, 3)
    return build_geometry(alpha, beta, r0)
