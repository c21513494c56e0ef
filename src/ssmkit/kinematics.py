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
from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    DomainError,
    NoSolutionError,
    UnreachableError,
)
from .screws import Pose, ensure_rotation, normalize_angle, rodrigues
from .subproblems import _rotation_angle, _two_axis_points, subproblem3prime

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

    def normalized(self) -> "JointState":
        return JointState(
            normalize_angle(self.theta1),
            normalize_angle(self.theta2),
            normalize_angle(self.theta3),
            self.theta4,
        )


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
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha}")
    if not 0.0 < beta < math.pi:
        raise DomainError(f"beta must lie in (0, pi), got {beta}")
    r0 = np.eye(3) if r0 is None else ensure_rotation(r0)
    omega1 = np.array([0.0, 0.0, 1.0])
    omega2 = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    ab = alpha + beta
    omega3 = np.array([math.sin(ab), 0.0, math.cos(ab)])
    return MechanismGeometry(alpha, beta, omega1, omega2, omega3, omega3.copy(), r0)


def probe_point_defaults(geom: MechanismGeometry):
    """
    Default probe points for the three-step IK reduction: p1 on the tool
    axis, p2 on the third joint axis, p3 off it. p3 = +y is exactly
    perpendicular to omega3 under the canonical axis placement.
    """
    if abs(math.sin(geom.beta)) < 1e-9:
        raise DegenerateGeometryError(
            "beta ~ 0 or pi puts the probe point on the second joint axis"
        )
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


def inverse_kinematics(geom: MechanismGeometry, target: Pose,
                       tol: float = _FIT_TOL) -> IkSolutionSet:
    """
    All closed-form joint-space branches reaching `target`, found by
    reducing the pose equation to one translation-to-distance solve
    (theta4), one two-axis rotation solve (theta1, theta2), and one
    single-axis rotation solve (theta3). Candidate branches are verified
    against forward kinematics and kept only when both the position and
    rotation errors fall below `tol`.
    """
    p1, p2, p3 = probe_point_defaults(geom)
    r1g = target.rotation @ geom.r0.T
    t1g = target.position

    # Translation along the tool axis, from the preserved distance between
    # the transformed probe point and the remote center.
    g1p1 = r1g @ p1 + t1g
    delta = math.sqrt(float(g1p1 @ g1p1))
    if delta <= 1e-12:
        theta4_candidates: tuple[float, ...] = (-1.0,)
    else:
        theta4_candidates = subproblem3prime(geom.v4, p1, np.zeros(3), delta).solutions

    tool_dir = r1g @ geom.v4
    ux, uy, uz = tool_dir
    w1x, w1y, w1z = geom.omega1
    cx = uy * w1z - uz * w1y
    cy = uz * w1x - ux * w1z
    cz = ux * w1y - uy * w1x
    singular = math.sqrt(cx * cx + cy * cy + cz * cz) <= SINGULARITY_TOL

    branches: list[JointState] = []
    residuals: list[tuple[float, float]] = []
    for theta4 in theta4_candidates:
        q2 = r1g @ (p2 - geom.v4 * theta4) + t1g
        if singular:
            try:
                pairs = [(0.0, _rotation_angle(geom.omega2, p2, q2, tol))]
            except (NoSolutionError, DegenerateInputError):
                continue
        else:
            pairs = []
            for c in _two_axis_points(geom.omega1, geom.omega2, p2, q2, tol):
                try:
                    pairs.append((_rotation_angle(geom.omega1, c, q2, tol),
                                  _rotation_angle(geom.omega2, p2, c, tol)))
                except (NoSolutionError, DegenerateInputError):
                    continue

        for theta1, theta2 in pairs:
            r1 = rodrigues(geom.omega1, theta1)
            r2 = rodrigues(geom.omega2, theta2)
            h3 = r1g @ (p3 - geom.v4 * theta4) + t1g
            q3 = r2.T @ (r1.T @ h3)
            try:
                theta3 = _rotation_angle(geom.omega3, p3, q3, tol)
            except (NoSolutionError, DegenerateInputError):
                continue

            r12 = r1 @ r2
            fk_rot = r12 @ rodrigues(geom.omega3, theta3) @ geom.r0
            fk_pos = r12 @ (geom.v4 * theta4)
            dp = fk_pos - target.position
            pos_err = math.sqrt(float(dp @ dp))
            dr = fk_rot - target.rotation
            rot_err = math.sqrt(float((dr * dr).sum()))
            if pos_err < tol and rot_err < tol:
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
        key=lambda i: (
            branches[i].theta4,
            branches[i].theta1,
            branches[i].theta2,
            branches[i].theta3,
        ),
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
    kv = configfile.read_kv(path)
    try:
        alpha = math.radians(configfile.parse_float(kv.pop("alpha_deg"), "alpha_deg"))
        beta = math.radians(configfile.parse_float(kv.pop("beta_deg"), "beta_deg"))
    except KeyError as exc:
        raise DomainError(f"mechanism config {path}: missing key {exc}") from None
    r0 = None
    if "r0" in kv:
        r0 = np.array(configfile.parse_floats(kv.pop("r0"), "r0", 9)).reshape(3, 3)
    if kv:
        raise DomainError(f"mechanism config {path}: unknown keys {sorted(kv)}")
    return build_geometry(alpha, beta, r0)
