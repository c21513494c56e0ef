"""
Mechanism definition, forward kinematics, and closed-form inverse
kinematics of the 4-DoF RCM mechanism: three revolute joints whose axes
meet at the remote center plus a translation along the tool axis.

Canonical axis placement: omega1 is +z, omega2 lies in the xz-plane at
angle alpha from omega1, omega3 (= the tool direction v4) lies in the same
plane at angle beta from omega2, on the far side from omega1. Only the
relative angles are physical; the fixed frame makes configs portable and
tests deterministic.

Inverse kinematics reads what depends only on the geometry from
constants each `MechanismGeometry` computes once, at construction: the
axes, v4 and r0 as float tuples, r0^T v4 and r0^T e_y, the
geometry-only terms of the two-axis solve, and the fixed-point terms of
the theta2 and theta3 angle solves. The geometry keeps read-only float
copies of its arrays, so these constants cannot go stale; a changed
build is a new geometry (`build_geometry` or `dataclasses.replace`).

Forward kinematics is scalar too: it multiplies out the same axis, v4
and r0 tuples in a fixed summation order and builds numpy arrays only for
the returned pose, so its bits do not depend on the host's BLAS.
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
    DomainError,
    NoSolutionError,
    UnreachableError,
)
from .screws import Pose, _axis_norm, _rotation_rows, ensure_rotation, normalize_angle
from .subproblems import (
    _rotation_angle,
    _rotation_angle_to,
    _rotation_axis_terms,
    _two_axis_points_to,
    _two_axis_terms,
)

# Tool direction within this angle (radians) of the roll axis makes theta1
# indeterminate; the solver then pins theta1 = 0 and flags the result.
SINGULARITY_TOL = 1e-8

_FIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MechanismGeometry:
    """Joint axes and reference tool orientation of one mechanism build.

    The five arrays are kept as read-only float copies (the caller's arrays
    stay as they were), and the constants `inverse_kinematics` needs are
    computed from them here, once.
    """

    alpha: float
    beta: float
    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    v4: np.ndarray
    r0: np.ndarray

    def __post_init__(self):
        for name in ("omega1", "omega2", "omega3", "v4", "r0"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_ik", _IkConstants(self))


class _IkConstants:
    """What `inverse_kinematics` needs of a geometry, computed once: the
    axes, v4 and the rows of r0 as float tuples, r0^T v4 and r0^T e_y, the
    geometry-only terms of the two-axis solve (v4 onto the target axis about
    omega1, omega2), the fixed-point terms of the theta2 solve (v4 about
    omega2) and of the theta3 solve (e_y about omega3), and whether beta
    puts the tool axis on the second joint axis. `forward_kinematics` reads
    the same tuples, and `axis_error` is the message of `rodrigues`' unit
    check for the first joint axis that fails it (None if none does),
    which FK raises as DomainError at call time."""

    __slots__ = ("w1", "w2", "w3", "v4", "r0", "r0v4", "r0ey",
                 "two_axis", "theta2", "theta3", "degenerate", "axis_error")

    def __init__(self, geom: MechanismGeometry):
        self.w1 = w1 = tuple(geom.omega1.tolist())
        self.w2 = w2 = tuple(geom.omega2.tolist())
        self.w3 = w3 = tuple(geom.omega3.tolist())
        self.v4 = v4 = tuple(geom.v4.tolist())
        self.r0 = r0 = tuple(tuple(row) for row in geom.r0.tolist())
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = r0
        vx, vy, vz = v4
        self.r0v4 = (a0 * vx + b0 * vy + c0 * vz,
                     a1 * vx + b1 * vy + c1 * vz,
                     a2 * vx + b2 * vy + c2 * vz)
        self.r0ey = (b0, b1, b2)
        self.two_axis = _two_axis_terms(w1, w2, v4)
        self.theta2 = _rotation_axis_terms(w2, v4)
        self.theta3 = _rotation_axis_terms(w3, (0.0, 1.0, 0.0))
        self.degenerate = abs(math.sin(geom.beta)) < 1e-9
        self.axis_error = None
        try:
            for w in (w1, w2, w3):
                _axis_norm(w)
        except DomainError as exc:
            self.axis_error = str(exc)


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
    if geom._ik.degenerate:
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


def _matmul_rows(a, b):
    """Product of two 3x3 matrices given as row tuples of floats; entry
    (i, j) is a[i][0] b[0][j] + a[i][1] b[1][j] + a[i][2] b[2][j], summed
    left to right."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20,
         a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20,
         a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20,
         a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
    )


def forward_kinematics(geom: MechanismGeometry, theta: JointState) -> Pose:
    """Tool pose for a joint state: R1 R2 R3 r0, and the tip R1 R2 (v4
    theta4), obtained by rotating the tool-axis translation with the first
    two joints only (spin about the tool axis does not move the tip).
    Scalar float arithmetic on the axis, v4 and r0 tuples the geometry keeps
    for IK, with each 3x3 product summed in a fixed order, so the bits do not
    depend on the host's BLAS; the two arrays are built at the end. A joint
    axis off unit norm, or a non-finite joint value, raises DomainError."""
    k = geom._ik
    if k.axis_error is not None:
        raise DomainError(k.axis_error)
    t1, t2, t3, t4 = theta.theta1, theta.theta2, theta.theta3, theta.theta4
    if not (math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(t3) and math.isfinite(t4)):
        for name, value in zip(("theta1", "theta2", "theta3", "theta4"), (t1, t2, t3, t4)):
            if not math.isfinite(value):
                raise DomainError(f"{name}: expected a finite number, got {value}")
    r12 = _matmul_rows(_rotation_rows(k.w1, t1), _rotation_rows(k.w2, t2))
    rot = _matmul_rows(_matmul_rows(r12, _rotation_rows(k.w3, t3)), k.r0)
    (m0, m1, m2), (n0, n1, n2), (o0, o1, o2) = r12
    vx, vy, vz = k.v4
    tx, ty, tz = vx * t4, vy * t4, vz * t4
    return Pose(np.array(rot), np.array((m0 * tx + m1 * ty + m2 * tz,
                                         n0 * tx + n1 * ty + n2 * tz,
                                         o0 * tx + o1 * ty + o2 * tz)))


def inverse_kinematics(geom: MechanismGeometry, target: Pose) -> IkSolutionSet:
    """
    All closed-form joint-space branches reaching `target`. The spin about
    the tool axis leaves it in place, so the target fixes the tool axis
    u = R r0^T v4 = R1 R2 v4 and the tip p = u theta4: theta4 = p . u, one
    two-axis rotation solve takes v4 onto u (theta1, theta2), and theta3 is
    the angle of (R1 R2)^T R r0^T about omega3. Candidate branches are
    verified against forward kinematics and kept only when both the
    position and rotation errors fall below `_FIT_TOL`.
    Scalar arithmetic throughout: the target is read into floats once, and
    the geometry-only terms (r0^T v4, r0^T e_y, the axis terms of the
    two-axis solve and of the theta2 and theta3 solves) come from the
    constants the read-only geometry computed at construction.
    """
    _check_tool_axis(geom)
    k = geom._ik
    rot = target.rotation.tolist()
    px, py, pz = target.position.tolist()
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = rot

    # The target's tool axis u = R (r0^T v4) and its +y column yt = R (r0^T e_y).
    bx, by, bz = k.r0v4
    b0, b1, b2 = k.r0ey
    ux = g00 * bx + g01 * by + g02 * bz
    uy = g10 * bx + g11 * by + g12 * bz
    uz = g20 * bx + g21 * by + g22 * bz
    u = (ux, uy, uz)
    yx = g00 * b0 + g01 * b1 + g02 * b2
    yy = g10 * b0 + g11 * b1 + g12 * b2
    yz = g20 * b0 + g21 * b1 + g22 * b2
    theta4 = px * ux + py * uy + pz * uz

    w1 = k.w1
    w1x, w1y, w1z = w1
    cx = uy * w1z - uz * w1y
    cy = uz * w1x - ux * w1z
    cz = ux * w1y - uy * w1x
    singular = math.sqrt(cx * cx + cy * cy + cz * cz) <= SINGULARITY_TOL

    pairs = []
    if singular:
        try:
            pairs.append((0.0, _rotation_angle_to(k.theta2, u, _FIT_TOL)))
        except (NoSolutionError, DegenerateInputError):
            pass
    else:
        for c in _two_axis_points_to(k.two_axis, u, _FIT_TOL):
            try:
                pairs.append((_rotation_angle(w1, c, u, _FIT_TOL),
                              _rotation_angle_to(k.theta2, c, _FIT_TOL)))
            except (NoSolutionError, DegenerateInputError):
                continue

    w2, w3 = k.w2, k.w3
    tx, ty, tz = (x * theta4 for x in k.v4)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = k.r0
    branches: list[JointState] = []
    residuals: list[tuple[float, float]] = []
    for theta1, theta2 in pairs:
        # R12 = R1 R2, with rows (m), (n), (o).
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = _rotation_rows(w1, theta1)
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = _rotation_rows(w2, theta2)
        m0 = a00 * e00 + a01 * e10 + a02 * e20
        m1 = a00 * e01 + a01 * e11 + a02 * e21
        m2 = a00 * e02 + a01 * e12 + a02 * e22
        n0 = a10 * e00 + a11 * e10 + a12 * e20
        n1 = a10 * e01 + a11 * e11 + a12 * e21
        n2 = a10 * e02 + a11 * e12 + a12 * e22
        o0 = a20 * e00 + a21 * e10 + a22 * e20
        o1 = a20 * e01 + a21 * e11 + a22 * e21
        o2 = a20 * e02 + a21 * e12 + a22 * e22
        # +y column of (R1 R2)^T R r0^T, which is R3 e_y for the true theta3.
        q3 = (m0 * yx + n0 * yy + o0 * yz,
              m1 * yx + n1 * yy + o1 * yz,
              m2 * yx + n2 * yy + o2 * yz)
        try:
            theta3 = _rotation_angle_to(k.theta3, q3, _FIT_TOL)
        except (NoSolutionError, DegenerateInputError):
            continue

        dx = m0 * tx + m1 * ty + m2 * tz - px
        dy = n0 * tx + n1 * ty + n2 * tz - py
        dz = o0 * tx + o1 * ty + o2 * tz - pz
        pos_err = math.sqrt(dx * dx + dy * dy + dz * dz)
        # R12 R3 r0 minus the target rotation, row by row; the squared row
        # norms add up from 0.0 in row order.
        (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = _rotation_rows(w3, theta3)
        f0 = m0 * e00 + m1 * e10 + m2 * e20
        f1 = m0 * e01 + m1 * e11 + m2 * e21
        f2 = m0 * e02 + m1 * e12 + m2 * e22
        d0 = f0 * r00 + f1 * r10 + f2 * r20 - g00
        d1 = f0 * r01 + f1 * r11 + f2 * r21 - g01
        d2 = f0 * r02 + f1 * r12 + f2 * r22 - g02
        rot_sq = 0.0 + (d0 * d0 + d1 * d1 + d2 * d2)
        f0 = n0 * e00 + n1 * e10 + n2 * e20
        f1 = n0 * e01 + n1 * e11 + n2 * e21
        f2 = n0 * e02 + n1 * e12 + n2 * e22
        d0 = f0 * r00 + f1 * r10 + f2 * r20 - g10
        d1 = f0 * r01 + f1 * r11 + f2 * r21 - g11
        d2 = f0 * r02 + f1 * r12 + f2 * r22 - g12
        rot_sq += d0 * d0 + d1 * d1 + d2 * d2
        f0 = o0 * e00 + o1 * e10 + o2 * e20
        f1 = o0 * e01 + o1 * e11 + o2 * e21
        f2 = o0 * e02 + o1 * e12 + o2 * e22
        d0 = f0 * r00 + f1 * r10 + f2 * r20 - g20
        d1 = f0 * r01 + f1 * r11 + f2 * r21 - g21
        d2 = f0 * r02 + f1 * r12 + f2 * r22 - g22
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
