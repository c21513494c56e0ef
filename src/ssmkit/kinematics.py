"""
Mechanism definition, forward kinematics, and closed-form inverse
kinematics of the 4-DoF RCM mechanism: three revolute joints whose axes
meet at the remote center plus a translation along the tool axis.

Every geometry derives its axes from alpha and beta in one placement:
omega1 is +z, omega2 lies in the xz-plane at angle alpha from omega1,
omega3 (= the tool direction v4) lies in the same plane at angle beta
from omega2, on the far side from omega1. Only the relative angles are
physical; the fixed frame makes configs portable and tests deterministic.

Inverse kinematics reads what depends only on the geometry from
constants each `MechanismGeometry` computes once, at construction: the
axes and v4 as float 3-tuples, r0 as a flat row-major 9-tuple (None for
the identity, so that FK and IK skip the product by it), r0^T v4 and
r0^T e_y, the geometry-only terms of the two-axis solve, and the
fixed-point terms of the theta2 and theta3 angle solves, whose part of
the tolerance scale is taken once there.

Forward kinematics is scalar too: it multiplies out the same axis, v4
and r0 tuples in a fixed summation order and builds numpy arrays only for
the returned pose, so its bits do not depend on the host's BLAS. Every
3x3 matrix on this path is a flat row-major 9-tuple of floats. Inverse
kinematics checks each candidate branch with FK's kernel, `_tool_pose_rows`.

`JointState` and `IkSolutionSet` are slotted frozen dataclasses whose own
`__init__` stores each field through its slot's setter, fetched once
below each class.
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
from .screws import Pose, _rotation_rows, ensure_rotation
from .subproblems import (
    _rotation_angle_to,
    _rotation_axis_terms,
    _two_axis_parallel,
    _two_axis_points_to,
    _two_axis_terms,
)

# Tool direction within this angle (radians) of the roll axis makes theta1
# indeterminate; the solver then pins theta1 = 0 and flags the result.
SINGULARITY_TOL = 1e-8

_FIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MechanismGeometry:
    """One mechanism build: axis angles alpha and beta (radians), each in
    (0, pi), and reference tool orientation r0 (None: the exact identity).

    Construction, `dataclasses.replace` included, raises DomainError on
    other inputs, takes r0 through `ensure_rotation` (which may move a
    non-identity r0 by an ulp), derives the read-only float arrays omega1,
    omega2, omega3, v4 = omega3 and r0, and the constants IK needs, once.
    """

    alpha: float
    beta: float
    r0: np.ndarray | None = None

    def __post_init__(self):
        alpha, beta = self.alpha, self.beta
        check_axis_angles(alpha, beta)
        omega3 = np.array([math.sin(alpha + beta), 0.0, math.cos(alpha + beta)])
        arrays = {"r0": np.eye(3) if self.r0 is None else ensure_rotation(self.r0),
                  "omega1": np.array([0.0, 0.0, 1.0]),
                  "omega2": np.array([math.sin(alpha), 0.0, math.cos(alpha)]),
                  "omega3": omega3, "v4": omega3}
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_ik", _IkConstants(self))


class _IkConstants:
    """What `inverse_kinematics` needs of a geometry, computed once: the
    axes and v4 as float 3-tuples, r0 as a flat row-major 9-tuple, or None
    when it equals the identity entry for entry, r0^T v4 and r0^T e_y, the
    geometry-only terms of the two-axis solve (v4 onto the target axis
    about omega1, omega2), the fixed-point terms of the theta2 solve (v4
    about omega2) and of the theta3 solve (e_y about omega3), and
    `degenerate`: why IK cannot solve on this build (None if it can). FK
    and IK's branch check read the same tuples through one kernel,
    `_tool_pose_rows`."""

    __slots__ = ("w1", "w2", "w3", "v4", "r0", "r0v4", "r0ey",
                 "two_axis", "theta2", "theta3", "degenerate")

    def __init__(self, geom: MechanismGeometry):
        self.w1 = w1 = tuple(geom.omega1.tolist())
        self.w2 = w2 = tuple(geom.omega2.tolist())
        self.w3 = w3 = tuple(geom.omega3.tolist())
        self.v4 = v4 = tuple(geom.v4.tolist())
        r0 = tuple(geom.r0.ravel().tolist())
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = r0
        vx, vy, vz = v4
        self.r0v4 = (a0 * vx + b0 * vy + c0 * vz,
                     a1 * vx + b1 * vy + c1 * vz,
                     a2 * vx + b2 * vy + c2 * vz)
        self.r0ey = (b0, b1, b2)
        # A product by the identity changes at most the sign of an exact
        # zero, which IK's squared residuals do not see; FK skips it too.
        self.r0 = None if r0 == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0) else r0
        self.two_axis = _two_axis_terms(w1, w2, v4)
        self.theta2 = _rotation_axis_terms(w2, v4)
        self.theta3 = _rotation_axis_terms(w3, (0.0, 1.0, 0.0))
        if abs(math.sin(geom.beta)) < 1e-9:
            self.degenerate = "beta ~ 0 or pi puts the tool axis on the second joint axis"
        elif _two_axis_parallel(self.two_axis):
            self.degenerate = "alpha ~ 0 or pi puts the second joint axis on the first"
        else:
            self.degenerate = None


def _record_setstate(self, state):
    """Unpickle a record from its field values in order, or from the field
    dict that a pickle of the earlier unslotted records holds."""
    if isinstance(state, dict):
        self.__init__(**state)
    else:
        self.__init__(*state)


@dataclass(frozen=True, slots=True)
class JointState:
    """Joint coordinates: three angles (radians) and one translation (m)."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    def __init__(self, theta1: float, theta2: float, theta3: float, theta4: float):
        # Slot setters skip the frozen __setattr__; IK builds one per branch.
        _set_theta1(self, theta1)
        _set_theta2(self, theta2)
        _set_theta3(self, theta3)
        _set_theta4(self, theta4)

    __setstate__ = _record_setstate


_set_theta1, _set_theta2, _set_theta3, _set_theta4 = (
    JointState.__dict__[name].__set__ for name in ("theta1", "theta2", "theta3", "theta4"))


@dataclass(frozen=True, slots=True)
class IkSolutionSet:
    """All joint-space branches reproducing a target pose.

    residuals holds one (position error m, rotation Frobenius error) pair
    per branch; singular marks targets whose tool axis aligns with the
    roll axis, where theta1 was pinned to zero.
    """

    branches: tuple[JointState, ...]
    residuals: tuple[tuple[float, float], ...]
    singular: bool = False

    def __init__(self, branches: tuple[JointState, ...],
                 residuals: tuple[tuple[float, float], ...], singular: bool = False):
        _set_branches(self, branches)
        _set_residuals(self, residuals)
        _set_singular(self, singular)

    __setstate__ = _record_setstate


_set_branches, _set_residuals, _set_singular = (
    IkSolutionSet.__dict__[name].__set__ for name in ("branches", "residuals", "singular"))


# The canonical geometry for axis angles alpha and beta is the record itself.
build_geometry = MechanismGeometry


def _check_target_finite(rot, position) -> None:
    """Raise DomainError if an IK target's position or rotation, read as
    float rows, holds a NaN or inf, naming which of the two does."""
    for name, values in (("position", position), ("rotation", [v for row in rot for v in row])):
        for value in values:
            if not math.isfinite(value):
                raise DomainError(f"target {name}: expected finite entries, got {value}")


def probe_point_defaults(geom: MechanismGeometry):
    """
    Probe points of the probe-point IK reduction, which `inverse_kinematics`
    no longer uses; the test oracle and the benchmark's subproblem probe
    do. p1 on the tool axis, p2 on the third joint axis, p3 = +y off it,
    exactly perpendicular to omega3, which lies in the xz-plane.
    """
    if geom._ik.degenerate is not None:
        raise DegenerateGeometryError(geom._ik.degenerate)
    return geom.v4.copy(), geom.v4.copy(), np.array([0.0, 1.0, 0.0])


def _matmul_rows(a, b):
    """Product of two 3x3 matrices given as flat row-major 9-tuples of
    floats, returned the same way; entry (i, j) is a[i][0] b[0][j] +
    a[i][1] b[1][j] + a[i][2] b[2][j], summed left to right."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22)


def _tool_pose_rows(k: _IkConstants, r12, theta3: float, theta4: float):
    """Tool pose of a joint state whose R1 R2 is the flat row-major
    9-tuple `r12`: the rotation (R12 R3) r0, a flat row-major 9-tuple, and
    the tip R12 (v4 theta4), a 3-tuple, each 3x3 product summed in
    `_matmul_rows`' fixed order, so the bits do not depend on the host's
    BLAS. An identity r0 (`k.r0` None) leaves R12 R3 as it is, where the
    product would change at most the sign of an exact zero. FK returns this
    pose; IK checks each candidate branch against it."""
    rot = _matmul_rows(r12, _rotation_rows(k.w3, theta3))
    if k.r0 is not None:
        rot = _matmul_rows(rot, k.r0)
    m0, m1, m2, n0, n1, n2, o0, o1, o2 = r12
    vx, vy, vz = k.v4
    tx, ty, tz = vx * theta4, vy * theta4, vz * theta4
    return rot, (m0 * tx + m1 * ty + m2 * tz,
                 n0 * tx + n1 * ty + n2 * tz,
                 o0 * tx + o1 * ty + o2 * tz)


def forward_kinematics(geom: MechanismGeometry, theta: JointState) -> Pose:
    """Tool pose for a joint state: R1 R2 R3 r0, and the tip R1 R2 (v4
    theta4), obtained by rotating the tool-axis translation with the first
    two joints only (spin about the tool axis does not move the tip).
    R1 R2 by `_matmul_rows`, then `_tool_pose_rows`, the kernel IK checks
    its branches with; the two arrays are built at the end. A non-finite
    joint value raises DomainError."""
    k = geom._ik
    t1, t2, t3, t4 = theta.theta1, theta.theta2, theta.theta3, theta.theta4
    if not (math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(t3) and math.isfinite(t4)):
        for name, value in zip(("theta1", "theta2", "theta3", "theta4"), (t1, t2, t3, t4)):
            if not math.isfinite(value):
                raise DomainError(f"{name}: expected a finite number, got {value}")
    r12 = _matmul_rows(_rotation_rows(k.w1, t1), _rotation_rows(k.w2, t2))
    rot, tip = _tool_pose_rows(k, r12, t3, t4)
    return Pose(np.array(rot).reshape(3, 3), np.array(tip))


def inverse_kinematics(geom: MechanismGeometry, target: Pose) -> IkSolutionSet:
    """
    All closed-form joint-space branches reaching `target`. The spin about
    the tool axis leaves it in place, so the target fixes the tool axis
    u = R r0^T v4 = R1 R2 v4 and the tip p = u theta4: theta4 = p . u, one
    two-axis rotation solve takes v4 onto u (theta1, theta2), and theta3 is
    the angle of (R1 R2)^T R r0^T about omega3. A candidate branch is kept
    only when its pose from FK's kernel, `_tool_pose_rows`, is within
    `_FIT_TOL` of the target in both position and rotation.
    Scalar arithmetic throughout: the target is read into floats once, and
    the geometry-only terms (r0^T v4, r0^T e_y, the axis terms of the
    two-axis solve and of the theta2 and theta3 solves) come from the
    constants the read-only geometry computed at construction. A build
    whose first two axes or whose tool axis and second axis coincide raises
    DegenerateGeometryError; a target with a NaN or inf entry raises
    DomainError, checked only once no branch fits it.
    """
    k = geom._ik
    if k.degenerate is not None:
        raise DegenerateGeometryError(k.degenerate)
    rot = target.rotation.tolist()
    px, py, pz = target.position.tolist()
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = rot

    # The target's tool axis u = R (r0^T v4) and its +y column yt = R (r0^T e_y),
    # which is R's own +y column when r0 is the identity.
    bx, by, bz = k.r0v4
    ux = g00 * bx + g01 * by + g02 * bz
    uy = g10 * bx + g11 * by + g12 * bz
    uz = g20 * bx + g21 * by + g22 * bz
    u = (ux, uy, uz)
    if k.r0 is None:
        yx, yy, yz = g01, g11, g21
    else:
        b0, b1, b2 = k.r0ey
        yx = g00 * b0 + g01 * b1 + g02 * b2
        yy = g10 * b0 + g11 * b1 + g12 * b2
        yz = g20 * b0 + g21 * b1 + g22 * b2
    theta4 = px * ux + py * uy + pz * uz

    w1, w2 = k.w1, k.w2
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
                pairs.append((_rotation_angle_to(_rotation_axis_terms(w1, c), u, _FIT_TOL),
                              _rotation_angle_to(k.theta2, c, _FIT_TOL)))
            except (NoSolutionError, DegenerateInputError):
                continue

    branches: list[JointState] = []
    residuals: list[tuple[float, float]] = []
    for theta1, theta2 in pairs:
        r12 = _matmul_rows(_rotation_rows(w1, theta1), _rotation_rows(w2, theta2))
        m0, m1, m2, n0, n1, n2, o0, o1, o2 = r12
        # +y column of (R1 R2)^T R r0^T, which is R3 e_y for the true theta3.
        q3 = (m0 * yx + n0 * yy + o0 * yz,
              m1 * yx + n1 * yy + o1 * yz,
              m2 * yx + n2 * yy + o2 * yz)
        try:
            theta3 = _rotation_angle_to(k.theta3, q3, _FIT_TOL)
        except (NoSolutionError, DegenerateInputError):
            continue

        # Pose minus target; the squared rotation row norms add up in row order.
        (f00, f01, f02, f10, f11, f12, f20, f21, f22), (x, y, z) = \
            _tool_pose_rows(k, r12, theta3, theta4)
        dx, dy, dz = x - px, y - py, z - pz
        pos_err = math.sqrt(dx * dx + dy * dy + dz * dz)
        d0, d1, d2 = f00 - g00, f01 - g01, f02 - g02
        e0, e1, e2 = f10 - g10, f11 - g11, f12 - g12
        h0, h1, h2 = f20 - g20, f21 - g21, f22 - g22
        rot_err = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2)
                            + (e0 * e0 + e1 * e1 + e2 * e2)
                            + (h0 * h0 + h1 * h1 + h2 * h2))
        if pos_err < _FIT_TOL and rot_err < _FIT_TOL:
            # theta1..theta3 are normalized already: `_rotation_angle_to`
            # returns them so, and the singular path's theta1 is 0.0.
            branches.append(JointState(theta1, theta2, theta3, theta4))
            residuals.append((pos_err, rot_err))

    if not branches:
        # A NaN or inf among the 12 target floats makes theta4 = p . u NaN
        # or inf, so a finite theta4 clears the target without the check.
        if not math.isfinite(theta4):
            _check_target_finite(rot, (px, py, pz))
        raise UnreachableError("no joint-space branch reproduces the target pose")

    # At most two branches: put them in (theta1, theta2, theta3) order, a
    # tie keeping the order found, and their residuals with them.
    if len(branches) == 2:
        a, b = branches
        if (b.theta1, b.theta2, b.theta3) < (a.theta1, a.theta2, a.theta3):
            branches.reverse()
            residuals.reverse()
    return IkSolutionSet(tuple(branches), tuple(residuals), singular)


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
