"""
Mechanism definition, forward kinematics, and closed-form inverse
kinematics of the 4-DoF RCM mechanism: three revolute joints whose axes
meet at the remote center plus a translation along the tool axis.

Every geometry derives its axes from alpha and beta in one placement:
omega1 is +z, omega2 lies in the xz-plane at angle alpha from omega1,
omega3 (= the tool direction v4) lies in the same plane at angle beta
from omega2, on the far side from omega1. Only the relative angles are
physical; the fixed frame makes configs portable and tests deterministic.

FK and IK are row cores in Python floats (`_forward_rows`,
`_inverse_rows`) under thin array wrappers; what depends only on the
build they read from the float tuples `MechanismGeometry` computes once.
numpy is imported only where an array is built or read, so `ssmkit fk`
and `ssmkit ik` run without it on a build whose config has no `r0`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import configfile
from ._inputs import floats, real
from .band import check_axis_angles
from .errors import (
    DegenerateGeometryError,
    DegenerateInputError,
    DomainError,
    NoSolutionError,
    UnreachableError,
)
from .screws import Pose, _ensure_rotation_rows, _rotation_rows
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

# Within this distance |omega1 x u| of the roll axis, IK places the point
# of the two-axis solve by its chord to the pole (`_chord_points`).
_CHORD_ZONE = 1e-4

# IK keeps a branch whose pose is this close to the target in rotation and
# this times max(1, |theta4|) in position.
_FIT_TOL = 1e-9

_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

if TYPE_CHECKING:
    import numpy as np


class _AxisArray:
    """One of omega1, omega2, omega3, v4 (= omega3) and r0 as a read-only
    float array. The first read of any builds all five from the record's
    tuples and keeps them in the instance `__dict__`, which shadows this
    non-data descriptor from then on."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, geom, owner=None):
        if geom is None:
            return self
        import numpy as np

        omega3 = np.array(geom._w3)
        arrays = {"r0": np.array(geom._r0 or _IDENTITY).reshape(3, 3), "omega3": omega3,
                  "omega1": np.array(geom._w1), "omega2": np.array(geom._w2), "v4": omega3}
        for array in arrays.values():
            array.flags.writeable = False
        geom.__dict__.update(arrays)
        return arrays[self.name]


@dataclass(frozen=True, eq=False)
class MechanismGeometry:
    """One mechanism build: axis angles alpha and beta (radians), each in
    (0, pi), and reference tool orientation r0 (None: the exact identity).

    Construction, `dataclasses.replace` included, raises DomainError on
    other inputs, takes r0 through `_ensure_rotation_rows` (which may move
    a non-identity r0 by an ulp) and computes what FK and IK need of the
    build, once, in Python floats, as private attributes: the axes as
    float 3-tuples (`_w3` is the tool direction v4 too), r0 as a flat
    row-major 9-tuple, or None when it equals the identity entry for entry,
    r0^T v4 and r0^T e_y, the geometry-only terms of the two-axis solve (v4
    onto the target axis about omega1, omega2), the fixed-point terms of
    the theta2 solve (v4 about omega2) and of the theta3 solve (e_y about
    omega3), and `_degenerate`: why IK cannot solve on this build (None if
    it can). The read-only float arrays omega1, omega2, omega3, v4 and r0
    are built from those tuples on first read, so a build without r0 needs
    no numpy.
    """

    alpha: float
    beta: float
    r0: np.ndarray | None = _AxisArray()

    omega1 = _AxisArray()
    omega2 = _AxisArray()
    omega3 = _AxisArray()
    v4 = _AxisArray()

    def __init__(self, alpha: float, beta: float, r0=None):
        check_axis_angles(alpha, beta)
        if r0 is not None:
            r0 = _ensure_rotation_rows(floats("rotation", r0, (3, 3)).ravel().tolist())
        w1 = (0.0, 0.0, 1.0)
        w2 = (math.sin(alpha), 0.0, math.cos(alpha))
        w3 = (math.sin(alpha + beta), 0.0, math.cos(alpha + beta))
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = r0 = r0 or _IDENTITY
        vx, vy, vz = w3
        two_axis = _two_axis_terms(w1, w2, w3)
        if abs(math.sin(beta)) < 1e-9:
            degenerate = "beta ~ 0 or pi puts the tool axis on the second joint axis"
        elif _two_axis_parallel(two_axis):
            degenerate = "alpha ~ 0 or pi puts the second joint axis on the first"
        else:
            degenerate = None
        self.__dict__.update(
            alpha=alpha, beta=beta, _w1=w1, _w2=w2, _w3=w3,
            # A product by the identity changes at most the sign of an exact
            # zero, which IK's squared residuals do not see; FK skips it too.
            _r0=None if r0 == _IDENTITY else r0,
            _r0v4=(a0 * vx + b0 * vy + c0 * vz, a1 * vx + b1 * vy + c1 * vz,
                   a2 * vx + b2 * vy + c2 * vz),
            _r0ey=(b0, b1, b2), _two_axis=two_axis,
            _theta2=_rotation_axis_terms(w2, w3),
            _theta3=_rotation_axis_terms(w3, (0.0, 1.0, 0.0)),
            _degenerate=degenerate)


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


_set_branches, _set_residuals, _set_singular = (
    IkSolutionSet.__dict__[name].__set__ for name in ("branches", "residuals", "singular"))


# The canonical geometry for axis angles alpha and beta is the record itself.
build_geometry = MechanismGeometry


def probe_point_defaults(geom: MechanismGeometry):
    """
    Probe points of the probe-point IK reduction, which `inverse_kinematics`
    no longer uses; the test oracle and the benchmark's subproblem probe
    do. p1 on the tool axis, p2 on the third joint axis, p3 = +y off it,
    exactly perpendicular to omega3, which lies in the xz-plane.
    """
    import numpy as np

    if geom._degenerate is not None:
        raise DegenerateGeometryError(geom._degenerate)
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


def _tool_pose_rows(geom: MechanismGeometry, r12, theta3: float, theta4: float):
    """Tool pose of a joint state whose R1 R2 is the flat row-major
    9-tuple `r12`: the rotation (R12 R3) r0, a flat row-major 9-tuple, and
    the tip R12 (v4 theta4), a 3-tuple, each 3x3 product summed in
    `_matmul_rows`' fixed order, so the bits do not depend on the host's
    BLAS. An identity r0 (`geom._r0` None) leaves R12 R3 as it is, where the
    product would change at most the sign of an exact zero. FK returns this
    pose; IK checks each candidate branch against it."""
    v4 = geom._w3
    rot = _matmul_rows(r12, _rotation_rows(v4, math.cos(theta3), math.sin(theta3)))
    if geom._r0 is not None:
        rot = _matmul_rows(rot, geom._r0)
    m0, m1, m2, n0, n1, n2, o0, o1, o2 = r12
    vx, vy, vz = v4
    tx, ty, tz = vx * theta4, vy * theta4, vz * theta4
    return rot, (m0 * tx + m1 * ty + m2 * tz,
                 n0 * tx + n1 * ty + n2 * tz,
                 o0 * tx + o1 * ty + o2 * tz)


def _forward_rows(geom: MechanismGeometry, t1, t2, t3, t4):
    """The FK row core: the tool pose of joint values t1..t4 as (rotation,
    a flat row-major 9-tuple, tip, a 3-tuple). R1 R2 by `_matmul_rows`,
    then `_tool_pose_rows`, the kernel IK checks its branches with. A joint
    value that is not a finite real number raises DomainError."""
    # Anything but four finite floats is read by the input rule: `isfinite`
    # alone would pass a numpy complex scalar with a warning.
    if not (type(t1) is float and type(t2) is float and type(t3) is float
            and type(t4) is float and math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(t3) and math.isfinite(t4)):
        t1, t2, t3, t4 = (real(f"theta{i}", t) for i, t in enumerate((t1, t2, t3, t4), 1))
    r12 = _matmul_rows(_rotation_rows(geom._w1, math.cos(t1), math.sin(t1)),
                       _rotation_rows(geom._w2, math.cos(t2), math.sin(t2)))
    return _tool_pose_rows(geom, r12, t3, t4)


def forward_kinematics(geom: MechanismGeometry, theta: JointState) -> Pose:
    """Tool pose for a joint state: R1 R2 R3 r0, and the tip R1 R2 (v4
    theta4), obtained by rotating the tool-axis translation with the first
    two joints only (spin about the tool axis does not move the tip). The
    row core `_forward_rows` computes it; the two arrays are built here."""
    import numpy as np

    rot, tip = _forward_rows(geom, theta.theta1, theta.theta2, theta.theta3, theta.theta4)
    return Pose(np.array(rot).reshape(3, 3), np.array(tip))


def _chord_points(geom: MechanismGeometry, u) -> list:
    """
    The points c of the two-axis solve (v4 about omega2 onto the circle u
    sweeps about omega1) for a tool axis u near the roll axis, by the chord
    form of Paden-Kahan subproblem 3. A turn about omega1 keeps the
    distance to the pole P = +-omega1 nearer u, so c lies on the circle v4
    sweeps about omega2 at |c - P| = delta = |u - P|: near the pole that
    chord keeps its relative precision, where the height omega1 . u does
    not. With p' and q' the parts of v4 and P normal to omega2, the chord
    normal to omega2 is delta'^2 = delta^2 - (omega2 . (v4 - P))^2, and
    theta2 = theta0 +- phi, theta0 the angle about omega2 from p' to q'
    and sin^2(phi/2) = (delta'^2 - (|p'| - |q'|)^2) / (4 |p'| |q'|).
    """
    w1x, w1y, w1z = geom._w1
    w2 = w2x, w2y, w2z = geom._w2
    vx, vy, vz = geom._w3
    ux, uy, uz = u
    sign = 1.0 if w1x * ux + w1y * uy + w1z * uz >= 0.0 else -1.0
    ex, ey, ez = sign * w1x, sign * w1y, sign * w1z
    dx, dy, dz = ux - ex, uy - ey, uz - ez
    w2v = w2x * vx + w2y * vy + w2z * vz
    w2e = w2x * ex + w2y * ey + w2z * ez
    chord2 = dx * dx + dy * dy + dz * dz - (w2v - w2e) ** 2
    px, py, pz = vx - w2v * w2x, vy - w2v * w2y, vz - w2v * w2z
    qx, qy, qz = ex - w2e * w2x, ey - w2e * w2y, ez - w2e * w2z
    pn = math.sqrt(px * px + py * py + pz * pz)
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    half2 = (chord2 - (pn - qn) ** 2) / (4.0 * pn * qn)
    if -1e-15 <= half2 < 0.0:
        half2 = 0.0
    elif not 0.0 <= half2 <= 1.0:
        return []
    theta0 = math.atan2(w2x * (py * qz - pz * qy) + w2y * (pz * qx - px * qz)
                        + w2z * (px * qy - py * qx), px * qx + py * qy + pz * qz)
    phi = 2.0 * math.asin(math.sqrt(half2))
    points = []
    for theta2 in ((theta0,) if phi == 0.0 else (theta0 + phi, theta0 - phi)):
        m0, m1, m2, n0, n1, n2, o0, o1, o2 = _rotation_rows(
            w2, math.cos(theta2), math.sin(theta2))
        points.append((m0 * vx + m1 * vy + m2 * vz, n0 * vx + n1 * vy + n2 * vz,
                       o0 * vx + o1 * vy + o2 * vz))
    return points


def _inverse_rows(geom: MechanismGeometry, rotation, position) -> IkSolutionSet:
    """The IK row core, for a target rotation given as three rows of three
    floats and a position of three (see `inverse_kinematics`). A NaN or inf
    among the 12 floats raises DomainError."""
    if geom._degenerate is not None:
        raise DegenerateGeometryError(geom._degenerate)
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = rotation
    px, py, pz = position

    # The target's tool axis u = R (r0^T v4) and its +y column yt = R (r0^T e_y),
    # which is R's own +y column when r0 is the identity.
    bx, by, bz = geom._r0v4
    ux = g00 * bx + g01 * by + g02 * bz
    uy = g10 * bx + g11 * by + g12 * bz
    uz = g20 * bx + g21 * by + g22 * bz
    u = (ux, uy, uz)
    if geom._r0 is None:
        yx, yy, yz = g01, g11, g21
    else:
        b0, b1, b2 = geom._r0ey
        yx = g00 * b0 + g01 * b1 + g02 * b2
        yy = g10 * b0 + g11 * b1 + g12 * b2
        yz = g20 * b0 + g21 * b1 + g22 * b2
    theta4 = px * ux + py * uy + pz * uz

    w1, w2 = geom._w1, geom._w2
    w1x, w1y, w1z = w1
    cx = uy * w1z - uz * w1y
    cy = uz * w1x - ux * w1z
    cz = ux * w1y - uy * w1x
    off_axis = math.sqrt(cx * cx + cy * cy + cz * cz)
    singular = off_axis <= SINGULARITY_TOL

    pairs = []
    if singular:
        try:
            pairs.append((0.0, _rotation_angle_to(geom._theta2, u)))
        except (NoSolutionError, DegenerateInputError):
            pass
    else:
        points = (_chord_points(geom, u) if off_axis < _CHORD_ZONE
                  else _two_axis_points_to(geom._two_axis, u))
        for c in points:
            try:
                pairs.append((_rotation_angle_to(_rotation_axis_terms(w1, c), u),
                              _rotation_angle_to(geom._theta2, c)))
            except (NoSolutionError, DegenerateInputError):
                continue

    branches: list[JointState] = []
    residuals: list[tuple[float, float]] = []
    for theta1, theta2 in pairs:
        r12 = _matmul_rows(_rotation_rows(w1, math.cos(theta1), math.sin(theta1)),
                           _rotation_rows(w2, math.cos(theta2), math.sin(theta2)))
        m0, m1, m2, n0, n1, n2, o0, o1, o2 = r12
        # +y column of (R1 R2)^T R r0^T, which is R3 e_y for the true theta3.
        q3 = (m0 * yx + n0 * yy + o0 * yz,
              m1 * yx + n1 * yy + o1 * yz,
              m2 * yx + n2 * yy + o2 * yz)
        try:
            theta3 = _rotation_angle_to(geom._theta3, q3)
        except (NoSolutionError, DegenerateInputError):
            continue

        # Pose minus target; the squared rotation row norms add up in row order.
        (f00, f01, f02, f10, f11, f12, f20, f21, f22), (x, y, z) = \
            _tool_pose_rows(geom, r12, theta3, theta4)
        dx, dy, dz = x - px, y - py, z - pz
        pos_err = math.sqrt(dx * dx + dy * dy + dz * dz)
        d0, d1, d2 = f00 - g00, f01 - g01, f02 - g02
        e0, e1, e2 = f10 - g10, f11 - g11, f12 - g12
        h0, h1, h2 = f20 - g20, f21 - g21, f22 - g22
        rot_err = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2)
                            + (e0 * e0 + e1 * e1 + e2 * e2)
                            + (h0 * h0 + h1 * h1 + h2 * h2))
        if pos_err < _FIT_TOL * max(1.0, abs(theta4)) and rot_err < _FIT_TOL:
            # theta1..theta3 are normalized already: `_rotation_angle_to`
            # returns them so, and the singular path's theta1 is 0.0.
            branches.append(JointState(theta1, theta2, theta3, theta4))
            residuals.append((pos_err, rot_err))

    if not branches:
        # A NaN or inf among the 12 target floats makes theta4 = p . u NaN
        # or inf, so a finite theta4 clears the target without the check.
        if not (math.isfinite(theta4) or all(map(math.isfinite, (
                g00, g01, g02, g10, g11, g12, g20, g21, g22, px, py, pz)))):
            raise DomainError("target: expected finite entries")
        raise UnreachableError("no joint-space branch reproduces the target pose")

    # At most two branches: put them in (theta1, theta2, theta3) order, a
    # tie keeping the order found, and their residuals with them.
    if len(branches) == 2:
        a, b = branches
        if (b.theta1, b.theta2, b.theta3) < (a.theta1, a.theta2, a.theta3):
            branches.reverse()
            residuals.reverse()
    return IkSolutionSet(tuple(branches), tuple(residuals), singular)


def inverse_kinematics(geom: MechanismGeometry, target: Pose) -> IkSolutionSet:
    """
    All closed-form joint-space branches reaching `target`. The spin about
    the tool axis leaves it in place, so the target fixes the tool axis
    u = R r0^T v4 = R1 R2 v4 and the tip p = u theta4: theta4 = p . u, one
    two-axis rotation solve takes v4 onto u (theta1, theta2; within
    `_CHORD_ZONE` of the roll axis by `_chord_points`), and theta3 is the
    angle of (R1 R2)^T R r0^T about omega3. A candidate branch is kept
    only when its pose from FK's kernel, `_tool_pose_rows`, is within
    `_FIT_TOL` of the target in rotation and within `_FIT_TOL` times
    max(1, |theta4|) in position, since FK's rounding of the tip grows
    with the extension.
    Scalar arithmetic throughout, in the row core `_inverse_rows`: the
    target is read into floats once, and the geometry-only terms (r0^T v4,
    r0^T e_y, the axis terms of the two-axis solve and of the theta2 and
    theta3 solves) come from the tuples the read-only geometry computed at
    construction. A build whose first two axes or whose tool axis and
    second axis coincide raises DegenerateGeometryError; a target that is
    not a finite 3x3 and 3-vector raises DomainError, checked only once the
    scalar solve fails.
    """
    try:  # A text, None or complex entry fails in the arithmetic, not in the read.
        return _inverse_rows(geom, target.rotation.tolist(), target.position.tolist())
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        fault = exc
    # Not two finite float arrays: the readers name the fault, or read the
    # target anew. If they return its own arrays, the fault lies elsewhere.
    rotation = floats("target rotation", target.rotation, (3, 3))
    position = floats("target position", target.position, (3,))
    if rotation is target.rotation and position is target.position:
        raise fault
    return inverse_kinematics(geom, Pose(rotation, position))


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
        r0 = configfile.parse_floats(kv["r0"], "r0", 9)
        r0 = [r0[0:3], r0[3:6], r0[6:9]]
    return build_geometry(alpha, beta, r0)
