"""
Closed-form geometric subproblems for chains whose revolute axes all pass
through the origin:

- rotate a point onto a point about one axis,
- rotate a point onto a point about two consecutive intersecting axes,
- translate a point along a line until it sits at a prescribed distance
  from another point.

Solutions are returned sorted ascending so that downstream branch
enumeration is deterministic. Angle solutions are normalized to (-pi, pi];
translation solutions are plain displacements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAxesError,
    DegenerateInputError,
    DomainError,
    NoSolutionError,
)
from .screws import JointKind, Twist, normalize_angle, unit

# Squared-discriminant band inside which two coincident roots collapse to one.
TANGENCY_TOL = 1e-12

_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class SubproblemSolutions:
    """Solution set of a geometric subproblem: scalars or angle pairs."""

    solutions: tuple

    @property
    def multiplicity(self) -> int:
        return len(self.solutions)


def _require_revolute(xi: Twist) -> np.ndarray:
    if xi.kind is not JointKind.REVOLUTE:
        raise DomainError("subproblem requires a revolute twist")
    return xi.angular


def _rotation_angle(omega, p, q, tol: float) -> float:
    """
    Angle theta with e^(hat(omega) theta) p = q for an origin-crossing axis.
    Raises if p sits on the axis or if no rotation can map p onto q.
    Scalar arithmetic throughout: this sits on the IK hot path.
    """
    wx, wy, wz = omega
    px, py, pz = p
    qx, qy, qz = q
    ap = wx * px + wy * py + wz * pz
    aq = wx * qx + wy * qy + wz * qz
    ppx = px - ap * wx
    ppy = py - ap * wy
    ppz = pz - ap * wz
    qpx = qx - aq * wx
    qpy = qy - aq * wy
    qpz = qz - aq * wz
    npp = math.sqrt(ppx * ppx + ppy * ppy + ppz * ppz)
    nqq = math.sqrt(qpx * qpx + qpy * qpy + qpz * qpz)
    scale = max(
        1.0,
        math.sqrt(px * px + py * py + pz * pz),
        math.sqrt(qx * qx + qy * qy + qz * qz),
    )
    if npp <= tol * scale or nqq <= tol * scale:
        raise DegenerateInputError("point lies on the rotation axis")
    if abs(ap - aq) > tol * scale or abs(npp - nqq) > tol * scale:
        raise NoSolutionError(
            "no rotation maps p onto q (axial component or radius differs)"
        )
    triple = (
        wx * (ppy * qpz - ppz * qpy)
        + wy * (ppz * qpx - ppx * qpz)
        + wz * (ppx * qpy - ppy * qpx)
    )
    dot = ppx * qpx + ppy * qpy + ppz * qpz
    return normalize_angle(math.atan2(triple, dot))


def subproblem1(xi: Twist, p, q) -> SubproblemSolutions:
    """
    Rotate p onto q about the axis of a revolute twist through the origin.
    Returns the single angle solution.
    """
    omega = _require_revolute(xi)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return SubproblemSolutions((_rotation_angle(omega, p, q, _MATCH_TOL),))


def _two_axis_points(w1, w2, p, q, tol: float) -> list:
    """
    Intersection points c of the circle p sweeps about w2 with the circle
    q sweeps about w1, for non-parallel unit axes meeting at the origin:
    e^(hat(w2) t2) p = c = e^(-hat(w1) t1) q. Returns one point at
    tangency, two otherwise, and none when |p| != |q| or the circles miss.
    Scalar arithmetic throughout: this sits on the IK hot path.
    """
    px, py, pz = p
    qx, qy, qz = q
    pn2 = px * px + py * py + pz * pz
    pn = math.sqrt(pn2)
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    scale = max(1.0, pn, qn)
    if abs(pn - qn) > tol * scale:
        return []
    w1x, w1y, w1z = w1
    w2x, w2y, w2z = w2
    d = w1x * w2x + w1y * w2y + w1z * w2z
    crx = w1y * w2z - w1z * w2y
    cry = w1z * w2x - w1x * w2z
    crz = w1x * w2y - w1y * w2x
    crn2 = crx * crx + cry * cry + crz * crz
    w2p = w2x * px + w2y * py + w2z * pz
    w1q = w1x * qx + w1y * qy + w1z * qz
    den = d * d - 1.0
    a = (d * w2p - w1q) / den
    b = (d * w1q - w2p) / den
    gamma2 = (pn2 - a * a - b * b - 2.0 * a * b * d) / crn2
    band = TANGENCY_TOL * scale * scale
    if gamma2 < -band:
        return []
    gammas = (0.0,) if gamma2 <= band else (math.sqrt(gamma2), -math.sqrt(gamma2))
    points = []
    for g in gammas:
        points.append((a * w1x + b * w2x + g * crx,
                       a * w1y + b * w2y + g * cry,
                       a * w1z + b * w2z + g * crz))
    return points


def subproblem2(xi1: Twist, xi2: Twist, p, q) -> SubproblemSolutions:
    """
    Solve e^(hat(w1) t1) e^(hat(w2) t2) p = q for two revolute axes meeting
    at the origin. Returns up to two (t1, t2) pairs, sorted lexicographically.
    """
    w1 = _require_revolute(xi1)
    w2 = _require_revolute(xi2)
    cr = np.cross(w1, w2)
    if float(cr @ cr) < 1e-18:
        raise DegenerateAxesError("rotation axes are parallel")
    points = _two_axis_points(w1, w2, p, q, _MATCH_TOL)
    if not points:
        raise NoSolutionError(
            "no rotation pair maps p onto q (|p| != |q| or the circles miss)"
        )
    return SubproblemSolutions(tuple(sorted(
        (_rotation_angle(w1, c, q, _MATCH_TOL), _rotation_angle(w2, p, c, _MATCH_TOL))
        for c in points
    )))


def subproblem3prime(v, p, q, delta: float) -> SubproblemSolutions:
    """
    Translate p along the unit direction v until it lies at distance delta
    from q: solve ||q - (p + v theta)|| = delta.

    The quadratic discriminant decides multiplicity; a band of +/-1e-12
    around zero collapses the two roots into the single tangent solution.
    """
    v = unit(v)
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    u = q - p
    utv = float(u @ v)
    disc = utv * utv + delta * delta - float(u @ u)
    if disc < -TANGENCY_TOL:
        raise NoSolutionError("the line misses the sphere of radius delta")
    if disc <= TANGENCY_TOL:
        return SubproblemSolutions((utv,))
    root = math.sqrt(disc)
    return SubproblemSolutions((utv - root, utv + root))
