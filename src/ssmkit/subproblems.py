"""
Closed-form geometric subproblems (Paden-Kahan, in Murray, Li & Sastry
1994, ch. 3) for chains whose revolute axes all pass through the origin:

- rotate a point onto a point about one axis (`subproblem1`),
- rotate a point onto a point about two consecutive intersecting axes
  (`subproblem2`),
- translate a point along a line until it sits at a prescribed distance
  from another point (`subproblem3prime`).

Each rotation formula is one pair of scalar kernels: `_*_terms` holds what
depends only on the axes and p, `_*_to` finishes the solve for q. IK calls
the kernels with terms computed once per geometry; `subproblem1`/`2` wrap
them for `Twist` records.

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
from .screws import Twist, _vector3, normalize_angle, unit

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


def _finite_point(name: str, v) -> np.ndarray:
    """`v` as a float 3-vector, or DomainError naming `name` on any other
    shape or a NaN or inf."""
    v = _vector3(name, v)
    if not all(map(math.isfinite, v.tolist())):
        raise DomainError(f"{name}: expected finite entries, got {v}")
    return v


def _rotation_axis_terms(omega, p):
    """
    The terms of `_rotation_angle_to` that depend only on the axis and the
    point p: omega, p . omega, the part of p normal to omega, its norm and
    max(1, |p|), the part of the solve's tolerance scale that p sets.
    Inverse kinematics computes them once per geometry for its fixed points.
    """
    wx, wy, wz = omega
    px, py, pz = p
    ap = wx * px + wy * py + wz * pz
    ppx = px - ap * wx
    ppy = py - ap * wy
    ppz = pz - ap * wz
    npp = math.sqrt(ppx * ppx + ppy * ppy + ppz * ppz)
    pscale = max(1.0, math.sqrt(px * px + py * py + pz * pz))
    return (wx, wy, wz), ap, (ppx, ppy, ppz), npp, pscale


def _rotation_angle_to(terms, q, tol: float) -> float:
    """Angle theta with e^(hat(omega) theta) p = q for the axis and the point
    p of `terms`. Raises if p sits on the axis or no rotation maps p onto q,
    each test within `tol` times max(1, |p|, |q|)."""
    (wx, wy, wz), ap, (ppx, ppy, ppz), npp, scale = terms
    qx, qy, qz = q
    aq = wx * qx + wy * qy + wz * qz
    qpx = qx - aq * wx
    qpy = qy - aq * wy
    qpz = qz - aq * wz
    nqq = math.sqrt(qpx * qpx + qpy * qpy + qpz * qpz)
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    if qn > scale:
        scale = qn
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
    p = _finite_point("p", p)
    q = _finite_point("q", q)
    terms = _rotation_axis_terms(xi.angular, p)
    return SubproblemSolutions((_rotation_angle_to(terms, q, _MATCH_TOL),))


def _two_axis_terms(w1, w2, p):
    """
    The terms of `_two_axis_points_to` that depend only on the axes and p:
    |p|^2, |p|, d = w1 . w2, w1 x w2 and its squared norm, w2 . p,
    d (w2 . p) and d^2 - 1. Inverse kinematics computes them once per
    geometry.
    """
    px, py, pz = p
    w1x, w1y, w1z = w1
    w2x, w2y, w2z = w2
    pn2 = px * px + py * py + pz * pz
    d = w1x * w2x + w1y * w2y + w1z * w2z
    crx = w1y * w2z - w1z * w2y
    cry = w1z * w2x - w1x * w2z
    crz = w1x * w2y - w1y * w2x
    w2p = w2x * px + w2y * py + w2z * pz
    return ((w1x, w1y, w1z), (w2x, w2y, w2z), pn2, math.sqrt(pn2), d, (crx, cry, crz),
            crx * crx + cry * cry + crz * crz, w2p, d * w2p, d * d - 1.0)


def _two_axis_parallel(terms) -> bool:
    """Whether the axes of `_two_axis_terms` are parallel to float
    precision: the two-axis solve divides by d^2 - 1 and by |w1 x w2|^2 and
    its square, and one of them has rounded to 0."""
    crn2, den = terms[6], terms[-1]
    return den == 0.0 or crn2 * crn2 == 0.0


def _two_axis_points_to(terms, q, tol: float) -> list:
    """
    Intersection points c of the circle p sweeps about w2 with the circle q
    sweeps about w1, for the non-parallel axes and the point p of `terms`:
    e^(hat(w2) t2) p = c = e^(-hat(w1) t1) q. One point at tangency, two
    otherwise, none when |p| != |q| or the circles miss.
    """
    (w1x, w1y, w1z), (w2x, w2y, w2z), pn2, pn, d, (crx, cry, crz), crn2, w2p, dw2p, den = terms
    qx, qy, qz = q
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    scale = max(1.0, pn, qn)
    if abs(pn - qn) > tol * scale:
        return []
    w1q = w1x * qx + w1y * qy + w1z * qz
    a = (dw2p - w1q) / den
    b = (d * w1q - w2p) / den
    gamma2 = (pn2 - a * a - b * b - 2.0 * a * b * d) / crn2
    band = TANGENCY_TOL * scale * scale
    # The rounding error of gamma2 grows as 1 / |w1 x w2|^4: a tangent target
    # can land that far below zero, and the caller's fit check rules on it.
    if gamma2 < -band / (crn2 * crn2):
        return []
    gammas = (0.0,) if gamma2 <= band else (math.sqrt(gamma2), -math.sqrt(gamma2))
    points = []
    for g in gammas:
        # At tangency g = 0.0 still adds 0.0 * cr, which fixes the sign of
        # a zero coordinate.
        points.append((a * w1x + b * w2x + g * crx,
                       a * w1y + b * w2y + g * cry,
                       a * w1z + b * w2z + g * crz))
    return points


def subproblem2(xi1: Twist, xi2: Twist, p, q) -> SubproblemSolutions:
    """
    Solve e^(hat(w1) t1) e^(hat(w2) t2) p = q for two revolute axes meeting
    at the origin. Returns up to two (t1, t2) pairs, sorted lexicographically.
    """
    w1, w2 = xi1.angular, xi2.angular
    p = _finite_point("p", p)
    q = _finite_point("q", q)
    terms = _two_axis_terms(w1, w2, p)
    if terms[6] < 1e-18 or _two_axis_parallel(terms):
        raise DegenerateAxesError("rotation axes are parallel")
    points = _two_axis_points_to(terms, q, _MATCH_TOL)
    if not points:
        raise NoSolutionError(
            "no rotation pair maps p onto q (|p| != |q| or the circles miss)"
        )
    p_terms = _rotation_axis_terms(w2, p)
    return SubproblemSolutions(tuple(sorted(
        (_rotation_angle_to(_rotation_axis_terms(w1, c), q, _MATCH_TOL),
         _rotation_angle_to(p_terms, c, _MATCH_TOL))
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
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    p = _finite_point("p", p)
    q = _finite_point("q", q)

    u = q - p
    utv = float(u @ v)
    disc = utv * utv + delta * delta - float(u @ u)
    if disc < -TANGENCY_TOL:
        raise NoSolutionError("the line misses the sphere of radius delta")
    if disc <= TANGENCY_TOL:
        return SubproblemSolutions((utv,))
    root = math.sqrt(disc)
    return SubproblemSolutions((utv - root, utv + root))
