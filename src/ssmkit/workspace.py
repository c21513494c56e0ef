"""
Analytical workspace characterization of the RCM mechanism.

With the tool extended one unit through the remote center, the reachable
tip directions form a band on the unit sphere that is rotationally
symmetric about the roll axis. The band edges follow in closed form from
the axis angles: the polar-angle extremes relative to omega1 are the four
values +/-(alpha +/- beta), folded into [0, pi]. A dense sampling routine
provides the brute-force counterpart used to cross-check the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvfile
from .configfile import DEFAULT_PRECISION
from .errors import DegenerateGeometryError, DomainError
from .kinematics import MechanismGeometry


@dataclass(frozen=True)
class TiltExtremes:
    """Closed-form polar-angle extremes of the tilt band.

    phi_values are the four raw extremes folded to [0, pi]; the attained
    band is [tilt_min, tilt_max] and span is its width. All radians.
    """

    phi_values: tuple[float, float, float, float]
    tilt_min: float
    tilt_max: float
    span: float


def rotate_about(axis: np.ndarray, theta, vec: np.ndarray) -> np.ndarray:
    """
    e^(hat(axis) theta) vec for every angle and every vector (unit axis
    assumed). theta is a scalar or an n-vector, vec a 3-vector or an
    (m, 3) stack; the result has shape theta.shape + vec.shape, so
    result[i, j] rotates vec[j] by theta[i].
    """
    theta = np.asarray(theta, dtype=float)
    vec = np.asarray(vec, dtype=float)
    lift = theta.shape + (1,) * vec.ndim
    c = np.cos(theta).reshape(lift)
    s = np.sin(theta).reshape(lift)
    axv = np.cross(axis, vec)
    axial = (vec @ axis)[..., None] * axis
    return c * vec + s * axv + (1.0 - c) * axial


def dot_profile(geom: MechanismGeometry, theta2):
    """
    cos(polar angle) of the tip direction as a function of theta2 alone;
    rotation about omega1 cancels out of the inner product with omega1.
    Accepts scalar or array theta2.
    """
    r = rotate_about(geom.omega2, theta2, geom.v4)
    return r @ geom.omega1


def dot_profile_derivatives(geom: MechanismGeometry, theta2):
    """Analytic first and second derivatives of dot_profile w.r.t. theta2."""
    r = rotate_about(geom.omega2, theta2, geom.v4)
    w2 = geom.omega2
    first = r @ np.cross(geom.omega1, w2)
    second = np.cross(w2, np.cross(w2, r)) @ geom.omega1
    return first, second


def critical_directions(geom: MechanismGeometry):
    """
    The two unit directions in span{omega1, omega2} where the polar angle
    of the tip attains its extremes. Their omega1-components are
    cos(alpha - beta) and cos(alpha + beta) respectively.
    """
    sa = math.sin(geom.alpha)
    if abs(sa) < 1e-9:
        raise DegenerateGeometryError("sin(alpha) ~ 0: axes 1 and 2 coincide")
    sb = math.sin(geom.beta)
    d_plus = (sb / sa) * geom.omega1 + (math.sin(geom.alpha - geom.beta) / sa) * geom.omega2
    d_minus = (-sb / sa) * geom.omega1 + (math.sin(geom.alpha + geom.beta) / sa) * geom.omega2
    return d_plus, d_minus


def _fold_polar(phi: float) -> float:
    """Fold an angle to the equivalent polar angle in [0, pi]."""
    m = abs(phi) % (2.0 * math.pi)
    return 2.0 * math.pi - m if m > math.pi else m


def tilt_extremes(alpha: float, beta: float) -> TiltExtremes:
    """Closed-form tilt band for axis angles alpha, beta (radians)."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha}")
    if not 0.0 < beta < math.pi:
        raise DomainError(f"beta must lie in (0, pi), got {beta}")
    raw = (alpha + beta, alpha - beta, -alpha + beta, -alpha - beta)
    folded = tuple(_fold_polar(phi) for phi in raw)
    tilt_min = min(folded)
    tilt_max = max(folded)
    return TiltExtremes(folded, tilt_min, tilt_max, tilt_max - tilt_min)


def check_grid_samples(n1: int, n2: int) -> None:
    """Raise DomainError unless each joint gets at least 2 grid samples."""
    if n1 < 2 or n2 < 2:
        raise DomainError("grid needs at least 2 samples per joint")


def sample_workspace_grid(geom: MechanismGeometry, n1: int, n2: int):
    """
    Vectorized tip directions over the (theta1, theta2) grid with the tool
    extended one unit. Returns (theta1 grid, theta2 grid, points with
    shape (n1*n2, 3) in theta2-fastest row-major order, polar angles).
    """
    check_grid_samples(n1, n2)
    theta1 = np.linspace(-math.pi, math.pi, n1, endpoint=False)
    theta2 = np.linspace(-math.pi, math.pi, n2, endpoint=False)
    ring = rotate_about(geom.omega2, theta2, geom.v4)
    points = rotate_about(geom.omega1, theta1, ring).reshape(-1, 3)
    polar = np.arccos(np.clip(points @ geom.omega1, -1.0, 1.0))
    return theta1, theta2, points, polar


def write_workspace_csv(path, geom: MechanismGeometry, n1: int, n2: int,
                        precision: int = DEFAULT_PRECISION) -> None:
    """Emit grid samples as CSV: theta1_rad, theta2_rad, x, y, z, polar_deg."""
    theta1, theta2, points, polar = sample_workspace_grid(geom, n1, n2)
    t1 = np.repeat(theta1, len(theta2))
    t2 = np.tile(theta2, len(theta1))
    data = np.column_stack([t1, t2, points, np.degrees(polar)])
    csvfile.write_numeric_csv(
        path, ("theta1_rad", "theta2_rad", "x", "y", "z", "polar_deg"), data, precision
    )
