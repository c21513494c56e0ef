"""
Analytical workspace characterization of the RCM mechanism.

With the tool extended one unit through the remote center, the reachable
tip directions form a band on the unit sphere that is rotationally
symmetric about the roll axis. The band edges follow in closed form from
the axis angles (`band.tilt_extremes`, re-exported here). A dense
sampling routine provides the brute-force counterpart used to
cross-check the formulas.
"""

from __future__ import annotations

import math

import numpy as np

from . import csvfile
from ._inputs import floats
from .band import TiltExtremes, tilt_extremes  # noqa: F401 (re-exported)
from .configfile import DEFAULT_PRECISION
from .errors import DegenerateGeometryError, DomainError
from .kinematics import MechanismGeometry


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
    # c * vec + s * axv + (1 - c) * axial, summed in place in that order:
    # the same bits, with one full-size temporary fewer.
    out = c * vec
    out += s * axv
    out += (1.0 - c) * axial
    return out


def dot_profile(geom: MechanismGeometry, theta2):
    """
    cos(polar angle) of the tip direction as a function of theta2 alone;
    rotation about omega1 cancels out of the inner product with omega1.
    Accepts scalar or array theta2 of finite real numbers.
    """
    r = rotate_about(geom.omega2, floats("theta2", theta2), geom.v4)
    return r @ geom.omega1


def dot_profile_derivatives(geom: MechanismGeometry, theta2):
    """Analytic first and second derivatives of dot_profile w.r.t. theta2."""
    r = rotate_about(geom.omega2, floats("theta2", theta2), geom.v4)
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
    polar = points @ geom.omega1
    np.arccos(np.clip(polar, -1.0, 1.0, out=polar), out=polar)
    return theta1, theta2, points, polar


def write_workspace_csv(path, geom: MechanismGeometry, n1: int, n2: int,
                        precision: int = DEFAULT_PRECISION) -> None:
    """Emit grid samples as CSV: theta1_rad, theta2_rad, x, y, z, polar_deg."""
    theta1, theta2, points, polar = sample_workspace_grid(geom, n1, n2)
    data = np.empty((len(points), 6))
    grid = data.reshape(len(theta1), len(theta2), 6)
    grid[:, :, 0] = theta1[:, None]
    grid[:, :, 1] = theta2
    data[:, 2:5] = points
    np.degrees(polar, out=data[:, 5])
    # The table holds the grid now; freeing it keeps it out of the write's peak.
    del points, polar
    csvfile.write_numeric_csv(
        path, ("theta1_rad", "theta2_rad", "x", "y", "z", "polar_deg"), data, precision
    )
