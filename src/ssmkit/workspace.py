"""
Analytical workspace characterization of the RCM mechanism.

With the tool extended one unit through the remote center, the reachable
tip directions form a band on the unit sphere that is rotationally
symmetric about the roll axis. The band edges follow in closed form from
the axis angles (`band.tilt_extremes`, re-exported here). A dense
sampling routine on FK's own Rodrigues kernel provides the brute-force
counterpart used to cross-check the formulas.
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
from .screws import _rotation_rows


def _turn(axis, theta, v):
    """e^(hat(axis) theta) v as three components, by FK's Rodrigues kernel
    `_rotation_rows` on the cosines and sines of theta; axis is a unit
    3-vector, and theta and v's components broadcast."""
    m = _rotation_rows(axis, np.cos(theta), np.sin(theta))
    x, y, z = v
    return tuple(m[i] * x + m[i + 1] * y + m[i + 2] * z for i in (0, 3, 6))


def dot_profile(geom: MechanismGeometry, theta2):
    """
    cos(polar angle) of the tip direction as a function of theta2 alone:
    the z of v4 turned about omega2, as omega1 = +z. Accepts scalar or
    array theta2 of finite real numbers.
    """
    return _turn(geom.omega2, floats("theta2", theta2), geom.v4)[2]


def dot_profile_derivatives(geom: MechanismGeometry, theta2):
    """Analytic first and second derivatives of dot_profile w.r.t. theta2."""
    r = np.stack(_turn(geom.omega2, floats("theta2", theta2), geom.v4), axis=-1)
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
    # v4 about omega2 for each theta2, then that ring about omega1 for each theta1.
    tips = _turn(geom.omega1, theta1[:, None], _turn(geom.omega2, theta2, geom.v4))
    points = np.empty((n1, n2, 3))
    for i, component in enumerate(tips):
        points[:, :, i] = component
    # omega1 is +z: the polar angle is that of the z component.
    polar = tips[2].reshape(-1)
    np.arccos(np.clip(polar, -1.0, 1.0, out=polar), out=polar)
    return theta1, theta2, points.reshape(-1, 3), polar


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
