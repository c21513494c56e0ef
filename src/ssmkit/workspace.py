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
import sys

import numpy as np

from . import csvfile
from ._inputs import floats
from .band import TiltExtremes, tilt_extremes  # noqa: F401 (re-exported)
from .configfile import DEFAULT_PRECISION
from .errors import DomainError
from .kinematics import MechanismGeometry
from .screws import _rotation_rows


def _turn(axis, theta, v, count=3):
    """The first `count` of the three components of e^(hat(axis) theta) v,
    by FK's Rodrigues kernel `_rotation_rows` on the cosines and sines of
    theta; axis is a unit 3-vector, and theta and v's components broadcast."""
    m = _rotation_rows(axis, np.cos(theta), np.sin(theta))
    x, y, z = v
    return tuple(m[i] * x + m[i + 1] * y + m[i + 2] * z for i in (0, 3, 6)[:count])


def dot_profile(geom: MechanismGeometry, theta2):
    """
    cos(polar angle) of the tip direction as a function of theta2 alone:
    the z of v4 turned about omega2, as omega1 = +z. Accepts scalar or
    array theta2 of finite real numbers.
    """
    return _turn(geom.omega2, floats("theta2", theta2), geom.v4)[2]


def check_grid_samples(n1: int, n2: int) -> None:
    """Raise DomainError unless each joint gets at least 2 grid samples, and
    MemoryError for a grid whose points no address space holds."""
    if n1 < 2 or n2 < 2:
        raise DomainError("grid needs at least 2 samples per joint")
    if n1 * n2 * 3 * 8 > sys.maxsize:
        # numpy would fail with a ValueError, not a MemoryError.
        raise MemoryError(f"a {n1} x {n2} grid does not fit in the address space")


def sample_workspace_grid(geom: MechanismGeometry, n1: int, n2: int):
    """
    Vectorized tip directions over the (theta1, theta2) grid with the tool
    extended one unit. Returns (theta1 grid, theta2 grid, points with
    shape (n1*n2, 3) in theta2-fastest row-major order, polar angles).

    v4 is turned about omega2 for each theta2, and that ring about omega1
    for each theta1. omega1 is +z, so the turn keeps z: every theta1 line
    holds the ring's z, which is `dot_profile(theta2)` exactly, and the
    polar angle taken once per theta2.
    """
    check_grid_samples(n1, n2)
    theta1 = np.linspace(-math.pi, math.pi, n1, endpoint=False)
    theta2 = np.linspace(-math.pi, math.pi, n2, endpoint=False)
    ring = _turn(geom.omega2, theta2, geom.v4)
    points = np.empty((n1, n2, 3))
    points[:, :, 0], points[:, :, 1] = _turn(geom.omega1, theta1[:, None], ring, 2)
    points[:, :, 2] = ring[2]
    # math.acos, not np.arccos, whose SIMD kernels can round differently by CPU.
    polar = np.array([math.acos(z) for z in np.clip(ring[2], -1.0, 1.0).tolist()])
    return theta1, theta2, points.reshape(-1, 3), np.tile(polar, n1)


def write_workspace_csv(path, geom: MechanismGeometry, n1: int, n2: int,
                        precision: int = DEFAULT_PRECISION) -> None:
    """Emit grid samples as CSV: theta1_rad, theta2_rad, x, y, z, polar_deg.

    The bytes of each theta1, and of each theta2 with its z and polar
    angle, are formatted once. Each theta2 gets a row template with x and
    y left as `%` slots, and each theta1 line is written by one bytes `%`
    call on the templates. The bytes are those of
    `csvfile.write_numeric_csv` on the (n1*n2, 6) table."""
    theta1, theta2, points, polar = sample_workspace_grid(geom, n1, n2)
    num = csvfile._number_format(precision)
    # A formatted number holds no `%`, so the fixed text is safe in a template.
    templates = [b"%s,%s,%s,%s,%s\n" % (t2, num, num, z, deg) for t2, z, deg in zip(
        csvfile._texts(theta2, precision), csvfile._texts(points[:n2, 2], precision),
        csvfile._texts(np.degrees(polar[:n2]), precision))]
    xy = points.reshape(n1, n2, 3)[:, :, :2]
    with csvfile._table(path, ("theta1_rad", "theta2_rad", "x", "y", "z", "polar_deg")) as fh:
        for lead, line in zip(csvfile._texts(theta1, precision), xy):
            lead += b","
            fh.write((lead + lead.join(templates)) % tuple(line.ravel().tolist()))
