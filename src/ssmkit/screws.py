"""
Minimal rigid-body and screw algebra: Rodrigues rotation matrices, the
zero-pitch twist record that `subproblem1` and `subproblem2` take, and
the pose record that forward and inverse kinematics exchange.

Conventions used throughout the package:
- rotations at the public API (`Pose`, `rodrigues`) are 3x3 numpy
  arrays; on the FK/IK path they are flat row-major 9-tuples of floats
  (`_rotation_rows`, `_ensure_rotation_rows`), except the IK target,
  which the row core takes as the three rows `.tolist()` gives. Positions
  are numpy 3-vectors (meters) at the API,
- every revolute axis passes through the origin (the remote center of
  motion), so revolute twists carry a zero linear part,
- joint angles returned by any solver live in (-pi, pi],
- unit-norm and orthonormality are accepted within 1e-9 on input and
  guaranteed within 1e-12 on constructor output.

numpy is imported inside the functions that build arrays, so the FK/IK
row cores and `ssmkit fk`/`ssmkit ik` run without it. `_rotation_rows`
is the one Rodrigues formula: it takes the cosine and sine from its
caller, floats from FK, IK and `rodrigues`, numpy arrays from the
workspace sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._inputs import floats, real
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

UNIT_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map a finite angle to its representative in (-pi, pi]."""
    r = real("angle", theta) % _TWO_PI
    if r > math.pi:
        r -= _TWO_PI
    return r


def unit(v) -> np.ndarray:
    """Rescale a finite 3-vector to unit norm, rejecting inputs far from
    unit."""
    v = floats("vector", v, (3,))
    x, y, z = v.tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"expected a unit vector, got norm {n:.3e}")
    return v / n


def _rotation_rows(axis, c, s):
    """
    Rodrigues rotation about an axis already known to be unit, by the angle
    whose cosine and sine the caller passes as c and s, as one flat
    row-major 9-tuple: of floats for float c and s, which the FK/IK hot
    path multiplies without building arrays or row tuples, or of arrays for
    numpy arrays of cosines and sines, entry by entry the same arithmetic.
    """
    x, y, z = axis
    k = 1.0 - c
    return (c + k * x * x, k * x * y - s * z, k * x * z + s * y,
            k * x * y + s * z, c + k * y * y, k * y * z - s * x,
            k * x * z - s * y, k * y * z + s * x, c + k * z * z)


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation by a finite `angle` about a unit
    `axis`."""
    import numpy as np

    a = real("angle", angle)
    return np.array(_rotation_rows(unit(axis).tolist(), math.cos(a), math.sin(a))).reshape(3, 3)


def _ensure_rotation_rows(m):
    """
    The nearest rotation to a finite 3x3 matrix given as a flat row-major
    sequence of nine floats, as a 9-tuple: DomainError unless the
    orthonormality defect max|X^T X - I| is within UNIT_TOL, then two
    Bjorck steps X <- X (3I - X^T X) / 2 (Bjorck & Bowie, SIAM J. Numer.
    Anal. 8, 1971), then DomainError if the determinant is negative. Each
    step squares the defect, so the output's is at rounding level; the
    floats are summed in a fixed order, so the bits do not depend on the
    host's LAPACK, and an exact identity comes back exact.
    """
    s00, s01, s02, s11, s12, s22 = _gram(m)
    defects = (abs(s00 - 1.0), abs(s11 - 1.0), abs(s22 - 1.0), abs(s01), abs(s02), abs(s12))
    if not all(d <= UNIT_TOL for d in defects):
        # `max` keeps its first argument past a later NaN, so NaN is named apart.
        defect = math.nan if any(map(math.isnan, defects)) else max(defects)
        raise DomainError(f"matrix is not orthonormal (defect {defect:.3e})")
    for _ in range(2):
        # Row (x, y, z) of X times 3I - X^T X, each entry's diagonal term first.
        s00, s01, s02, s11, s12, s22 = _gram(m)
        m00, m11, m22 = 3.0 - s00, 3.0 - s11, 3.0 - s22
        m = tuple(0.5 * v for x, y, z in (m[0:3], m[3:6], m[6:9])
                  for v in (x * m00 - y * s01 - z * s02, y * m11 - x * s01 - z * s12,
                            z * m22 - x * s02 - y * s12))
    a, b, c, d, e, f, g, h, i = m
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
        raise DomainError("matrix is a reflection, not a rotation")
    return m


def _gram(m):
    """The six distinct entries of X^T X for X given as a flat row-major
    9-tuple: (00, 01, 02, 11, 12, 22), each summed over the rows in order."""
    a, b, c, d, e, f, g, h, i = m
    return (a * a + d * d + g * g, a * b + d * e + g * h, a * c + d * f + g * i,
            b * b + e * e + h * h, b * c + e * f + h * i, c * c + f * f + i * i)


@dataclass(frozen=True, eq=False)
class Twist:
    """Zero-pitch screw coordinates (linear, angular) of a revolute joint
    whose axis passes through the origin; building one raises DomainError
    unless the angular part is a unit 3-vector and the linear part the zero
    3-vector."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angular", unit(self.angular))
        linear = floats("linear part", self.linear, (3,))
        if linear.any():
            raise DomainError(f"linear part must be the zero 3-vector, got {linear}")
        object.__setattr__(self, "linear", linear)


def revolute_twist(omega) -> Twist:
    """Twist of a revolute joint whose axis passes through the origin."""
    return Twist((0.0, 0.0, 0.0), omega)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid-body transform: rotation matrix plus position vector."""

    rotation: np.ndarray
    position: np.ndarray
