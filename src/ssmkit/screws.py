"""
Minimal rigid-body and screw algebra: Rodrigues rotation matrices, the
zero-pitch twist record that `subproblem1` and `subproblem2` take, and
the pose record that forward and inverse kinematics exchange.

Conventions used throughout the package:
- rotations at the public API (`Pose`, `rodrigues`, `ensure_rotation`)
  are 3x3 numpy arrays; on the FK/IK path they are flat row-major
  9-tuples of floats (`_rotation_rows`). Positions are numpy 3-vectors
  (meters) at the API,
- every revolute axis passes through the origin (the remote center of
  motion), so revolute twists carry a zero linear part,
- joint angles returned by any solver live in (-pi, pi],
- unit-norm and orthonormality are accepted within 1e-9 on input and
  guaranteed within 1e-12 on constructor output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

UNIT_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map an angle to its representative in (-pi, pi]."""
    r = theta % _TWO_PI
    if r > math.pi:
        r -= _TWO_PI
    return r


def _vector3(name: str, v) -> np.ndarray:
    """`v` as a float numpy 3-vector, or DomainError naming `name` on any
    other shape or on entries that are not real numbers (ragged, complex,
    or text that does not read as a number)."""
    try:
        array = np.asarray(v)
        if array.dtype.kind == "c":  # numpy would drop the imaginary part
            raise TypeError
        array = array.astype(float, copy=False)
    except (TypeError, ValueError):
        raise DomainError(f"{name}: expected a 3-vector of real numbers, got {v!r:.60}") from None
    if array.shape != (3,):
        raise DomainError(f"{name}: expected a 3-vector, got shape {array.shape}")
    return array


def unit(v) -> np.ndarray:
    """Rescale a 3-vector to unit norm, rejecting any other shape and inputs
    far from unit."""
    v = _vector3("vector", v)
    n = math.sqrt(float(v @ v))
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"expected a unit vector, got norm {n:.3e}")
    return v / n


def _rotation_rows(axis, angle: float):
    """
    Rodrigues rotation by `angle` about an axis already known to be unit,
    as one flat row-major 9-tuple of floats: the IK hot path does its 3x3
    products on these without building arrays or row tuples.
    """
    x, y, z = axis
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return (c + k * x * x, k * x * y - s * z, k * x * z + s * y,
            k * x * y + s * z, c + k * y * y, k * y * z - s * x,
            k * x * z - s * y, k * y * z + s * x, c + k * z * z)


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation by a finite `angle` about a unit
    `axis`."""
    x, y, z = _vector3("rotation axis", axis).tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"rotation axis must be unit, got norm {n:.3e}")
    if not math.isfinite(angle):
        raise DomainError(f"angle: expected a finite number, got {angle}")
    return np.array(_rotation_rows((x / n, y / n, z / n), angle)).reshape(3, 3)


def ensure_rotation(r) -> np.ndarray:
    """
    Validate a 3x3 rotation matrix and return its nearest orthonormal
    representative (so downstream code sees orthonormality at 1e-12).
    Non-finite entries are rejected before the SVD, which may not return
    on an infinite one.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise DomainError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise DomainError("rotation entries must be finite")
    defect = np.abs(r.T @ r - np.eye(3)).max()
    if not defect <= UNIT_TOL:
        raise DomainError(f"matrix is not orthonormal (defect {defect:.3e})")
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        raise DomainError("matrix is a reflection, not a rotation")
    return out


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
        linear = _vector3("linear part", self.linear)
        if linear.any():
            raise DomainError(f"linear part must be the zero 3-vector, got {linear}")
        object.__setattr__(self, "linear", linear)


def revolute_twist(omega) -> Twist:
    """Twist of a revolute joint whose axis passes through the origin."""
    return Twist(np.zeros(3), omega)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid-body transform: rotation matrix plus position vector."""

    rotation: np.ndarray
    position: np.ndarray
