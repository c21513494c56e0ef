"""
Minimal rigid-body and screw algebra: Rodrigues rotation matrices, the
zero-pitch twist record of a joint, and the pose record that forward and
inverse kinematics exchange.

Conventions used throughout the package:
- rotations are explicit 3x3 numpy arrays, positions are numpy 3-vectors
  (meters),
- every revolute axis passes through the origin (the remote center of
  motion), so revolute twists carry a zero linear part,
- joint angles returned by any solver live in (-pi, pi],
- unit-norm and orthonormality are accepted within 1e-9 on input and
  guaranteed within 1e-12 on constructor output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def unit(v) -> np.ndarray:
    """Rescale a 3-vector to unit norm, rejecting inputs far from unit."""
    v = np.asarray(v, dtype=float)
    n = math.sqrt(float(v @ v))
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"expected a unit vector, got norm {n:.3e}")
    return v / n


def _rotation_rows(axis, angle: float):
    """
    Rodrigues rotation by `angle` about an axis already known to be unit,
    as three row tuples of floats: the IK hot path does its 3x3 products
    on these without building arrays.
    """
    x, y, z = axis
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return (
        (c + k * x * x, k * x * y - s * z, k * x * z + s * y),
        (k * x * y + s * z, c + k * y * y, k * y * z - s * x),
        (k * x * z - s * y, k * y * z + s * x, c + k * z * z),
    )


def _axis_norm(axis) -> float:
    """Norm of a rotation axis, or DomainError if it is off unit."""
    x, y, z = axis
    n = math.sqrt(x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"rotation axis must be unit, got norm {n:.3e}")
    return n


def rodrigues(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation by `angle` about a unit `axis`."""
    n = _axis_norm(axis)
    x, y, z = axis
    return np.array(_rotation_rows((x / n, y / n, z / n), angle))


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


class JointKind(Enum):
    REVOLUTE = "revolute"
    PRISMATIC = "prismatic"


@dataclass(frozen=True, eq=False)
class Twist:
    """Unit zero-pitch screw coordinates (linear, angular) of a joint."""

    linear: np.ndarray
    angular: np.ndarray
    kind: JointKind


def revolute_twist(omega) -> Twist:
    """Twist of a revolute joint whose axis passes through the origin."""
    return Twist(np.zeros(3), unit(omega), JointKind.REVOLUTE)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid-body transform: rotation matrix plus position vector."""

    rotation: np.ndarray
    position: np.ndarray
