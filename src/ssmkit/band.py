"""
Closed-form tilt band of the RCM mechanism, in plain `math`.

With the tool extended one unit through the remote center, the reachable
tip directions form a band on the unit sphere that is rotationally
symmetric about the roll axis. Its polar-angle extremes relative to
omega1 are the four values +/-(alpha +/- beta), folded into [0, pi].
This module imports neither numpy nor `dataclasses` (which loads
`inspect`), so `ssmkit workspace A B` answers without loading them;
`TiltExtremes` is a named tuple. `workspace` re-exports these names next
to the sampled counterpart.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._inputs import real
from .errors import DomainError


class TiltExtremes(NamedTuple):
    """Closed-form polar-angle extremes of the tilt band.

    phi_values are the four raw extremes folded to [0, pi]; the attained
    band is [tilt_min, tilt_max] and span is its width. All radians.
    """

    phi_values: tuple[float, float, float, float]
    tilt_min: float
    tilt_max: float
    span: float


def _fold_polar(phi: float) -> float:
    """Fold an angle to the equivalent polar angle in [0, pi]."""
    m = abs(phi) % (2.0 * math.pi)
    return 2.0 * math.pi - m if m > math.pi else m


def check_axis_angles(alpha: float, beta: float) -> None:
    """DomainError unless both axis angles (radians) are real numbers in (0, pi)."""
    if not 0.0 < real("alpha", alpha) < math.pi:
        raise DomainError(f"alpha must lie in (0, pi), got {alpha}")
    if not 0.0 < real("beta", beta) < math.pi:
        raise DomainError(f"beta must lie in (0, pi), got {beta}")


def tilt_extremes(alpha: float, beta: float) -> TiltExtremes:
    """Closed-form tilt band for axis angles alpha, beta (radians)."""
    check_axis_angles(alpha, beta)
    raw = (alpha + beta, alpha - beta, -alpha + beta, -alpha - beta)
    folded = tuple(_fold_polar(phi) for phi in raw)
    tilt_min = min(folded)
    tilt_max = max(folded)
    return TiltExtremes(folded, tilt_min, tilt_max, tilt_max - tilt_min)
