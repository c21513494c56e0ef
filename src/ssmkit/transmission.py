"""
Drive records of a joint and their config file: the transmission kind,
the self-locking drive geometry (`TransmissionSpec`), the friction set
(`FrictionParams`), and the `key = value` transmission config that holds
both. This module imports no numpy, so a project file's joint drives
load without it; `dynamics` re-exports these names next to the model
that uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import configfile
from ._inputs import real
from .errors import DomainError


class TransmissionKind(Enum):
    WORM_GEAR = "wormgear"
    LEAD_SCREW = "leadscrew"


@dataclass(frozen=True)
class FrictionParams:
    """Per-joint friction set: transmission mu_s/mu_c, bearing b_c/b_v."""

    mu_s: float  # static transmission friction, dimensionless
    mu_c: float  # Coulomb transmission friction, dimensionless
    b_c: float   # bearing Coulomb torque, N*m
    b_v: float   # bearing viscous coefficient, N*m*s/rad

    def __post_init__(self):
        for name in ("mu_s", "mu_c", "b_c", "b_v"):
            if not real(name, getattr(self, name)) >= 0.0:
                raise DomainError(f"{name} must be nonnegative")
        if self.mu_s < self.mu_c:
            raise DomainError("mu_s must be >= mu_c (breakaway >= sliding)")


@dataclass(frozen=True)
class TransmissionSpec:
    """Self-locking drive geometry as seen from the motor shaft."""

    kind: TransmissionKind
    ratio: float              # rad motor per rad/m joint
    lead_angle: float         # radians
    reflected_inertia: float  # kg*m^2 at the motor shaft

    def __post_init__(self):
        if not real("ratio", self.ratio) > 0.0:
            raise DomainError("ratio must be positive")
        if not 0.0 < real("lead_angle", self.lead_angle) < math.pi / 2.0:
            raise DomainError("lead_angle must lie in (0, pi/2)")
        if not real("reflected_inertia", self.reflected_inertia) >= 0.0:
            raise DomainError("reflected_inertia must be nonnegative")


_KIND_NAMES = {k.value: k for k in TransmissionKind}
# Keys of a transmission config, in the order they are written; the last
# four are the FrictionParams fields.
_TRANSMISSION_KEYS = ("kind", "ratio", "lead_angle_deg", "reflected_inertia",
                      "mu_s", "mu_c", "b_c", "b_v")


def load_transmission_config(path):
    """
    Read a transmission/friction config with keys kind, ratio,
    lead_angle_deg, reflected_inertia, mu_s, mu_c, b_c, b_v. Returns
    (TransmissionSpec, FrictionParams). Unknown keys are rejected.
    """
    kv = configfile.read_config(path, "transmission config", _TRANSMISSION_KEYS)
    num = lambda key: configfile.parse_float(kv[key], key)
    kind = kv["kind"].lower()
    if kind not in _KIND_NAMES:
        raise DomainError(f"transmission config {path}: kind must be one of "
                          f"{sorted(_KIND_NAMES)}, got {kind!r}")
    spec = TransmissionSpec(_KIND_NAMES[kind], num("ratio"),
                            math.radians(num("lead_angle_deg")), num("reflected_inertia"))
    return spec, FrictionParams(*(num(key) for key in _TRANSMISSION_KEYS[4:]))


def save_transmission_config(path, spec: TransmissionSpec, params: FrictionParams,
                             comments=(),
                             precision: int = configfile.DEFAULT_PRECISION) -> None:
    """Write a config that load_transmission_config reads back unchanged."""
    ff = lambda x: configfile.format_float(x, precision)
    values = [spec.kind.value, ff(spec.ratio), ff(math.degrees(spec.lead_angle)),
              ff(spec.reflected_inertia)]
    values += [ff(getattr(params, key)) for key in _TRANSMISSION_KEYS[4:]]
    configfile.write_kv(path, zip(_TRANSMISSION_KEYS, values), comments)
