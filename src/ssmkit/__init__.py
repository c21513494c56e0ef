"""Kinematics and transmission-aware dynamics toolkit for a 4-DoF RCM
spherical mechanism: closed-form FK/IK, analytical workspace limits,
friction-dominated inverse dynamics, and friction identification.

The exported names are resolved on first access (PEP 562), so importing
the package, or only its numpy-free modules, does not load numpy."""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("dynamics", ("Direction", "JointTrajectory", "TorqueTrace", "inverse_dynamics",
                      "is_self_locking", "nrmsd", "payload_curve")),
        ("transmission", ("FrictionParams", "TransmissionKind", "TransmissionSpec")),
        ("identification", ("FitReport", "TelemetryLog", "TorqueVelocityMap",
                            "extract_steady_segments", "fit_friction", "load_telemetry_csv")),
        ("kinematics", ("IkSolutionSet", "JointState", "MechanismGeometry",
                        "build_geometry", "forward_kinematics", "inverse_kinematics",
                        "probe_point_defaults")),
        ("screws", ("Pose", "Twist", "normalize_angle", "revolute_twist", "rodrigues")),
        ("subproblems", ("SubproblemSolutions", "subproblem1", "subproblem2",
                         "subproblem3prime")),
        ("band", ("TiltExtremes", "tilt_extremes")),
        ("workspace", ("dot_profile",)),
    )
    for name in names
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
