"""Kinematics and transmission-aware dynamics toolkit for a 4-DoF RCM
spherical mechanism: closed-form FK/IK, analytical workspace limits,
friction-dominated inverse dynamics, and friction identification."""

from .dynamics import (
    Direction,
    FrictionParams,
    JointTrajectory,
    TorqueTrace,
    TransmissionKind,
    TransmissionSpec,
    inverse_dynamics,
    is_self_locking,
    nrmsd,
    payload_curve,
)
from .identification import (
    FitReport,
    TelemetryLog,
    TorqueVelocityMap,
    evaluate_model,
    extract_steady_segments,
    fit_friction,
    load_telemetry_csv,
)
from .kinematics import (
    IkSolutionSet,
    JointState,
    MechanismGeometry,
    build_geometry,
    forward_kinematics,
    inverse_kinematics,
    probe_point_defaults,
)
from .screws import (
    JointKind,
    Pose,
    Twist,
    normalize_angle,
    revolute_twist,
    rodrigues,
)
from .subproblems import (
    SubproblemSolutions,
    subproblem1,
    subproblem2,
    subproblem3prime,
)
from .workspace import (
    TiltExtremes,
    critical_directions,
    dot_profile,
    dot_profile_derivatives,
    tilt_extremes,
)

__version__ = "0.1.0"
