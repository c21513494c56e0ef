"""
Command-line front end: workspace characterization, forward/inverse
kinematics, friction identification, torque simulation, and payload-curve
emission.

Angles cross the CLI boundary in degrees (radians internally); joint 4
values are meters. Relative output paths go under the project's
output_dir, else under SSMKIT_OUTPUT_DIR when it is set. Exit codes: 0 on
success, 2 for input or config errors, 3 when a target is unreachable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import csvfile, dynamics, identification, kinematics, workspace
from .configfile import (DEFAULT_PRECISION, MAX_PRECISION, format_float, parse_float,
                         parse_floats, parse_precision, read_kv)
from .errors import DomainError, SsmKitError, TrajectoryOverflowError, UnreachableError
from .screws import Pose, ensure_rotation

OUTPUT_DIR_ENV = "SSMKIT_OUTPUT_DIR"


@dataclass(frozen=True)
class ProjectConfig:
    """Resolved project file: mechanism, per-joint drives, output policy."""

    geometry: kinematics.MechanismGeometry | None = None
    drives: dict = field(default_factory=dict)  # joint id -> (spec, params)
    output_dir: Path | None = None
    precision: int = DEFAULT_PRECISION


def load_project_config(path) -> ProjectConfig:
    """
    Read a project file with optional keys mechanism, joint1..joint4
    (paths to configs, validated by parsing them now), output_dir, and
    precision. Relative paths are taken from the project file's directory.
    """
    kv = read_kv(path)
    base = Path(path).parent

    def resolve(raw):
        p = Path(raw)
        return p if p.is_absolute() else base / p

    geometry = None
    if "mechanism" in kv:
        mech_path = resolve(kv.pop("mechanism"))
        if not mech_path.exists():
            raise DomainError(f"project {path}: mechanism file {mech_path} not found")
        geometry = kinematics.load_mechanism_config(mech_path)
    drives = {}
    for jid in (1, 2, 3, 4):
        key = f"joint{jid}"
        if key in kv:
            drive_path = resolve(kv.pop(key))
            if not drive_path.exists():
                raise DomainError(f"project {path}: {key} file {drive_path} not found")
            drives[jid] = dynamics.load_transmission_config(drive_path)
    output_dir = resolve(kv.pop("output_dir")) if "output_dir" in kv else None
    precision = DEFAULT_PRECISION
    if "precision" in kv:
        precision = parse_precision(kv.pop("precision"), "precision")
    if kv:
        raise DomainError(f"project {path}: unknown keys {sorted(kv)}")
    return ProjectConfig(geometry, drives, output_dir, precision)


def _out_path(raw, project: ProjectConfig | None) -> Path:
    p = Path(raw)
    if p.is_absolute():
        return p
    root = None
    if project is not None and project.output_dir is not None:
        root = project.output_dir
    elif os.environ.get(OUTPUT_DIR_ENV):
        root = Path(os.environ[OUTPUT_DIR_ENV])
    if root is None:
        return p
    root.mkdir(parents=True, exist_ok=True)
    return root / p


def _load_project(args) -> ProjectConfig | None:
    if getattr(args, "project", None):
        return load_project_config(args.project)
    return None


def _geometry_for(args, project):
    if getattr(args, "config", None):
        return kinematics.load_mechanism_config(args.config)
    if project is not None and project.geometry is not None:
        return project.geometry
    raise DomainError("no mechanism config: pass --config or a --project with one")


def _drive_for(args, project):
    if getattr(args, "transmission", None):
        return dynamics.load_transmission_config(args.transmission)
    joint = getattr(args, "joint", None)
    if project is not None and joint is not None and joint in project.drives:
        return project.drives[joint]
    raise DomainError(
        "no transmission config: pass --transmission or a --project defining the joint"
    )


def _precision(args, project) -> int:
    if getattr(args, "precision", None) is not None:
        return args.precision
    if project is not None:
        return project.precision
    return DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# subcommands

def cmd_workspace(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    ff = lambda x: format_float(x, prec)
    if args.csv:
        workspace.check_grid_samples(args.samples, args.samples)
    alpha = math.radians(args.alpha_deg)
    beta = math.radians(args.beta_deg)
    ext = workspace.tilt_extremes(alpha, beta)
    lo = math.degrees(ext.tilt_min)
    hi = math.degrees(ext.tilt_max)
    print("extremes_deg =", " ".join(ff(math.degrees(p)) for p in ext.phi_values))
    print(f"band_deg = {ff(lo)} to {ff(hi)}")
    print(f"span_deg = {ff(math.degrees(ext.span))}")
    print(f"signed_range_deg = {ff(-hi)} to {ff(-lo)}")
    print(
        "# signed convention: polar angles reported in the negative half of "
        "the roll-tilt plane section"
    )
    if args.csv:
        geom = kinematics.build_geometry(alpha, beta)
        path = _out_path(args.csv, project)
        workspace.write_workspace_csv(path, geom, args.samples, args.samples, prec)
        print(f"workspace samples written to {path}")
    return 0


def _parse_theta(raw) -> kinematics.JointState:
    vals = parse_floats(raw, "--theta", 4)
    return kinematics.JointState(
        math.radians(vals[0]), math.radians(vals[1]), math.radians(vals[2]), vals[3]
    )


def _parse_pose(raw) -> Pose:
    vals = parse_floats(raw, "--pose", 12)
    rot = ensure_rotation(np.array(vals[:9]).reshape(3, 3))
    return Pose(rot, np.array(vals[9:]))


def cmd_fk(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    ff = lambda x: format_float(x, prec)
    geom = _geometry_for(args, project)
    pose = kinematics.forward_kinematics(geom, _parse_theta(args.theta))
    print("rotation =", " ".join(ff(v) for v in pose.rotation.ravel()))
    print("position_m =", " ".join(ff(v) for v in pose.position))
    print(f"position_norm_m = {ff(float(np.linalg.norm(pose.position)))}")
    return 0


def cmd_ik(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    ff = lambda x: format_float(x, prec)
    geom = _geometry_for(args, project)
    result = kinematics.inverse_kinematics(geom, _parse_pose(args.pose))
    print(f"singular = {'yes' if result.singular else 'no'}")
    print(f"branches = {len(result.branches)}")
    print("branch theta1_deg theta2_deg theta3_deg theta4_m pos_err_m rot_err")
    for i, (state, (pos_err, rot_err)) in enumerate(
        zip(result.branches, result.residuals), start=1
    ):
        cols = [
            ff(math.degrees(state.theta1)),
            ff(math.degrees(state.theta2)),
            ff(math.degrees(state.theta3)),
            ff(state.theta4),
            ff(pos_err),
            ff(rot_err),
        ]
        print(f"{i} " + " ".join(cols))
    return 0


def cmd_identify(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    ff = lambda x: format_float(x, prec)
    spec, _ = _drive_for(args, project)
    log = identification.load_telemetry_csv(args.telemetry, args.rate)
    tv_map = identification.extract_steady_segments(
        log,
        args.tolerance,
        args.min_duration,
        joint_id=args.joint,
        discard_s=args.discard,
    )
    breakaway = None
    if args.breakaway:
        breakaway = identification.extract_breakaway_samples(
            log, args.tolerance, args.min_duration, joint_id=args.joint
        )
    with warnings.catch_warnings():
        # Every clamp the fit warns about is also printed as a flag line.
        warnings.simplefilter("ignore", UserWarning)
        report = identification.fit_friction(
            tv_map, spec, test_load=args.load, breakaway=breakaway
        )
    print("map points (velocity, torque_mean, torque_std, count):")
    for p in tv_map.points:
        print(f"  {ff(p.velocity)} {ff(p.torque_mean)} {ff(p.torque_std)} {p.count}")
    fitted = report.params
    print(f"mu_s = {ff(fitted.mu_s)}")
    print(f"mu_c = {ff(fitted.mu_c)}")
    print(f"b_c = {ff(fitted.b_c)}")
    print(f"b_v = {ff(fitted.b_v)}")
    print(f"residual_nrmsd = {ff(report.residual)}")
    for name, value in sorted(report.residuals_by_direction.items()):
        print(f"residual_nrmsd_{name} = {ff(value)}")
    for flag in report.flags:
        print(f"flag: {flag}")
    if args.out:
        path = _out_path(args.out, project)
        identification.save_fit_report(path, report, spec, prec)
        print(f"fit report written to {path}")
    return 0


def cmd_simulate(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    spec, params = _drive_for(args, project)
    traj = dynamics.read_trajectory_csv(args.trajectory)
    load_fn = None if args.load == 0.0 else (lambda t: args.load)
    try:
        trace = dynamics.inverse_dynamics(spec, params, load_fn, traj)
    except TrajectoryOverflowError as exc:
        raise DomainError(f"{args.trajectory}: {exc}") from None
    path = _out_path(args.out, project)
    dynamics.write_trace_csv(path, trace.time, trace.torque, prec)
    print(f"simulated torque written to {path}")
    if args.measured:
        mt, mv = dynamics.read_trace_csv(args.measured)
        value = dynamics.nrmsd(trace, dynamics.TorqueTrace(mt, mv))
        print(f"nrmsd = {format_float(value, prec)}")
    return 0


def cmd_payload(args) -> int:
    project = _load_project(args)
    prec = _precision(args, project)
    spec, params = _drive_for(args, project)
    if args.points < 1:
        raise DomainError("--points must be at least 1")
    if args.vmax <= 0.0:
        raise DomainError("--vmax must be positive")
    grid = np.linspace(args.vmax / args.points, args.vmax, args.points)
    curve = dynamics.payload_curve(spec, params, args.load, grid)
    path = _out_path(args.out, project)
    csvfile.write_numeric_csv(path, ("velocity_rad_s", "torque_Nm"), curve, prec)
    print(f"payload curve written to {path}")
    return 0


# ---------------------------------------------------------------------------

def _finite_float(raw) -> float:
    try:
        return parse_float(raw, "")
    except DomainError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}") from None


def _precision_arg(raw) -> int:
    try:
        return parse_precision(raw, "--precision")
    except DomainError as exc:
        # argparse names the option: keep the message after the key.
        raise argparse.ArgumentTypeError(str(exc).split(": ", 1)[1]) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmkit",
        description="Kinematics and transmission-aware dynamics toolkit for a "
        "4-DoF RCM spherical mechanism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--project", help="project config supplying defaults")
        p.add_argument(
            "--precision", type=_precision_arg, default=None,
            help=f"significant digits for emitted numbers, 1 to {MAX_PRECISION} "
            f"(default {DEFAULT_PRECISION})",
        )

    p = sub.add_parser("workspace", help="tilt band from the axis angles")
    p.add_argument("alpha_deg", type=_finite_float, help="angle between axes 1 and 2, deg")
    p.add_argument("beta_deg", type=_finite_float, help="angle between axes 2 and 3, deg")
    p.add_argument("--samples", type=int, default=2048,
                   help="grid size per joint for --csv emission")
    p.add_argument("--csv", help="write an N x N sampled point cloud CSV here")
    add_common(p)
    p.set_defaults(func=cmd_workspace)

    p = sub.add_parser("fk", help="forward kinematics for one joint state")
    p.add_argument("--config", help="mechanism config file")
    p.add_argument("--theta", required=True,
                   help="joint values as deg,deg,deg,meters")
    add_common(p)
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="closed-form inverse kinematics branches")
    p.add_argument("--config", help="mechanism config file")
    p.add_argument("--pose", required=True,
                   help="target pose: 9 rotation entries row-major then x,y,z meters")
    add_common(p)
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("identify", help="fit friction parameters from telemetry")
    p.add_argument("telemetry", help="telemetry CSV (time_s,joint_id,velocity,torque)")
    p.add_argument("--transmission", help="transmission/friction config file")
    p.add_argument("--joint", type=int, default=None, help="joint id 1..4")
    p.add_argument("--load", type=_finite_float, default=0.0,
                   help="constant joint-side test load, N*m")
    p.add_argument("--tolerance", type=_finite_float, default=0.01,
                   help="plateau velocity tolerance, motor rad/s")
    p.add_argument("--min-duration", type=_finite_float, default=0.5,
                   help="minimum plateau duration after trimming, s")
    p.add_argument("--discard", type=_finite_float, default=0.25,
                   help="leading transient discard per plateau, s")
    p.add_argument("--rate", type=_finite_float, default=200.0,
                   help="nominal telemetry sample rate, Hz")
    p.add_argument("--breakaway", action="store_true",
                   help="also estimate mu_s from breakaway transients")
    p.add_argument("--out", help="write the fit report here")
    add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="inverse-dynamics torque for a trajectory")
    p.add_argument("trajectory", help="joint velocity CSV (time_s,value)")
    p.add_argument("--transmission", help="transmission/friction config file")
    p.add_argument("--joint", type=int, default=None,
                   help="joint id when using --project")
    p.add_argument("--load", type=_finite_float, default=0.0,
                   help="constant joint-side load torque, N*m")
    p.add_argument("--measured", help="measured torque CSV to score against")
    p.add_argument("--out", default="simulated_torque.csv",
                   help="output torque CSV path")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("payload", help="steady-state payload curve for motor sizing")
    p.add_argument("--transmission", help="transmission/friction config file")
    p.add_argument("--joint", type=int, default=None,
                   help="joint id when using --project")
    p.add_argument("--load", type=_finite_float, default=0.0,
                   help="constant joint-side load torque, N*m")
    p.add_argument("--vmax", type=_finite_float, required=True,
                   help="maximum motor velocity, rad/s")
    p.add_argument("--points", type=int, default=100, help="grid point count")
    p.add_argument("--out", default="payload_curve.csv", help="output CSV path")
    add_common(p)
    p.set_defaults(func=cmd_payload)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SsmKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
