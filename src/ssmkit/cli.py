"""
Command-line front end: workspace characterization, forward/inverse
kinematics, friction identification, torque simulation, and payload-curve
emission.

Angles cross the CLI boundary in degrees (radians internally); joint 4
values are meters. `main` reads the `--project` file once, or takes an
empty `ProjectConfig` without one, and hands it to the subcommand; an
absent `--precision` becomes the project's `precision` (default 9).
`--config` and `--transmission` win over the project's mechanism and
joint files. Relative output paths go under the project's output_dir,
else under SSMKIT_OUTPUT_DIR when it is set. Exit codes: 0 on success, 2
for input or config errors and requests too large for memory, 3 when a
target is unreachable.

numpy and the modules built on it are imported inside the subcommands
that use them, so `workspace A B` and `--help` run without numpy; nor do
they load `dataclasses`, since `ProjectConfig` is a named tuple. `fk`
and `ik` run without numpy too: they print from the FK/IK row cores, and
a project's drives are read by the numpy-free `transmission` module. Each
call goes through its module (`dynamics.read_trace_csv(...)`), so a
module attribute replaced at run time is the one called.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from . import band
from .configfile import (DEFAULT_PRECISION, MAX_PRECISION, format_float, parse_float,
                         parse_floats, parse_precision, read_config)
from .errors import DomainError, SsmKitError, TrajectoryOverflowError, UnreachableError

if TYPE_CHECKING:
    from collections.abc import Mapping

    from . import kinematics

OUTPUT_DIR_ENV = "SSMKIT_OUTPUT_DIR"


class ProjectConfig(NamedTuple):
    """Resolved project file: mechanism, per-joint drives, output policy.
    The default `drives` is one shared read-only empty mapping."""

    geometry: kinematics.MechanismGeometry | None = None
    drives: Mapping = MappingProxyType({})  # joint id -> (spec, params)
    output_dir: Path | None = None
    precision: int = DEFAULT_PRECISION


def load_project_config(path) -> ProjectConfig:
    """
    Read a project file with optional keys mechanism, joint1..joint4
    (paths to configs, validated by parsing them now), output_dir, and
    precision. Relative paths are taken from the project file's directory.
    """
    from . import kinematics, transmission

    joints = {f"joint{jid}": jid for jid in (1, 2, 3, 4)}
    kv = read_config(path, "project",
                     optional=("mechanism", *joints, "output_dir", "precision"))
    base = Path(path).parent

    def load(key, loader):
        # `base / value` keeps an absolute value as it is.
        file = base / kv[key]
        if not file.exists():
            raise DomainError(f"project {path}: {key} file {file} not found")
        return loader(file)

    geometry = load("mechanism", kinematics.load_mechanism_config) if "mechanism" in kv else None
    drives = {jid: load(key, transmission.load_transmission_config)
              for key, jid in joints.items() if key in kv}
    output_dir = base / kv["output_dir"] if "output_dir" in kv else None
    precision = (parse_precision(kv["precision"], "precision") if "precision" in kv
                 else DEFAULT_PRECISION)
    return ProjectConfig(geometry, drives, output_dir, precision)


def _out_path(raw, project: ProjectConfig) -> Path:
    p = Path(raw)
    env = os.environ.get(OUTPUT_DIR_ENV)
    root = project.output_dir or (Path(env) if env else None)
    if p.is_absolute() or root is None:
        return p
    root.mkdir(parents=True, exist_ok=True)
    return root / p


def _geometry_for(args, project):
    from . import kinematics

    if args.config:
        return kinematics.load_mechanism_config(args.config)
    if project.geometry is not None:
        return project.geometry
    raise DomainError("no mechanism config: pass --config or a --project with one")


def _drive_for(args, project):
    from . import transmission

    if args.transmission:
        return transmission.load_transmission_config(args.transmission)
    if args.joint in project.drives:
        return project.drives[args.joint]
    raise DomainError(
        "no transmission config: pass --transmission or a --project defining the joint"
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_workspace(args, project) -> int:
    ff = lambda x: format_float(x, args.precision)
    if args.csv:
        from . import kinematics, workspace

        workspace.check_grid_samples(args.samples, args.samples)
    alpha = math.radians(args.alpha_deg)
    beta = math.radians(args.beta_deg)
    ext = band.tilt_extremes(alpha, beta)
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
        workspace.write_workspace_csv(path, geom, args.samples, args.samples, args.precision)
        print(f"workspace samples written to {path}")
    return 0


def _parse_pose(raw):
    """`--pose` as (rotation, three rows taken to the nearest rotation by
    `_ensure_rotation_rows`, position), in floats."""
    from . import screws

    vals = parse_floats(raw, "--pose", 12)
    rot = screws._ensure_rotation_rows(vals[:9])
    return (rot[0:3], rot[3:6], rot[6:9]), vals[9:]


def _norm3(x: float, y: float, z: float) -> float:
    """Euclidean norm of three floats, the squares summed left to right, so
    its bits do not depend on the host's BLAS. Only when that sum overflows,
    or underflows below the smallest normal float while a component is
    nonzero, are the components scaled by the largest of them first."""
    sq = x * x + y * y + z * z
    if sq == math.inf or (sq < sys.float_info.min and (x or y or z)):
        m = max(abs(x), abs(y), abs(z))
        x, y, z = x / m, y / m, z / m
        return m * math.sqrt(x * x + y * y + z * z)
    return math.sqrt(sq)


def cmd_fk(args, project) -> int:
    from . import kinematics

    ff = lambda x: format_float(x, args.precision)
    geom = _geometry_for(args, project)
    t1, t2, t3, t4 = parse_floats(args.theta, "--theta", 4)
    rotation, position = kinematics._forward_rows(
        geom, math.radians(t1), math.radians(t2), math.radians(t3), t4)
    print("rotation =", " ".join(ff(v) for v in rotation))
    print("position_m =", " ".join(ff(v) for v in position))
    print(f"position_norm_m = {ff(_norm3(*position))}")
    return 0


def cmd_ik(args, project) -> int:
    from . import kinematics

    ff = lambda x: format_float(x, args.precision)
    geom = _geometry_for(args, project)
    result = kinematics._inverse_rows(geom, *_parse_pose(args.pose))
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


def cmd_identify(args, project) -> int:
    from . import identification

    ff = lambda x: format_float(x, args.precision)
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
    report = identification.fit_friction(tv_map, spec, test_load=args.load, breakaway=breakaway)
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
        identification.save_fit_report(path, report, spec, args.precision)
        print(f"fit report written to {path}")
    return 0


def cmd_simulate(args, project) -> int:
    from . import dynamics

    spec, params = _drive_for(args, project)
    traj = dynamics.read_trajectory_csv(args.trajectory)
    load_fn = None if args.load == 0.0 else (lambda t: args.load)
    try:
        trace = dynamics.inverse_dynamics(spec, params, load_fn, traj)
    except TrajectoryOverflowError as exc:
        raise DomainError(f"{args.trajectory}: {exc}") from None
    path = _out_path(args.out, project)
    dynamics.write_trace_csv(path, trace.time, trace.torque, args.precision)
    print(f"simulated torque written to {path}")
    if args.measured:
        mt, mv = dynamics.read_trace_csv(args.measured)
        value = dynamics.nrmsd(trace, dynamics.TorqueTrace(mt, mv))
        print(f"nrmsd = {format_float(value, args.precision)}")
    return 0


def cmd_payload(args, project) -> int:
    import numpy as np

    from . import csvfile, dynamics

    spec, params = _drive_for(args, project)
    if args.points < 1:
        raise DomainError("--points must be at least 1")
    if args.points * 2 * 8 > sys.maxsize:
        # numpy would fail with a ValueError or an IndexError, not a MemoryError.
        raise MemoryError(f"a curve of {args.points} points does not fit in the address space")
    if args.vmax <= 0.0:
        raise DomainError("--vmax must be positive")
    grid = np.linspace(args.vmax / args.points, args.vmax, args.points)
    curve = dynamics.payload_curve(spec, params, args.load, grid)
    path = _out_path(args.out, project)
    csvfile.write_numeric_csv(path, ("velocity_rad_s", "torque_Nm"), curve, args.precision)
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


# A value that starts like a negative number. argparse reads a token such as
# `-0.5,0,0.866` as an option, because it is not one plain number.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """`--pose -0.5,...` and `--theta -10,...` as `--pose=-0.5,...` and
    `--theta=-10,...`; every other token is left as it is."""
    out = []
    for token in argv:
        if out and out[-1] in ("--pose", "--theta") and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        project = load_project_config(args.project) if args.project else ProjectConfig()
        if args.precision is None:
            args.precision = project.precision
        return args.func(args, project)
    except UnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SsmKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A grid or point count too large to hold, such as `--samples 10000000`.
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2
