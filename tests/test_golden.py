"""
Byte-level conformance of the CLI across commits.

`workspace --csv`, `simulate --measured --out` and `payload --out` run
through `cli.main` at precisions 1, 9 and 17 on small inputs that numpy
alone builds from a fixed seed. `identify --breakaway --out` (back-to-back
plateaus, and plateaus after rests), `fk`, and `ik` on generic, elbow
tangency, roll-axis and unreachable poses run at the default precision
and at 17 digits, and so does `ik` on a build with a non-identity `r0`;
a project file alone (mechanism, a joint, a relative `output_dir` and a
`precision` key) drives five more runs. `ik_sweep` holds the 17-digit
text of `inverse_kinematics` results on about 2,000 seeded cases: random
axis angles and `r0`, reachable poses from a Rodrigues product written
out here, elbow-tangency, roll-axis, off-band and unreachable poses, and
degenerate builds. The sha256 of stdout, of stderr for the
default-precision runs, of each emitted file and of the sweep text must
equal the committed table `golden_digests.json`; a short digest per line
locates the first line that differs.

The table records the host it was made on. No output depends on the
host's BLAS or LAPACK or on numpy's SIMD level. The workspace grid turns
v4 with FK's Rodrigues kernel in elementwise numpy arithmetic and takes
each polar angle with `math.acos`, not `np.arccos`, whose AVX-512 kernel
rounds some values differently. The friction fit and its half-widths are
a closed form in Python floats, with no design matrix and no LAPACK call.
`fk` and `ik` are scalar float arithmetic, the nearest-rotation step
(which every `ik` pose and every `r0` passes) is two Bjorck steps in a
fixed order rather than an SVD, and a test below pins FK to the Rodrigues
product written out here, bit for bit. Another runs `identify` and
`workspace` at 17 digits under settings that switch numpy's BLAS and SIMD
kernels and requires the same bytes. What the table still assumes is the
host's libm: `ik_sweep` holds 17-digit `sin`, `cos`, `atan2` and `acos`
results as an x86-64 glibc libm, with its FMA code paths, computes them,
and the fit's mu_c and mu_s inversions call `math.tan` and `math.atan`.
A change that means to alter an output regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssmkit import cli
from ssmkit.kinematics import JointState, build_geometry, forward_kinematics, inverse_kinematics
from ssmkit.screws import Pose

TABLE = Path(__file__).with_name("golden_digests.json")
PRECISIONS = (1, 9, 17)
SEED = 20260412

# A self-locking worm drive, written out so the inputs need no ssmkit call.
DRIVE = """kind = wormgear
ratio = 120
lead_angle_deg = 5
reflected_inertia = 1e-05
mu_s = 0.15
mu_c = 0.13
b_c = 0.00382
b_v = 7.18e-05
"""


# alpha = beta puts the roll axis inside the tilt band.
ROLL_MECHANISM = "alpha_deg = 45\nbeta_deg = 45\n"
MECHANISM = "alpha_deg = 30\nbeta_deg = 110\n"
PROJECT = """mechanism = mechanism.cfg
joint1 = drive.cfg
output_dir = out
precision = 12
"""
RATE_HZ = 200.0
# Motor-side torque model of DRIVE at a +1 N*m test load, written out as
# literals: driving (+w) and overhauling (-w) offsets, and the static
# breakaway offset for +w.
B_C, B_V = 0.00382, 7.18e-05
DRIVING, OVERHAULING, BREAKAWAY = 0.0209533, 0.0, 0.0229227

# sqrt(3)/2 and sqrt(3)/4, the entries of rotations about omega2 of the
# 30/110 build (sqrt is correctly rounded, so the repr is host-independent).
S3_2, S3_4 = "0.8660254037844386", "0.4330127018922193"
POSES = {
    # theta2 = pi/2 about omega2: two branches.
    "generic": f"0.25,-{S3_2},{S3_4},{S3_2},0,-0.5,{S3_4},0.5,0.75,0,0,0",
    # theta = 0: the tool axis on the 140 deg band edge, one tangent branch.
    "tangent0": "1,0,0,0,1,0,0,0,1,0,0,0",
    # theta2 = pi about omega2: the 80 deg band edge.
    "tangentpi": f"-0.5,0,{S3_2},0,-1,0,{S3_2},0,0.5,0,0,0",
    # The tool axis tilted 90 deg off the band.
    "unreachable": "0,0,-1,0,1,0,1,0,0,0,0,0",
}
# On the 45/45 build: +x (the tool axis) turned onto +z, 5 cm along it.
ROLL_POSE = "0,0,-1,0,1,0,1,0,0,0,0,0.05"
# A reference orientation with exact decimal entries: a turn about z by
# atan(4/3) after a turn about x by atan(3/4).
R0 = ((0.6, -0.64, 0.48), (0.8, 0.48, -0.36), (0.0, 0.6, 0.8))
R0_MECHANISM = MECHANISM + "r0 = " + " ".join(repr(x) for row in R0 for x in row) + "\n"
SWEEP_BUILDS = 200
# numpy's dispatch targets above the x86-64 baseline: set as
# NPY_DISABLE_CPU_FEATURES, numpy runs its baseline kernels instead.
SIMD_TARGETS = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def _generic_pose_on_r0():
    """The generic pose's rotation times R0: the same tool axis on the R0
    build. Python float arithmetic only, so the text is host-independent."""
    vals = [float(v) for v in POSES["generic"].split(",")]
    q = [vals[0:3], vals[3:6], vals[6:9]]
    rot = _matmul(q, R0)
    return ",".join(repr(x) for row in rot for x in row) + ",0,0,0"


def _rot(axis, angle):
    """Rodrigues rotation about a unit axis, as rows of floats."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    return ((c + k * x * x, k * x * y - s * z, k * x * z + s * y),
            (k * x * y + s * z, c + k * y * y, k * y * z - s * x),
            (k * x * z - s * y, k * y * z + s * x, c + k * z * z))


def _matmul(a, b):
    return tuple(tuple(r[0] * b[0][j] + r[1] * b[1][j] + r[2] * b[2][j] for j in range(3))
                 for r in a)


def _apply(a, v):
    return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in a)


def _random_rotation(rng):
    x, y, z = rng.normal(size=3).tolist()
    n = math.sqrt(x * x + y * y + z * z)
    return _rot((x / n, y / n, z / n), rng.uniform(-math.pi, math.pi))


def _sweep_cases(rng):
    """(alpha, beta, r0 or None, rotation, position) tuples. Every fifth
    build has alpha = beta (the roll axis on the band's lower edge, reached
    at theta2 = pi) and every fifth alpha + beta = pi (-omega1 reached at
    theta2 = 0). Per build: six random joint states, the two elbow
    tangencies theta2 = 0 and pi, a random rotation with the tip on its
    tool axis (in the band or not), and one with the tip off it."""
    for i in range(SWEEP_BUILDS):
        alpha = rng.uniform(0.05, math.pi - 0.05)
        beta = (alpha if i % 5 == 0 else math.pi - alpha if i % 5 == 1
                else rng.uniform(0.05, math.pi - 0.05))
        r0 = None if i % 4 == 0 else _random_rotation(rng)
        ref = r0 if r0 is not None else ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        w1 = (0.0, 0.0, 1.0)
        w2 = (math.sin(alpha), 0.0, math.cos(alpha))
        v4 = (math.sin(alpha + beta), 0.0, math.cos(alpha + beta))
        states = [rng.uniform(-math.pi, math.pi, 4).tolist() for _ in range(8)]
        states[6][1], states[7][1] = 0.0, math.pi
        for t1, t2, t3, t4 in states:
            t4 *= 0.1
            r12 = _matmul(_rot(w1, t1), _rot(w2, t2))
            rot = _matmul(_matmul(r12, _rot(v4, t3)), ref)
            yield alpha, beta, r0, rot, _apply(r12, tuple(x * t4 for x in v4))
        rot = _matmul(_random_rotation(rng), ref)
        ux, uy, uz = _apply(rot, tuple(sum(ref[k][j] * v4[k] for k in range(3))
                                       for j in range(3)))
        yield alpha, beta, r0, rot, (0.05 * ux, 0.05 * uy, 0.05 * uz)
        yield alpha, beta, r0, rot, tuple(rng.uniform(-0.1, 0.1, 3).tolist())
    for beta in (1e-10, math.pi - 1e-10):
        yield 0.5, beta, None, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0)


def ik_sweep():
    """One line per sweep case: the exception type, or `singular` and per
    branch the four joint values and two residuals, all at 17 digits."""
    lines = []
    geom_key, geom = None, None
    for alpha, beta, r0, rot, pos in _sweep_cases(np.random.default_rng(SEED + 1)):
        if (alpha, beta, r0) != geom_key:
            geom_key, geom = (alpha, beta, r0), build_geometry(alpha, beta, r0)
        try:
            result = inverse_kinematics(geom, Pose(np.array(rot), np.array(pos)))
        except Exception as exc:  # the type is part of the record
            lines.append(type(exc).__name__)
            continue
        parts = ["singular" if result.singular else "regular"]
        for state, (pos_err, rot_err) in zip(result.branches, result.residuals):
            parts.append(" ".join(f"{x:.17g}" for x in (
                state.theta1, state.theta2, state.theta3, state.theta4, pos_err, rot_err)))
        lines.append(" | ".join(parts))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_fk_matches_the_written_out_product():
    """forward_kinematics is the Rodrigues product written out above, bit for
    bit: R1 R2 R3 r0 and R1 R2 (v4 theta4) on the axes and r0 each sweep
    build stores, at 8 random joint states per build."""
    rng = np.random.default_rng(SEED + 2)
    builds = dict.fromkeys((alpha, beta, r0) for alpha, beta, r0, _, _ in
                           _sweep_cases(np.random.default_rng(SEED + 1)))
    for alpha, beta, r0 in builds:
        geom = build_geometry(alpha, beta, r0)
        w1, w2, w3, v4 = (tuple(a.tolist()) for a in (geom.omega1, geom.omega2,
                                                      geom.omega3, geom.v4))
        ref = tuple(tuple(row) for row in geom.r0.tolist())
        for t1, t2, t3, t4 in rng.uniform(-math.pi, math.pi, (8, 4)).tolist():
            t4 *= 0.1
            pose = forward_kinematics(geom, JointState(t1, t2, t3, t4))
            r12 = _matmul(_rot(w1, t1), _rot(w2, t2))
            rot = _matmul(_matmul(r12, _rot(w3, t3)), ref)
            assert pose.rotation.tolist() == [list(row) for row in rot], (alpha, beta, r0)
            assert pose.position.tolist() == list(_apply(r12, tuple(x * t4 for x in v4)))


def test_ik_round_trips_at_large_extension():
    """IK's position check is 1e-9 max(1, |theta4|), since FK's rounding of
    the tip grows with the extension: FK poses with |theta4| up to 1e12 m
    round-trip on every sweep build IK solves on."""
    rng = np.random.default_rng(SEED + 3)
    builds = dict.fromkeys((alpha, beta, r0) for alpha, beta, r0, _, _ in
                           _sweep_cases(np.random.default_rng(SEED + 1)))
    for alpha, beta, r0 in builds:
        if abs(math.sin(beta)) < 1e-9:
            continue  # the two degenerate builds: IK raises on every target
        geom = build_geometry(alpha, beta, r0)
        for t4 in (1e3, 1e6, 1e7, 1e8, 1e10, 1e12):
            t1, t2, t3 = rng.uniform(-math.pi, math.pi, 3).tolist()
            t4 *= float(rng.choice([-1.0, 1.0]))
            result = inverse_kinematics(geom, forward_kinematics(geom, JointState(t1, t2, t3, t4)))
            assert any(abs(b.theta4 - t4) <= 1e-12 * abs(t4) for b in result.branches)
            for pos_err, rot_err in result.residuals:
                assert pos_err < 1e-9 * abs(t4) and rot_err < 1e-9


def _write_series(path, time, value):
    lines = ["time_s,value"] + [f"{t!r},{v!r}" for t, v in zip(time.tolist(), value.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ramp(a, b):
    """Four samples strictly between a and b."""
    return a + (b - a) * np.arange(1, 5) / 5.0


def _joint_velocity(rng, rests):
    """Motor velocity of one joint: four speeds, each held 1 s in both
    directions, +w then -w, joined by a ramp through zero. Back to back,
    or with a 0.5 s rest before each +w and a ramp down after each -w.
    Returns the velocity and the onset indices (first samples after a rest)."""
    per = int(RATE_HZ)
    parts, onsets, n = [], [], 0
    last = None
    for w in rng.uniform(4.0, 40.0, 4).tolist():
        block = []
        if rests:
            block += [np.zeros(per // 2), _ramp(0.0, w)]
            onsets.append(n + per // 2)
        elif last is not None:
            block.append(_ramp(last, w))
        block += [w + rng.uniform(-2e-3, 2e-3, per), _ramp(w, -w),
                  -w + rng.uniform(-2e-3, 2e-3, per)]
        if rests:
            block.append(_ramp(-w, 0.0))
        parts += block
        n += sum(b.size for b in block)
        last = -w
    return np.concatenate(parts), onsets


def _write_telemetry(path, rng):
    """Joint 1 back to back, joint 4 with rests; torque from the literal
    model plus uniform noise, each onset sample at the breakaway level."""
    rows = []
    for joint, rests in ((1, False), (4, True)):
        v, onsets = _joint_velocity(rng, rests)
        s = np.sign(v)
        tau = B_C * s + B_V * v + np.where(v > 0.0, DRIVING, OVERHAULING)
        tau = tau + rng.uniform(-2e-4, 2e-4, v.size)
        for i in onsets:
            tau[i] = B_C + BREAKAWAY
        t = np.arange(v.size) / RATE_HZ
        rows += [(ti, joint, vi, taui)
                 for ti, vi, taui in zip(t.tolist(), v.tolist(), tau.tolist())]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["time_s,joint_id,velocity,torque"]
    lines += [f"{t!r},{j},{v!r},{tau!r}" for t, j, v, tau in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_inputs(root):
    """A drive config, a 400-sample joint trajectory of eight noisy plateaus
    of either sign, a measured torque trace on the same time grid, a
    two-joint telemetry log, two mechanism configs and a project. Only
    uniform draws and arithmetic, so every host writes the same bytes."""
    rng = np.random.default_rng(SEED)
    (root / "drive.cfg").write_text(DRIVE, encoding="utf-8")
    time = np.arange(400) / 200.0
    levels = rng.uniform(-0.3, 0.3, 8)
    velocity = np.repeat(levels, 50) + rng.uniform(-1e-3, 1e-3, 400)
    torque = 0.004 * np.sign(velocity) + rng.uniform(-5e-4, 5e-4, 400)
    _write_series(root / "trajectory.csv", time, velocity)
    _write_series(root / "measured.csv", time, torque)
    _write_telemetry(root / "telemetry.csv", rng)
    (root / "mechanism.cfg").write_text(MECHANISM, encoding="utf-8")
    (root / "roll.cfg").write_text(ROLL_MECHANISM, encoding="utf-8")
    (root / "r0.cfg").write_text(R0_MECHANISM, encoding="utf-8")
    (root / "project.cfg").write_text(PROJECT, encoding="utf-8")


def commands(root, precision):
    """Command name -> (argv, emitted file)."""
    p = ["--precision", str(precision)]
    drive = ["--transmission", str(root / "drive.cfg")]
    return {
        "workspace": (["workspace", "30", "110", "--samples", "16",
                       "--csv", str(root / "workspace.csv")] + p, root / "workspace.csv"),
        "simulate": (["simulate", str(root / "trajectory.csv")] + drive
                     + ["--load", "0.75", "--measured", str(root / "measured.csv"),
                        "--out", str(root / "simulate.csv")] + p, root / "simulate.csv"),
        "payload": (["payload"] + drive + ["--load", "0.75", "--vmax", "120",
                                           "--points", "100",
                                           "--out", str(root / "payload.csv")] + p,
                    root / "payload.csv"),
    }


def default_commands(root):
    """Command name -> (argv, emitted file or None, exit code), each run at
    the default precision or at the project's."""
    log = str(root / "telemetry.csv")
    drive = ["--transmission", str(root / "drive.cfg")]
    mech = ["--config", str(root / "mechanism.cfg")]
    project = ["--project", str(root / "project.cfg")]
    out = root / "out"
    runs = {
        "identify_backtoback": (["identify", log, "--joint", "1", "--load", "1", "--breakaway",
                                 "--out", str(root / "fit1.cfg")] + drive, root / "fit1.cfg", 0),
        "identify_rests": (["identify", log, "--joint", "4", "--load", "1", "--breakaway",
                            "--out", str(root / "fit4.cfg")] + drive, root / "fit4.cfg", 0),
        "fk": (["fk", "--theta", "10,-35,120,0.07"] + mech, None, 0),
        "fk_p17": (["fk", "--theta", "10,-35,120,0.07", "--precision", "17"] + mech, None, 0),
        "project_workspace": (["workspace", "30", "110", "--samples", "8",
                               "--csv", "workspace.csv"] + project, out / "workspace.csv", 0),
        "project_fk": (["fk", "--theta", "10,-35,120,0.07"] + project, None, 0),
        "project_fk_p17": (["fk", "--theta", "10,-35,120,0.07", "--precision", "17"] + project,
                           None, 0),
        "project_ik": (["ik", f"--pose={POSES['tangentpi']}"] + project, None, 0),
        "project_identify": (["identify", log, "--joint", "1", "--load", "1", "--breakaway",
                              "--out", "fit.cfg"] + project, out / "fit.cfg", 0),
        "project_simulate": (["simulate", str(root / "trajectory.csv"), "--joint", "1",
                              "--load", "0.75", "--measured", str(root / "measured.csv"),
                              "--out", "simulate.csv"] + project, out / "simulate.csv", 0),
        "project_payload": (["payload", "--joint", "1", "--load", "0.75", "--vmax", "120",
                             "--points", "20", "--out", "payload.csv"] + project,
                            out / "payload.csv", 0),
    }
    poses = {name: (pose, mech) for name, pose in POSES.items()}
    poses["roll"] = (ROLL_POSE, ["--config", str(root / "roll.cfg")])
    poses["r0"] = (_generic_pose_on_r0(), ["--config", str(root / "r0.cfg")])
    for name, (pose, config) in poses.items():
        code = 3 if name == "unreachable" else 0
        for suffix, p in (("", []), ("_p17", ["--precision", "17"])):
            runs[f"ik_{name}{suffix}"] = (["ik", f"--pose={pose}"] + config + p, None, code)
    return runs


def _record(data):
    lines = data.splitlines(keepends=True)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": "".join(hashlib.sha256(line).hexdigest()[:8] for line in lines)}


def run_all(root):
    """Output name -> (bytes, digest record) for every command and precision.
    stdout and stderr name the work directory as `ROOT`."""
    build_inputs(root)
    outputs = {}
    for precision in PRECISIONS:
        for name, (argv, emitted) in commands(root, precision).items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, name
            stdout = out.getvalue().replace(str(root), "ROOT").encode("utf-8")
            for part, data in (("stdout", stdout), ("file", emitted.read_bytes())):
                outputs[f"{name}/p{precision}/{part}"] = (data, _record(data))
    for name, (argv, emitted, code) in default_commands(root).items():
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(argv) == code, name
        parts = [(part, stream.getvalue().replace(str(root), "ROOT").encode("utf-8"))
                 for part, stream in (("stdout", out), ("stderr", err))]
        if emitted is not None:
            parts.append(("file", emitted.read_bytes()))
        for part, data in parts:
            outputs[f"{name}/{part}"] = (data, _record(data))
    sweep = ik_sweep()
    outputs["ik_sweep/results"] = (sweep, _record(sweep))
    return outputs


def host():
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in
                  cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"machine": platform.machine(), "cpu": cpu, "system": platform.system(),
            "python": platform.python_version(), "numpy": np.__version__}


def _first_difference(data, record):
    """`line N: <text>` for the first line whose digest differs, or None."""
    lines = data.splitlines(keepends=True)
    got = _record(data)["lines"]
    want = record["lines"]
    for i in range(max(len(got), len(want)) // 8):
        if got[8 * i:8 * i + 8] != want[8 * i:8 * i + 8]:
            text = lines[i].decode("utf-8", "replace") if i < len(lines) else "<missing>"
            return f"line {i + 1}: {text.rstrip()}"
    return None


def test_outputs_match_the_golden_digests(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    outputs = run_all(tmp_path)
    assert sorted(outputs) == sorted(table["digests"])
    mismatches = []
    for key, (data, record) in outputs.items():
        expected = table["digests"][key]
        if record["sha256"] != expected["sha256"]:
            where = _first_difference(data, expected) or "same lines, different bytes"
            mismatches.append(f"{key}: first difference at {where}")
    assert not mismatches, (
        f"outputs differ from the table made on {table['host']} (this host: {host()}):\n"
        + "\n".join(mismatches))


def _kernel_settings():
    """The environment settings that change which BLAS or SIMD kernels
    numpy runs on this host: OPENBLAS_CORETYPE where numpy's OpenBLAS is
    built for several cores, and NPY_DISABLE_CPU_FEATURES where the CPU has
    one of the targets it turns off. None off x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    settings = []
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = {}
    if "DYNAMIC_ARCH" in blas.get("openblas configuration", ""):
        settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    if any(__cpu_features__.get(t) for t in SIMD_TARGETS.split() if t in __cpu_dispatch__):
        settings.append({"NPY_DISABLE_CPU_FEATURES": SIMD_TARGETS})
    return settings


def test_outputs_do_not_depend_on_blas_or_simd_kernels(tmp_path):
    """`identify --breakaway` on joints 1 and 4 of the telemetry log above
    and a 300-sample `workspace`, all at 17 digits, print and write the same
    bytes in fresh interpreters whichever BLAS kernels or SIMD paths numpy
    is set to run on this host."""
    settings = _kernel_settings()
    if not settings:
        pytest.skip("no setting changes numpy's BLAS or SIMD kernels on this host")
    build_inputs(tmp_path)
    p17 = ["--precision", "17"]
    runs = {f"identify_joint{j}": ["identify", str(tmp_path / "telemetry.csv"), "--joint", str(j),
                                   "--load", "1", "--breakaway", "--transmission",
                                   str(tmp_path / "drive.cfg")] + p17
            + ["--out", str(tmp_path / f"fit{j}.cfg")] for j in (1, 4)}
    runs["workspace"] = (["workspace", "30", "110", "--samples", "300"] + p17
                         + ["--csv", str(tmp_path / "workspace.csv")])
    plain = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    plain["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def outputs(setting):
        out = {}
        for name, argv in runs.items():
            done = subprocess.run([sys.executable, "-m", "ssmkit"] + argv, capture_output=True,
                                  env=dict(plain, **setting), check=True)
            out[f"{name}/stdout"] = done.stdout
            out[f"{name}/file"] = Path(argv[-1]).read_bytes()
        return out

    want = outputs({})
    for setting in settings:
        got = outputs(setting)
        assert not [k for k in want if got[k] != want[k]], f"differ under {setting}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        outputs = run_all(Path(work))
    table = {"host": host(), "digests": {k: rec for k, (_, rec) in sorted(outputs.items())}}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} digests to {TABLE}")
