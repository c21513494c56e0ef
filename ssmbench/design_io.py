"""
design_io: the write-heavy design session, run in-process through
cli.main: a workspace point cloud, a simulated torque trace scored against
a measured one, and a payload curve. One session is the three calls.
"""

from __future__ import annotations

import math
import re

import numpy as np

import gen
from common import PROJECT, call_cli, close, graded, median, sha256, timed_ops
from ssmkit import cli, dynamics, workspace

ALPHA_DEG, BETA_DEG = 30.0, 110.0
# nrmsd is rms(noise) / range(measured) when the simulation is right; this
# is the relative slack allowed around that value.
NRMSD_REL_TOL = 0.01
CSV_REL_TOL = 1e-8  # files carry 9 significant digits
LAYER_SPANS = ("workspace.grid", "workspace.csv_write", "dynamics.read_trace",
               "dynamics.inverse_dynamics", "dynamics.write_trace", "dynamics.nrmsd",
               "dynamics.payload_curve")


def _fold(phi):
    m = abs(phi) % (2.0 * math.pi)
    return 2.0 * math.pi - m if m > math.pi else m


def band_deg(alpha_deg, beta_deg):
    """Polar band of the tip, from the closed form, independent of ssmkit."""
    a, b = math.radians(alpha_deg), math.radians(beta_deg)
    folded = [_fold(p) for p in (a + b, a - b, b - a, -a - b)]
    return math.degrees(min(folded)), math.degrees(max(folded))


class Workload:
    name = "design_io"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.project = None
        self.inputs = None
        self.first = None

    def setup(self):
        self.project = cli.load_project_config(PROJECT)
        self.inputs = gen.design(self.seed, self.project.drives[1], self.work)
        return sha256(self.inputs.trajectory), sha256(self.inputs.measured)

    def _paths(self):
        return {k: self.work / f"{k}.csv" for k in ("workspace", "simulate", "payload")}

    def _commands(self):
        d, out = self.inputs, self._paths()
        return [
            ["workspace", repr(ALPHA_DEG), repr(BETA_DEG), "--csv", str(out["workspace"]),
             "--samples", str(gen.WORKSPACE_N)],
            ["simulate", str(d.trajectory), "--project", str(PROJECT), "--joint", "1",
             "--load", repr(d.load), "--measured", str(d.measured), "--out", str(out["simulate"])],
            ["payload", "--project", str(PROJECT), "--joint", "1", "--load", repr(d.load),
             "--vmax", repr(d.vmax), "--points", str(gen.PAYLOAD_POINTS),
             "--out", str(out["payload"])],
        ]

    def session(self, ledger, clock):
        """The three design calls; returns (raw wall, corrected wall,
        corrected latencies)."""
        outcomes, raw_wall, wall, latencies = timed_ops(
            clock, [lambda a=argv: call_cli(cli.main, a) for argv in self._commands()])
        digests = [(stdout, sha256(path) if path.is_file() else None)
                   for (_, stdout, _), path in zip(outcomes, self._paths().values())]
        first = self.first is None
        if first:
            self.first = digests
        checks = (self._check_workspace, self._check_simulate, self._check_payload)
        for (_, stdout, problem), digest, ref, check in zip(outcomes, digests, self.first, checks):
            if problem:
                ledger.record([problem])
            elif first:
                ledger.record(graded(check, stdout))
            else:
                ledger.record([] if digest == ref else ["output differs from the first session"])
        return raw_wall, wall, latencies

    def _check_workspace(self, stdout):
        data = np.loadtxt(self._paths()["workspace"], delimiter=",", skiprows=1)
        n = gen.WORKSPACE_N
        if data.shape != (n * n, 6):
            return [f"workspace csv has shape {data.shape}, want ({n * n}, 6)"]
        problems = []
        if np.abs(np.linalg.norm(data[:, 2:5], axis=1) - 1.0).max() > 1e-8:
            problems.append("workspace points are not unit norm")
        ext = workspace.tilt_extremes(math.radians(ALPHA_DEG), math.radians(BETA_DEG))
        lo, hi = math.degrees(ext.tilt_min), math.degrees(ext.tilt_max)
        if not (close(lo, band_deg(ALPHA_DEG, BETA_DEG)[0], 1e-12)
                and close(hi, band_deg(ALPHA_DEG, BETA_DEG)[1], 1e-12)):
            problems.append(f"tilt_extremes gives {lo}..{hi} deg")
        polar = np.degrees(np.arccos(np.clip(data[:, 4], -1.0, 1.0)))
        if polar.min() < lo - 1e-6 or polar.max() > hi + 1e-6:
            problems.append(f"polar angles {polar.min()}..{polar.max()} leave the band")
        if np.abs(polar - data[:, 5]).max() > 1e-6:
            problems.append("polar_deg column disagrees with the point")
        return problems

    def _check_simulate(self, stdout):
        d = self.inputs
        match = re.search(r"^nrmsd = (\S+)$", stdout, re.M)
        if not match:
            return ["simulate printed no nrmsd"]
        problems = []
        if not close(float(match.group(1)), d.expected_nrmsd, NRMSD_REL_TOL):
            problems.append(f"nrmsd {match.group(1)}, the noise implies {d.expected_nrmsd:.9g}")
        t, v = np.loadtxt(d.trajectory, delimiter=",", skiprows=1).T
        sim = np.loadtxt(self._paths()["simulate"], delimiter=",", skiprows=1)
        spec, params = self.project.drives[1]
        want = gen.motor_torque(spec, params, d.load, t, v)
        if sim.shape != (t.size, 2) or np.abs(sim[:, 1] - want).max() > CSV_REL_TOL * np.abs(want).max():
            problems.append("simulated torque differs from the model")
        return problems

    def _check_payload(self, stdout):
        d = self.inputs
        got = np.loadtxt(self._paths()["payload"], delimiter=",", skiprows=1)
        m = gen.PAYLOAD_POINTS
        spec, params = self.project.drives[1]
        want = dynamics.payload_curve(spec, params, d.load, np.linspace(d.vmax / m, d.vmax, m))
        if got.shape != want.shape or np.abs(got - want).max() > CSV_REL_TOL * np.abs(want).max():
            return ["payload csv differs from payload_curve"]
        return []

    def finish(self, ledger):
        pass

    def cold_command(self):
        """Fresh-interpreter command a user of this workload starts, and
        the check of its stdout."""
        lo, hi = band_deg(ALPHA_DEG, BETA_DEG)
        want = f"band_deg = {lo:.9g} to {hi:.9g}"

        def check(stdout):
            return [] if want in stdout else [f"cold workspace did not print {want!r}"]

        return ["-m", "ssmkit", "workspace", "30", "110"], check

    # -- traced run -------------------------------------------------------

    def wrap(self, tracer):
        tracer.wrap(cli, "main", "cli.main")
        tracer.wrap(cli, "load_project_config", "cli.project_load")
        tracer.wrap(workspace, "write_workspace_csv", "workspace.csv_write")
        tracer.wrap(workspace, "sample_workspace_grid", "workspace.grid")
        tracer.wrap(dynamics, "read_trajectory_csv", "dynamics.read_trace")
        tracer.wrap(dynamics, "read_trace_csv", "dynamics.read_trace")
        tracer.wrap(dynamics, "inverse_dynamics", "dynamics.inverse_dynamics")
        tracer.wrap(dynamics, "write_trace_csv", "dynamics.write_trace")
        tracer.wrap(dynamics, "nrmsd", "dynamics.nrmsd")
        tracer.wrap(dynamics, "payload_curve", "dynamics.payload_curve")

    def layer_metrics(self, tracer, windows, walls, ledger):
        """Per-session self times (median over traced sessions) and sizes."""
        rows = []
        for (lo, hi), wall in zip(windows, walls):
            runs, roots = tracer.window(lo, hi)
            own = tracer.self_by_name(lo, hi)
            row = {f"{name}_s": own[name] for name in LAYER_SPANS}
            for run, command in zip(runs, ("workspace", "simulate", "payload")):
                row[f"cli.self_s.{command}"] = tracer.self_by_name(lo, hi, {run})["cli.main"]
            row["cli.project_load_s.design_io"] = own["cli.project_load"]
            row["trace.remainder_s.design_io"] = wall - roots
            rows.append(row)
        out = {name: (median([r[name] for r in rows]), "s") for name in rows[0]}
        out["workspace.csv_bytes"] = (self._paths()["workspace"].stat().st_size, "bytes")
        out["dynamics.samples"] = (gen.TRAJ_SAMPLES, "count")
        return out
