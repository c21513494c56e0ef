"""
identify_log: one seeded telemetry CSV for joints 1, 2 and 4, identified
joint by joint through cli.main(["identify", ...]) in-process, as a user
would run it. Each call re-parses the CSV. One session is the three calls.
"""

from __future__ import annotations

import gen
from common import PROJECT, call_cli, close, graded, median, sha256, timed_ops
from ssmkit import cli, dynamics, identification
from ssmkit.errors import SsmKitError

JOINTS = (1, 2, 4)
# The identify subcommand's defaults, repeated for the direct breakaway check.
TOLERANCE = 0.01
MIN_DURATION_S = 0.5
FIT_REL_TOL = 0.10


class Workload:
    name = "identify_log"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.inputs = None
        self.cold_log = None
        self.first = {}

    def setup(self):
        project = cli.load_project_config(PROJECT)
        self.inputs = gen.telemetry(self.seed, project.drives, self.work / "telemetry.csv")
        self.cold_log = gen.telemetry(self.seed, project.drives, self.work / "cold.csv",
                                      joints=(4,), cycles=1)
        return sha256(self.inputs.csv), sha256(self.cold_log.csv)

    def _argv(self, csv, joint, out):
        return ["identify", str(csv), "--project", str(PROJECT), "--joint", str(joint),
                "--load", repr(self.inputs.load), "--breakaway", "--out", str(out)]

    def _out(self, joint):
        return self.work / f"fit_joint{joint}.cfg"

    def session(self, ledger, clock):
        """The three identify calls; returns (raw wall, corrected wall,
        corrected latencies)."""
        outcomes, raw_wall, wall, latencies = timed_ops(clock, [
            lambda j=joint: call_cli(cli.main, self._argv(self.inputs.csv, j, self._out(j)))
            for joint in JOINTS
        ])
        for joint, (_, stdout, problem) in zip(JOINTS, outcomes):
            ledger.record([problem] if problem else graded(self._check, joint, stdout))
        return raw_wall, wall, latencies

    def _check(self, joint, stdout):
        """Fitted config reloads and recovers the generating friction set;
        stdout and the file repeat byte for byte across sessions."""
        out = self._out(joint)
        try:
            _, fitted = dynamics.load_transmission_config(out)
        except SsmKitError as exc:
            return [f"joint {joint}: fit report does not reload: {exc}"]
        truth = self.inputs.truth[joint]
        keys = ("mu_c", "b_c", "b_v") + (("mu_s",) if joint == 4 else ())
        problems = [
            f"joint {joint}: {k} = {getattr(fitted, k):.6g}, generated {getattr(truth, k):.6g}"
            for k in keys if not close(getattr(fitted, k), getattr(truth, k), FIT_REL_TOL)
        ]
        digest = (stdout, sha256(out))
        if self.first.setdefault(joint, digest) != digest:
            problems.append(f"joint {joint}: output differs from the first session")
        return problems

    def finish(self, ledger):
        ledger.record(graded(self._check_breakaway))

    def _check_breakaway(self):
        """Breakaway counts, by a direct call on the same log: every generated
        onset on joint 4, none on the back-to-back joints."""
        log = identification.load_telemetry_csv(self.inputs.csv)
        problems = []
        for joint in JOINTS:
            found = len(identification.extract_breakaway_samples(
                log, TOLERANCE, MIN_DURATION_S, joint_id=joint))
            want = self.inputs.onsets[joint]
            if found != want:
                problems.append(f"joint {joint}: {found} breakaway samples, {want} onsets generated")
        return problems

    def cold_command(self):
        """Fresh-interpreter command a user of this workload starts, and
        the check of its stdout."""
        out = self.work / "cold_fit.cfg"

        def check(stdout):
            return [] if "mu_s = " in stdout and out.is_file() else ["cold identify wrote no fit"]

        return ["-m", "ssmkit", *self._argv(self.cold_log.csv, 4, out)], check

    # -- traced run -------------------------------------------------------

    def wrap(self, tracer):
        tracer.wrap(cli, "main", "cli.main")
        tracer.wrap(cli, "load_project_config", "cli.project_load")
        tracer.wrap(identification, "load_telemetry_csv", "identification.load_csv")
        tracer.wrap(identification, "extract_steady_segments", "identification.segments",
                    count=lambda result, args: len(result.points))
        tracer.wrap(identification, "extract_breakaway_samples", "identification.breakaway",
                    count=lambda result, args: len(result))
        tracer.wrap(identification, "fit_friction", "identification.fit")
        tracer.wrap(identification, "save_fit_report", "identification.save_report")

    def layer_metrics(self, tracer, windows, walls, ledger):
        """Per-session self times (median over traced sessions) and counts."""
        rows = []
        for (lo, hi), wall in zip(windows, walls):
            runs, roots = tracer.window(lo, hi)
            joint_of = dict(zip(runs, JOINTS))
            own = tracer.self_by_name(lo, hi)
            back = tracer.self_by_name(lo, hi, {r for r in runs if joint_of[r] in (1, 2)})
            rows.append({
                "identification.load_csv_s": own["identification.load_csv"],
                "identification.segments_s": own["identification.segments"],
                "identification.fit_s": own["identification.fit"],
                "identification.save_report_s": own["identification.save_report"],
                "identification.breakaway_s.backtoback": back["identification.breakaway"],
                "identification.breakaway_s.rests":
                    own["identification.breakaway"] - back["identification.breakaway"],
                "cli.project_load_s": own["cli.project_load"],
                "cli.self_s.identify": own["cli.main"],
                "trace.remainder_s.identify_log": wall - roots,
            })
        out = {name: (median([r[name] for r in rows]), "s") for name in rows[0]}
        megabytes = len(JOINTS) * self.inputs.csv.stat().st_size / 1e6
        out["identification.load_csv_mb_per_s"] = (
            megabytes / out["identification.load_csv_s"][0], "MB/s")
        sessions = len(windows)
        found = tracer.counts["identification.breakaway"] / sessions
        out["identification.rows"] = (self.inputs.rows, "count")
        out["identification.map_points"] = (tracer.counts["identification.segments"] / sessions,
                                            "count")
        out["identification.breakaway_samples"] = (found, "count")
        out["identification.breakaway_yield"] = (found / sum(self.inputs.onsets.values()), "ratio")
        return out
