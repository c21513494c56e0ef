"""
ik_path: a tool path of target poses, each passed to
kinematics.inverse_kinematics in a closed loop (one caller, the next target
only after the previous one returns). One session is one pass over the path.
"""

from __future__ import annotations

import time

import numpy as np

import gen
from common import MECHANISM, PROJECT, graded, median
from ssmkit import kinematics, screws, subproblems
from ssmkit.errors import UnreachableError

FIT_TOL = 1e-9
TANGENT_TOL = 1e-6
# Targets timed between two calibrations (about 40 ms of work).
CHUNK = 200


def _state_gap(a, b):
    return max(
        abs(screws.normalize_angle(a.theta1 - b.theta1)),
        abs(screws.normalize_angle(a.theta2 - b.theta2)),
        abs(screws.normalize_angle(a.theta3 - b.theta3)),
        abs(a.theta4 - b.theta4),
    )


def check_result(target, result):
    """Problems with one IK outcome, found with independent FK calls."""
    if target.kind == "unreachable":
        if isinstance(result, UnreachableError):
            return []
        return [f"unreachable target gave {type(result).__name__}"]
    if isinstance(result, Exception):
        return [f"{target.kind} target raised {type(result).__name__}: {result}"]
    problems = []
    if result.singular != (target.kind == "singular"):
        problems.append(f"{target.kind} target has singular={result.singular}")
    if not result.branches:
        problems.append("no branches")
    for branch in result.branches:
        pose = kinematics.forward_kinematics(target.geom, branch)
        pos_err = float(np.linalg.norm(pose.position - target.pose.position))
        rot_err = float(np.linalg.norm(pose.rotation - target.pose.rotation))
        if not (pos_err < FIT_TOL and rot_err < FIT_TOL):
            problems.append(f"branch misses target by {pos_err:.1e} m, {rot_err:.1e}")
    tol = TANGENT_TOL if target.kind == "tangent" else FIT_TOL
    if not any(_state_gap(b, target.state) < tol for b in result.branches):
        problems.append(f"{target.kind} generating state not among the branches")
    return problems


def _solve(geom, pose):
    try:
        return kinematics.inverse_kinematics(geom, pose)
    except Exception as exc:  # graded by check_result
        return exc


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


class Workload:
    name = "ik_path"

    def __init__(self, seed, work):
        self.seed = seed
        self.reference = None
        self.targets = []
        self.results = None

    def setup(self):
        self.reference = kinematics.load_mechanism_config(MECHANISM)
        self.targets = gen.ik_targets(self.seed, self.reference)
        return tuple(
            (t.kind, t.pose.rotation.tobytes(), t.pose.position.tobytes())
            for t in self.targets
        )

    def warm_up(self):
        for t in self.targets[:200]:
            _solve(t.geom, t.pose)

    def session(self, ledger, clock):
        """One pass, timed in chunks between calibrations. Returns (raw wall,
        corrected wall, corrected per-call latencies). Outputs are graded
        after the pass, outside the timing."""
        results, latencies, raw_wall, wall = [], [], 0.0, 0.0
        now = time.perf_counter
        clock.begin()
        for lo in range(0, len(self.targets), CHUNK):
            chunk = []
            start = now()
            for t in self.targets[lo:lo + CHUNK]:
                t0 = now()
                results.append(_solve(t.geom, t.pose))
                chunk.append(now() - t0)
            raw = now() - start
            factor = clock.factor()
            raw_wall += raw
            wall += raw * factor
            latencies += [x * factor for x in chunk]
        if self.results is None:
            self.results = results
            for t, r in zip(self.targets, results):
                ledger.record(graded(check_result, t, r))
        else:
            for t, r, ref in zip(self.targets, results, self.results):
                ledger.record([] if _same(r, ref) else [f"{t.kind} result changed between passes"])
        return raw_wall, wall, latencies

    def finish(self, ledger):
        pass

    def cold_command(self):
        """Fresh-interpreter command a user of this workload starts, and
        the check of its stdout."""
        target = next(t for t in self.targets if t.kind == "generic")
        want = len(self.results[self.targets.index(target)].branches)
        values = list(target.pose.rotation.ravel()) + list(target.pose.position)
        pose = ",".join(repr(float(v)) for v in values)

        def check(stdout):
            return [] if f"branches = {want}" in stdout else ["cold ik branch count differs"]

        return ["-m", "ssmkit", "ik", "--project", str(PROJECT), f"--pose={pose}"], check

    # -- traced run -------------------------------------------------------

    def trace_setup(self, tracer):
        tracer.wrap(kinematics, "forward_kinematics", "kinematics.forward_kinematics")
        try:
            self.setup()
        finally:
            tracer.restore()

    def wrap(self, tracer):
        tracer.wrap(kinematics, "inverse_kinematics", "kinematics.inverse_kinematics")

    def layer_metrics(self, tracer, windows, walls, ledger):
        """Per-layer figures from the traced passes (span index windows)."""
        per_kind = {k: [] for k in gen.IK_COUNTS}
        remainders = []
        branches, reached, unreachable, calls = 0, 0, 0, 0
        for (lo, hi), wall in zip(windows, walls):
            for t, s in zip(self.targets, tracer.spans[lo:hi]):
                per_kind[t.kind].append(s.end - s.start)
            remainders.append(wall - tracer.window(lo, hi)[1])
        for r in self.results:
            calls += 1
            if isinstance(r, UnreachableError):
                unreachable += 1
            elif not isinstance(r, Exception):
                reached += 1
                branches += len(r.branches)
        fk = [s.end - s.start for s in tracer.spans if s.name == "kinematics.forward_kinematics"]
        out = {f"kinematics.ik_us.{k}": (median(v) * 1e6, "us") for k, v in per_kind.items()}
        out["kinematics.fk_us"] = (median(fk) * 1e6, "us")
        out["kinematics.branches_per_target"] = (branches / reached, "count")
        out["kinematics.unreachable_ratio"] = (unreachable / calls, "ratio")
        out["trace.remainder_s.ik_path"] = (median(remainders), "s")
        out.update(self.probe(ledger))
        return out

    def probe(self, ledger, repeats=5):
        """Time screws.rodrigues and the subproblems directly on the inputs
        the generic targets present. inverse_kinematics binds these names
        at import, so wrapping the modules from outside cannot see its
        calls; today it calls subproblem3prime, but only private copies of
        the subproblem1/subproblem2 logic."""
        geom = self.reference
        p1, p2, p3 = kinematics.probe_point_defaults(geom)
        tw1, tw2, tw3 = (screws.revolute_twist(w) for w in (geom.omega1, geom.omega2, geom.omega3))
        rod, sp3, sp2, sp1 = [], [], [], []
        for t in self.targets:
            if t.kind != "generic":
                continue
            s, r, x = t.state, t.pose.rotation @ geom.r0.T, t.pose.position
            rod += [(geom.omega1, s.theta1), (geom.omega2, s.theta2), (geom.omega3, s.theta3)]
            sp3.append((geom.v4, p1, np.zeros(3), float(np.linalg.norm(r @ p1 + x))))
            sp2.append((tw1, tw2, p2, r @ (p2 - geom.v4 * s.theta4) + x, (s.theta1, s.theta2)))
            r12 = screws.rodrigues(geom.omega1, s.theta1) @ screws.rodrigues(geom.omega2, s.theta2)
            sp1.append((tw3, p3, r12.T @ (r @ (p3 - geom.v4 * s.theta4) + x), s.theta3))

        def near(got, want):
            return all(abs(screws.normalize_angle(g - w)) < FIT_TOL for g, w in zip(got, want))

        for a, b, p, q, want in sp2:
            pairs = subproblems.subproblem2(a, b, p, q).solutions
            ledger.record([] if any(near(pair, want) for pair in pairs)
                          else ["subproblem2 misses the generating angles"])
        for tw, p, q, want in sp1:
            angle = subproblems.subproblem1(tw, p, q).solutions[0]
            ledger.record([] if near((angle,), (want,)) else ["subproblem1 misses theta3"])

        def per_call(fn, inputs):
            runs = []
            for _ in range(repeats):
                start = time.perf_counter()
                for args in inputs:
                    fn(*args)
                runs.append((time.perf_counter() - start) / len(inputs))
            return median(runs) * 1e6

        return {
            "screws.rodrigues_us": (per_call(screws.rodrigues, rod), "us"),
            "subproblems.sp3prime_us": (per_call(subproblems.subproblem3prime, sp3), "us"),
            "subproblems.sp2_us": (per_call(subproblems.subproblem2, [i[:4] for i in sp2]), "us"),
            "subproblems.sp1_us": (per_call(subproblems.subproblem1, [i[:3] for i in sp1]), "us"),
        }

