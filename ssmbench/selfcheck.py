"""
Tests of the benchmark itself. Run from the root of an ssmkit checkout:

    python3 ssmbench/selfcheck.py

It checks that the input generators are deterministic per seed, that each
workload passes its own output checks, that a deliberately wrong expected
value makes the run fail with a non-zero exit code, and that the benchmark
refuses to run outside a checkout. Exit code 0 means every check held.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import design_io  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from common import sha256  # noqa: E402
from ssmkit import cli  # noqa: E402

SCRATCH = ROOT / ".ssmbench" / "selfcheck"


def bench(workload, seconds=0.5):
    """One in-process benchmark run: (exit code, result JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_generators_deterministic():
    drives = cli.load_project_config(ROOT / "configs" / "project.cfg").drives
    digests = []
    for seed in (3, 3, 4):
        work = SCRATCH / f"gen{len(digests)}"
        work.mkdir(parents=True)
        gen.telemetry(seed, drives, work / "telemetry.csv")
        gen.design(seed, drives[1], work)
        digests.append(tuple(sha256(p) for p in sorted(work.iterdir())))
    assert digests[0] == digests[1], "one seed gave different files"
    assert digests[0] != digests[2], "two seeds gave the same files"


def check_ik_targets_deterministic():
    from ssmkit import kinematics
    geom = kinematics.load_mechanism_config(ROOT / "configs" / "mechanism.cfg")

    def key(seed):
        return [(t.kind, t.pose.rotation.tobytes(), t.pose.position.tobytes())
                for t in gen.ik_targets(seed, geom)]

    assert key(5) == key(5), "one seed gave different targets"
    assert key(5) != key(6), "two seeds gave the same targets"


def check_workloads_pass():
    for workload in run.WORKLOADS:
        code, result = bench(workload)
        assert code == 0 and result["correct"] and result["failed"] == 0, (workload, result)


def check_wrong_expectations_fail():
    """A wrong expected value in each workload's checks must fail the run."""
    ik_targets, telemetry = gen.ik_targets, gen.telemetry

    def wrong_state(seed, geom):
        targets = ik_targets(seed, geom)
        t = next(t for t in targets if t.kind == "generic")
        t.state = dataclasses.replace(t.state, theta1=t.state.theta1 + 0.1)
        return targets

    def wrong_truth(*args, **kwargs):
        inputs = telemetry(*args, **kwargs)
        if 1 in inputs.truth:
            p = inputs.truth[1]
            inputs.truth[1] = dataclasses.replace(p, b_v=2.0 * p.b_v)
        return inputs

    cases = [
        ("ik_path", gen, "ik_targets", wrong_state),
        ("identify_log", gen, "telemetry", wrong_truth),
        ("design_io", design_io, "band_deg", lambda a, b: (81.0, 140.0)),
    ]
    for workload, module, attr, value in cases:
        with mock.patch.object(module, attr, value):
            code, result = bench(workload)
        assert code != 0 and not result["correct"] and result["failed"] > 0, (workload, result)


def check_refuses_outside_checkout():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ik_path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    checks = [check_generators_deterministic, check_ik_targets_deterministic,
              check_workloads_pass, check_wrong_expectations_fail,
              check_refuses_outside_checkout]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    failed = 0
    try:
        for check in checks:
            try:
                check()
                print(f"PASS {check.__name__}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {check.__name__}: {exc}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
