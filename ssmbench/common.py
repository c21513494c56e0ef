"""Helpers shared by the workloads: paths, statistics, in-process and
fresh-interpreter CLI calls, and the pass/fail ledger."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path.cwd()
PROJECT = ROOT / "configs" / "project.cfg"
MECHANISM = ROOT / "configs" / "mechanism.cfg"
# Fresh interpreters per cold-start figure; the median is reported.
COLD_RUNS = 17
# Calibration jobs timed on each side of a fresh interpreter (about 55 ms).
COLD_CALIBRATION_REPEATS = 50
# How a fresh interpreter's CPU time follows the calibration job's: its log
# against the log of the run's speed factor had slopes 0.70-0.91 (mean
# 0.78) in six sets of 5-10 runs on the baseline host, so a full
# correction over-corrects.
COLD_SPEED_ELASTICITY = 0.8
COLD_TIMEOUT_S = 60.0
# Typical time of one calibration_job() on the 2-vCPU Xeon (2.1 GHz,
# Python 3.11) the baseline was taken on. Timings are reported in seconds
# of that reference host.
CALIBRATION_REF_S = 0.0011


def calibration_job():
    """A fixed pure-Python job (arithmetic, calls, float formatting) whose
    speed tracks the interpreter work the workloads do."""
    total, parts = 0.0, []
    for i in range(4000):
        total += math.sqrt(i * 0.5) * 1.0001
        if i % 8 == 0:
            parts.append("%.9g" % total)
    return len(",".join(parts))


def _calibrate(repeats=3):
    """Median seconds of `repeats` calibration jobs, about 3 ms in all."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_job()
        runs.append(time.perf_counter() - start)
    return median(runs)


class SpeedClock:
    """Converts wall time to reference-host seconds.

    A shared host can change speed by tens of percent within seconds
    (measured on a 2-vCPU Xeon), which no number of repeats averages away. So timed work is
    bracketed by calibration jobs, and its wall time is multiplied by
    CALIBRATION_REF_S over their mean. That cancels the host's drift and
    leaves changes in ssmkit's own cost in full: the calibration job runs
    no ssmkit code. Raw wall times are printed beside the results."""

    def __init__(self):
        self._before = None

    def begin(self):
        """Calibrate just before a stretch of timed work."""
        self._before = _calibrate()

    def factor(self):
        """Reference seconds per wall second for the work since the last
        calibration; this calibration also opens the next stretch."""
        after = _calibrate()
        factor = 2.0 * CALIBRATION_REF_S / (self._before + after)
        self._before = after
        return factor

    def time(self, call):
        """Run `call()` right after a calibration; returns (result, raw
        seconds, corrected seconds)."""
        self.begin()
        start = time.perf_counter()
        result = call()
        raw = time.perf_counter() - start
        return result, raw, raw * self.factor()


def timed_ops(clock, calls):
    """Run zero-argument calls back to back, each bracketed by calibrations.
    Returns (outcomes, raw wall, corrected wall, corrected latencies)."""
    clock.begin()
    outcomes, latencies, raw_wall = [], [], 0.0
    for call in calls:
        start = time.perf_counter()
        outcomes.append(call())
        raw = time.perf_counter() - start
        raw_wall += raw
        latencies.append(raw * clock.factor())
    return outcomes, raw_wall, sum(latencies), latencies


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(got, want, rel):
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def graded(check, *args):
    """Problems `check(*args)` finds. A check that raises, say on a missing
    or malformed output file, fails the operation instead of the run."""
    try:
        return check(*args)
    except Exception as exc:  # reported as the operation's failure
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


class Ledger:
    """Counts operations attempted and failed, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems):
        """One operation; `problems` lists its failed checks (empty: passed)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("; ".join(problems))


def call_cli(main, argv):
    """Run a CLI entry point in-process as a user would, capturing stdout.
    Returns (exit code, stdout, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any escape is a failed operation, not a crash
        return None, out.getvalue(), f"{argv[0]}: {type(exc).__name__}: {exc}"
    if code != 0:
        return code, out.getvalue(), f"{argv[0]}: exit {code}: {err.getvalue().strip()}"
    return code, out.getvalue(), None


def fresh_python(args):
    """Run `python <args>` in a fresh interpreter from the checkout.
    Returns (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _host_speed(repeats=COLD_CALIBRATION_REPEATS):
    """Mean seconds of one calibration job over `repeats` back-to-back runs.
    The mean, unlike the median, keeps the short stalls a fresh interpreter
    is exposed to as well."""
    start = time.perf_counter()
    for _ in range(repeats):
        calibration_job()
    return (time.perf_counter() - start) / repeats


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(args, ledger, check):
    """One fresh interpreter running `python <args>`; the run counts as an
    operation, graded by `check(stdout)`. Returns (raw wall seconds, raw
    CPU seconds, CPU seconds of the reference host).

    The figure is the child's CPU time (user + system), which leaves out
    time it waited for a CPU or a disk on a shared host. The child runs
    while this process waits, so its speed is estimated by calibrating on
    each side of it, and scaled by the speed factor to the power
    COLD_SPEED_ELASTICITY."""
    before = _host_speed()
    cpu, start = _children_cpu_s(), time.perf_counter()
    code, stdout = fresh_python(args)
    wall, cpu = time.perf_counter() - start, _children_cpu_s() - cpu
    after = _host_speed()
    ledger.record([f"cold start exit {code}"] if code != 0 else check(stdout))
    factor = 2.0 * CALIBRATION_REF_S / (before + after)
    return wall, cpu, cpu * factor ** COLD_SPEED_ELASTICITY


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
