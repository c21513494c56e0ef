"""
ssmkit benchmark. Run from the root of an ssmkit checkout:

    python3 ssmbench/run.py --workload ik_path --seed 1 --seconds 12 --trace 0

Workloads: ik_path, identify_log, design_io (see README.md here). Each is a
single-process closed loop: one caller, each call after the previous one
returned. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 the three sessions run traced and the
JSON holds the per-layer metrics. The exit code is 0 only when every
output check passed.
"""

import os

# Pin BLAS pools before numpy loads: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("ik_path", "identify_log", "design_io")
SETUP_REPEATS = 5
MIN_SESSIONS = 3
MIN_TRACED_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description="ssmkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def untraced(workload, seconds, ledger):
    """End-to-end metrics of one workload, tracing off, in reference-host
    seconds (see common.SpeedClock); raw medians go to the shape line."""
    import numpy as np
    from common import COLD_RUNS, SpeedClock, cold_start, median, peak_rss_mb

    clock = SpeedClock()
    setups, raw_setups, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        digest, raw, fixed = clock.time(workload.setup)
        digests.append(digest)
        raw_setups.append(raw)
        setups.append(fixed)
    ledger.record([] if len(set(digests)) == 1 else ["one seed gave different inputs"])

    workload.session(ledger, clock)  # warm-up: graded, not reported
    cold_args, cold_check = workload.cold_command()
    raw_walls, walls, latencies = [], [], []
    colds, cold_walls, cold_cpus = [], [], []

    def cold():
        wall, cpu, fixed = cold_start(cold_args, ledger, cold_check)
        cold_walls.append(wall)
        cold_cpus.append(cpu)
        colds.append(fixed)

    busy = 0.0
    while busy < seconds or len(walls) < MIN_SESSIONS:
        # Cold starts are spread over the run, between sessions, so their
        # median samples the whole run.
        while len(colds) < COLD_RUNS * busy / seconds:
            cold()
        start = time.perf_counter()
        raw, wall, lat = workload.session(ledger, clock)
        busy += time.perf_counter() - start
        raw_walls.append(raw)
        walls.append(wall)
        latencies += lat
    while len(colds) < COLD_RUNS:
        cold()
    workload.finish(ledger)
    return {
        "setup_s": (median(setups), "s"),
        "session_s": (median(walls), "s"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "op_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "op_p75_ms": (float(np.percentile(latencies, 75)) * 1e3, "ms"),
        "cold_start_s": (median(colds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"sessions": len(walls), "ops": len(latencies),
        "raw_setup_s": median(raw_setups), "raw_session_s": median(raw_walls),
        "cold_wall_s": median(cold_walls), "cold_cpu_s": median(cold_cpus)}


def traced(workloads, seconds, ledger, trace_path):
    """Per-layer metrics: every workload's session, alternately untraced and
    traced, until `seconds` have passed. Layer figures are raw wall times;
    the tracing overhead compares corrected session times."""
    from common import COLD_RUNS, SpeedClock, cold_start, median
    from tracing import Tracer

    clock = SpeedClock()
    tracer = Tracer()
    for w in workloads:
        if hasattr(w, "trace_setup"):
            w.trace_setup(tracer)
        else:
            w.setup()
        w.session(ledger, clock)  # warm-up
    plain = {w.name: [] for w in workloads}
    timed = {w.name: [] for w in workloads}
    raw = {w.name: [] for w in workloads}
    windows = {w.name: [] for w in workloads}
    rounds, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds or rounds < MIN_TRACED_ROUNDS:
        for w in workloads:
            plain[w.name].append(w.session(ledger, clock)[1])
            w.wrap(tracer)
            lo = len(tracer.spans)
            try:
                raw_wall, wall, _ = w.session(ledger, clock)
            finally:
                tracer.restore()
            windows[w.name].append((lo, len(tracer.spans)))
            raw[w.name].append(raw_wall)
            timed[w.name].append(wall)
        rounds += 1
    metrics = {}
    for w in workloads:
        w.finish(ledger)
        metrics.update(w.layer_metrics(tracer, windows[w.name], raw[w.name], ledger))
        metrics[f"trace.overhead_s.{w.name}"] = (
            median(timed[w.name]) - median(plain[w.name]), "s")
    imports = [cold_start(["-c", "import ssmkit.cli"], ledger, lambda out: [])[0]
               for _ in range(COLD_RUNS)]
    metrics["cli.import_s"] = (median(imports), "s")
    tracer.dump(trace_path)
    return metrics, {"rounds": rounds, "spans": len(tracer.spans)}


def main(argv=None):
    args = parse_args(argv)
    if not ((ROOT / "src" / "ssmkit" / "__init__.py").is_file()
            and (ROOT / "configs" / "project.cfg").is_file()):
        print("error: run from the root of an ssmkit checkout "
              "(src/ssmkit and configs/project.cfg not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import Ledger

    modules = {name: importlib.import_module(name) for name in WORKLOADS}
    out_dir = ROOT / ".ssmbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        if args.trace:
            workloads = [modules[name].Workload(args.seed, work) for name in WORKLOADS]
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics, shape = traced(workloads, args.seconds, ledger, trace_path)
            shape["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            workload = modules[args.workload].Workload(args.seed, work)
            metrics, shape = untraced(workload, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print("shape: " + ", ".join(f"{k}={v}" for k, v in shape.items()))
    for reason in ledger.reasons:
        print(f"FAILED: {reason}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
