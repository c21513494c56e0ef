"""
Byte-level conformance of the CSV-emitting commands across commits.

`workspace --csv`, `simulate --measured --out` and `payload --out` run
through `cli.main` at precisions 1, 9 and 17 on small inputs that numpy
alone builds from a fixed seed. The sha256 of stdout and of each emitted
file must equal the committed table `golden_digests.json`; a short digest
per line locates the first line that differs.

The table records the host it was made on: numpy's SIMD `sin`/`cos` can
differ by an ulp between CPUs, which can flip a digit of the workspace
file. A change that means to alter an output regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from ssmkit import cli

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


def _write_series(path, time, value):
    lines = ["time_s,value"] + [f"{t!r},{v!r}" for t, v in zip(time.tolist(), value.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_inputs(root):
    """A drive config, a 400-sample joint trajectory of eight noisy plateaus
    of either sign, and a measured torque trace on the same time grid. Only
    uniform draws and arithmetic, so every host writes the same bytes."""
    rng = np.random.default_rng(SEED)
    (root / "drive.cfg").write_text(DRIVE, encoding="utf-8")
    time = np.arange(400) / 200.0
    levels = rng.uniform(-0.3, 0.3, 8)
    velocity = np.repeat(levels, 50) + rng.uniform(-1e-3, 1e-3, 400)
    torque = 0.004 * np.sign(velocity) + rng.uniform(-5e-4, 5e-4, 400)
    _write_series(root / "trajectory.csv", time, velocity)
    _write_series(root / "measured.csv", time, torque)


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


def _record(data):
    lines = data.splitlines(keepends=True)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": "".join(hashlib.sha256(line).hexdigest()[:8] for line in lines)}


def run_all(root):
    """Output name -> (bytes, digest record) for every command and precision.
    stdout names the work directory as `ROOT`."""
    build_inputs(root)
    outputs = {}
    for precision in PRECISIONS:
        for name, (argv, emitted) in commands(root, precision).items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0, name
            stdout = out.getvalue().replace(str(root), "ROOT").encode("utf-8")
            for part, data in (("stdout", stdout), ("file", emitted.read_bytes())):
                outputs[f"{name}/p{precision}/{part}"] = (data, _record(data))
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        outputs = run_all(Path(work))
    table = {"host": host(), "digests": {k: rec for k, (_, rec) in sorted(outputs.items())}}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} digests to {TABLE}")
