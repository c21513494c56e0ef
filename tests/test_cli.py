import contextlib
import importlib
import io
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmkit import cli
from ssmkit.dynamics import (
    FrictionParams,
    TransmissionKind,
    TransmissionSpec,
    load_transmission_config,
    payload_curve,
    save_transmission_config,
    write_trace_csv,
)
from ssmkit.kinematics import JointState, build_geometry, forward_kinematics

DEG = math.radians

J1_SPEC = TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5.0), 1.0e-5)
J1_PARAMS = FrictionParams(mu_s=0.15, mu_c=0.13, b_c=3.82e-3, b_v=7.18e-5)
# A drive whose ratio * eta_d underflows to 0 once mu is above 0.
TINY_DRIVE = """kind = wormgear
ratio = 1e-300
lead_angle_deg = 1e-300
reflected_inertia = 1e-05
mu_s = 0.15
mu_c = {mu_c}
b_c = 0.00382
b_v = 7.18e-05
"""


@pytest.fixture(autouse=True)
def no_output_dir_env(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)


@pytest.fixture
def mech_cfg(tmp_path):
    path = tmp_path / "mech.cfg"
    path.write_text("alpha_deg = 30\nbeta_deg = 110\n", encoding="utf-8")
    return path


@pytest.fixture
def drive_cfg(tmp_path):
    path = tmp_path / "drive.cfg"
    save_transmission_config(path, J1_SPEC, J1_PARAMS, precision=17)
    return path


def kinetic_torque(w_m, load=0.0):
    lam = J1_SPEC.lead_angle
    rho = math.atan(J1_PARAMS.mu_c)
    eta_d = math.tan(lam) / math.tan(lam + rho)
    eta_o = max(0.0, math.tan(lam - rho) / math.tan(lam))
    s = 1.0 if w_m > 0 else -1.0
    refl = load / (J1_SPEC.ratio * eta_d) if load * s > 0 else load * eta_o / J1_SPEC.ratio
    return J1_PARAMS.b_c * s + J1_PARAMS.b_v * w_m + refl


def parse_kv_stdout(out):
    values = {}
    for line in out.splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, raw = line.partition(" = ")
            values[key.strip()] = raw.strip()
    return values


class TestWorkspaceCommand:
    def test_design_case_prints_reference_numbers(self, capsys):
        assert cli.main(["workspace", "30", "110"]) == 0
        out = capsys.readouterr().out
        kv = parse_kv_stdout(out)
        assert kv["span_deg"] == "60"
        assert kv["band_deg"] == "80 to 140"
        assert kv["signed_range_deg"] == "-140 to -80"
        assert set(kv["extremes_deg"].split()) == {"80", "140"}

    def test_domain_error_exits_2(self, capsys):
        assert cli.main(["workspace", "0", "110"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_row_count_contract(self, tmp_path, capsys):
        out_csv = tmp_path / "w.csv"
        code = cli.main(
            ["workspace", "30", "110", "--samples", "64", "--csv", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 64 * 64 + 1
        assert lines[0] == "theta1_rad,theta2_rad,x,y,z,polar_deg"

    def test_too_few_samples_exit_2_before_any_output(self, tmp_path, capsys):
        out_csv = tmp_path / "w.csv"
        code = cli.main(
            ["workspace", "30", "110", "--samples", "1", "--csv", str(out_csv)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid needs at least 2 samples per joint" in captured.err
        assert not out_csv.exists()

    @pytest.mark.parametrize("samples", [10**14, 10**20 - 1, 2**63 - 1, 2**63])
    def test_grid_too_large_for_memory_exits_2(self, tmp_path, capsys, samples):
        # 10**14 samples per joint: the grid's points ask for 10**28 floats,
        # more than any address space; numpy's own errors for the larger
        # counts are ValueErrors, so the count is checked before numpy.
        out_csv = tmp_path / "w.csv"
        code = cli.main(
            ["workspace", "30", "110", "--samples", str(samples), "--csv", str(out_csv)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_csv.exists()

    def test_csv_emission_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["workspace", "47.3", "102.9", "--samples", "32", "--csv", str(a)])
        cli.main(["workspace", "47.3", "102.9", "--samples", "32", "--csv", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_env_respected(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "outputs"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(root))
        assert cli.main(
            ["workspace", "30", "110", "--samples", "16", "--csv", "w.csv"]
        ) == 0
        assert (root / "w.csv").exists()


class TestFkIkCommands:
    def test_fk_pure_translation(self, mech_cfg, capsys):
        code = cli.main(
            ["fk", "--config", str(mech_cfg), "--theta", "0,0,0,0.03"]
        )
        assert code == 0
        kv = parse_kv_stdout(capsys.readouterr().out)
        assert abs(float(kv["position_norm_m"]) - 0.03) < 1e-12

    def test_ik_round_trip_contains_input(self, mech_cfg, capsys):
        geom = build_geometry(DEG(30), DEG(110))
        state = JointState(DEG(40), DEG(-25), DEG(70), 0.025)
        pose = forward_kinematics(geom, state)
        nums = [f"{v!r}" for v in map(float, pose.rotation.ravel())]
        nums += [f"{v!r}" for v in map(float, pose.position)]
        code = cli.main(["ik", "--config", str(mech_cfg), "--pose", ",".join(nums)])
        assert code == 0
        out = capsys.readouterr().out
        assert "singular = no" in out
        rows = [
            line.split() for line in out.splitlines() if line[:1].isdigit()
        ]
        assert len(rows) >= 1
        found = False
        for row in rows:
            t = [float(x) for x in row[1:5]]
            if (
                abs(t[0] - 40.0) < 1e-6
                and abs(t[1] + 25.0) < 1e-6
                and abs(t[2] - 70.0) < 1e-6
                and abs(t[3] - 0.025) < 1e-9
            ):
                found = True
        assert found

    @pytest.mark.parametrize("theta4", [1e200, 1e-200])
    def test_fk_norm_of_an_extreme_translation(self, mech_cfg, capsys, theta4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fk", "--config", str(mech_cfg), "--theta", f"0,0,0,{theta4!r}",
                             "--precision", "17"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        pose = forward_kinematics(build_geometry(DEG(30), DEG(110)), JointState(0, 0, 0, theta4))
        norm = float(parse_kv_stdout(captured.out)["position_norm_m"])
        assert math.isclose(norm, math.hypot(*pose.position.tolist()), rel_tol=1e-15)

    def test_ik_unreachable_exits_3(self, mech_cfg, capsys):
        pose = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0.02", "0"]
        code = cli.main(["ik", "--config", str(mech_cfg), "--pose", ",".join(pose)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha_deg", ["1e-7", "179.9999999", "1e-300"])
    def test_ik_on_coincident_first_axes_exits_2(self, tmp_path, capsys, alpha_deg):
        cfg = tmp_path / "mech.cfg"
        cfg.write_text(f"alpha_deg = {alpha_deg}\nbeta_deg = 110\n", encoding="utf-8")
        pose = "1,0,0,0,1,0,0,0,1,0,0,0"
        assert cli.main(["ik", "--config", str(cfg), "--pose", pose]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha ~ 0 or pi puts the second joint axis on the first\n"
        assert cli.main(["fk", "--config", str(cfg), "--theta", "10,20,30,0.01"]) == 0

    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["fk", "--theta", "0,0,0,0"]) == 2

    def _both_forms(self, capsys, head, option, value):
        assert cli.main(head + [option, value]) == 0
        spaced = capsys.readouterr()
        assert cli.main(head + [f"{option}={value}"]) == 0
        assert capsys.readouterr() == spaced
        return spaced.out

    def test_fk_theta_starting_negative(self, mech_cfg, capsys):
        out = self._both_forms(capsys, ["fk", "--config", str(mech_cfg)],
                               "--theta", "-10,20,30,0")
        assert "position_norm_m = 0" in out

    def test_ik_pose_starting_negative(self, mech_cfg, capsys):
        # theta2 = pi about omega2: the 80 deg band edge, one branch.
        pose = "-0.5,0,0.8660254037844386,0,-1,0,0.8660254037844386,0,0.5,0,0,0"
        out = self._both_forms(capsys, ["ik", "--config", str(mech_cfg)], "--pose", pose)
        assert "branches = 1" in out

    @pytest.mark.parametrize("option", ["--pose", "--theta"])
    def test_missing_list_value_keeps_its_error(self, mech_cfg, capsys, option):
        command = "ik" if option == "--pose" else "fk"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(mech_cfg), option, "--precision", "3"])
        assert exc.value.code == 2
        assert f"argument {option}: expected one argument" in capsys.readouterr().err

    def test_short_theta_exits_2(self, mech_cfg, capsys):
        assert cli.main(["fk", "--config", str(mech_cfg), "--theta", "1,2,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: key '--theta': expected 4 numbers, got 3\n"

    def test_nan_theta_exits_2(self, mech_cfg, capsys):
        code = cli.main(["fk", "--config", str(mech_cfg), "--theta", "nan,2,3,0.01"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--theta': expected a finite number" in captured.err

    def test_nan_pose_exits_2(self, mech_cfg, capsys):
        pose = "nan,0,0,0,1,0,0,0,1,0,0,0.01"
        assert cli.main(["ik", "--config", str(mech_cfg), "--pose", pose]) == 2
        assert "'--pose': expected a finite number" in capsys.readouterr().err


class TestIdentifyCommand:
    def _write_log(self, path, load=1.0, noise=0.0, directions=(1, -1), rest_s=0.0):
        rng = np.random.default_rng(3)
        rate = 200.0
        speeds = [DEG(d) * 120.0 for d in (10, 20, 30, 40, 50, 60)]
        velocities = [s * w for w in speeds for s in directions]
        per = int(2.0 * rate)
        rest = np.zeros(int(rest_s * rate))
        v = np.concatenate([np.append(rest, np.full(per, w)) for w in velocities])
        tau = np.array([kinetic_torque(w, load) for w in v])
        if noise:
            tau *= 1.0 + noise * rng.standard_normal(tau.size)
        t = np.arange(v.size) / rate
        rows = ["time_s,joint_id,velocity,torque"]
        rows += [
            f"{float(t[i])!r},1,{float(v[i])!r},{float(tau[i])!r}"
            for i in range(v.size)
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_fit_recovers_reference_parameters(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0)
        report_path = tmp_path / "fit.cfg"
        code = cli.main(
            [
                "identify", str(log_path), "--transmission", str(drive_cfg),
                "--joint", "1", "--load", "1.0", "--out", str(report_path),
            ]
        )
        assert code == 0
        kv = parse_kv_stdout(capsys.readouterr().out)
        assert abs(float(kv["mu_c"]) - 0.13) < 1e-6
        assert abs(float(kv["b_c"]) - 3.82e-3) < 1e-8
        assert abs(float(kv["b_v"]) - 7.18e-5) < 1e-10
        spec, params = load_transmission_config(report_path)
        assert abs(params.mu_c - 0.13) < 1e-6

    def test_one_direction_log_flags_fit(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=0.0, directions=(1,))
        code = cli.main(
            ["identify", str(log_path), "--transmission", str(drive_cfg)]
        )
        assert code == 0
        assert "one-direction" in capsys.readouterr().out

    def test_empty_log_exits_2(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        log_path.write_text("", encoding="utf-8")
        code = cli.main(
            ["identify", str(log_path), "--transmission", str(drive_cfg)]
        )
        assert code == 2

    def test_non_integral_joint_id_exits_2(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",1,", ",1.7,", 1)
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(
            ["identify", str(log_path), "--transmission", str(drive_cfg)]
        )
        assert code == 2
        assert f"{log_path}:6: joint_id must be an integer" in capsys.readouterr().err

    def test_out_of_range_joint_id_names_the_file_value(self, tmp_path, drive_cfg,
                                                        capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace(",1,", ",1e308,", 1)
        lines[7] = lines[7].replace(",1,", ",7,", 1)
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                ["identify", str(log_path), "--transmission", str(drive_cfg)]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{log_path}: joint_id values outside 1..4: [7, 1e+308]" in err

    def test_fit_warnings_stay_off_stderr(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                ["identify", str(log_path), "--transmission", str(drive_cfg),
                 "--joint", "1", "--load=-0.7"]
            )
        assert code == 0
        captured = capsys.readouterr()
        assert "flag: non-physical mu_c estimate clamped to 0" in captured.out
        assert captured.err == ""

    def test_breakaway_without_a_load_flags_mu_s(self, tmp_path, drive_cfg, capsys):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=0.0, rest_s=0.5)
        code = cli.main(["identify", str(log_path), "--transmission", str(drive_cfg),
                         "--breakaway"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flag: mu_s not identifiable from breakaway without a test load" in out
        assert parse_kv_stdout(out)["mu_s"] == parse_kv_stdout(out)["mu_c"]

    @pytest.mark.parametrize("mu_c", ["0", "0.13"])
    def test_underflowing_reflection_flags_breakaway(self, tmp_path, capsys, mu_c):
        drive = tmp_path / "drive.cfg"
        drive.write_text(TINY_DRIVE.format(mu_c=mu_c), encoding="utf-8")
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0, rest_s=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["identify", str(log_path), "--transmission", str(drive),
                             "--load", "1", "--breakaway"])
        assert code == 0
        captured = capsys.readouterr()
        assert "flag: breakaway sample outside the representable mu_s range" in captured.out
        assert captured.err == ""

    def test_overflowing_torques_exit_2_without_numpy_warnings(self, tmp_path,
                                                                drive_cfg):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=0.0)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        lines[1:] = [line.rsplit(",", 1)[0] + ",1e308" for line in lines[1:]]
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ssmkit", "identify",
             str(log_path), "--transmission", str(drive_cfg), "--joint", "1",
             "--breakaway"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: map velocities or torques are too large to fit\n"

    def test_near_overflow_torques_give_finite_stds_without_warnings(self, tmp_path,
                                                                     drive_cfg):
        # Torques near 1e197 and 1e157: finite means, overflowing squares.
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0, noise=0.05)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines[1:], start=1):
            t, j, v, tau = line.split(",")
            scale = 1e200 if float(v) > 0.0 else 1e160
            lines[i] = f"{t},{j},{v},{float(tau) * scale!r}"
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fit = tmp_path / "fit.cfg"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ssmkit", "identify",
             str(log_path), "--transmission", str(drive_cfg), "--joint", "1",
             "--load", "1.0", "--breakaway", "--out", str(fit)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        out = result.stdout.splitlines()
        points = out[1:out.index(next(x for x in out if x.startswith("mu_s")))]
        assert len(points) == 12
        for point in points:
            velocity, mean, std, count = point.split()
            assert math.isfinite(float(std)) and 0.0 < float(std) < abs(float(mean))
        widths = [line.split("=")[1] for line in fit.read_text(encoding="utf-8").splitlines()
                  if line.startswith("# fit half_width_")]
        assert len(widths) == 3 and all(math.isfinite(float(x)) for x in widths)

    def test_report_is_deterministic(self, tmp_path, drive_cfg):
        log_path = tmp_path / "telemetry.csv"
        self._write_log(log_path, load=1.0, noise=0.05)
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        for out in (a, b):
            cli.main(
                [
                    "identify", str(log_path), "--transmission", str(drive_cfg),
                    "--load", "1.0", "--out", str(out),
                ]
            )
        assert a.read_bytes() == b.read_bytes()


class TestSimulateCommand:
    def _write_trajectory(self, path, w_joint=DEG(20.0), n=201):
        t = np.linspace(0.0, 1.0, n)
        write_trace_csv(path, t, np.full(n, w_joint), precision=17)

    def test_constant_velocity_friction_line(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj)
        out = tmp_path / "torque.csv"
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(out), "--precision", "17",
            ]
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        expected = kinetic_torque(120.0 * DEG(20.0))
        assert np.abs(data[:, 1] - expected).max() < 1e-12

    @pytest.mark.parametrize("load", ["1", "-1"])
    def test_underflowing_reflection_without_warnings(self, tmp_path, capsys, load):
        drive = tmp_path / "drive.cfg"
        drive.write_text(TINY_DRIVE.format(mu_c="0.13"), encoding="utf-8")
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", str(traj), "--transmission", str(drive),
                             "--load", load, "--out", str(tmp_path / "torque.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_time_span_past_the_float_range_without_warnings(self, tmp_path, drive_cfg,
                                                              capsys):
        traj = tmp_path / "traj.csv"
        write_trace_csv(traj, np.array([-1.7e308, 1.7e308]), np.array([0.0, 1.0]), precision=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", str(traj), "--transmission", str(drive_cfg),
                             "--measured", str(traj), "--out", str(tmp_path / "torque.csv")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_measured_equal_gives_zero_nrmsd(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        t = np.linspace(0.0, 1.0, 101)
        v = DEG(30.0) * np.sin(2 * math.pi * t)
        write_trace_csv(traj, t, v, precision=17)
        out = tmp_path / "torque.csv"
        assert cli.main(
            ["simulate", str(traj), "--transmission", str(drive_cfg), "--out", str(out)]
        ) == 0
        capsys.readouterr()
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "again.csv"), "--measured", str(out),
            ]
        )
        assert code == 0
        kv = parse_kv_stdout(capsys.readouterr().out)
        assert float(kv["nrmsd"]) < 1e-9

    def test_speed_set_against_generating_model(self, tmp_path, drive_cfg, capsys):
        # simulate with mildly perturbed parameters against traces from the
        # reference set: NRMSD stays small across the working speed set
        perturbed = tmp_path / "perturbed.cfg"
        save_transmission_config(
            perturbed,
            J1_SPEC,
            FrictionParams(mu_s=0.15, mu_c=0.13, b_c=3.82e-3 * 1.01, b_v=7.18e-5 * 0.99),
            precision=17,
        )
        from ssmkit.dynamics import JointTrajectory, inverse_dynamics

        for speed_deg in (10.0, 20.0, 40.0, 80.0):
            t = np.linspace(0.0, 1.0, 201)
            v = DEG(speed_deg) * np.sin(math.pi * t)
            traj_path = tmp_path / f"traj_{int(speed_deg)}.csv"
            write_trace_csv(traj_path, t, v, precision=17)
            reference = inverse_dynamics(
                J1_SPEC, J1_PARAMS, None, JointTrajectory(t, v)
            )
            measured_path = tmp_path / f"measured_{int(speed_deg)}.csv"
            write_trace_csv(measured_path, reference.time, reference.torque,
                            precision=17)
            code = cli.main(
                [
                    "simulate", str(traj_path), "--transmission", str(perturbed),
                    "--out", str(tmp_path / "sim.csv"),
                    "--measured", str(measured_path),
                ]
            )
            assert code == 0
            kv = parse_kv_stdout(capsys.readouterr().out)
            assert float(kv["nrmsd"]) < 0.02

    def test_malformed_trajectory_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("time_s,value\n0,0.1\n0.1,abc\n", encoding="utf-8")
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {traj}:3: malformed record\n"

    def test_non_finite_measured_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj, n=101)
        measured = tmp_path / "measured.csv"
        tau = np.ones(101)
        tau[50] = math.nan
        write_trace_csv(measured, np.linspace(0.0, 1.0, 101), tau)
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"), "--measured", str(measured),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nrmsd" not in captured.out
        assert "finite" in captured.err

    def test_non_finite_measured_range_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj, n=3)
        measured = tmp_path / "measured.csv"
        write_trace_csv(measured, np.linspace(0.0, 1.0, 3), np.array([1e308, -1e308, 0.0]))
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"), "--measured", str(measured),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "nrmsd" not in captured.out
        assert "measured torque range is not finite" in captured.err

    def test_overflowing_trajectory_names_the_file(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("time_s,value\n0,1e308\n0.01,-1e308\n0.02,1e308\n",
                        encoding="utf-8")
        out = tmp_path / "torque.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                ["simulate", str(traj), "--transmission", str(drive_cfg), "--out", str(out)]
            )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {traj}: ")
        assert "overflows" in err

    def test_huge_measured_torques_give_a_finite_nrmsd(self, tmp_path, drive_cfg,
                                                     capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj, n=4)
        measured = tmp_path / "measured.csv"
        write_trace_csv(measured, np.linspace(0.0, 1.0, 4),
                        np.array([1e200, -1e200, 0.0, 0.0]), precision=17)
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"), "--measured", str(measured),
                "--precision", "17",
            ]
        )
        assert code == 0
        nrmsd = float(parse_kv_stdout(capsys.readouterr().out)["nrmsd"])
        # The simulated torques are negligible next to 1e200: rms 1e200/sqrt(2).
        assert abs(nrmsd - math.sqrt(0.5) / 2.0) < 1e-15

    def test_non_utf8_trajectory_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_bytes(b"time_s,value\n0,0.1\n0.1,0.\xff\n")
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {traj}: trace file is not valid UTF-8\n"

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj)
        drive = tmp_path / "drive.cfg"
        drive.write_bytes(b"kind = wormgear\nratio = 1\xff0\n")
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive),
                "--out", str(tmp_path / "torque.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {drive}: config file is not valid UTF-8\n"

    def test_nan_friction_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj)
        text = drive_cfg.read_text(encoding="utf-8")
        drive_cfg.write_text(
            "\n".join("mu_s = nan" if line.startswith("mu_s") else line
                      for line in text.splitlines()) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "torque.csv"
        code = cli.main(
            ["simulate", str(traj), "--transmission", str(drive_cfg), "--out", str(out)]
        )
        assert code == 2
        assert "'mu_s': expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["trajectory", "out"])
    def test_directory_path_exits_2(self, tmp_path, drive_cfg, capsys, which):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj)
        paths = {"trajectory": traj, "out": tmp_path / "torque.csv"}
        paths[which] = tmp_path
        code = cli.main(
            [
                "simulate", str(paths["trajectory"]), "--transmission", str(drive_cfg),
                "--out", str(paths["out"]),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_misaligned_measured_exits_2(self, tmp_path, drive_cfg, capsys):
        traj = tmp_path / "traj.csv"
        self._write_trajectory(traj, n=101)
        measured = tmp_path / "measured.csv"
        t = np.linspace(5.0, 6.0, 101)
        write_trace_csv(measured, t, np.ones(101))
        code = cli.main(
            [
                "simulate", str(traj), "--transmission", str(drive_cfg),
                "--out", str(tmp_path / "torque.csv"), "--measured", str(measured),
            ]
        )
        assert code == 2


class TestPayloadCommand:
    def test_curve_matches_module_bit_for_bit(self, tmp_path, drive_cfg):
        out = tmp_path / "curve.csv"
        code = cli.main(
            [
                "payload", "--transmission", str(drive_cfg), "--load", "1.5",
                "--vmax", "100", "--points", "40", "--out", str(out),
            ]
        )
        assert code == 0
        grid = np.linspace(100.0 / 40, 100.0, 40)
        curve = payload_curve(J1_SPEC, J1_PARAMS, 1.5, grid)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "velocity_rad_s,torque_Nm"
        emitted = "\n".join(
            "%.9g,%.9g" % (v, tau) for v, tau in curve
        )
        assert "\n".join(lines[1:]) == emitted

    def test_zero_load_intercept(self, tmp_path, drive_cfg):
        out = tmp_path / "curve.csv"
        cli.main(
            [
                "payload", "--transmission", str(drive_cfg), "--load", "0",
                "--vmax", "10", "--points", "5", "--out", str(out),
            ]
        )
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        fitted = np.polyfit(data[:, 0], data[:, 1], 1)
        assert abs(fitted[1] - J1_PARAMS.b_c) < 1e-12
        assert abs(fitted[0] - J1_PARAMS.b_v) < 1e-12

    @pytest.mark.parametrize("option, value, message", [
        ("--points", "0", "--points must be at least 1"),
        ("--vmax", "0", "--vmax must be positive")])
    def test_empty_or_non_positive_grid_exits_2(self, tmp_path, drive_cfg, capsys,
                                                option, value, message):
        out = tmp_path / "curve.csv"
        argv = ["payload", "--transmission", str(drive_cfg), "--vmax", "1", "--points", "5",
                "--out", str(out), option, value]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("points", [10**14, 10**20 - 1, 2**63 - 1, 2**63])
    def test_point_count_too_large_for_memory_exits_2(self, tmp_path, drive_cfg, capsys,
                                                        points):
        # 10**14 points ask for 727 TiB, more than any address space; numpy
        # fails on the larger counts with a ValueError or an IndexError.
        out = tmp_path / "curve.csv"
        code = cli.main(
            ["payload", "--transmission", str(drive_cfg), "--vmax", "1",
             "--points", str(points), "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("ratio, b_v, vmax", [(1e-308, 7.18e-5, "1"),
                                                  (120.0, 10.0, "1e308")])
    def test_overflowing_torque_exits_2_without_warnings(self, tmp_path, capsys, ratio,
                                                         b_v, vmax):
        """A reflected load (ratio 1e-308) or a viscous term (b_v * 1e308)
        beyond the float range."""
        drive = tmp_path / "drive.cfg"
        spec = TransmissionSpec(TransmissionKind.WORM_GEAR, ratio, DEG(5.0), 1.0e-5)
        params = FrictionParams(mu_s=0.15, mu_c=0.13, b_c=3.82e-3, b_v=b_v)
        save_transmission_config(drive, spec, params, precision=17)
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["payload", "--transmission", str(drive), "--load", "100",
                             "--vmax", vmax, "--points", "3", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: motor torque of the payload curve overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("load, code", [("0", 0), ("1", 2), ("-1", 0)])
    def test_underflowing_reflection(self, tmp_path, capsys, load, code):
        drive = tmp_path / "drive.cfg"
        drive.write_text(TINY_DRIVE.format(mu_c="0.13"), encoding="utf-8")
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["payload", "--transmission", str(drive), "--load", load,
                             "--vmax", "10", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "error: motor torque of the payload curve overflows\n")
        assert out.exists() == (code == 0)

    def test_point_count_doubles_rows(self, tmp_path, drive_cfg):
        for points, name in ((30, "a.csv"), (60, "b.csv")):
            cli.main(
                [
                    "payload", "--transmission", str(drive_cfg), "--load", "1",
                    "--vmax", "50", "--points", str(points),
                    "--out", str(tmp_path / name),
                ]
            )
        rows_a = len((tmp_path / "a.csv").read_text().splitlines()) - 1
        rows_b = len((tmp_path / "b.csv").read_text().splitlines()) - 1
        assert rows_b == 2 * rows_a


class TestProjectConfig:
    def test_project_supplies_defaults(self, tmp_path, mech_cfg, drive_cfg, capsys):
        project = tmp_path / "project.cfg"
        outdir = tmp_path / "results"
        project.write_text(
            f"mechanism = {mech_cfg.name}\njoint1 = {drive_cfg.name}\n"
            f"output_dir = {outdir}\nprecision = 12\n",
            encoding="utf-8",
        )
        code = cli.main(
            ["fk", "--project", str(project), "--theta", "10,20,30,0.02"]
        )
        assert code == 0
        code = cli.main(
            [
                "payload", "--project", str(project), "--joint", "1",
                "--vmax", "10", "--points", "3", "--out", "curve.csv",
            ]
        )
        assert code == 0
        assert (outdir / "curve.csv").exists()

    def test_missing_referenced_file_rejected(self, tmp_path):
        project = tmp_path / "project.cfg"
        project.write_text("mechanism = nowhere.cfg\n", encoding="utf-8")
        assert cli.main(["fk", "--project", str(project), "--theta", "0,0,0,0"]) == 2

    def test_non_finite_precision_rejected(self, tmp_path, mech_cfg, capsys):
        project = tmp_path / "project.cfg"
        project.write_text(f"mechanism = {mech_cfg.name}\nprecision = inf\n",
                           encoding="utf-8")
        assert cli.main(["fk", "--project", str(project), "--theta", "0,0,0,0"]) == 2
        assert "'precision': expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e300", "2.7", "18", "0"])
    def test_precision_outside_1_to_17_rejected(self, tmp_path, mech_cfg, value):
        project = tmp_path / "project.cfg"
        project.write_text(f"mechanism = {mech_cfg.name}\nprecision = {value}\n",
                           encoding="utf-8")
        assert cli.main(["fk", "--project", str(project), "--theta", "0,0,0,0"]) == 2

    def test_relative_output_dir_is_project_relative(self, tmp_path, monkeypatch,
                                                     drive_cfg):
        sub = tmp_path / "sub"
        sub.mkdir()
        project = sub / "project.cfg"
        project.write_text(f"joint1 = {drive_cfg}\noutput_dir = out\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = cli.main(["payload", "--project", "sub/project.cfg", "--joint", "1",
                         "--vmax", "10", "--points", "3", "--out", "c.csv"])
        assert code == 0
        assert (sub / "out" / "c.csv").is_file()
        assert not (tmp_path / "out").exists()


_DRIVE_LINES = ("kind = wormgear", "ratio = 120", "lead_angle_deg = 5",
                "reflected_inertia = 1e-05", "mu_s = 0.15", "mu_c = 0.13",
                "b_c = 0.00382", "b_v = 7.18e-05")


def _j1_drive(drop=None, *extra):
    """The J1 drive config without the `drop` key, plus `extra` lines."""
    lines = [line for line in _DRIVE_LINES if line.partition(" = ")[0] != drop]
    return "\n".join(lines + list(extra)) + "\n"


class TestConfigMessages:
    """The one `error:` line and exit 2 of each config loader for a file
    with one fault; nothing on stdout and no file written."""

    def _fails(self, capsys, argv, out=None):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert out is None or not out.exists()
        return captured.err

    def _mechanism(self, tmp_path, capsys, text):
        cfg = tmp_path / "mech.cfg"
        cfg.write_text(text, encoding="utf-8")
        return self._fails(capsys, ["fk", "--config", str(cfg), "--theta", "0,0,0,0"]), cfg

    def _payload(self, tmp_path, capsys, name, text, source):
        cfg = tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = ["payload", *source(cfg), "--vmax", "10", "--points", "3", "--out", str(out)]
        return self._fails(capsys, argv, out), cfg

    def _drive(self, tmp_path, capsys, text):
        return self._payload(tmp_path, capsys, "drive.cfg", text,
                             lambda cfg: ["--transmission", str(cfg)])

    def _project(self, tmp_path, capsys, text):
        return self._payload(tmp_path, capsys, "project.cfg", text,
                             lambda cfg: ["--project", str(cfg), "--joint", "1"])

    @pytest.mark.parametrize("text, key", [("alpha_deg = 30\n", "beta_deg"),
                                           ("beta_deg = 110\nr0 = 1 0 0 0 1 0 0 0 1\n",
                                            "alpha_deg")])
    def test_mechanism_missing_key(self, tmp_path, capsys, text, key):
        err, cfg = self._mechanism(tmp_path, capsys, text)
        assert err == f"error: mechanism config {cfg}: missing key {key!r}\n"

    def test_mechanism_unknown_keys(self, tmp_path, capsys):
        err, cfg = self._mechanism(tmp_path, capsys,
                                   "alpha_deg = 30\nbeta_deg = 110\ngamma = 1\nbeta = 2\n")
        assert err == f"error: mechanism config {cfg}: unknown keys ['beta', 'gamma']\n"

    @pytest.mark.parametrize("key", ["kind", "ratio", "mu_c", "b_v"])
    def test_transmission_missing_key(self, tmp_path, capsys, key):
        err, cfg = self._drive(tmp_path, capsys, _j1_drive(key))
        assert err == f"error: transmission config {cfg}: missing key {key!r}\n"

    def test_transmission_unknown_keys(self, tmp_path, capsys):
        err, cfg = self._drive(tmp_path, capsys, _j1_drive(None, "gear = 1"))
        assert err == f"error: transmission config {cfg}: unknown keys ['gear']\n"

    def test_transmission_bad_kind(self, tmp_path, capsys):
        err, cfg = self._drive(tmp_path, capsys, _j1_drive("kind", "kind = Spur"))
        assert err == (f"error: transmission config {cfg}: kind must be one of "
                       "['leadscrew', 'wormgear'], got 'spur'\n")

    def test_transmission_bad_number(self, tmp_path, capsys):
        err, _ = self._drive(tmp_path, capsys, _j1_drive("ratio", "ratio = x"))
        assert err == "error: key 'ratio': expected a number, got 'x'\n"

    def test_project_unknown_keys(self, tmp_path, capsys):
        err, cfg = self._project(tmp_path, capsys, "joint5 = drive.cfg\nprecision = 9\n")
        assert err == f"error: project {cfg}: unknown keys ['joint5']\n"

    @pytest.mark.parametrize("key", ["mechanism", "joint1", "joint4"])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_project_file_not_found(self, tmp_path, capsys, key, absolute):
        missing = tmp_path / "nowhere" / "missing.cfg"
        raw = str(missing) if absolute else "nowhere/missing.cfg"
        err, cfg = self._project(tmp_path, capsys, f"{key} = {raw}\n")
        assert err == f"error: project {cfg}: {key} file {missing} not found\n"

    def test_project_names_a_faulty_drive_file(self, tmp_path, capsys):
        (tmp_path / "drive.cfg").write_text(_j1_drive("b_c"), encoding="utf-8")
        err, _ = self._project(tmp_path, capsys, "joint1 = drive.cfg\n")
        assert err == f"error: transmission config {tmp_path / 'drive.cfg'}: missing key 'b_c'\n"

    def test_keys_are_checked_before_values(self, tmp_path, capsys):
        """A file with a bad value and an unknown key names the unknown key;
        a missing key is named before an unknown one."""
        err, cfg = self._drive(tmp_path, capsys,
                               _j1_drive("ratio", "ratio = x", "foo = 1"))
        assert err == f"error: transmission config {cfg}: unknown keys ['foo']\n"
        err, cfg = self._mechanism(tmp_path, capsys, "alpha_deg = x\ngamma = 1\n")
        assert err == f"error: mechanism config {cfg}: missing key 'beta_deg'\n"
        err, cfg = self._project(tmp_path, capsys, "precision = 0\nfoo = 1\n")
        assert err == f"error: project {cfg}: unknown keys ['foo']\n"


class TestOptionValues:
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_precision_below_one_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["workspace", "30", "110", "--precision", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--precision: expected an integer of at least 1, got '{value}'" in err

    @pytest.mark.parametrize("value", ["99999999999", "18", "2.7", "nan"])
    def test_precision_outside_1_to_17_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fk", "--theta", "0,0,0,0", "--precision", value])
        assert exc.value.code == 2
        assert "--precision: expected " in capsys.readouterr().err

    def test_precision_17_round_trips(self, mech_cfg, capsys):
        theta = "10,20,30,0.1"
        assert cli.main(["fk", "--config", str(mech_cfg), "--theta", theta,
                         "--precision", "17"]) == 0
        pose = forward_kinematics(build_geometry(DEG(30), DEG(110)),
                                  JointState(DEG(10), DEG(20), DEG(30), 0.1))
        printed = capsys.readouterr().out.splitlines()[1].split(" = ")[1]
        assert [float(tok) for tok in printed.split()] == pose.position.tolist()

    @pytest.mark.parametrize("argv", [
        ["workspace", "nan", "110"],
        ["payload", "--vmax", "inf"],
        ["payload", "--vmax", "10", "--load", "nan"],
        ["identify", "log.csv", "--rate", "nan"],
        ["identify", "log.csv", "--load", "abc"],
    ])
    def test_non_finite_number_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert ": expected a finite number, got" in capsys.readouterr().err

    def test_precision_one_is_used(self, capsys):
        assert cli.main(["workspace", "30", "110", "--precision", "1"]) == 0
        assert "span_deg = 6e+01" in capsys.readouterr().out


# Number spellings: ordinary, out of range, denormal, non-finite, malformed.
_NUMBERS = ("0", "1", "-1", "2.5", "-0.5", "4", "-4", "90", "1e-320", "1e308",
            "-1e308")
_TOKENS = _NUMBERS + ("nan", "inf", "-inf", "abc", "", " ", "1_0", '"1"')


@st.composite
def _drive_text(draw):
    """The J1 config with some values replaced, keys dropped or added."""
    lines = [f"kind = {J1_SPEC.kind.value}", f"ratio = {J1_SPEC.ratio!r}",
             f"lead_angle_deg = {math.degrees(J1_SPEC.lead_angle)!r}",
             f"reflected_inertia = {J1_SPEC.reflected_inertia!r}"]
    lines += [f"{k} = {getattr(J1_PARAMS, k)!r}" for k in ("mu_s", "mu_c", "b_c", "b_v")]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition(" = ")[0]
        lines[i] = draw(st.sampled_from(_NUMBERS).map(f"{key} = {{}}".format)
                        | st.sampled_from(_TOKENS).map(f"{key} = {{}}".format)
                        | st.sampled_from(["", "gear = 1", key]))
    return "\n".join(lines)


@st.composite
def _trace_text(draw):
    """A time_s,value trace on an increasing grid, some fields replaced."""
    rows = [[repr(i / 100.0), draw(st.sampled_from(_NUMBERS[:8]))]
            for i in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(_TOKENS))
    return "\n".join(["time_s,value"] + [",".join(r) for r in rows])


@st.composite
def _telemetry_text(draw):
    """A 200 Hz joint-1 log of 0.8 s constant-velocity blocks, long enough
    to fit, with a field replaced in some blocks."""
    lines = ["time_s,joint_id,velocity,torque"]
    i = 0
    speeds = ("1", "2.5", "4", "90", "-1", "-0.5", "-4", "-90")
    for v in draw(st.lists(st.sampled_from(speeds), min_size=1, max_size=8, unique=True)):
        fields = ["1", v, draw(st.sampled_from(["0.5", "-0.5", "2"]))]
        if draw(st.integers(0, 7)) == 0:
            fields[draw(st.integers(0, 2))] = draw(st.sampled_from(_TOKENS + ("2", "1.5")))
        for _ in range(160):
            lines.append(f"{i / 200.0!r},{','.join(fields)}")
            i += 1
    return "\n".join(lines)


# Project values: precision in and out of 1..17; output_dir relative,
# absolute (ABS, replaced by a folder of the test) or an existing file.
_PRECISIONS = ("1", "9", "17", "9.0", "1e300", "2.7", "18", "0", "-1", "nan", "abc", "")
_OUTPUT_DIRS = ("out", "sub/out", ".", "", "drive.cfg", "ABS")


@st.composite
def _project_text(draw):
    """A project on the J1 drive with drawn precision and output_dir, a key
    sometimes dropped."""
    lines = ["joint1 = drive.cfg", f"precision = {draw(st.sampled_from(_PRECISIONS))}",
             f"output_dir = {draw(st.sampled_from(_OUTPUT_DIRS))}"]
    if draw(st.integers(0, 3)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines)


def _bytes_of(text_strategy):
    """Arbitrary bytes, or encoded text with at most one byte set to 0xff."""
    @st.composite
    def build(draw):
        raw = bytearray(draw(text_strategy).encode("utf-8"))
        if raw and draw(st.integers(0, 3)) == 0:
            raw[draw(st.integers(0, len(raw) - 1))] = 0xFF
        return bytes(raw)
    return st.binary(max_size=200) | build()


_FUZZ_TEXT = {"drive": _drive_text(), "trace": _trace_text(), "telemetry": _telemetry_text(),
              "project": _project_text()}


class TestArbitraryInputFiles:
    @settings(max_examples=180, deadline=None)
    @given(st.sampled_from(sorted(_FUZZ_TEXT)).flatmap(
        lambda kind: st.tuples(st.just(kind), _bytes_of(_FUZZ_TEXT[kind]))))
    def test_exit_code_is_0_2_or_3(self, tmp_path_factory, case):
        """Whatever bytes a config, trace, telemetry or project file holds,
        the CLI ends with exit code 0, 2 or 3 and lets no exception escape;
        a payload run from a project writes inside the test's folder."""
        kind, data = case
        work = tmp_path_factory.mktemp("fuzz")
        files = {"drive": work / "drive.cfg", "trace": work / "traj.csv",
                 "telemetry": work / "telemetry.csv", "project": work / "project.cfg"}
        save_transmission_config(files["drive"], J1_SPEC, J1_PARAMS, precision=17)
        write_trace_csv(files["trace"], np.linspace(0.0, 1.0, 21), np.linspace(-0.2, 0.2, 21))
        if kind == "project":
            data = data.replace(b"ABS", str(work / "abs").encode())
        files[kind].write_bytes(data)
        if kind == "telemetry":
            argv = ["identify", str(files["telemetry"]), "--joint", "1", "--breakaway"]
        elif kind == "project":
            argv = ["payload", "--project", str(files["project"]), "--joint", "1",
                    "--vmax", "10", "--points", "3"]
        else:
            argv = ["simulate", str(files["trace"]), "--measured", str(files["trace"])]
        if kind != "project":
            argv += ["--transmission", str(files["drive"])]
        argv += ["--load", "1", "--out", "c.csv" if kind == "project" else str(work / "out")]
        # A project without output_dir writes c.csv under the variable's folder.
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(work / "env")}):
            code = cli.main(argv)
        assert code in (0, 2, 3)
        if kind == "project" and code == 0:
            assert list(work.rglob("c.csv"))


# Values for the argv contract test, each as (valid, hostile). Paths are
# templates on the test's folder: {cfg} the shipped configs, {log} and
# {trace} small generated files, {missing} a path that does not exist and
# {dir} a folder.
_HOSTILE = ("nan", "inf", "-inf", "1e400", "\u0663", "0x10", "1_0", "", "-")
_PATHS = ("{missing}", "{dir}")
_ARG_VALUES = {
    "number": (("0", "1", "-1", "2.5", "30", "110", "45"), _HOSTILE + ("1e-300",)),
    "count": (("2", "3", "5"), ("1", "0", "-2", "\u0663", "abc", "1e400", "")),
    "--project": (("{cfg}/project.cfg",), ("{cfg}/joint1.cfg",) + _PATHS),
    "--config": (("{cfg}/mechanism.cfg",), ("{cfg}/joint1.cfg",) + _PATHS),
    "--transmission": (("{cfg}/joint1.cfg", "{cfg}/joint4.cfg"),
                       ("{cfg}/mechanism.cfg",) + _PATHS),
    "--joint": (("1", "2", "4"), ("3", "5", "0x10", "")),
    "--precision": (("1", "9", "17"), ("18", "0", "nan", "\u0663")),
    # Identity on the 30/110 build solves; a tip off the tool axis is unreachable.
    "--pose": (("1,0,0,0,1,0,0,0,1,1,0,0", "1,0,0,0,1,0,0,0,1,0,0,0",
                "1,0,0,0,1,0,0,0,1,0,0,1"),
               ("1,0,0,0,1,0,0,0,1,nan,0,0", "1,0,0,0,1,0,0,0,1,1e400,0,0",
                "0,0,0,0,0,0,0,0,0,0,0,0", "1,2,3", "")),
    "--theta": (("10,20,30,0.1", "0,0,0,0", "-10,5,0,1"),
                ("nan,0,0,0", "\u0663,0,0,0", "1_0,0,0,0", "1,2,3", "")),
    "--measured": (("{trace}",), _PATHS),
    "--out": (("out.csv", "sub/out.csv"), (".",)),
    "--csv": (("w.csv", "sub/w.csv"), (".",)),
    "telemetry": (("{log}",), ("{trace}",) + _PATHS),
    "trajectory": (("{trace}",), ("{log}",) + _PATHS),
}
# Each subcommand's positionals (value pools), the options it always gets
# and those it gets sometimes.
_SUBCOMMANDS = {
    "workspace": (("number", "number"), (), ("--csv", "--precision", "--project")),
    "fk": ((), ("--config", "--theta"), ("--precision", "--project")),
    "ik": ((), ("--config", "--pose"), ("--precision", "--project")),
    "identify": (("telemetry",), ("--transmission",),
                 ("--joint", "--load", "--tolerance", "--min-duration", "--discard", "--rate",
                  "--breakaway", "--out", "--precision", "--project")),
    "simulate": (("trajectory",), ("--transmission",),
                 ("--joint", "--load", "--measured", "--out", "--precision", "--project")),
    "payload": ((), ("--transmission", "--vmax"),
                ("--joint", "--load", "--points", "--out", "--precision", "--project")),
}
_POOL = {"--samples": "count", "--points": "count", "--load": "number", "--vmax": "number",
         "--tolerance": "number", "--min-duration": "number", "--discard": "number",
         "--rate": "number"}


@st.composite
def _argv(draw):
    """A subcommand with drawn positionals and options, each value valid
    three times in four. `--samples` and `--points` stay small, and
    `--csv` always comes with `--samples`, so no draw allocates much."""
    def value(pool):
        valid, hostile = _ARG_VALUES[_POOL.get(pool, pool)]
        return draw(st.sampled_from(hostile if draw(st.integers(0, 3)) == 3 else valid))

    # ik twice: it is the one subcommand that can exit 3.
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS) + ["ik"]))
    positionals, always, sometimes = _SUBCOMMANDS[command]
    argv = [command] + [value(pool) for pool in positionals]
    for option in always + tuple(o for o in sometimes if draw(st.booleans())):
        if option == "--breakaway":
            argv.append(option)
        elif option == "--csv":
            argv += ["--samples", value("--samples"), "--csv", value("--csv")]
        else:
            argv += [option, value(option)]
    return argv


class TestArgvContract:
    def test_exit_code_is_0_2_or_3(self, tmp_path, monkeypatch):
        """Random argv for all six subcommands, in one process: each run
        ends with exit code 0, 2 or 3 (argparse's own exit included), lets
        no other exception escape and raises no warning, and over the run
        all three codes occur. Outputs go under the test's folder."""
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        (tmp_path / "dir").mkdir()
        rows = ["time_s,joint_id,velocity,torque"]
        for block, speed in enumerate((1.0, 2.5, 4.0, -1.0, -2.5, -4.0)):
            torque = math.copysign(0.004, speed) + 7e-5 * speed
            rows += [f"{(block * 160 + i) / 200.0!r},1,{speed!r},{torque!r}" for i in range(160)]
        (tmp_path / "log.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        write_trace_csv(tmp_path / "trace.csv", np.linspace(0.0, 1.0, 21),
                        np.linspace(-0.2, 0.2, 21))
        paths = {"cfg": Path(__file__).resolve().parents[1] / "configs",
                 "log": tmp_path / "log.csv", "trace": tmp_path / "trace.csv",
                 "missing": tmp_path / "missing.csv", "dir": tmp_path / "dir"}
        codes = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(_argv())
        def run(argv):
            argv = [arg.format(**paths) for arg in argv]
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 2, 3), argv
            codes.add(code)

        run()
        assert codes == {0, 2, 3}


def _fresh_python(code):
    """Run `code` in a fresh interpreter that imports ssmkit from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


# Names `ssmkit` exports, each resolved from its submodule on first access.
_PACKAGE_EXPORTS = {
    "Direction", "FrictionParams", "JointTrajectory", "TorqueTrace", "TransmissionKind",
    "TransmissionSpec", "inverse_dynamics", "is_self_locking", "nrmsd", "payload_curve",
    "FitReport", "TelemetryLog", "TorqueVelocityMap", "extract_steady_segments",
    "fit_friction", "load_telemetry_csv", "IkSolutionSet",
    "JointState", "MechanismGeometry", "build_geometry", "forward_kinematics",
    "inverse_kinematics", "probe_point_defaults", "Pose", "Twist",
    "normalize_angle", "revolute_twist", "rodrigues", "SubproblemSolutions",
    "subproblem1", "subproblem2", "subproblem3prime", "TiltExtremes",
    "dot_profile", "tilt_extremes",
}

_NUMPY_LOADED = "print(any(m == 'numpy' or m.startswith('numpy.') for m in sys.modules))"


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        """The runtime depends on numpy alone; scipy is a test-only oracle."""
        probe = (
            "import sys, ssmkit.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_band_query_loads_no_numpy(self):
        # `python -m ssmkit workspace 30 110`, then a look at sys.modules.
        # Nor does it load `dataclasses`, which pulls in `inspect` and `ast`.
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['ssmkit', 'workspace', '30', '110']\n"
            "try:\n"
            "    runpy.run_module('ssmkit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            f"    {_NUMPY_LOADED}\n"
            "    print('dataclasses' in sys.modules)\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "band_deg = 80 to 140" in lines
        assert lines[-2:] == ["False", "False"]

    def test_help_loads_no_numpy(self):
        probe = (
            "import sys\nfrom ssmkit import cli\n"
            "try:\n    cli.main(['workspace', '--help'])\n"
            f"finally:\n    {_NUMPY_LOADED}\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert "usage" in result.stdout
        assert result.stdout.splitlines()[-1] == "False"

    _CONFIGS = Path(__file__).resolve().parents[1] / "configs"
    _GENERIC_POSE = ("--pose=0.25,-0.8660254037844386,0.4330127018922193,0.8660254037844386,"
                     "0,-0.5,0.4330127018922193,0.5,0.75,0,0,0")

    @pytest.mark.parametrize("argv, code, expect", [
        (["fk", "--theta", "10,-35,120,0.07", "--project", "project.cfg"], 0,
         "position_norm_m = 0.07"),
        (["ik", _GENERIC_POSE, "--project", "project.cfg"], 0, "branches = 2"),
        (["fk", "--theta", "10,-35,120,0.07", "--config", "mechanism.cfg"], 0,
         "position_norm_m = 0.07"),
        (["ik", _GENERIC_POSE, "--config", "mechanism.cfg"], 0, "branches = 2"),
        (["ik", "--pose=1.1,0,0,0,1,0,0,0,1,0,0,0", "--config", "mechanism.cfg"], 2, ""),
    ], ids=["fk-project", "ik-project", "fk-config", "ik-config", "ik-not-a-rotation"])
    def test_kinematics_commands_load_no_numpy(self, argv, code, expect):
        # The project also loads the joint drive files.
        argv = [str(self._CONFIGS / a) if a.endswith(".cfg") else a for a in argv]
        probe = (
            "import runpy, sys\n"
            f"sys.argv = ['ssmkit', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('ssmkit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            f"    {_NUMPY_LOADED}\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == code, result.stderr
        assert expect in result.stdout
        assert result.stdout.splitlines()[-1] == "False"
        if code:
            assert result.stderr.startswith("error: matrix is not orthonormal")

    def test_package_import_loads_no_numpy(self):
        result = _fresh_python(f"import sys, ssmkit; {_NUMPY_LOADED}")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_lazy_exports_are_the_submodule_objects(self):
        import ssmkit

        assert set(ssmkit._EXPORTS) == _PACKAGE_EXPORTS
        for name, module in ssmkit._EXPORTS.items():
            owner = importlib.import_module(f"ssmkit.{module}")
            assert getattr(ssmkit, name) is getattr(owner, name), name
        workspace = importlib.import_module("ssmkit.workspace")
        assert ssmkit.tilt_extremes is workspace.tilt_extremes
        assert ssmkit.TiltExtremes is workspace.TiltExtremes

    def test_dir_lists_the_exports(self):
        import ssmkit

        listed = dir(ssmkit)
        assert set(ssmkit._EXPORTS) <= set(listed)
        assert "__version__" in listed
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        import ssmkit

        with pytest.raises(AttributeError, match="no_such_name"):
            ssmkit.no_such_name  # noqa: B018
        assert not hasattr(ssmkit, "no_such_name")

    def test_workspace_csv_loads_no_numpy_ma(self, tmp_path):
        # Nothing on the workspace path may call `np.unique`, whose first
        # call imports `numpy.ma` and raises peak memory.
        out_csv = tmp_path / "w.csv"
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['ssmkit', 'workspace', '30', '110', '--csv', "
            f"{str(out_csv)!r}, '--samples', '50']\n"
            "try:\n"
            "    runpy.run_module('ssmkit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('numpy.ma' in sys.modules)\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 50 * 50 + 1

    def test_identify_breakaway_loads_no_numpy_ma(self, tmp_path, drive_cfg):
        # The rate check takes its median through `np.partition`, because
        # `np.median`'s first call imports `numpy.ma`.
        log_path = tmp_path / "telemetry.csv"
        TestIdentifyCommand()._write_log(log_path, load=1.0)
        probe = (
            "import runpy, sys\n"
            f"sys.argv = ['ssmkit', 'identify', {str(log_path)!r}, '--transmission', "
            f"{str(drive_cfg)!r}, '--joint', '1', '--load', '1.0', '--breakaway']\n"
            "try:\n"
            "    runpy.run_module('ssmkit', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('numpy.ma' in sys.modules)\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert "mu_s" in result.stdout
        assert result.stdout.splitlines()[-1] == "False"

    def test_identification_import_loads_no_statistics(self):
        result = _fresh_python(
            "import sys, ssmkit.identification; print('statistics' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_fresh_workspace_csv_with_one_sample_exits_2_before_any_output(self, tmp_path):
        out_csv = tmp_path / "w.csv"
        result = _fresh_python(
            "import sys; from ssmkit.cli import main; sys.exit(main(["
            f"'workspace', '30', '110', '--csv', {str(out_csv)!r}, '--samples', '1']))"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: grid needs at least 2 samples per joint\n"
        assert not out_csv.exists()


class TestModuleEntryPoint:
    """`python -m ssmkit` runs `ssmkit.__main__.main`, which holds OpenBLAS
    to one thread unless the caller chose a count; the bytes it writes are
    those of `cli.main` called in-process."""

    def test_fresh_process_matches_in_process(self, tmp_path, drive_cfg, capsysbinary,
                                              monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        # An r0 build, so that the nearest-rotation step runs on a non-identity r0.
        r0 = ((0.6, -0.64, 0.48), (0.8, 0.48, -0.36), (0.0, 0.6, 0.8))
        mech = tmp_path / "mech.cfg"
        mech.write_text("alpha_deg = 30\nbeta_deg = 110\nr0 = "
                        + " ".join(repr(x) for row in r0 for x in row) + "\n",
                        encoding="utf-8")
        geom = build_geometry(DEG(30), DEG(110), np.array(r0))
        pose = forward_kinematics(geom, JointState(0.7, -1.3, 2.1, 0.04))
        nums = [repr(v) for v in pose.rotation.ravel().tolist() + pose.position.tolist()]
        log_path = tmp_path / "telemetry.csv"
        TestIdentifyCommand()._write_log(log_path, load=1.0, noise=0.05)
        runs = {
            "ik": (["ik", "--config", str(mech), "--pose=" + ",".join(nums)], None),
            "identify": (["identify", str(log_path), "--transmission", str(drive_cfg),
                          "--joint", "1", "--load", "1.0", "--breakaway", "--out"],
                         "fit.cfg"),
            "workspace": (["workspace", "30", "110", "--samples", "37", "--csv"], "w.csv"),
        }
        for name, (argv, out_name) in runs.items():
            outputs = {}
            for side in ("in_process", "fresh"):
                out = tmp_path / side / name
                out.mkdir(parents=True)
                full = argv + [str(out / out_name)] if out_name else argv
                if side == "in_process":
                    assert cli.main(full) == 0
                    stdout = capsysbinary.readouterr().out
                else:
                    result = subprocess.run([sys.executable, "-m", "ssmkit", *full],
                                            env=env, capture_output=True)
                    assert result.returncode == 0, result.stderr
                    assert result.stderr == b""
                    stdout = result.stdout
                written = (out / out_name).read_bytes() if out_name else None
                outputs[side] = (stdout.replace(str(out).encode(), b"OUT"), written)
            assert outputs["fresh"] == outputs["in_process"], name

    @pytest.mark.parametrize("caller, seen", [(None, "1"), ("3", "3")])
    def test_blas_thread_default_keeps_the_callers_count(self, mech_cfg, monkeypatch,
                                                         caller, seen):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        if caller is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
        probe = (
            "import os, runpy, sys\n"
            f"sys.argv = ['ssmkit', 'fk', '--config', {str(mech_cfg)!r}, '--theta', '0,0,0,0']\n"
            "try:\n"
            "    runpy.run_module('ssmkit', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == seen

    def test_cli_main_leaves_the_environment_alone(self, mech_cfg, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert cli.main(["fk", "--config", str(mech_cfg), "--theta", "0,0,0,0.03"]) == 0
        assert dict(os.environ) == before


class TestExtremeFiniteInputs:
    REPO = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("argv", [
        ["fk", "--theta", "0,0,0,1e200"],
        ["fk", "--theta", "0,0,0,-1e200"],
        ["fk", "--theta", "0,0,0,1e-200"],
        ["ik", "--pose", "1,0,0,0,1,0,0,0,1,6.4278761e199,0,-7.66044443e199"],
        ["payload", "--joint", "1", "--vmax", "1e308", "--out", "payload.csv"],
    ])
    def test_exit_0_2_or_3_without_warnings_or_tracebacks(self, tmp_path, argv):
        """A fresh `python -m ssmkit` process, so that a warning reaches
        stderr as a user sees it."""
        env = dict(os.environ, PYTHONPATH=str(self.REPO / "src"))
        env.pop(cli.OUTPUT_DIR_ENV, None)
        project = tmp_path / "project.cfg"
        project.write_text("".join(f"{key} = {self.REPO / 'configs' / name}\n" for key, name in
                                   (("mechanism", "mechanism.cfg"), ("joint1", "joint1.cfg"))),
                           encoding="utf-8")
        result = subprocess.run([sys.executable, "-m", "ssmkit", *argv, "--project", str(project)],
                                env=env, cwd=tmp_path, capture_output=True, text=True)
        assert result.returncode in (0, 2, 3), result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr, result.stderr


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["workspace", "fk", "ik", "identify", "simulate", "payload"]
    )
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class TestReadmeQuickStart:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def _commands(self):
        """(argv, lines shown under it) of each `$ ssmkit` line in README's
        Quick start whose subcommand reads only `configs/`."""
        text = self.README.read_text(encoding="utf-8")
        section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        commands = []
        for block in section.split("```sh\n")[1:]:
            lines = block.split("```", 1)[0].splitlines()
            for i, line in enumerate(lines):
                if line.startswith("$ ssmkit ") and line.split()[2] in ("workspace", "fk", "ik"):
                    shown = []
                    for later in lines[i + 1:]:
                        if later.startswith("$ "):
                            break
                        shown.append(later)
                    commands.append((shlex.split(line)[2:], shown))
        return commands

    def test_commands_exit_0_and_print_what_readme_shows(self, monkeypatch, capsys):
        commands = self._commands()
        assert sorted({argv[0] for argv, _ in commands}) == ["fk", "ik", "workspace"]
        monkeypatch.chdir(self.README.parent)
        for argv, shown in commands:
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out
            if shown:
                assert out.splitlines() == shown, argv
