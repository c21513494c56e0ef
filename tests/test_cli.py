import math
import os
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

    def test_ik_unreachable_exits_3(self, mech_cfg, capsys):
        pose = ["1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "0.02", "0"]
        code = cli.main(["ik", "--config", str(mech_cfg), "--pose", ",".join(pose)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["fk", "--theta", "0,0,0,0"]) == 2

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
    def _write_log(self, path, load=1.0, noise=0.0, directions=(1, -1)):
        rng = np.random.default_rng(3)
        rate = 200.0
        speeds = [DEG(d) * 120.0 for d in (10, 20, 30, 40, 50, 60)]
        velocities = [s * w for w in speeds for s in directions]
        per = int(2.0 * rate)
        v = np.concatenate([np.full(per, w) for w in velocities])
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


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        """The runtime depends on numpy alone; scipy is a test-only oracle."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, ssmkit.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


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
