import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmkit.dynamics import (
    FrictionParams,
    JointTrajectory,
    TorqueTrace,
    TransmissionKind,
    TransmissionSpec,
    inverse_dynamics,
    nrmsd,
)
from ssmkit.errors import (
    DomainError,
    InsufficientDataError,
    InvalidLogError,
    RankDeficientError,
)
from ssmkit.identification import (
    MapPoint,
    _fit_mu_s,
    _range_nrmsd,
    _reflection_sum,
    _segment_indices,
    _solve_mu_c,
    _Z95,
    VALID_JOINT_IDS,
    TelemetryLog,
    TorqueVelocityMap,
    evaluate_model,
    extract_breakaway_samples,
    extract_steady_segments,
    fit_friction,
    load_telemetry_csv,
    save_fit_report,
)

from helpers import (
    breakaway_gap_oracle,
    breakaway_walk_oracle,
    mu_c_oracle,
    mu_s_oracle,
    reflection_sum_oracle,
    segment_oracle,
)

DEG = math.radians

# Estimated friction sets for the three actuated joints (SI units).
JOINT_PARAMS = {
    1: FrictionParams(mu_s=0.15, mu_c=0.13, b_c=3.82e-3, b_v=7.18e-5),
    2: FrictionParams(mu_s=0.13, mu_c=0.12, b_c=3.54e-3, b_v=3.69e-5),
    4: FrictionParams(mu_s=0.17, mu_c=0.17, b_c=1.1e-4, b_v=6.2e-6),
}
JOINT_SPECS = {
    1: TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5.0), 1.0e-5),
    2: TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5.0), 8.0e-6),
    4: TransmissionSpec(TransmissionKind.LEAD_SCREW, 3000.0, DEG(4.0), 5.0e-6),
}


def kinetic_torque(spec, params, load, w_m):
    """Scalar generator for steady-state motor torque (test-side oracle)."""
    lam = spec.lead_angle
    rho = math.atan(params.mu_c)
    eta_d = math.tan(lam) / math.tan(lam + rho)
    eta_o = max(0.0, math.tan(lam - rho) / math.tan(lam))
    s = 1.0 if w_m > 0 else -1.0
    reflected = load / (spec.ratio * eta_d) if load * s > 0 else load * eta_o / spec.ratio
    return params.b_c * s + params.b_v * w_m + reflected


def breakaway_torque(spec, params, load, s):
    """Scalar generator for breakaway motor torque in direction s."""
    lam = spec.lead_angle
    rho = math.atan(params.mu_s)
    eta_ds = math.tan(lam) / math.tan(lam + rho)
    eta_os = max(0.0, math.tan(lam - rho) / math.tan(lam))
    reflected = load / (spec.ratio * eta_ds) if load * s > 0 else load * eta_os / spec.ratio
    return params.b_c * s + reflected


def make_map(spec, params, load, velocities, count=450):
    points = [
        MapPoint(w, kinetic_torque(spec, params, load, w), 0.0, count)
        for w in sorted(velocities)
    ]
    return TorqueVelocityMap(tuple(points))


def make_telemetry(spec, params, load, velocities, noise, rng,
                   plateau_s=2.5, rate=200.0, joint_id=1):
    """Back-to-back constant-velocity plateaus with noisy torque samples."""
    per = int(round(plateau_s * rate))
    v = np.concatenate([np.full(per, w) for w in velocities])
    tau = np.array([kinetic_torque(spec, params, load, w) for w in v])
    if noise > 0.0:
        tau = tau * (1.0 + noise * rng.standard_normal(tau.size))
    t = np.arange(v.size) / rate
    jid = np.full(v.size, joint_id, dtype=int)
    return TelemetryLog(t, jid, v, tau, rate)


MOTOR_SPEEDS = [DEG(d) * 120.0 for d in (10, 20, 30, 40, 50, 60)]
BOTH_DIRECTIONS = [w for m in MOTOR_SPEEDS for w in (m, -m)]


class TestTelemetryLog:
    def test_non_increasing_time_rejected(self):
        with pytest.raises(InvalidLogError):
            TelemetryLog([0.0, 0.0], [1, 1], [0.0, 0.0], [0.0, 0.0])

    def test_off_nominal_rate_rejected(self):
        t = np.arange(100) * 0.02  # 50 Hz against a 200 Hz nominal
        with pytest.raises(InvalidLogError):
            TelemetryLog(t, np.ones(100, int), np.zeros(100), np.zeros(100))

    def test_unknown_joint_rejected(self):
        t = np.arange(10) / 200.0
        with pytest.raises(InvalidLogError):
            TelemetryLog(t, np.full(10, 7), np.zeros(10), np.zeros(10))

    def test_out_of_range_ids_named_once_and_sorted(self):
        t = np.arange(6) / 200.0
        with pytest.raises(InvalidLogError) as exc:
            TelemetryLog(t, [7, 1, 0, 7, -3, 5], np.zeros(6), np.zeros(6))
        assert str(exc.value) == "joint_id values outside 1..4: [-3, 0, 5, 7]"

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.sampled_from(VALID_JOINT_IDS), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_joint_streams_match_a_mask(self, ids, seed):
        jid = np.array(ids)
        # Each joint samples at the nominal 200 Hz, interleaved with the others.
        t = np.array([ids[:i].count(j) for i, j in enumerate(ids)]) / 200.0
        v, tau = np.random.default_rng(seed).standard_normal((2, jid.size))
        log = TelemetryLog(t, jid, v, tau)
        assert log.joint_ids() == np.unique(jid).tolist()
        for j in VALID_JOINT_IDS:
            mask = jid == j
            for key in (j, float(j), np.int64(j)):
                if mask.any():
                    for got, column in zip(log.joint(key), (t, v, tau)):
                        assert np.array_equal(got, column[mask])
                else:
                    with pytest.raises(InvalidLogError, match=f"no records for joint {j}"):
                        log.joint(key)

    def test_per_joint_streams(self):
        t = np.repeat(np.arange(10) / 200.0, 2)
        jid = np.tile([1, 2], 10)
        log = TelemetryLog(t, jid, np.zeros(20), np.zeros(20))
        assert log.joint_ids() == [1, 2]
        tj, vj, tauj = log.joint(2)
        assert tj.size == 10

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "time_s,joint_id,velocity,torque\n0,1,0.5,0.01\n0.005,1,0.5,0.011\n",
            encoding="utf-8",
        )
        log = load_telemetry_csv(path)
        assert log.joint_ids() == [1]
        assert log.joint(1)[1].tolist() == [0.5, 0.5]

    def test_csv_loader_rejects_empty_and_bad_header(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(InvalidLogError):
            load_telemetry_csv(empty)
        headers_only = tmp_path / "headers.csv"
        headers_only.write_text("time_s,joint_id,velocity,torque\n", encoding="utf-8")
        with pytest.raises(InvalidLogError):
            load_telemetry_csv(headers_only)
        bad = tmp_path / "bad.csv"
        bad.write_text("time,joint,v,t\n0,1,0,0\n", encoding="utf-8")
        with pytest.raises(InvalidLogError):
            load_telemetry_csv(bad)

    def test_csv_loader_rejects_non_integral_joint_id(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "time_s,joint_id,velocity,torque\n0,1,0.5,0.01\n0.005,1.7,0.5,0.01\n"
            "0.01,2.5,0.5,0.01\n",
            encoding="utf-8",
        )
        with pytest.raises(InvalidLogError) as exc:
            load_telemetry_csv(path)
        assert str(exc.value) == f"{path}:3: joint_id must be an integer"

    def test_csv_loader_names_malformed_line(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "time_s,joint_id,velocity,torque\n0,1,0.5,0.01\n\n0.005,1,x,0.01\n",
            encoding="utf-8",
        )
        with pytest.raises(InvalidLogError) as exc:
            load_telemetry_csv(path)
        assert str(exc.value) == f"{path}:4: malformed record"

    def test_csv_loader_rejects_non_finite_torque(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "time_s,joint_id,velocity,torque\n0,1,0.5,0.01\n0.005,1,0.5,nan\n",
            encoding="utf-8",
        )
        with pytest.raises(InvalidLogError, match="non-finite"):
            load_telemetry_csv(path)

    def test_csv_loader_names_out_of_range_joint_id(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "time_s,joint_id,velocity,torque\n0,1,0.5,0.01\n0.005,1e308,0.5,0.01\n"
            "0.010,-1e308,0.5,0.01\n0.015,0,0.5,0.01\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLogError) as exc:
                load_telemetry_csv(path)
        assert str(exc.value) == (
            f"{path}: joint_id values outside 1..4: [-1e+308, 0, 1e+308]"
        )


class TestExtractSteadySegments:
    def test_perfect_plateaus_give_exact_means(self):
        rng = np.random.default_rng(0)
        levels = [DEG(d) * 120.0 for d in (10, 20, 40)]
        log = make_telemetry(
            JOINT_SPECS[1], JOINT_PARAMS[1], 0.0, levels, 0.0, rng
        )
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert len(tv.points) == 3
        for point, level in zip(tv.points, levels):
            assert abs(point.velocity - level) < 1e-12
            expected = kinetic_torque(JOINT_SPECS[1], JOINT_PARAMS[1], 0.0, level)
            assert abs(point.torque_mean - expected) < 1e-12
            assert point.torque_std < 1e-15

    def test_overflowing_squares_give_a_finite_torque_std(self):
        rng = np.random.default_rng(5)
        per = 400
        # The first and last plateaus lie within tolerance and merge.
        v = np.repeat([1.0, 2.0, 1.004], per)
        tau = np.repeat([1e200, 1e160, 1e200], per) * (1.0 + 0.1 * rng.standard_normal(v.size))
        log = TelemetryLog(np.arange(v.size) / 200.0, np.ones(v.size, int), v, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tv = extract_steady_segments(log, 0.01, 0.5)
        # discard_s = 0.25 drops the first 50 samples of each plateau.
        kept = [np.concatenate([tau[50:400], tau[850:1200]]), tau[450:800]]
        assert [p.count for p in tv.points] == [700, 350]
        for point, samples in zip(tv.points, kept):
            scale = float(np.max(np.abs(samples)))
            expected = float(np.std(samples / scale)) * scale
            assert math.isfinite(point.torque_std)
            assert abs(point.torque_std - expected) <= 1e-9 * expected

    def test_short_plateau_excluded(self):
        rate = 200.0
        long_v = np.full(int(2.0 * rate), 1.0)
        short_v = np.full(int(0.4 * rate), 2.0)  # under discard + min duration
        v = np.concatenate([long_v, short_v])
        t = np.arange(v.size) / rate
        log = TelemetryLog(t, np.ones(v.size, int), v, np.ones(v.size))
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert [p.velocity for p in tv.points] == [1.0]

    def test_rest_periods_dropped(self):
        rate = 200.0
        v = np.concatenate([np.zeros(400), np.full(400, 1.5), np.zeros(400)])
        t = np.arange(v.size) / rate
        log = TelemetryLog(t, np.ones(v.size, int), v, np.ones(v.size))
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert [p.velocity for p in tv.points] == [1.5]

    def test_no_qualifying_segment(self):
        t = np.arange(50) / 200.0
        v = np.linspace(0.0, 5.0, 50)  # one long ramp
        log = TelemetryLog(t, np.ones(50, int), v, np.zeros(50))
        with pytest.raises(InsufficientDataError):
            extract_steady_segments(log, 0.01, 0.5)

    def test_repeated_velocity_plateaus_merged(self):
        rate = 200.0
        block = np.concatenate([np.full(300, 1.0), np.full(300, 2.0), np.full(300, 1.0)])
        t = np.arange(block.size) / rate
        tau = np.where(block > 1.5, 0.2, 0.1)
        log = TelemetryLog(t, np.ones(block.size, int), block, tau)
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert len(tv.points) == 2
        assert tv.points[0].count > 300  # the two 1.0 plateaus pooled

    def test_noisy_plateau_means_stay_within_three_sigma(self):
        rng = np.random.default_rng(99)
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        sigma = 0.02
        failures = 0
        total = 0
        for _ in range(25):
            log = make_telemetry(spec, params, 0.0, MOTOR_SPEEDS, sigma, rng)
            tv = extract_steady_segments(log, 0.01, 0.5)
            for point, level in zip(tv.points, sorted(MOTOR_SPEEDS)):
                truth = kinetic_torque(spec, params, 0.0, level)
                bound = 3.0 * sigma * abs(truth) / math.sqrt(point.count)
                total += 1
                if abs(point.torque_mean - truth) > bound:
                    failures += 1
        assert total == 150
        assert failures <= 3  # ~0.3% expected beyond 3 sigma

    def test_multi_joint_log_needs_explicit_id(self):
        t = np.repeat(np.arange(400) / 200.0, 2)
        jid = np.tile([1, 2], 400)
        log = TelemetryLog(t, jid, np.full(800, 1.0), np.full(800, 0.1))
        with pytest.raises(DomainError):
            extract_steady_segments(log, 0.01, 0.5)
        tv = extract_steady_segments(log, 0.01, 0.5, joint_id=2)
        assert len(tv.points) == 1


class TestFitFriction:
    def test_noiseless_recovery_of_reference_parameters(self):
        for jid in (1, 2, 4):
            spec, params = JOINT_SPECS[jid], JOINT_PARAMS[jid]
            load = 1.0
            tv = make_map(spec, params, load, BOTH_DIRECTIONS)
            breakaway = [
                (+1, breakaway_torque(spec, params, load, +1.0)),
                (-1, breakaway_torque(spec, params, load, -1.0)),
            ]
            report = fit_friction(tv, spec, test_load=load, breakaway=breakaway)
            fitted = report.params
            assert abs(fitted.mu_c - params.mu_c) / params.mu_c < 1e-6
            assert abs(fitted.b_c - params.b_c) / params.b_c < 1e-6
            assert abs(fitted.b_v - params.b_v) / params.b_v < 1e-6
            assert abs(fitted.mu_s - params.mu_s) / params.mu_s < 1e-6
            assert report.residual < 1e-9

    def test_negative_test_load_recovers_too(self):
        # gravity-like load pulling in the negative joint direction
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = -1.0
        tv = make_map(spec, params, load, BOTH_DIRECTIONS)
        fitted = fit_friction(tv, spec, test_load=load).params
        assert abs(fitted.mu_c - params.mu_c) / params.mu_c < 1e-9
        assert abs(fitted.b_c - params.b_c) / params.b_c < 1e-9
        assert abs(fitted.b_v - params.b_v) / params.b_v < 1e-9

    def test_rank_deficient_two_velocities_one_direction(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 0.0, MOTOR_SPEEDS[:2])
        with pytest.raises(RankDeficientError):
            fit_friction(tv, spec)

    @pytest.mark.parametrize("torque", [1e308, math.inf])
    def test_overflowing_map_rejected(self, torque):
        spec = JOINT_SPECS[1]
        points = [MapPoint(w, torque, 0.0, 100) for w in BOTH_DIRECTIONS]
        tv = TorqueVelocityMap(tuple(sorted(points, key=lambda p: p.velocity)))
        with pytest.raises(DomainError, match="too large to fit"):
            fit_friction(tv, spec, test_load=1.0, breakaway=[(1, 1.0)])

    def test_residual_of_overflowing_squares_is_finite(self):
        """The fit residual is the nrmsd formula: squares that overflow are
        scaled away, without numpy warnings."""
        observed = np.array([1e200, -1e200, 3e199, 1e160])
        predicted = 1.1 * observed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _range_nrmsd(predicted, observed, [])
        t = np.arange(4.0)
        assert value == nrmsd(TorqueTrace(t, predicted), TorqueTrace(t, observed))
        assert 0.0 < value < 1.0

    def test_half_widths_of_overflowing_residuals(self):
        """Variances whose squares overflow are scaled: a representable
        half-width stays finite and one past the float range is inf, both
        without numpy warnings."""
        w = [1e-10, 2e-10, 3e-10, 4e-10, 5e-10]
        # Orthogonal to 1 and w, so the fit is ~0 and these are the residuals.
        torque = [1e300, -2e300, 0.0, 2e300, -1e300]
        tv = TorqueVelocityMap(tuple(MapPoint(a, b, 0.0, 1) for a, b in zip(w, torque)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", RuntimeWarning)
            report = fit_friction(tv, JOINT_SPECS[1])
        # sigma^2 = 1e600 * 10 / 3 and (X^T X)^-1 has diagonal 1.1, 1e19.
        sigma = 1e300 * math.sqrt(10.0 / 3.0)
        assert abs(report.half_widths["b_c"] - _Z95 * sigma * math.sqrt(1.1)) <= (
            1e-9 * report.half_widths["b_c"])
        assert report.half_widths["b_v"] == math.inf

    def test_one_direction_fit_is_flagged(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 0.0, MOTOR_SPEEDS)
        report = fit_friction(tv, spec)
        assert any("one-direction" in f for f in report.flags)
        assert abs(report.params.b_c - params.b_c) / params.b_c < 1e-9
        assert abs(report.params.b_v - params.b_v) / params.b_v < 1e-9
        assert report.params.mu_c == 0.0

    def test_zero_load_makes_mu_c_unidentifiable(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 0.0, BOTH_DIRECTIONS)
        report = fit_friction(tv, spec)
        assert report.params.mu_c == 0.0
        assert any("not identifiable" in f for f in report.flags)
        assert abs(report.params.b_c - params.b_c) / params.b_c < 1e-9
        assert abs(report.params.b_v - params.b_v) / params.b_v < 1e-9

    def test_non_physical_estimates_clamped_with_warning(self):
        spec = JOINT_SPECS[1]
        # torques below the pure load reflection imply negative friction
        load = 1.0
        points = []
        for w in BOTH_DIRECTIONS:
            base = kinetic_torque(
                spec, FrictionParams(0.0, 0.0, 0.0, 1e-5), load, w
            )
            points.append(MapPoint(w, base - math.copysign(2e-3, w), 0.0, 100))
        tv = TorqueVelocityMap(tuple(sorted(points, key=lambda p: p.velocity)))
        with pytest.warns(UserWarning):
            report = fit_friction(tv, spec, test_load=load)
        assert report.params.mu_c == 0.0
        assert report.params.b_c == 0.0
        assert any("clamped" in f for f in report.flags)

    def test_fit_idempotence(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = 1.0
        first = fit_friction(
            make_map(spec, params, load, BOTH_DIRECTIONS), spec, test_load=load
        ).params
        second = fit_friction(
            make_map(spec, first, load, BOTH_DIRECTIONS), spec, test_load=load
        ).params
        assert abs(second.mu_c - first.mu_c) < 1e-9
        assert abs(second.b_c - first.b_c) < 1e-9
        assert abs(second.b_v - first.b_v) < 1e-9

    def test_scaling_map_torques_scales_the_model(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = 1.0
        k = 2.0
        base_map = make_map(spec, params, load, BOTH_DIRECTIONS)
        scaled = TorqueVelocityMap(
            tuple(
                MapPoint(p.velocity, k * p.torque_mean, p.torque_std, p.count)
                for p in base_map.points
            )
        )
        fit_base = fit_friction(base_map, spec, test_load=load).params
        fit_scaled = fit_friction(scaled, spec, test_load=load).params
        for w in BOTH_DIRECTIONS:
            tau1 = kinetic_torque(spec, fit_base, load, w)
            tauk = kinetic_torque(spec, fit_scaled, load, w)
            assert abs(tauk - k * tau1) < 1e-9

    def test_noisy_recovery_single_trial(self):
        rng = np.random.default_rng(7)
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = 1.0
        log = make_telemetry(spec, params, load, BOTH_DIRECTIONS, 0.05, rng)
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert len(tv.points) == 12
        fitted = fit_friction(tv, spec, test_load=load).params
        assert abs(fitted.mu_c - params.mu_c) / params.mu_c < 0.10
        assert abs(fitted.b_c - params.b_c) / params.b_c < 0.10
        assert abs(fitted.b_v - params.b_v) / params.b_v < 0.10

    def test_half_widths_cover_noise_scale(self):
        rng = np.random.default_rng(21)
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = 1.0
        log = make_telemetry(spec, params, load, BOTH_DIRECTIONS, 0.05, rng)
        tv = extract_steady_segments(log, 0.01, 0.5)
        report = fit_friction(tv, spec, test_load=load)
        for name, true_value in (
            ("mu_c", params.mu_c), ("b_c", params.b_c), ("b_v", params.b_v)
        ):
            assert report.half_widths[name] > 0.0
            assert report.half_widths[name] < 0.5 * true_value

    def test_residuals_reported_per_direction(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 1.0, BOTH_DIRECTIONS)
        report = fit_friction(tv, spec, test_load=1.0)
        assert set(report.residuals_by_direction) == {"positive", "negative"}


def _drive(lam, ratio=1.0):
    return TransmissionSpec(TransmissionKind.WORM_GEAR, ratio, lam, 0.0)


class TestClosedFormInversions:
    """`_solve_mu_c` and `_fit_mu_s` against plain bisection on the model."""

    @pytest.mark.parametrize("zone", ["eta_o positive", "eta_o clamped"])
    @settings(max_examples=40, deadline=None)
    @given(lam_frac=st.floats(0.0, 1.0), rho_frac=st.floats(0.0, 1.0),
           load=st.sampled_from([1.0, -1.0, 0.25, -4.0]))
    def test_mu_c_matches_bisection(self, zone, lam_frac, rho_frac, load):
        # eta_o is clamped to 0 from rho = lam on, which needs 2 lam < pi/2.
        if zone == "eta_o clamped":
            lam = 0.02 + lam_frac * 0.76
            top = math.pi / 2.0 - lam - 1e-9
            rho = lam + rho_frac * 0.999 * (top - lam)
        else:
            lam = 0.02 + lam_frac * 1.48
            top = min(lam, math.pi / 2.0 - lam - 1e-9)
            rho = 1e-3 + rho_frac * (0.999 * top - 1e-3)
        target = reflection_sum_oracle(rho, lam)
        flags = []
        # Power-of-two loads keep target * load / load exact.
        mu = _solve_mu_c(target * load, _drive(lam), load, flags)
        expected = mu_c_oracle(target, lam)
        assert flags == []
        assert abs(mu - expected) <= 1e-8 * expected

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.02, 1.5), excess=st.floats(1e-9, 10.0))
    def test_mu_c_clamps_and_flags(self, lam, excess):
        spec = _drive(lam)
        flags = []
        with pytest.warns(UserWarning, match="clamped to 0"):
            assert _solve_mu_c(2.0 - excess, spec, 1.0, flags) == 0.0
        assert flags == ["non-physical mu_c estimate clamped to 0"]
        flags = []
        assert _solve_mu_c(2.0 - 1e-13, spec, 1.0, flags) == 0.0
        assert flags == []
        hi = math.pi / 2.0 - lam - 1e-9
        target = _reflection_sum(hi, lam) * (1.0 + excess)
        assert _solve_mu_c(target, spec, 1.0, flags) == math.tan(hi)
        assert flags == ["mu_c estimate clamped at the driving-domain limit"]

    @pytest.mark.parametrize("s", [1.0, -1.0])
    @pytest.mark.parametrize("zone", ["driving", "overhauling", "self-locking"])
    @settings(max_examples=25, deadline=None)
    @given(lam_frac=st.floats(0.0, 1.0), rho_frac=st.floats(0.0, 1.0),
           ratio=st.floats(1.0, 3000.0), load_mag=st.floats(0.1, 10.0),
           b_c=st.floats(0.0, 0.01))
    def test_mu_s_matches_bisection(self, s, zone, lam_frac, rho_frac, ratio,
                                    load_mag, b_c):
        load = load_mag * (s if zone == "driving" else -s)
        if zone == "self-locking":
            # rho > lam clamps eta_o to 0: every mu from tan(lam) up fits.
            lam = 0.02 + lam_frac * 0.76
            top = math.pi / 2.0 - lam - 1e-9
            rho = lam + (1e-3 + 0.998 * rho_frac) * (top - lam)
        else:
            lam = 0.02 + lam_frac * 1.48
            top = math.pi / 2.0 - lam - 1e-9
            if zone == "overhauling":
                top = min(lam, top)
            rho = 1e-3 + rho_frac * (0.999 * top - 1e-3)
        torque = breakaway_gap_oracle(math.tan(rho), 0.0, b_c, s, load, ratio, lam)
        flags = []
        mu = _fit_mu_s([(int(s), torque)], _drive(lam, ratio), load, 0.0, b_c, flags)
        expected = mu_s_oracle(torque, b_c, s, load, ratio, lam)
        assert flags == []
        if zone == "self-locking":
            assert mu == expected == math.tan(top)
        else:
            assert abs(mu - expected) <= 1e-8 * expected

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_mu_s_edge_samples(self, s):
        spec = _drive(DEG(5.0), 120.0)
        load, b_c = 1.0, 3.82e-3
        # Without friction either way the whole load reaches the motor.
        at_zero = b_c * s + load / spec.ratio
        flags = []
        assert _fit_mu_s([(int(s), at_zero)], spec, load, 0.0, b_c, flags) == 0.0
        assert flags == []
        # Less torque than frictionless driving needs, or more than a
        # frictionless overhauling load gives back: no mu fits.
        outside = b_c * s + (0.5 if s > 0 else 1.5) * load / spec.ratio
        flags = []
        assert _fit_mu_s([(int(s), outside)], spec, load, 0.07, b_c, flags) == 0.07
        assert flags == ["breakaway sample outside the representable mu_s range",
                         "mu_s defaulted to mu_c (no usable breakaway samples)"]

    def test_z_for_95_percent(self):
        assert abs(_Z95 - 1.959963984540054) < 1e-12


class TestBreakawayExtraction:
    def test_planted_breakaway_recovered(self):
        rate = 200.0
        level = 2.0
        accel = level / 0.2
        rest = np.zeros(int(0.5 * rate))
        ramp = accel * np.arange(1, int(0.2 * rate) + 1) / rate
        plateau = np.full(int(2.0 * rate), level)
        v = np.concatenate([rest, ramp, plateau])
        tau = np.zeros_like(v)
        tau[v > 0] = 0.01
        tau[rest.size] = 0.025  # breakaway spike at first moving sample
        t = np.arange(v.size) / rate
        log = TelemetryLog(t, np.ones(v.size, int), v, tau)
        samples = extract_breakaway_samples(log, 0.05, 0.5)
        assert samples == [(1, 0.025)]

    def test_one_sample_per_rest(self):
        # Back-to-back plateaus after one rest: only the first one owns the
        # onset; the second rest gives the negative sample.
        v = np.array(
            [0.0] * 100 + [1.0] * 200 + [2.0] * 200 + [0.0] * 100 + [-1.0] * 200
        )
        t = np.arange(v.size) / 200.0
        log = TelemetryLog(t, np.ones(v.size, int), v, np.arange(v.size, dtype=float))
        assert extract_breakaway_samples(log, 0.05, 0.5) == [(1, 100.0), (-1, 600.0)]

    def test_one_segmentation_per_joint_and_tolerance(self, monkeypatch):
        calls = []

        def counting(v, tol):
            calls.append(tol)
            return _segment_indices(v, tol)

        v = np.array([0.0] * 100 + [1.0] * 200 + [0.0] * 100 + [-1.0] * 200)
        t = np.arange(v.size) / 200.0
        log = TelemetryLog(t, np.ones(v.size, int), v, np.arange(v.size, dtype=float))
        monkeypatch.setattr("ssmkit.identification._segment_indices", counting)
        first = extract_breakaway_samples(log, 0.05, 0.5)
        steady = extract_steady_segments(log, 0.05, 0.5)
        assert extract_breakaway_samples(log, 0.05, 0.5) == first
        assert calls == [0.05]
        extract_steady_segments(log, 0.02, 0.5)
        assert calls == [0.05, 0.02]
        fresh = TelemetryLog(t, np.ones(v.size, int), v, np.arange(v.size, dtype=float))
        assert extract_steady_segments(fresh, 0.05, 0.5) == steady
        assert calls == [0.05, 0.02, 0.05]

    def test_no_rest_means_no_sample(self):
        rate = 200.0
        v = np.full(int(2.0 * rate), 1.0)
        t = np.arange(v.size) / rate
        log = TelemetryLog(t, np.ones(v.size, int), v, np.zeros(v.size))
        assert extract_breakaway_samples(log, 0.05, 0.5) == []


# One block of a synthetic velocity log: a rest (exact zeros or tiny
# alternating noise) or a plateau, flat or wobbling, possibly with
# near-zero dropouts. Flat plateaus at 0.5, 1 and 2 put rest noise of
# 5e-4, 1e-3 and 2e-3 exactly on the threshold at rest_fraction 1e-3.
_blocks = st.one_of(
    st.tuples(
        st.just("rest"),
        st.sampled_from([0.0, 1e-5, 1e-4, 5e-4, 1e-3, 2e-3]),
        st.integers(1, 120),
    ),
    st.tuples(
        st.just("plateau"),
        st.floats(0.2, 3.0) | st.floats(-3.0, -0.2)
        | st.sampled_from([0.5, 1.0, 2.0, -0.5, -1.0, -2.0]),
        st.sampled_from([0.0, 0.01]),
        st.integers(1, 150),
        st.lists(st.integers(0, 149), max_size=3),
    ),
)


def _velocity_log(blocks):
    parts = []
    for block in blocks:
        if block[0] == "rest":
            _, noise, n = block
            parts.append(noise * (-1.0) ** np.arange(n))
        else:
            _, level, wobble, n, dropouts = block
            plateau = level * (1.0 + wobble * np.sin(np.arange(n)))
            for k in dropouts:
                if k < n:
                    plateau[k] = 1e-4 * level
            parts.append(plateau)
    return np.concatenate(parts)


class TestBreakawayScanMatchesWalk:
    @settings(max_examples=300, deadline=None)
    @given(
        blocks=st.lists(_blocks, min_size=1, max_size=12),
        tolerance=st.sampled_from([0.01, 0.05, 0.2]),
        min_duration=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        rest_fraction=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]),
        min_rest=st.sampled_from([0.0, 0.02, 0.1]),
    )
    def test_same_samples_as_the_walk(self, blocks, tolerance, min_duration,
                                      rest_fraction, min_rest):
        v = _velocity_log(blocks)
        t = np.arange(v.size) / 200.0
        tau = np.sin(np.arange(v.size) * 0.37)
        log = TelemetryLog(t, np.ones(v.size, int), v, tau)
        assert _segment_indices(v, tolerance) == segment_oracle(v, tolerance)
        got = extract_breakaway_samples(
            log, tolerance, min_duration, rest_fraction=rest_fraction, min_rest_s=min_rest
        )
        want = breakaway_walk_oracle(
            t, v, tau, tolerance, min_duration, rest_fraction=rest_fraction,
            min_rest_s=min_rest,
        )
        assert got == want


class TestEvaluateModel:
    def _fit_report(self, spec, params, load):
        return fit_friction(
            make_map(spec, params, load, BOTH_DIRECTIONS), spec, test_load=load
        )

    def test_self_generated_data_scores_zero(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        report = self._fit_report(spec, params, 1.0)
        t = np.linspace(0.0, 2.0, 401)
        traj = JointTrajectory(t, DEG(20.0) * np.sin(t))
        measured = inverse_dynamics(spec, params, None, traj)
        assert evaluate_model(report, spec, traj, measured) < 1e-9

    def test_added_noise_sets_the_score(self):
        rng = np.random.default_rng(5)
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        report = self._fit_report(spec, params, 1.0)
        t = np.linspace(0.0, 2.0, 401)
        traj = JointTrajectory(t, DEG(20.0) * np.sin(t))
        clean = inverse_dynamics(spec, params, None, traj)
        noise = 0.05 * np.abs(clean.torque) * rng.standard_normal(t.size)
        measured = TorqueTrace(t, clean.torque + noise)
        value = evaluate_model(report, spec, traj, measured)
        expected = math.sqrt(np.mean(noise**2)) / (
            measured.torque.max() - measured.torque.min()
        )
        assert abs(value - expected) < 1e-12
        ballpark = 0.05 * math.sqrt(np.mean(clean.torque**2)) / (
            measured.torque.max() - measured.torque.min()
        )
        assert 0.3 * ballpark < value < 3.0 * ballpark


class TestFitReportFile:
    def test_report_feeds_back_into_dynamics(self, tmp_path):
        from ssmkit.dynamics import load_transmission_config

        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        load = 1.0
        report = fit_friction(
            make_map(spec, params, load, BOTH_DIRECTIONS), spec, test_load=load
        )
        path = tmp_path / "fit.cfg"
        save_fit_report(path, report, spec)
        spec2, params2 = load_transmission_config(path)
        assert spec2.kind is spec.kind
        assert abs(params2.mu_c - report.params.mu_c) < 1e-8
        assert abs(params2.b_v - report.params.b_v) < 1e-12
