import dataclasses
import math
import re
import warnings
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmkit.dynamics import (
    FrictionParams,
    TorqueTrace,
    TransmissionKind,
    TransmissionSpec,
    nrmsd,
    reflect_load,
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
    _median,
    _range_nrmsd,
    _reflection_sum,
    _segment_indices,
    _solve_mu_c,
    _Z95,
    VALID_JOINT_IDS,
    TelemetryLog,
    TorqueVelocityMap,
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
    steady_points_oracle,
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


class TestMedian:
    # Time steps as the rate check sees them: positive, often repeated.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e3) | st.sampled_from([0.005, 0.005000000000000001,
                                                               0.0049999999999999]),
                    min_size=1, max_size=60))
    def test_equals_numpy_median_bit_for_bit(self, values):
        x = np.array(values)
        assert _median(x).hex() == float(np.median(x)).hex()

    @pytest.mark.parametrize("size", [1000, 1001, 32397])
    def test_long_arrays(self, size):
        x = 0.005 + 1e-6 * np.random.default_rng(size).standard_normal(size)
        assert _median(x).hex() == float(np.median(x)).hex()


class TestTelemetryLog:
    def test_empty_log_rejected(self):
        with pytest.raises(InvalidLogError, match="^telemetry log is empty$"):
            TelemetryLog([], [], [], [])

    def test_non_increasing_time_rejected(self):
        with pytest.raises(InvalidLogError):
            TelemetryLog([0.0, 0.0], [1, 1], [0.0, 0.0], [0.0, 0.0])

    def test_time_span_past_the_float_range(self):
        # The step overflows to inf without a warning: a rate of 0 Hz.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLogError, match="sample rate 0.0 Hz"):
                TelemetryLog([-1.7e308, 1.7e308], [1, 1], [0.0, 0.0], [0.0, 0.0])
            with pytest.raises(InvalidLogError, match="not strictly increasing"):
                TelemetryLog([1.7e308, -1.7e308], [1, 1], [0.0, 0.0], [0.0, 0.0])

    def test_off_nominal_rate_rejected(self):
        t = np.arange(100) * 0.02  # 50 Hz against a 200 Hz nominal
        with pytest.raises(InvalidLogError):
            TelemetryLog(t, np.ones(100, int), np.zeros(100), np.zeros(100))

    def test_unknown_joint_rejected(self):
        t = np.arange(10) / 200.0
        # A fraction, or a value the int cast would wrap, is named as given.
        for value, named in ((7, "[7]"), (1.5, "[1.5]"), (1e308, "[1e+308]"),
                             (math.nan, "[nan]")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidLogError) as exc:
                    TelemetryLog(t, np.full(10, value), np.zeros(10), np.zeros(10))
            assert str(exc.value) == f"joint_id values outside 1..4: {named}"

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
        with pytest.raises(InvalidLogError) as exc:
            load_telemetry_csv(path)
        assert str(exc.value) == f"{path}: telemetry torque: expected finite entries, got nan"

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

    @pytest.mark.parametrize("levels, noise", [
        pytest.param([1e200, 1e160, 1e200], 0.1, id="overflowing-squares"),
        pytest.param([0.02, 0.03, 0.02], 1e-6, id="low-noise-1e-6"),
        pytest.param([0.02, 0.03, 0.02], 1e-8, id="low-noise-1e-8"),
    ])
    def test_merged_torque_std_is_that_of_the_pooled_samples(self, levels, noise):
        """A merged point's torque_std is the std of its plateaus' kept
        samples: finite where their squares overflow, and without the
        cancellation of pooled (mean, std) pairs where the noise is small."""
        rng = np.random.default_rng(5)
        per = 400
        # The first and last plateaus lie within tolerance and merge.
        v = np.repeat([1.0, 2.0, 1.004], per)
        tau = np.repeat(levels, per) * (1.0 + noise * rng.standard_normal(v.size))
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

    @pytest.mark.parametrize("lengths", [(800, 250, 300), (250, 800, 300)])
    def test_plateaus_merge_on_the_running_mean_velocity(self, lengths):
        """Plateaus at v, v + 0.8 tol and v + 1.6 tol, apart in time: the
        third joins the first two only when their count-weighted mean lies
        within tol of it, which the longer second plateau brings about."""
        rng = np.random.default_rng(17)
        tol = 0.01
        blocks = []
        for level, n in zip((1.0, 1.0 + 0.8 * tol, 1.0 + 1.6 * tol), lengths):
            blocks += [np.zeros(200), level + 1e-4 * rng.standard_normal(n)]
        v = np.concatenate(blocks)
        t = np.arange(v.size) / 200.0
        tau = (0.02 + 1e-3 * v) * (1.0 + 1e-3 * rng.standard_normal(v.size))
        tv = extract_steady_segments(TelemetryLog(t, np.ones(v.size, int), v, tau), tol, 0.5)
        want = steady_points_oracle(t, v, tau, tol, 0.5)
        assert len(want) == (2 if lengths[0] > lengths[1] else 1)
        assert [(p.velocity, p.count) for p in tv.points] == [(w[0], w[3]) for w in want]
        for point, (_, mean, std, _) in zip(tv.points, want):
            assert abs(point.torque_mean - mean) <= 1e-12 * abs(mean)
            assert abs(point.torque_std - std) <= 1e-12 * std

    def test_short_plateau_excluded(self):
        rate = 200.0
        long_v = np.full(int(2.0 * rate), 1.0)
        short_v = np.full(int(0.4 * rate), 2.0)  # under discard + min duration
        v = np.concatenate([long_v, short_v])
        t = np.arange(v.size) / rate
        log = TelemetryLog(t, np.ones(v.size, int), v, np.ones(v.size))
        tv = extract_steady_segments(log, 0.01, 0.5)
        assert [p.velocity for p in tv.points] == [1.0]

    def test_run_left_short_by_the_discard_skipped(self):
        # 8 samples at 2.0 keep 2 or 3 after a 0.025 s discard: fewer than a
        # plateau needs, though no minimum duration rules the run out.
        v = np.concatenate([np.full(400, 1.0), np.full(8, 2.0), np.full(400, 3.0)])
        log = TelemetryLog(np.arange(v.size) / 200.0, np.ones(v.size, int), v, np.ones(v.size))
        tv = extract_steady_segments(log, 0.01, 0.0, discard_s=0.025)
        assert [p.velocity for p in tv.points] == [1.0, 3.0]

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

    def test_breakaway_array_fits_as_the_equal_list(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 1.0, BOTH_DIRECTIONS)
        pairs = [(+1, breakaway_torque(spec, params, 1.0, +1.0)),
                 (-1, breakaway_torque(spec, params, 1.0, -1.0))]
        listed = fit_friction(tv, spec, test_load=1.0, breakaway=pairs)
        assert fit_friction(tv, spec, test_load=1.0, breakaway=np.array(pairs)) == listed
        assert "mu_s defaulted" not in " ".join(listed.flags)
        # No pairs, in any form, is no breakaway samples.
        none = fit_friction(tv, spec, test_load=1.0)
        for empty in ([], (), np.empty((0, 2))):
            assert fit_friction(tv, spec, test_load=1.0, breakaway=empty) == none

    @pytest.mark.parametrize("points", [(), (MapPoint(0.0, 0.1, 0.0, 10),)])
    def test_map_without_moving_points_rejected(self, points):
        with pytest.raises(InsufficientDataError, match="^map has no nonzero-velocity points$"):
            fit_friction(TorqueVelocityMap(points), JOINT_SPECS[1])

    @pytest.mark.parametrize("counts", [
        pytest.param([450] * 5 + [0] + [450] * 6, id="zero"),
        pytest.param([450] * 5 + [-5] + [450] * 6, id="negative"),
        pytest.param([450] * 5 + [2.5] + [450] * 6, id="fractional"),
        pytest.param([1, -1] * 6, id="plus-minus-one"),
    ])
    def test_point_counts_must_be_positive_whole_numbers(self, counts):
        """A hand-built map's counts are read: DomainError naming the first
        point whose count is not a positive whole number."""
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 1.0, BOTH_DIRECTIONS)
        points = [dataclasses.replace(p, count=n) for p, n in zip(tv.points, counts)]
        bad = next(p for p in points if not (p.count >= 1 and float(p.count).is_integer()))
        pattern = f"^map point at velocity {re.escape(repr(bad.velocity))}: count must be"
        with pytest.raises(DomainError, match=pattern):
            fit_friction(TorqueVelocityMap(tuple(points)), spec, test_load=1.0)

    def test_breakaway_below_mu_c_clamped_with_a_flag(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, 1.0, BOTH_DIRECTIONS)
        slippery = FrictionParams(mu_s=0.05, mu_c=0.05, b_c=params.b_c, b_v=params.b_v)
        breakaway = [(s, breakaway_torque(spec, slippery, 1.0, s)) for s in (+1.0, -1.0)]
        report = fit_friction(tv, spec, test_load=1.0, breakaway=breakaway)
        assert "mu_s estimate below mu_c; clamped to mu_c" in report.flags
        assert report.params.mu_s == report.params.mu_c
        assert abs(report.params.mu_c - params.mu_c) < 1e-6

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

    def test_non_physical_estimates_clamped_with_flags(self):
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_friction(tv, spec, test_load=load)
        assert report.params.mu_c == 0.0
        assert report.params.b_c == 0.0
        assert any("clamped" in f for f in report.flags)
        # A clamped mu_c does not move with the intercepts.
        assert report.half_widths["mu_c"] == 0.0

    @pytest.mark.parametrize("load", [1e-310, -1e-310, 5e-324])
    def test_tiny_test_load_clamps_mu_c_without_warnings(self, load):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        tv = make_map(spec, params, math.copysign(1.0, load), BOTH_DIRECTIONS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_friction(tv, spec, test_load=load)
        assert "mu_c estimate clamped at the driving-domain limit" in report.flags
        assert report.half_widths["mu_c"] == 0.0

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


def _random_map(seed, shape):
    """A well-conditioned seeded map of the given shape (loaded, unloaded,
    positive or negative): a worm drive, 3-6 speeds per direction between 5
    and 60 rad/s, counts 20-300, torque noise 1e-5 N*m. Returns (map, spec,
    test load)."""
    rng = np.random.default_rng(seed)
    spec = JOINT_SPECS[int(rng.choice([1, 2]))]
    params = FrictionParams(0.3, float(rng.uniform(0.05, 0.3)),
                            float(rng.uniform(2e-3, 6e-3)), float(rng.uniform(2e-5, 1e-4)))
    load = 0.0 if shape == "unloaded" else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    signs = {"positive": [1.0], "negative": [-1.0]}.get(shape, [1.0, -1.0])
    points = []
    for s in signs:
        for speed in rng.uniform(5.0, 60.0, int(rng.integers(3, 7))).tolist():
            torque = kinetic_torque(spec, params, load, s * speed) + rng.uniform(-1e-5, 1e-5)
            points.append(MapPoint(s * speed, torque, 0.0, int(rng.integers(20, 301))))
    return TorqueVelocityMap(tuple(sorted(points, key=lambda p: p.velocity))), spec, load


def _lstsq_oracle(tv, spec, load):
    """The intercepts and slope from `np.linalg.lstsq` on the count-weighted
    design matrix, and the 95% half-widths of (mu_c, b_c, b_v): the
    covariance from the matrix's QR factor, and the Jacobian of the reported
    coefficients in the fitted ones, exact (linear) unless a test load is
    applied both ways. There the inverse function theorem gives it from the
    forward model, A+ + A- = (load / ratio) (drive(mu) + over(mu)) with
    drive = tan(lam + rho) / tan(lam) and over = max(0, tan(lam - rho)) /
    tan(lam), and b_c = A+ minus the load's driving (load > 0) or
    overhauling (load < 0) term: `mp.diff` of each term in 50 digits at the
    bisection root `mu_c_oracle`."""
    pts = [p for p in tv.points if p.velocity != 0.0]
    w = np.array([p.velocity for p in pts])
    y = np.array([p.torque_mean for p in pts])
    wt = np.sqrt(np.array([p.count for p in pts], dtype=float))
    both = bool(np.any(w > 0) and np.any(w < 0))
    columns = [w > 0, w < 0, w] if both else [np.ones_like(w), w]
    xw = np.column_stack(columns).astype(float) * wt[:, None]
    yw = y * wt
    coef = np.linalg.lstsq(xw, yw, rcond=None)[0]
    # One refinement step: the residuals are ~1e-3 of the torques, so the
    # solve's own rounding would show in sigma^2 a thousandfold.
    coef = (coef + np.linalg.lstsq(xw, yw - xw @ coef, rcond=None)[0]).tolist()
    sigma2 = float(np.sum((yw - xw @ np.array(coef)) ** 2)) / (len(pts) - len(coef))
    rinv = np.linalg.inv(np.linalg.qr(xw, mode="r"))
    cov = sigma2 * rinv @ rinv.T

    if not both:
        jac = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elif load == 0.0:
        jac = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 1.0]])
    else:
        lam = spec.lead_angle
        mu = mu_c_oracle((coef[0] + coef[1]) * spec.ratio / load, lam)
        with mp.workdps(50):
            drive = mp.diff(lambda m: mp.tan(lam + mp.atan(m)) / mp.tan(lam), mu)
            over = mp.diff(lambda m: max(0, mp.tan(lam - mp.atan(m))) / mp.tan(lam), mu)
            k = spec.ratio / (load * (drive + over))
            f = (drive if load > 0.0 else over) / (drive + over)
            jac = np.array([[k, k, 0], [1 - f, -f, 0], [0, 0, 1]], dtype=float)
    halves = (_Z95 * np.sqrt(np.diag(jac @ cov @ jac.T))).tolist()
    if not both:
        halves[0] = math.inf
    return coef, dict(zip(("mu_c", "b_c", "b_v"), halves))


class TestClosedFormFit:
    """The kinetic fit is closed-form Python float arithmetic: it calls no
    numpy.linalg routine, and it agrees with a least-squares oracle."""

    def _cases(self):
        spec, params = JOINT_SPECS[1], JOINT_PARAMS[1]
        w = [1e-10, 2e-10, 3e-10, 4e-10, 5e-10]
        torque = [1e300, -2e300, 0.0, 2e300, -1e300]
        overflowing = TorqueVelocityMap(tuple(MapPoint(a, b, 0.0, 1) for a, b in zip(w, torque)))
        return [
            (make_map(spec, params, 1.0, BOTH_DIRECTIONS), spec, 1.0, [(1, 0.03)]),
            (make_map(spec, params, 0.0, BOTH_DIRECTIONS), spec, 0.0, None),
            (make_map(spec, params, 0.5, MOTOR_SPEEDS), spec, 0.5, None),
            (overflowing, spec, 0.0, None),
        ]

    def test_fit_calls_no_linear_algebra_routine(self, monkeypatch):
        """With every numpy.linalg routine replaced by one that fails, each
        map shape (and the overflowing-residual map) fits to the same report."""
        want = [fit_friction(*case) for case in self._cases()]

        def fail(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(AssertionError):
            np.linalg.lstsq(np.eye(2), np.ones(2))
        assert [fit_friction(*case) for case in self._cases()] == want

    def test_velocities_whose_spread_underflows_are_rank_deficient(self):
        """Distinct velocities whose squared spread underflows to 0 cannot
        separate the slope: RankDeficientError, not a bare ZeroDivisionError."""
        points = [MapPoint(k * 1e-170, 0.01 + k * 1e-170, 0.0, 10) for k in (-3, -2, -1, 1, 2, 3)]
        with pytest.raises(RankDeficientError, match="too close together"):
            fit_friction(TorqueVelocityMap(tuple(points)), JOINT_SPECS[1], test_load=1.0)

    def test_half_widths_reproduce_under_a_one_ulp_nudge(self):
        """On 100 seeded maps loaded both ways, moving one point's torque_mean
        by one ulp moves no half-width by more than 1e-10 relative: the
        Jacobian is in closed form, with no finite-difference step to round."""
        for seed in range(100):
            tv, spec, load = _random_map(seed, "loaded")
            first = tv.points[0]
            nudged = dataclasses.replace(first, torque_mean=math.nextafter(first.torque_mean, 0.0))
            moved = TorqueVelocityMap((nudged,) + tv.points[1:])
            want = fit_friction(tv, spec, test_load=load).half_widths
            got = fit_friction(moved, spec, test_load=load).half_widths
            for name, value in want.items():
                assert abs(got[name] - value) <= 1e-10 * value, (seed, name)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(["loaded", "unloaded", "positive", "negative"]),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_matches_the_lstsq_oracle(self, shape, seed):
        """On well-conditioned maps (worm drives, 3-6 speeds per direction
        between 5 and 60 rad/s, counts 20-300, torque noise 1e-5 N*m) the
        fitted coefficients agree with the oracle's within 1e-12 and the
        half-widths within 1e-9. Where a test load is applied both ways, mu_c
        and b_c recover the intercepts through the load reflection, whose
        inverse (`_solve_mu_c`) can amplify any rounding a hundredfold."""
        tv, spec, load = _random_map(seed, shape)
        report = fit_friction(tv, spec, test_load=load)
        if any("clamped" in f for f in report.flags):
            return  # a clamp replaces the least-squares value
        coef, halves = _lstsq_oracle(tv, spec, load)
        p = report.params
        if shape == "loaded":
            got = [s * p.b_c + reflect_load(spec, p.mu_c, load, s) for s in (1.0, -1.0)]
        elif shape == "unloaded":
            got, coef = [p.b_c], [0.5 * (coef[0] - coef[1]), coef[2]]
        else:
            got = [(1.0 if shape == "positive" else -1.0) * p.b_c + load / spec.ratio]
        for value, oracle in zip(got + [p.b_v], coef):
            assert abs(value - oracle) <= 1e-12 * abs(oracle)
        for name, oracle in halves.items():
            value = report.half_widths[name]
            assert value == oracle or abs(value - oracle) <= 1e-9 * oracle, name


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        assert _Z95 == NormalDist().inv_cdf(0.975)


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

    @pytest.mark.parametrize("slot", ["velocity_tolerance", "min_duration_s",
                                      "rest_fraction", "min_rest_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "a", [1.0]])
    def test_scalars_are_read(self, slot, value):
        v = np.array([0.0] * 100 + [1.0] * 200)
        log = TelemetryLog(np.arange(v.size) / 200.0, np.ones(v.size, int), v, np.zeros(v.size))
        args = {"velocity_tolerance": 0.05, "min_duration_s": 0.5}
        if slot in args:
            args[slot] = value
            call = lambda: extract_breakaway_samples(log, **args)
        else:
            call = lambda: extract_breakaway_samples(log, 0.05, 0.5, **{slot: value})
        with pytest.raises(DomainError, match=slot):
            call()

    @pytest.mark.parametrize("extract", [extract_breakaway_samples, extract_steady_segments])
    def test_joint_id_is_read(self, extract):
        v = np.array([0.0] * 100 + [1.0] * 200)
        log = TelemetryLog(np.arange(v.size) / 200.0, np.ones(v.size, int), v, np.zeros(v.size))
        for bad in ([1.0], math.nan, "1", 1 + 0j):
            with pytest.raises(DomainError, match="joint_id"):
                extract(log, 0.05, 0.5, joint_id=bad)
        for same in (1.0, np.int64(1), True):
            assert extract(log, 0.05, 0.5, joint_id=same) == extract(log, 0.05, 0.5)

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
