import math
import warnings

import numpy as np
import pytest

from ssmkit.dynamics import (
    Direction,
    FrictionParams,
    JointTrajectory,
    TorqueTrace,
    TransmissionKind,
    TransmissionSpec,
    efficiency,
    inverse_dynamics,
    is_self_locking,
    load_transmission_config,
    nrmsd,
    payload_curve,
    read_trace_csv,
    reflect_load,
    read_trajectory_csv,
    save_transmission_config,
    write_trace_csv,
)
from ssmkit.errors import (
    DegenerateRangeError,
    DomainError,
    MisalignedTracesError,
    TrajectoryOverflowError,
)

DEG = math.radians

# joint-1-like worm drive
J1_SPEC = TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5.0), 1.0e-5)
J1_PARAMS = FrictionParams(mu_s=0.15, mu_c=0.13, b_c=3.82e-3, b_v=7.18e-5)


def trapezoid(peak, accel, hold_s, dt):
    """Symmetric trapezoidal velocity profile with exact accelerations."""
    ramp_s = peak / accel
    t_ramp = np.arange(0.0, ramp_s, dt)
    t_hold = np.arange(0.0, hold_s, dt)
    v = np.concatenate([accel * t_ramp, np.full_like(t_hold, peak),
                        peak - accel * t_ramp])
    a = np.concatenate([np.full_like(t_ramp, accel), np.zeros_like(t_hold),
                        np.full_like(t_ramp, -accel)])
    t = np.arange(v.size) * dt
    return JointTrajectory(t, v, a)


class TestParamsValidation:
    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            FrictionParams(mu_s=0.1, mu_c=0.1, b_c=-1e-3, b_v=0.0)

    def test_static_below_kinetic_rejected(self):
        with pytest.raises(DomainError):
            FrictionParams(mu_s=0.1, mu_c=0.2, b_c=0.0, b_v=0.0)

    def test_spec_invariants(self):
        with pytest.raises(DomainError):
            TransmissionSpec(TransmissionKind.WORM_GEAR, 0.0, DEG(5), 1e-5)
        with pytest.raises(DomainError):
            TransmissionSpec(TransmissionKind.LEAD_SCREW, 10.0, math.pi / 2, 1e-5)
        with pytest.raises(DomainError, match="^reflected_inertia must be nonnegative$"):
            TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5), -1e-5)

    def test_self_locking_boundary(self):
        params = FrictionParams(mu_s=0.15, mu_c=0.13, b_c=0.0, b_v=0.0)
        at_boundary = TransmissionSpec(
            TransmissionKind.WORM_GEAR, 10.0, math.atan(0.15), 1e-6
        )
        above = TransmissionSpec(
            TransmissionKind.WORM_GEAR, 10.0, math.atan(0.15) + 1e-6, 1e-6
        )
        assert is_self_locking(at_boundary, params)
        assert not is_self_locking(above, params)


class TestEfficiency:
    def test_frictionless_is_lossless(self):
        params = FrictionParams(mu_s=0.0, mu_c=0.0, b_c=0.0, b_v=0.0)
        assert efficiency(J1_SPEC.lead_angle, params.mu_c, Direction.DRIVING) == 1.0
        assert efficiency(J1_SPEC.lead_angle, params.mu_c, Direction.OVERHAULING) == 1.0

    def test_self_locking_boundary_kills_overhauling(self):
        mu = 0.13
        spec = TransmissionSpec(
            TransmissionKind.WORM_GEAR, 10.0, math.atan(mu), 1e-6
        )
        params = FrictionParams(mu_s=mu, mu_c=mu, b_c=0.0, b_v=0.0)
        assert efficiency(spec.lead_angle, params.mu_c, Direction.OVERHAULING) == 0.0

    def test_against_inclined_plane_force_balance(self):
        # independent oracle: tangential force balance on the thread incline
        lam, mu = DEG(5.0), 0.13
        t = math.tan(lam)
        eta_balance = t * (1.0 - mu * t) / (t + mu)
        assert abs(efficiency(lam, mu, Direction.DRIVING) - eta_balance) < 1e-12

        lam2 = DEG(15.0)
        t2 = math.tan(lam2)
        eta_over_balance = (t2 - mu) / ((1.0 + mu * t2) * t2)
        assert abs(efficiency(lam2, mu, Direction.OVERHAULING) - eta_over_balance) < 1e-12

    def test_steep_geometry_rejected(self):
        with pytest.raises(DomainError):
            efficiency(DEG(80.0), math.tan(DEG(15.0)), Direction.DRIVING)


def scalar_torque_oracle(spec, params, load, w_joint, a_joint):
    """Per-sample re-computation of the documented model, plain floats."""
    lam, r = spec.lead_angle, spec.ratio
    rho_c, rho_s = math.atan(params.mu_c), math.atan(params.mu_s)
    eta_d = math.tan(lam) / math.tan(lam + rho_c)
    eta_o = max(0.0, math.tan(lam - rho_c) / math.tan(lam))
    eta_ds = math.tan(lam) / math.tan(lam + rho_s)
    eta_os = max(0.0, math.tan(lam - rho_s) / math.tan(lam))
    w = r * w_joint
    a = r * a_joint
    inertial = spec.reflected_inertia * a
    if abs(w) >= 1e-6:
        s = math.copysign(1.0, w) if w != 0 else 0.0
        reflected = load / (r * eta_d) if load * s > 0 else load * eta_o / r
        return inertial + params.b_c * s + params.b_v * w + reflected
    if abs(a) > 1e-12:
        s = math.copysign(1.0, a)
        reflected = load / (r * eta_ds) if load * s > 0 else load * eta_os / r
        return inertial + params.b_c * s + reflected
    leak = load * eta_os / r
    return 0.0 if abs(leak) <= params.b_c else leak


class TestInverseDynamics:
    def test_rest_with_no_load_needs_no_torque(self):
        traj = JointTrajectory([0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        trace = inverse_dynamics(J1_SPEC, J1_PARAMS, None, traj)
        assert np.all(trace.torque == 0.0)

    def test_constant_velocity_is_the_friction_line(self):
        w = DEG(20.0)  # joint side
        traj = JointTrajectory(np.linspace(0, 1, 201), np.full(201, w))
        trace = inverse_dynamics(J1_SPEC, J1_PARAMS, None, traj)
        w_m = J1_SPEC.ratio * w
        expected = J1_PARAMS.b_c + J1_PARAMS.b_v * w_m
        assert np.abs(trace.torque - expected).max() < 1e-15

    def test_trapezoid_matches_scalar_oracle(self):
        # envelope from the motion requirements: 65 deg/s peak at 200 deg/s^2
        traj = trapezoid(DEG(65.0), DEG(200.0), 0.5, 1e-3)
        load = 0.8
        trace = inverse_dynamics(J1_SPEC, J1_PARAMS, lambda t: load, traj)
        acc = traj.accelerations()
        for i in range(traj.time.size):
            expected = scalar_torque_oracle(
                J1_SPEC, J1_PARAMS, load, traj.velocity[i], acc[i]
            )
            assert abs(trace.torque[i] - expected) < 1e-15

    def test_direction_symmetry_without_load(self):
        w = np.linspace(0.01, 1.0, 50)
        t = np.linspace(0, 1, 50)
        fwd = inverse_dynamics(
            J1_SPEC, J1_PARAMS, None, JointTrajectory(t, w, np.zeros_like(w))
        )
        rev = inverse_dynamics(
            J1_SPEC, J1_PARAMS, None, JointTrajectory(t, -w, np.zeros_like(w))
        )
        assert np.abs(fwd.torque + rev.torque).max() < 1e-15

    def test_friction_is_dissipative(self):
        rng = np.random.default_rng(321)
        w = rng.uniform(-2.0, 2.0, 100)
        t = np.linspace(0, 5, 100)
        trace = inverse_dynamics(
            J1_SPEC, J1_PARAMS, None, JointTrajectory(t, w, np.zeros_like(w))
        )
        assert np.all(trace.torque * (J1_SPEC.ratio * w) >= 0.0)

    def test_self_locking_holds_any_load_for_free(self):
        spec = TransmissionSpec(TransmissionKind.WORM_GEAR, 120.0, DEG(5.0), 1e-5)
        assert is_self_locking(spec, J1_PARAMS)
        for load in (-50.0, -1.0, 1.0, 50.0):
            traj = JointTrajectory([0.0, 0.1], [0.0, 0.0], [0.0, 0.0])
            trace = inverse_dynamics(spec, J1_PARAMS, lambda t, L=load: L, traj)
            assert np.all(trace.torque == 0.0)

    def test_back_drivable_holding_leaks_through(self):
        # shallow friction, steep thread: not self-locking
        params = FrictionParams(mu_s=0.05, mu_c=0.05, b_c=1e-4, b_v=0.0)
        spec = TransmissionSpec(TransmissionKind.LEAD_SCREW, 50.0, DEG(20.0), 1e-6)
        assert not is_self_locking(spec, params)
        load = 4.0
        traj = JointTrajectory([0.0, 0.1], [0.0, 0.0], [0.0, 0.0])
        trace = inverse_dynamics(spec, params, lambda t: load, traj)
        eta_os = efficiency(spec.lead_angle, params.mu_s, Direction.OVERHAULING)
        expected = load * eta_os / spec.ratio
        assert abs(expected) > params.b_c
        assert np.abs(trace.torque - expected).max() < 1e-15

    def test_breakaway_uses_static_friction(self):
        traj = JointTrajectory([0.0, 0.1], [0.0, 0.0], [2.0, 2.0])
        load = 1.5
        trace = inverse_dynamics(J1_SPEC, J1_PARAMS, lambda t: load, traj)
        eta_ds = efficiency(J1_SPEC.lead_angle, J1_PARAMS.mu_s, Direction.DRIVING)
        expected = (
            J1_SPEC.reflected_inertia * J1_SPEC.ratio * 2.0
            + J1_PARAMS.b_c
            + load / (J1_SPEC.ratio * eta_ds)
        )
        assert np.abs(trace.torque - expected).max() < 1e-15

    def test_acceleration_differentiated_when_absent(self):
        t = np.linspace(0.0, 1.0, 101)
        v = 0.5 * t  # constant acceleration 0.5
        traj = JointTrajectory(t, v)
        assert np.abs(traj.accelerations() - 0.5).max() < 1e-12

    def test_invalid_trajectories_rejected(self):
        with pytest.raises(DomainError):
            JointTrajectory([0.0, 0.0, 0.1], [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            JointTrajectory([0.0, 0.1], [0.0, np.inf])


    @pytest.mark.parametrize(
        "v",
        [
            [1e308, -1e308, 1e308],  # the differentiated acceleration overflows
            [1e307, 1e307, 1e307],  # the motor velocity (ratio 120) overflows
        ],
    )
    def test_overflowing_trajectory_rejected_without_warnings(self, v):
        traj = JointTrajectory([0.0, 0.01, 0.02], v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryOverflowError):
                inverse_dynamics(J1_SPEC, J1_PARAMS, lambda t: 1.0, traj)


class TestReflectLoad:
    # ratio * eta_d underflows to 0 for a driving load at mu_c = 0.13.
    TINY = TransmissionSpec(TransmissionKind.WORM_GEAR, 1e-300, DEG(1e-300), 1.0e-5)

    def test_underflowing_driving_reflection_is_inf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reflect_load(self.TINY, 0.13, 1.0, 1.0) == math.inf
            assert reflect_load(self.TINY, 0.13, -1.0, 1.0) == 0.0
            assert reflect_load(self.TINY, 0.13, 0.0, 1.0) == 0.0
            out = reflect_load(self.TINY, 0.13, np.array([1.0, -1.0, 0.0]), 1.0)
        assert out.tolist() == [math.inf, 0.0, 0.0]

    def test_finite_reflections_keep_python_float_bits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu = float(rng.uniform(0.0, 0.5))
            load = float(rng.uniform(-10.0, 10.0))
            s = float(rng.choice([-1.0, 1.0]))
            eta_d = efficiency(J1_SPEC.lead_angle, mu, Direction.DRIVING)
            eta_o = efficiency(J1_SPEC.lead_angle, mu, Direction.OVERHAULING)
            expected = (load / (J1_SPEC.ratio * eta_d) if load * s > 0.0
                        else load * eta_o / J1_SPEC.ratio)
            got = reflect_load(J1_SPEC, mu, load, s)
            assert type(got) is float and got == expected


class TestPayloadCurve:
    def test_zero_load_curve_is_exactly_the_friction_line(self):
        grid = np.linspace(1.0, 100.0, 25)
        curve = payload_curve(J1_SPEC, J1_PARAMS, 0.0, grid)
        assert curve.shape == (25, 2)
        expected = J1_PARAMS.b_c + J1_PARAMS.b_v * grid
        assert np.array_equal(curve[:, 1], expected)

    def test_monotone_for_positive_viscous(self):
        grid = np.linspace(0.5, 120.0, 200)
        curve = payload_curve(J1_SPEC, J1_PARAMS, 2.0, grid)
        assert np.all(np.diff(curve[:, 1]) > 0.0)

    def test_load_shifts_curve_linearly(self):
        grid = np.linspace(1.0, 50.0, 10)
        base = payload_curve(J1_SPEC, J1_PARAMS, 0.0, grid)
        eta_d = efficiency(J1_SPEC.lead_angle, J1_PARAMS.mu_c, Direction.DRIVING)
        for load in (1.0, 2.0, 4.0):
            curve = payload_curve(J1_SPEC, J1_PARAMS, load, grid)
            shift = load / (J1_SPEC.ratio * eta_d)
            assert np.abs(curve[:, 1] - base[:, 1] - shift).max() < 1e-15

    def test_matches_steady_state_inverse_dynamics(self):
        grid = np.linspace(2.0, 100.0, 9)
        load = 1.7
        curve = payload_curve(J1_SPEC, J1_PARAMS, load, grid)
        for w_m, tau in curve:
            traj = JointTrajectory(
                np.linspace(0, 1, 11), np.full(11, w_m / J1_SPEC.ratio)
            )
            trace = inverse_dynamics(J1_SPEC, J1_PARAMS, lambda t: load, traj)
            assert np.abs(trace.torque - tau).max() < 1e-12

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            payload_curve(J1_SPEC, J1_PARAMS, 0.0, [0.0, 1.0])
        with pytest.raises(DomainError):
            payload_curve(J1_SPEC, J1_PARAMS, 0.0, [2.0, 1.0])
        with pytest.raises(DomainError, match="^velocity grid must be a non-empty 1-d array$"):
            payload_curve(J1_SPEC, J1_PARAMS, 0.0, [])


class TestNrmsd:
    def test_identical_traces(self):
        t = np.linspace(0, 1, 50)
        tau = np.sin(t)
        assert nrmsd(TorqueTrace(t, tau), TorqueTrace(t, tau)) == 0.0

    def test_constant_offset(self):
        t = np.linspace(0, 1, 200)
        tau = np.sin(2 * math.pi * t)
        c = 0.05
        value = nrmsd(TorqueTrace(t, tau + c), TorqueTrace(t, tau))
        spread = tau.max() - tau.min()
        assert abs(value - c / spread) < 1e-12

    def test_random_pair_matches_two_pass_recomputation(self):
        rng = np.random.default_rng(77)
        t = np.linspace(0, 2, 300)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        value = nrmsd(TorqueTrace(t, a), TorqueTrace(t, b))
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) ** 2
        expected = math.sqrt(total / 300) / (b.max() - b.min())
        assert abs(value - expected) < 1e-12

    def test_degenerate_range(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(DegenerateRangeError):
            nrmsd(TorqueTrace(t, t), TorqueTrace(t, np.ones(10)))

    def test_non_finite_measured_range_rejected(self):
        t = np.linspace(0, 1, 3)
        measured = TorqueTrace(t, np.array([1e308, -1e308, 0.0]))
        with pytest.raises(DomainError, match="range is not finite"):
            nrmsd(TorqueTrace(t, np.zeros(3)), measured)

    def test_overflowing_squares_are_scaled_away(self):
        # Scaling both traces by 2**600 leaves the ratio exact; without
        # scaling, the squared differences would overflow to inf.
        rng = np.random.default_rng(5)
        t = np.linspace(0, 1, 40)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        small = nrmsd(TorqueTrace(t, a), TorqueTrace(t, b))
        big = 2.0 ** 600
        with np.errstate(over="raise"):
            huge = nrmsd(TorqueTrace(t, a * big), TorqueTrace(t, b * big))
        assert math.isfinite(huge)
        assert abs(huge - small) < 1e-14 * small

    def test_nrmsd_beyond_the_float_range_rejected(self):
        t = np.linspace(0, 1, 3)
        simulated = TorqueTrace(t, np.array([1e308, -1e308, 1e308]))
        with pytest.raises(DomainError, match="exceeds the float range"):
            nrmsd(simulated, TorqueTrace(t, np.array([0.0, 1e-3, 0.0])))

    def test_misaligned_traces(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(MisalignedTracesError):
            nrmsd(TorqueTrace(t, t), TorqueTrace(t + 0.5, t))
        with pytest.raises(MisalignedTracesError):
            nrmsd(TorqueTrace(t, t), TorqueTrace(t[:5], t[:5]))


class TestTimeSpanPastTheFloatRange:
    """Times whose differences overflow are ordered by comparison and
    differenced without numpy warnings; what they mean stays the same."""

    WIDE = [-1.7e308, 1.7e308]

    def test_trajectory_and_its_accelerations(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = JointTrajectory(self.WIDE, [0.0, 1.0])
            assert traj.accelerations().tolist() == [0.0, 0.0]
            assert inverse_dynamics(J1_SPEC, J1_PARAMS, None, traj).torque.shape == (2,)
            with pytest.raises(DomainError, match="strictly increasing"):
                JointTrajectory(self.WIDE[::-1], [0.0, 1.0])

    def test_slope_beside_a_finite_step_overflows_the_trace(self):
        traj = JointTrajectory(self.WIDE + [1.7000001e308], [0.0, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(traj.accelerations()[1])
            with pytest.raises(TrajectoryOverflowError):
                inverse_dynamics(J1_SPEC, J1_PARAMS, None, traj)

    def test_nrmsd_of_grids_an_overflow_apart(self):
        simulated = TorqueTrace([-1.7e308, 0.0], [0.0, 1.0])
        measured = TorqueTrace([1.7e308, 1.75e308], [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MisalignedTracesError):
                nrmsd(simulated, measured)
            assert nrmsd(TorqueTrace(self.WIDE, [0.0, 1.0]),
                         TorqueTrace(self.WIDE, [0.0, 2.0])) == math.sqrt(0.125)


class TestTorqueTrace:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        t = np.linspace(0, 1, 5)
        tau = np.zeros(5)
        tau[2] = bad
        with pytest.raises(DomainError, match="finite"):
            TorqueTrace(t, tau)
        with pytest.raises(DomainError, match="finite"):
            TorqueTrace(np.where(tau == 0.0, t, bad), np.zeros(5))


class TestFileFormats:
    def test_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        t = np.linspace(0, 1, 20)
        tau = np.sin(t)
        write_trace_csv(path, t, tau, precision=17)
        t2, tau2 = read_trace_csv(path)
        assert np.abs(t2 - t).max() < 1e-15
        assert np.abs(tau2 - tau).max() < 1e-15

    def test_trajectory_reader(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time_s,value\n0,0.1\n0.01,0.2\n", encoding="utf-8")
        traj = read_trajectory_csv(path)
        assert traj.velocity.tolist() == [0.1, 0.2]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,torque\n0,0\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_trace_csv(path)

    def test_malformed_record_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,value\n0,0.1\n0.1,abc\n", encoding="utf-8")
        with pytest.raises(DomainError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}:3: malformed record"

    def test_transmission_config_round_trip(self, tmp_path):
        path = tmp_path / "drive.cfg"
        save_transmission_config(path, J1_SPEC, J1_PARAMS, comments=("test",))
        spec, params = load_transmission_config(path)
        assert spec.kind is J1_SPEC.kind
        assert abs(spec.ratio - J1_SPEC.ratio) < 1e-12
        assert abs(spec.lead_angle - J1_SPEC.lead_angle) < 1e-12
        assert abs(params.mu_c - J1_PARAMS.mu_c) < 1e-12
        assert abs(params.b_v - J1_PARAMS.b_v) < 1e-20

    def test_unknown_transmission_key_rejected(self, tmp_path):
        path = tmp_path / "drive.cfg"
        save_transmission_config(path, J1_SPEC, J1_PARAMS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("bogus = 1\n")
        with pytest.raises(DomainError):
            load_transmission_config(path)
