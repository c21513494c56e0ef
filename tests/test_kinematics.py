import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import angles, hat, probe_point_ik_oracle, unit_vectors
from ssmkit.errors import (
    DegenerateGeometryError,
    DomainError,
    UnreachableError,
)
from ssmkit import kinematics
from ssmkit.kinematics import (
    IkSolutionSet,
    JointState,
    MechanismGeometry,
    build_geometry,
    forward_kinematics,
    inverse_kinematics,
    load_mechanism_config,
    probe_point_defaults,
)
from ssmkit.screws import Pose, normalize_angle, rodrigues
from ssmkit.subproblems import subproblem1
from ssmkit.workspace import critical_directions
from ssmkit.screws import revolute_twist

DEG = math.radians


def design_geometry():
    return build_geometry(DEG(30.0), DEG(110.0))


class TestBuildGeometry:
    def test_orthogonal_frame(self):
        g = build_geometry(math.pi / 2, math.pi / 2)
        assert np.allclose(g.omega1, [0, 0, 1])
        assert np.allclose(g.omega2, [1, 0, 0], atol=1e-15)
        assert abs(g.omega2 @ g.omega3) < 1e-15

    def test_design_angles(self):
        g = design_geometry()
        assert abs(g.omega1 @ g.omega2 - math.cos(DEG(30))) < 1e-12
        assert abs(g.omega2 @ g.omega3 - math.cos(DEG(110))) < 1e-12
        assert np.array_equal(g.v4, g.omega3)

    def test_degenerate_angles_rejected(self):
        with pytest.raises(DomainError):
            build_geometry(0.0, DEG(110))
        with pytest.raises(DomainError):
            build_geometry(DEG(30), math.pi)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_orientation_rejected(self, value):
        r0 = np.eye(3)
        r0[1, 2] = value
        with pytest.raises(DomainError, match="must be finite"):
            build_geometry(DEG(30), DEG(110), r0)

    def test_custom_reference_orientation(self):
        r0 = rodrigues(np.array([0.0, 0.0, 1.0]), 0.3)
        g = build_geometry(DEG(30), DEG(110), r0)
        assert np.allclose(g.r0, r0, atol=1e-12)


def _ik_bits(geom, pose):
    """Every bit of an IK outcome: branch and residual floats as hex, the
    singular flag, or the exception type."""
    try:
        result = inverse_kinematics(geom, pose)
    except Exception as exc:  # the type is the outcome
        return type(exc).__name__
    values = [v for b in result.branches for v in (b.theta1, b.theta2, b.theta3, b.theta4)]
    values += [v for pair in result.residuals for v in pair]
    return result.singular, [v.hex() for v in values]


class TestGeometryConstants:
    """inverse_kinematics reads constants the geometry computes once, so
    the geometry's arrays are read-only copies."""

    def test_arrays_are_read_only(self):
        g = design_geometry()
        with pytest.raises(ValueError):
            g.r0[0, 0] = 2.0
        with pytest.raises(ValueError):
            g.omega1[2] = 0.0
        with pytest.raises(ValueError):
            g.v4 *= 2.0

    def test_caller_arrays_stay_writeable(self):
        ref = design_geometry()
        r0 = np.array(ref.r0)
        g = MechanismGeometry(ref.alpha, ref.beta, r0)
        assert r0.flags.writeable
        r0[0, 0] = -1.0
        assert g.r0[0, 0] == 1.0
        pose = forward_kinematics(ref, JointState(0.4, -1.1, 0.3, 0.05))
        assert _ik_bits(g, pose) == _ik_bits(ref, pose)

    def test_replaced_r0_matches_a_fresh_build(self):
        alpha, beta = DEG(50), DEG(75)
        base = build_geometry(alpha, beta)
        direct = build_geometry(alpha, beta, rodrigues(np.array([0.6, 0.0, 0.8]), 1.3))
        replaced = dataclasses.replace(base, r0=direct.r0)
        # Both take direct.r0 through the same constructor, so the same bits.
        fresh = build_geometry(alpha, beta, direct.r0)
        assert replaced.r0.tobytes() == fresh.r0.tobytes()
        rng = np.random.default_rng(7)
        states = [JointState(*rng.uniform(-math.pi, math.pi, 3), rng.uniform(-0.1, 0.1))
                  for _ in range(20)]
        states += [JointState(0.3, 0.0, -0.2, 0.04), JointState(-1.0, math.pi, 0.5, 0.02)]
        for state in states:
            pose = forward_kinematics(fresh, state)
            bits = _ik_bits(fresh, pose)
            assert isinstance(bits, tuple) and bits[1], state
            assert _ik_bits(replaced, pose) == bits

    def test_record_holds_the_inputs_only(self):
        assert [f.name for f in dataclasses.fields(MechanismGeometry)] == ["alpha", "beta", "r0"]
        assert build_geometry is MechanismGeometry

    @pytest.mark.parametrize("r0", [None, rodrigues(np.array([0.0, 0.6, 0.8]), 0.7)])
    def test_replaced_angles_rederive_the_axes(self, r0):
        base = build_geometry(DEG(30), DEG(110), r0)
        for changes in ({"alpha": DEG(60)}, {"beta": DEG(40)}, {"alpha": DEG(95), "beta": DEG(20)}):
            replaced = dataclasses.replace(base, **changes)
            fresh = build_geometry(changes.get("alpha", base.alpha), changes.get("beta", base.beta))
            for name in ("omega1", "omega2", "omega3", "v4"):
                assert getattr(replaced, name).tobytes() == getattr(fresh, name).tobytes(), name
            if r0 is None:
                assert replaced.r0.tobytes() == np.eye(3).tobytes() and replaced._ik.r0 is None
            assert np.abs(replaced.r0 - base.r0).max() <= 1e-15
            for d in critical_directions(replaced):
                assert abs(np.linalg.norm(d) - 1.0) < 1e-12
            pose = forward_kinematics(replaced, JointState(0.4, -1.1, 0.3, 0.05))
            assert _ik_bits(replaced, pose)[1]

    @pytest.mark.parametrize("alpha, beta", [
        (7.0, DEG(110)), (DEG(30), -3.0), (0.0, DEG(110)), (DEG(30), math.pi),
        (math.nan, DEG(110)), (DEG(30), math.inf)])
    def test_axis_angle_outside_open_interval_rejected_at_construction(self, alpha, beta):
        with pytest.raises(DomainError, match="must lie in \\(0, pi\\)"):
            MechanismGeometry(alpha, beta)
        with pytest.raises(DomainError, match="must lie in \\(0, pi\\)"):
            dataclasses.replace(design_geometry(), alpha=alpha, beta=beta)

    @pytest.mark.parametrize("r0, match", [
        (2.0 * np.eye(3), "not orthonormal"), (np.diag([1.0, 1.0, -1.0]), "reflection"),
        (np.eye(2), "3x3"), (np.full((3, 3), math.nan), "must be finite")])
    def test_non_rotation_r0_rejected_at_construction(self, r0, match):
        with pytest.raises(DomainError, match=match):
            MechanismGeometry(DEG(30), DEG(110), r0)
        with pytest.raises(DomainError, match=match):
            dataclasses.replace(design_geometry(), r0=r0)

    def test_identity_r0_skips_the_product(self, tmp_path):
        """An identity r0, given or left out, stays exact through
        `ensure_rotation`, and FK and IK skip the product by it."""
        path = tmp_path / "mech.cfg"
        path.write_text("alpha_deg = 30\nbeta_deg = 110\nr0 = 1 0 0 0 1 0 0 0 1\n",
                        encoding="utf-8")
        omitted = build_geometry(DEG(30), DEG(110))
        builds = [build_geometry(DEG(30), DEG(110), np.eye(3)), load_mechanism_config(path)]
        states = [JointState(0.4, -1.1, 0.3, 0.05), JointState(0.0, 0.0, 0.0, 0.02),
                  JointState(-2.0, math.pi, -0.5, 0.0)]
        for g in [omitted] + builds:
            assert g._ik.r0 is None
            assert g.r0.tobytes() == np.eye(3).tobytes()
        for g in builds:
            for state in states:
                pose = forward_kinematics(g, state)
                expected = forward_kinematics(omitted, state)
                assert pose.rotation.tobytes() == expected.rotation.tobytes()
                assert pose.position.tobytes() == expected.position.tobytes()
                assert _ik_bits(g, pose) == _ik_bits(omitted, pose)

    def test_tiny_beta_accepted_then_rejected_by_ik(self):
        g = build_geometry(DEG(30), 1e-10)
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        assert pose.rotation.shape == (3, 3) and pose.position.shape == (3,)
        with pytest.raises(DegenerateGeometryError):
            inverse_kinematics(g, Pose(np.eye(3), np.zeros(3)))

    @pytest.mark.parametrize("alpha_deg", [1e-7, 179.9999999, 1e-300])
    def test_coincident_first_axes_accepted_then_rejected_by_ik(self, alpha_deg):
        """cos(alpha) rounds to +/-1, so the two-axis solve would divide by 0."""
        g = build_geometry(DEG(alpha_deg), DEG(110))
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        assert np.isfinite(pose.rotation).all() and np.isfinite(pose.position).all()
        with pytest.raises(DegenerateGeometryError) as info:
            inverse_kinematics(g, Pose(np.eye(3), np.zeros(3)))
        assert str(info.value) == "alpha ~ 0 or pi puts the second joint axis on the first"


class TestProbePoints:
    def test_design_case(self):
        g = design_geometry()
        p1, p2, p3 = probe_point_defaults(g)
        assert np.allclose(p1, g.v4)
        assert np.allclose(p2, g.v4)
        assert abs(p3 @ g.omega3) < 1e-15
        assert abs(np.linalg.norm(p3) - 1.0) < 1e-15

    def test_p2_off_second_axis_for_right_angles(self):
        g = build_geometry(math.pi / 2, math.pi / 2)
        _, p2, _ = probe_point_defaults(g)
        assert abs(abs(p2 @ g.omega2)) < 1.0 - 1e-9

    def test_near_degenerate_beta(self):
        g = build_geometry(DEG(30), 1e-12)
        with pytest.raises(DegenerateGeometryError):
            probe_point_defaults(g)


class TestRecords:
    """JointState and IkSolutionSet are slotted frozen dataclasses whose own
    constructors store the fields; they behave as values all the same."""

    def _records(self):
        geom = design_geometry()
        result = inverse_kinematics(geom, forward_kinematics(geom, JointState(0.4, -0.2, 0.1, 0.03)))
        return result.branches[0], result

    def test_fields_cannot_be_assigned(self):
        for record in self._records():
            for field in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, getattr(record, field.name))
            assert not hasattr(record, "__dict__")

    def test_value_semantics_match_a_field_wise_construction(self):
        for record in self._records():
            twin = type(record)(**{f.name: getattr(record, f.name)
                                   for f in dataclasses.fields(record)})
            assert twin == record
            assert hash(twin) == hash(record)
            assert repr(twin) == repr(record)
            assert pickle.loads(pickle.dumps(record)) == record
            assert dataclasses.replace(record) == record
        assert repr(JointState(1.0, 2.0, 3.0, 4.0)) == \
            "JointState(theta1=1.0, theta2=2.0, theta3=3.0, theta4=4.0)"
        assert IkSolutionSet((), ()).singular is False
        state = JointState(1.0, 2.0, 3.0, 4.0)
        assert dataclasses.replace(state, theta1=0.5) == JointState(0.5, 2.0, 3.0, 4.0)
        assert state != JointState(1.0, 2.0, 3.0, 4.5)

    def test_pickle_of_the_unslotted_records_loads(self):
        # pickle.dumps(IkSolutionSet((JointState(0.5, -0.25, 1.0, 0.03),),
        # ((0.0, 0.0),), True), protocol=4) when the records kept a __dict__:
        # each record's state is its field dict.
        old = (
            b"\x80\x04\x95\xcb\x00\x00\x00\x00\x00\x00\x00\x8c\x11ssmkit.kinematics\x94"
            b"\x8c\rIkSolutionSet\x94\x93\x94)\x81\x94}\x94(\x8c\x08branches\x94h\x00"
            b"\x8c\nJointState\x94\x93\x94)\x81\x94}\x94(\x8c\x06theta1\x94"
            b"G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x06theta2\x94G\xbf\xd0\x00\x00\x00\x00\x00\x00"
            b"\x8c\x06theta3\x94G?\xf0\x00\x00\x00\x00\x00\x00\x8c\x06theta4\x94"
            b"G?\x9e\xb8Q\xeb\x85\x1e\xb8ub\x85\x94\x8c\tresiduals\x94"
            b"G\x00\x00\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86\x94\x85\x94"
            b"\x8c\x08singular\x94\x88ub."
        )
        assert pickle.loads(old) == IkSolutionSet((JointState(0.5, -0.25, 1.0, 0.03),),
                                                  ((0.0, 0.0),), True)

    def test_ik_branch_equals_a_joint_state_of_its_floats(self):
        branch, _ = self._records()
        values = dataclasses.astuple(branch)
        assert all(type(v) is float for v in values)
        assert branch == JointState(*values)


class TestForwardKinematics:
    def test_home_pose(self):
        g = design_geometry()
        pose = forward_kinematics(g, JointState(0, 0, 0, 0))
        assert np.allclose(pose.rotation, g.r0)
        assert np.allclose(pose.position, 0.0)

    def test_pure_translation(self):
        g = design_geometry()
        pose = forward_kinematics(g, JointState(0, 0, 0, 0.04))
        assert np.allclose(pose.position, 0.04 * g.v4, atol=1e-15)

    def test_against_matrix_exponential_oracle(self):
        g = design_geometry()
        state = JointState(1.1, -0.6, 0.3, 0.025)
        pose = forward_kinematics(g, state)
        # independent route: scipy matrix exponentials of the hat matrices
        r1 = expm(hat(g.omega1) * state.theta1)
        r2 = expm(hat(g.omega2) * state.theta2)
        r3 = expm(hat(g.omega3) * state.theta3)
        assert np.abs(pose.rotation - r1 @ r2 @ r3 @ g.r0).max() < 1e-12
        assert np.abs(pose.position - r1 @ r2 @ (g.v4 * state.theta4)).max() < 1e-12
        # frozen values from the same oracle
        expected_rot = np.array(
            [
                [0.9292983174446012, -0.3441810642100675, -0.13395533671286947],
                [0.35046461321017525, 0.9362203836719308, 0.025805969941574],
                [0.11652979053476142, -0.07092804971524543, 0.9906513108463121],
            ]
        )
        expected_pos = np.array(
            [0.01749892963677409, 0.0051376447783012, -0.0170994756556809]
        )
        assert np.abs(pose.rotation - expected_rot).max() < 1e-12
        assert np.abs(pose.position - expected_pos).max() < 1e-12

    def test_position_on_sphere_of_radius_theta4(self):
        g = design_geometry()
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = rng.uniform(-math.pi, math.pi, 3)
            t4 = rng.uniform(-0.05, 0.05)
            pose = forward_kinematics(g, JointState(*t, t4))
            assert abs(np.linalg.norm(pose.position) - abs(t4)) < 1e-12

    @pytest.mark.parametrize("joint", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_joint_value_rejected(self, joint, value):
        values = [0.4, -1.1, 0.3, 0.05]
        values[joint] = value
        name = f"theta{joint + 1}"
        with pytest.raises(DomainError) as info:
            forward_kinematics(design_geometry(), JointState(*values))
        assert str(info.value) == f"{name}: expected a finite number, got {value}"

    def test_position_independent_of_spin(self):
        g = design_geometry()
        rng = np.random.default_rng(2)
        for _ in range(50):
            t1, t2 = rng.uniform(-math.pi, math.pi, 2)
            t4 = rng.uniform(0.005, 0.05)
            base = forward_kinematics(g, JointState(t1, t2, 0.0, t4)).position
            for t3 in rng.uniform(-math.pi, math.pi, 5):
                pos = forward_kinematics(g, JointState(t1, t2, t3, t4)).position
                assert np.abs(pos - base).max() < 1e-12


def _matches(branch, state):
    return (
        abs(normalize_angle(branch.theta1 - state.theta1)) < 1e-9
        and abs(normalize_angle(branch.theta2 - state.theta2)) < 1e-9
        and abs(normalize_angle(branch.theta3 - state.theta3)) < 1e-9
        and abs(branch.theta4 - state.theta4) < 1e-9
    )


class TestInverseKinematics:
    def test_home_round_trip(self):
        g = design_geometry()
        state = JointState(0.0, 0.0, 0.0, 0.03)
        sols = inverse_kinematics(g, forward_kinematics(g, state))
        assert any(_matches(b, state) for b in sols.branches)
        assert not sols.singular

    def test_random_round_trips(self):
        g = design_geometry()
        rng = np.random.default_rng(42)
        for _ in range(1000):
            t = rng.uniform(-math.pi, math.pi, 3)
            t4 = rng.uniform(0.005, 0.05) * rng.choice([-1.0, 1.0])
            state = JointState(*t, t4)
            target = forward_kinematics(g, state)
            sols = inverse_kinematics(g, target)
            assert any(_matches(b, state) for b in sols.branches)
            for branch, (pos_err, rot_err) in zip(sols.branches, sols.residuals):
                fk = forward_kinematics(g, branch)
                assert np.linalg.norm(fk.position - target.position) < 1e-9
                assert np.linalg.norm(fk.rotation - target.rotation) < 1e-9
                assert pos_err < 1e-9 and rot_err < 1e-9

    def test_branches_sorted_and_normalized(self):
        g = design_geometry()
        state = JointState(2.0, -1.2, 2.9, 0.02)
        sols = inverse_kinematics(g, forward_kinematics(g, state))
        keys = [(b.theta4, b.theta1, b.theta2, b.theta3) for b in sols.branches]
        assert keys == sorted(keys)
        for b in sols.branches:
            for angle in (b.theta1, b.theta2, b.theta3):
                assert -math.pi < angle <= math.pi

    def test_singular_target_flagged_and_solved(self):
        # alpha = beta lets the tool align with the roll axis
        g = build_geometry(DEG(45), DEG(45))
        theta2_star = subproblem1(
            revolute_twist(g.omega2), g.v4, g.omega1
        ).solutions[0]
        state = JointState(0.4, theta2_star, -0.2, 0.03)
        target = forward_kinematics(g, state)
        sols = inverse_kinematics(g, target)
        assert sols.singular
        for branch in sols.branches:
            assert branch.theta1 == 0.0
            fk = forward_kinematics(g, branch)
            assert np.linalg.norm(fk.position - target.position) < 1e-9
            assert np.linalg.norm(fk.rotation - target.rotation) < 1e-9

    def test_unreachable_position(self):
        g = design_geometry()
        # identity rotation forces the tip onto the v4 ray; demand elsewhere
        target = Pose(np.eye(3), np.array([0.0, 0.02, 0.0]))
        with pytest.raises(UnreachableError):
            inverse_kinematics(g, target)

    @pytest.mark.parametrize("t4", [-1.0 + 1e-7, -1.0 - 1e-7, 0.0])
    def test_translation_read_off_the_tool_axis(self, t4):
        # theta4 = p . u holds for every extension, including those near
        # -1 m, where a probe point at unit distance meets the remote center
        g = design_geometry()
        state = JointState(0.3, 1.0, -0.5, t4)
        sols = inverse_kinematics(g, forward_kinematics(g, state))
        assert any(_matches(b, state) for b in sols.branches)
        assert all(abs(b.theta4 - t4) <= 1e-15 for b in sols.branches)

    @pytest.mark.parametrize("alpha_deg, beta_deg", [
        (1, 95), (2, 20), (4, 120), (5, 11.08), (175, 95), (176, 150), (178, 70), (179, 120)])
    def test_elbow_tangent_targets_near_a_coincident_first_axis(self, alpha_deg, beta_deg):
        """theta2 = 0 or pi on builds with alpha near 0 or pi: gamma2's rounding
        error grows as 1 / sin(alpha)^4 and lands below zero. The two elbow
        branches meet here, so the angles are only sqrt(eps)-conditioned."""
        g = build_geometry(DEG(alpha_deg), DEG(beta_deg))
        rng = np.random.default_rng(int(alpha_deg * 1000 + beta_deg))
        for theta2 in (0.0, math.pi):
            for _ in range(10):
                t1, t3 = rng.uniform(-math.pi, math.pi, 2)
                state = JointState(t1, theta2, t3, rng.uniform(-0.1, 0.1))
                sols = inverse_kinematics(g, forward_kinematics(g, state))
                assert not sols.singular
                assert any(
                    abs(normalize_angle(b.theta1 - state.theta1)) < 1e-4
                    and abs(normalize_angle(b.theta2 - state.theta2)) < 1e-4
                    and abs(normalize_angle(b.theta3 - state.theta3)) < 1e-4
                    and abs(b.theta4 - state.theta4) < 1e-9
                    for b in sols.branches), state

    def test_degenerate_geometry_rejected(self):
        g = build_geometry(DEG(30), 1e-12)
        with pytest.raises(DegenerateGeometryError):
            inverse_kinematics(g, Pose(np.eye(3), np.zeros(3)))

    def test_unreachable_when_position_norm_inconsistent(self):
        g = design_geometry()
        state = JointState(0.7, -0.4, 0.2, 0.03)
        pose = forward_kinematics(g, state)
        bad = Pose(pose.rotation, pose.position * 1.5 + np.array([0.0, 0.01, 0.0]))
        with pytest.raises(UnreachableError):
            inverse_kinematics(g, bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part,index", [("position", (i,)) for i in range(3)]
                             + [("rotation", (i, j)) for i in range(3) for j in range(3)])
    def test_non_finite_target_entry_rejected(self, part, index, value):
        g = design_geometry()
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        arrays = {"rotation": pose.rotation.copy(), "position": pose.position.copy()}
        arrays[part][index] = value
        with pytest.raises(DomainError, match=f"^target {part}: expected finite entries"):
            inverse_kinematics(g, Pose(arrays["rotation"], arrays["position"]))

    def test_all_nan_rotation_rejected(self):
        g = design_geometry()
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        with pytest.raises(DomainError, match="^target rotation: expected finite entries"):
            inverse_kinematics(g, Pose(np.full((3, 3), np.nan), pose.position))

    def test_overflowing_finite_target_is_unreachable(self):
        # theta4 = p . u overflows to inf, but every entry is finite.
        g = design_geometry()
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        u = pose.rotation @ g.r0.T @ g.v4
        with pytest.raises(UnreachableError):
            inverse_kinematics(g, Pose(pose.rotation, np.copysign(1.7e308, u)))


def _state_gap(a, b):
    return max(
        abs(normalize_angle(a.theta1 - b.theta1)),
        abs(normalize_angle(a.theta2 - b.theta2)),
        abs(normalize_angle(a.theta3 - b.theta3)),
        abs(a.theta4 - b.theta4),
    )


def _ik_outcome(solve, geom, pose):
    try:
        return solve(geom, pose)
    except UnreachableError:
        return None


def _tilted(pose, geom, polar):
    """The pose turned rigidly so that its tool axis sits at `polar` from omega1."""
    u = pose.rotation @ geom.r0.T @ geom.v4
    now = math.acos(max(-1.0, min(1.0, float(u @ geom.omega1))))
    axis = np.cross(u, geom.omega1)
    turn = rodrigues(axis / np.linalg.norm(axis), now - polar)
    return Pose(turn @ pose.rotation, turn @ pose.position)


@st.composite
def ik_cases(draw):
    """(geometry, target pose) of one class: generic, elbow-tangent,
    roll-axis singular, tilted off the band, or tip off the tool axis."""
    kind = draw(st.sampled_from(["generic", "tangent", "singular", "tilted", "off_axis"]))
    r0 = None
    if draw(st.booleans()):
        r0 = rodrigues(draw(unit_vectors), draw(angles))
    if kind == "singular":
        a = DEG(draw(st.sampled_from([45.0, 60.0])))
        geom = build_geometry(a, a, r0)
    else:
        geom = build_geometry(DEG(30.0), DEG(110.0), r0)
    t1, t2, t3 = draw(angles), draw(angles), draw(angles)
    if kind == "tangent":
        t2 = draw(st.sampled_from([0.0, math.pi]))
    elif kind == "singular":
        t2 = math.pi  # with alpha = beta this turns the tool onto the roll axis
    t4 = draw(st.floats(0.005, 0.05)) * draw(st.sampled_from([-1.0, 1.0]))
    pose = forward_kinematics(geom, JointState(t1, t2, t3, t4))
    if kind == "tilted":
        # the 30/110 build reaches polar angles 80..140 deg only
        polar = DEG(draw(st.one_of(st.floats(1.0, 75.0), st.floats(145.0, 179.0))))
        pose = _tilted(pose, geom, polar)
    elif kind == "off_axis":
        u = pose.rotation @ geom.r0.T @ geom.v4
        side = np.cross(u, draw(unit_vectors))
        if np.linalg.norm(side) < 1e-3:
            side = np.cross(u, geom.omega1)
        side /= np.linalg.norm(side)
        pose = Pose(pose.rotation, pose.position + draw(st.floats(1e-6, 0.01)) * side)
    return kind, geom, pose


def _loop_residual(pose_rows, tip, target):
    """(position error, rotation Frobenius error) of a kernel pose against
    the target, the squared rotation rows added from 0.0 in a loop."""
    dx, dy, dz = (a - b for a, b in zip(tip, target.position.tolist()))
    rot_sq = 0.0
    for (f0, f1, f2), (h0, h1, h2) in zip(pose_rows, target.rotation.tolist()):
        d0, d1, d2 = f0 - h0, f1 - h1, f2 - h2
        rot_sq += d0 * d0 + d1 * d1 + d2 * d2
    return math.sqrt(dx * dx + dy * dy + dz * dz), math.sqrt(rot_sq)


class TestBranchOrder:
    # theta2 keeps 0.01 rad off 0 and pi: off the elbow-tangent targets and
    # the roll axis, where IK's conditioning is tested elsewhere.
    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(DEG(5.0), DEG(175.0)), beta=st.floats(DEG(5.0), DEG(175.0)),
           turn=st.none() | st.tuples(unit_vectors, angles),
           t1=angles, t2=st.floats(0.01, math.pi - 0.01), t2_sign=st.sampled_from([-1.0, 1.0]),
           t3=angles, t4=st.floats(-0.05, 0.05))
    def test_branches_sorted_with_their_residuals(self, alpha, beta, turn, t1, t2, t2_sign,
                                                   t3, t4):
        r0 = None if turn is None else rodrigues(*turn)
        geom = build_geometry(alpha, beta, r0)
        target = forward_kinematics(geom, JointState(t1, t2_sign * t2, t3, t4))
        kernel = kinematics._tool_pose_rows
        checked = []

        def recording_kernel(k, r12, theta3, theta4):
            rows, tip = kernel(k, r12, theta3, theta4)
            checked.append((normalize_angle(theta3), theta4,
                            _loop_residual((rows[0:3], rows[3:6], rows[6:9]), tip, target)))
            return rows, tip

        with mock.patch.object(kinematics, "_tool_pose_rows", recording_kernel):
            result = inverse_kinematics(geom, target)
        keys = [(b.theta1, b.theta2, b.theta3) for b in result.branches]
        assert keys == sorted(keys)
        # Each branch carries the residual the loop form gives its own pose.
        kept = [c for c in checked if c[2][0] < 1e-9 and c[2][1] < 1e-9]
        got = [(b.theta3, b.theta4, r) for b, r in zip(result.branches, result.residuals)]
        assert sorted(got) == sorted(kept)


class TestToolAxisMatchesProbePointOracle:
    @settings(max_examples=400, deadline=None)
    @given(ik_cases())
    def test_same_branches_flags_and_errors(self, case):
        kind, geom, pose = case
        got = _ik_outcome(inverse_kinematics, geom, pose)
        want = _ik_outcome(probe_point_ik_oracle, geom, pose)
        assert (got is None) == (want is None)
        assert (got is None) == (kind in ("tilted", "off_axis"))
        if got is None:
            return
        assert got.singular == want.singular == (kind == "singular")
        assert len(got.branches) == len(want.branches)
        # Matched as sets: a theta1 at -pi + ulp in one solver may be +pi in
        # the other, which swaps the sorted order.
        unmatched = list(got.branches)
        for o in want.branches:
            # both solvers are sqrt(eps)-conditioned where the elbow branches meet
            tol = 1e-9 if abs(math.sin(o.theta2)) < 1e-3 else 1e-12
            b = min(unmatched, key=lambda b: _state_gap(b, o))
            assert _state_gap(b, o) <= tol
            unmatched.remove(b)


class TestMechanismConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mech.cfg"
        path.write_text(
            "# design mechanism\nalpha_deg = 30\nbeta_deg = 110\n", encoding="utf-8"
        )
        g = load_mechanism_config(path)
        assert abs(g.alpha - DEG(30)) < 1e-12
        assert abs(g.beta - DEG(110)) < 1e-12
        assert np.allclose(g.r0, np.eye(3))

    def test_r0_parsing(self, tmp_path):
        path = tmp_path / "mech.cfg"
        r0 = rodrigues(np.array([0.0, 0.0, 1.0]), 0.25)
        nums = " ".join(repr(float(v)) for v in r0.ravel())
        path.write_text(
            f"alpha_deg = 30\nbeta_deg = 110\nr0 = {nums}\n", encoding="utf-8"
        )
        g = load_mechanism_config(path)
        assert np.abs(g.r0 - r0).max() < 1e-12

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "mech.cfg"
        path.write_text("alpha_deg = 30\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_mechanism_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "mech.cfg"
        path.write_text(
            "alpha_deg = 30\nbeta_deg = 110\ngamma = 1\n", encoding="utf-8"
        )
        with pytest.raises(DomainError):
            load_mechanism_config(path)
