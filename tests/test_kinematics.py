import dataclasses
import math

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
from ssmkit.kinematics import (
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
        arrays = [np.array(a) for a in (ref.omega1, ref.omega2, ref.omega3, ref.v4, ref.r0)]
        g = MechanismGeometry(ref.alpha, ref.beta, *arrays)
        assert all(a.flags.writeable for a in arrays)
        arrays[0][2] = -1.0
        arrays[4][0, 0] = -1.0
        assert g.omega1[2] == 1.0 and g.r0[0, 0] == 1.0
        pose = forward_kinematics(ref, JointState(0.4, -1.1, 0.3, 0.05))
        assert _ik_bits(g, pose) == _ik_bits(ref, pose)

    def test_replaced_r0_matches_a_fresh_build(self):
        alpha, beta = DEG(50), DEG(75)
        base = build_geometry(alpha, beta)
        direct = build_geometry(alpha, beta, rodrigues(np.array([0.6, 0.0, 0.8]), 1.3))
        replaced = dataclasses.replace(base, r0=direct.r0)
        rng = np.random.default_rng(7)
        states = [JointState(*rng.uniform(-math.pi, math.pi, 3), rng.uniform(-0.1, 0.1))
                  for _ in range(20)]
        states += [JointState(0.3, 0.0, -0.2, 0.04), JointState(-1.0, math.pi, 0.5, 0.02)]
        for state in states:
            pose = forward_kinematics(direct, state)
            bits = _ik_bits(direct, pose)
            assert isinstance(bits, tuple) and bits[1], state
            assert _ik_bits(replaced, pose) == bits

    def test_tiny_beta_accepted_then_rejected_by_ik(self):
        g = build_geometry(DEG(30), 1e-10)
        pose = forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        assert pose.rotation.shape == (3, 3) and pose.position.shape == (3,)
        with pytest.raises(DegenerateGeometryError):
            inverse_kinematics(g, Pose(np.eye(3), np.zeros(3)))


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

    def test_non_unit_axis_rejected_at_call_time(self):
        ref = design_geometry()
        g = MechanismGeometry(ref.alpha, ref.beta, 1.01 * ref.omega1, ref.omega2,
                              ref.omega3, ref.v4, ref.r0)
        with pytest.raises(DomainError) as info:
            forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))
        assert str(info.value) == "rotation axis must be unit, got norm 1.010e+00"
        g = MechanismGeometry(ref.alpha, ref.beta, ref.omega1, ref.omega2,
                              np.array([math.nan, 0.0, 1.0]), ref.v4, ref.r0)
        with pytest.raises(DomainError, match="got norm nan"):
            forward_kinematics(g, JointState(0.4, -1.1, 0.3, 0.05))

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
