import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import angles, critical_directions, dot_profile_derivatives
from ssmkit import band, csvfile
from ssmkit.errors import DegenerateGeometryError, DomainError, UnreachableError
from ssmkit.kinematics import (
    SINGULARITY_TOL,
    JointState,
    build_geometry,
    forward_kinematics,
    inverse_kinematics,
)
from ssmkit.screws import Pose, revolute_twist, rodrigues
from ssmkit.subproblems import subproblem1
from ssmkit.workspace import (
    dot_profile,
    sample_workspace_grid,
    tilt_extremes,
    write_workspace_csv,
)

DEG = math.radians


def design_geometry():
    return build_geometry(DEG(30), DEG(110))


class TestGridMatchesForwardKinematics:
    """The sampled tips are FK's: grid point (i, j) is the tip of the joint
    state (theta1_i, theta2_j, 0, 1), and dot_profile(theta2_j) its z."""

    @staticmethod
    def check(alpha, beta, n1=7, n2=9):
        geom = build_geometry(alpha, beta)
        theta1, theta2, points, _ = sample_workspace_grid(geom, n1, n2)
        grid = points.reshape(n1, n2, 3)
        profile = dot_profile(geom, theta2)
        for i, t1 in enumerate(theta1.tolist()):
            for j, t2 in enumerate(theta2.tolist()):
                tip = forward_kinematics(geom, JointState(t1, t2, 0.0, 1.0)).position
                assert np.abs(grid[i, j] - tip).max() <= 1e-15
                assert abs(profile[j] - tip[2]) <= 1e-15

    @pytest.mark.parametrize("alpha, beta", [(30, 110), (60, 60), (70, 110)])
    def test_named_builds(self, alpha, beta):
        # 70 + 110 = 180: v4 is the roll axis, pointing down.
        self.check(DEG(alpha), DEG(beta))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    def test_any_build(self, alpha, beta):
        self.check(alpha, beta, 5, 6)


class TestDotProfile:
    def test_zero_angle_gives_home_dot_product(self):
        g = design_geometry()
        assert abs(dot_profile(g, 0.0) - g.omega1 @ g.v4) < 1e-15
        assert abs(dot_profile(g, 0.0) - math.cos(DEG(140))) < 1e-12

    def test_right_angles_point_opposite(self):
        g = build_geometry(math.pi / 2, math.pi / 2)
        assert abs(dot_profile(g, 0.0) + 1.0) < 1e-12

    def test_matches_explicit_rodrigues_evaluation(self):
        g = design_geometry()
        rng = np.random.default_rng(9)
        for theta2 in rng.uniform(-math.pi, math.pi, 50):
            direct = g.omega1 @ (rodrigues(g.omega2, theta2) @ g.v4)
            assert abs(dot_profile(g, theta2) - direct) < 1e-13

    def test_invariant_to_first_joint(self):
        g = design_geometry()
        rng = np.random.default_rng(10)
        theta2 = 0.8
        base = dot_profile(g, theta2)
        tip = rodrigues(g.omega2, theta2) @ g.v4
        values = [
            g.omega1 @ (rodrigues(g.omega1, t1) @ tip)
            for t1 in rng.uniform(-math.pi, math.pi, 20)
        ]
        assert np.ptp(values) < 1e-12
        assert abs(values[0] - base) < 1e-12

    def test_array_evaluation(self):
        g = design_geometry()
        grid = np.linspace(-math.pi, math.pi, 7)
        vals = dot_profile(g, grid)
        assert vals.shape == grid.shape
        for t, v in zip(grid, vals):
            assert abs(dot_profile(g, float(t)) - v) < 1e-15


class TestDerivatives:
    def test_first_derivative_matches_finite_differences(self):
        g = design_geometry()
        h = 1e-6
        for theta2 in np.linspace(-3.0, 3.0, 25):
            fd = (dot_profile(g, theta2 + h) - dot_profile(g, theta2 - h)) / (2 * h)
            first, _ = dot_profile_derivatives(g, theta2)
            assert abs(first - fd) < 1e-6

    def test_second_derivative_matches_finite_differences(self):
        g = design_geometry()
        h = 1e-5
        for theta2 in np.linspace(-3.0, 3.0, 25):
            fd = (
                dot_profile(g, theta2 + h)
                - 2.0 * dot_profile(g, theta2)
                + dot_profile(g, theta2 - h)
            ) / (h * h)
            _, second = dot_profile_derivatives(g, theta2)
            assert abs(second - fd) < 1e-4

    def test_critical_points_have_zero_slope_and_curvature(self):
        for alpha_deg, beta_deg in [(30, 110), (45, 90), (70, 40), (120, 100)]:
            g = build_geometry(DEG(alpha_deg), DEG(beta_deg))
            for direction in critical_directions(g):
                theta_r = subproblem1(
                    revolute_twist(g.omega2), g.v4, direction
                ).solutions[0]
                first, second = dot_profile_derivatives(g, theta_r)
                assert abs(first) < 1e-10
                assert abs(second) > 1e-6


class TestCriticalDirections:
    def test_unit_norm_and_coplanarity(self):
        g = design_geometry()
        normal = np.cross(g.omega1, g.omega2)
        for d in critical_directions(g):
            assert abs(np.linalg.norm(d) - 1.0) < 1e-10
            assert abs(d @ normal) < 1e-12

    def test_polar_angles_of_directions(self):
        g = design_geometry()
        d_plus, d_minus = critical_directions(g)
        assert abs(d_plus @ g.omega1 - math.cos(g.alpha - g.beta)) < 1e-10
        assert abs(d_minus @ g.omega1 - math.cos(g.alpha + g.beta)) < 1e-10

    def test_degenerate_alpha_rejected(self):
        g = build_geometry(1e-12, DEG(110))
        with pytest.raises(DegenerateGeometryError):
            critical_directions(g)


class TestTiltExtremes:
    def test_design_band(self):
        ext = tilt_extremes(DEG(30), DEG(110))
        assert abs(ext.tilt_min - DEG(80)) < 1e-12
        assert abs(ext.tilt_max - DEG(140)) < 1e-12
        assert abs(ext.span - DEG(60)) < 1e-12
        assert all(0.0 <= phi <= math.pi for phi in ext.phi_values)

    def test_diagonal_band(self):
        ext = tilt_extremes(DEG(45), DEG(90))
        assert abs(ext.tilt_min - DEG(45)) < 1e-12
        assert abs(ext.tilt_max - DEG(135)) < 1e-12
        assert abs(ext.span - DEG(90)) < 1e-12

    def test_equal_angles_reach_the_pole(self):
        alpha = DEG(40)
        ext = tilt_extremes(alpha, alpha)
        assert ext.tilt_min == 0.0
        assert abs(ext.tilt_max - 2 * alpha) < 1e-12

    def test_fold_beyond_pi(self):
        ext = tilt_extremes(DEG(120), DEG(100))
        assert abs(ext.tilt_min - DEG(20)) < 1e-12
        assert abs(ext.tilt_max - DEG(140)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tilt_extremes(0.0, DEG(110))
        with pytest.raises(DomainError):
            tilt_extremes(DEG(30), math.pi)

    def test_brute_force_agreement_on_dense_grid(self):
        # sampling oracle: polar angle extremes over a 1e6-point theta2 grid,
        # phase-shifted so it cannot hit the critical angles exactly
        alpha, beta = DEG(45), DEG(90)
        g = build_geometry(alpha, beta)
        grid = np.linspace(-math.pi, math.pi, 1_000_001) + 1.2345e-7
        polar = np.arccos(np.clip(dot_profile(g, grid), -1.0, 1.0))
        ext = tilt_extremes(alpha, beta)
        assert abs(math.degrees(polar.min() - ext.tilt_min)) < 0.01
        assert abs(math.degrees(polar.max() - ext.tilt_max)) < 0.01

    def test_brute_force_agreement_random_geometries(self):
        rng = np.random.default_rng(123)
        base = np.linspace(-math.pi, math.pi, 4000, endpoint=False)
        step = 2.0 * math.pi / 4000
        for _ in range(50):
            alpha = rng.uniform(DEG(5), DEG(175))
            beta = rng.uniform(DEG(5), DEG(175))
            g = build_geometry(alpha, beta)
            polar = np.arccos(
                np.clip(dot_profile(g, base + rng.uniform(0.0, step)), -1.0, 1.0)
            )
            ext = tilt_extremes(alpha, beta)
            assert abs(math.degrees(polar.min() - ext.tilt_min)) < 0.05
            assert abs(math.degrees(polar.max() - ext.tilt_max)) < 0.05


# Tool axes this close to a band edge are left unclassified.
_EDGE_MARGIN = 1e-6
# Within this angle of the roll axis IK pins theta1 and may reject a tool
# axis inside the band, so there only the unreachable half of the property
# is checked; twice the singular band keeps the rounding of the polar angle
# off its edge.
_ROLL_AXIS_ZONE = 2.0 * SINGULARITY_TOL


@st.composite
def _band_cases(draw):
    """A build, a tool-axis polar angle (anywhere, or within 1e-3 rad of a
    band edge), its azimuth, the spin about the axis and the insertion."""
    alpha = draw(st.floats(0.05, math.pi - 0.05))
    beta = draw(st.floats(0.05, math.pi - 0.05))
    ext = band.tilt_extremes(alpha, beta)
    edge = draw(st.sampled_from([ext.tilt_min, ext.tilt_max]))
    near_edge = st.floats(-1e-3, 1e-3).map(lambda d: min(max(edge + d, 0.0), math.pi))
    polar = draw(st.one_of(st.floats(0.0, math.pi), near_edge))
    return (alpha, beta, polar, draw(st.floats(0.0, 2.0 * math.pi)), draw(angles),
            draw(st.floats(-0.1, 0.1)))


def _rotation_onto(a, b):
    """A rotation taking unit vector a onto unit vector b."""
    axis = np.cross(a, b)
    sin = float(np.linalg.norm(axis))
    cos = float(a @ b)
    if sin < 1e-12:
        # a lies in the xz-plane here, so +y is perpendicular to it.
        return np.eye(3) if cos > 0.0 else rodrigues(np.array([0.0, 1.0, 0.0]), math.pi)
    return rodrigues(axis / sin, math.atan2(sin, cos))


class TestBandMatchesIkReachability:
    """The closed-form band and the closed-form IK agree: a tool axis is
    unreachable exactly when its polar angle lies outside the band."""

    @settings(max_examples=400, deadline=None)
    @given(_band_cases())
    def test_unreachable_exactly_outside_the_band(self, case):
        alpha, beta, polar, azimuth, spin, t4 = case
        geom = build_geometry(alpha, beta)
        u = np.array([math.sin(polar) * math.cos(azimuth),
                      math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        rot = rodrigues(u, spin) @ _rotation_onto(geom.v4, u)
        axis = rot @ geom.v4
        phi = math.atan2(float(np.linalg.norm(np.cross(geom.omega1, axis))),
                         float(axis @ geom.omega1))
        ext = band.tilt_extremes(alpha, beta)
        target = Pose(rot, axis * t4)
        if phi < ext.tilt_min - _EDGE_MARGIN or phi > ext.tilt_max + _EDGE_MARGIN:
            with pytest.raises(UnreachableError):
                inverse_kinematics(geom, target)
        elif (ext.tilt_min + _EDGE_MARGIN < phi < ext.tilt_max - _EDGE_MARGIN
              and _ROLL_AXIS_ZONE < phi < math.pi - _ROLL_AXIS_ZONE):
            assert inverse_kinematics(geom, target).branches

    def test_reachable_axis_near_the_roll_axis(self):
        # alpha == beta puts the roll axis inside the band, at its lower edge.
        geom = build_geometry(DEG(45), DEG(45))
        polar = 1e-7
        u = np.array([math.sin(polar), 0.0, math.cos(polar)])
        assert inverse_kinematics(geom, Pose(_rotation_onto(geom.v4, u), u * 0.01)).branches

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.05, math.pi - 0.05), st.booleans(), st.booleans(),
           st.floats(math.log(2.0 * SINGULARITY_TOL), math.log(1e-3)), angles, angles,
           st.floats(-0.1, 0.1))
    def test_states_near_the_pole_come_back(self, alpha, antipodal, flip, log_polar,
                                            theta1, theta3, theta4):
        """A build whose band reaches the roll axis (alpha == beta: the
        pole +omega1 at theta2 = pi; alpha + beta = pi: -omega1 at theta2 =
        0) and a state whose tool axis is 2 SINGULARITY_TOL to 1e-3 rad from
        that pole: IK finds the state among branches within the fit checks."""
        beta = math.pi - alpha if antipodal else alpha
        geom = build_geometry(alpha, beta)
        # The axis moves sin(beta) per radian of theta2 off the pole.
        step = math.exp(log_polar) / math.sin(beta)
        theta2 = step if antipodal else math.pi - step
        state = JointState(theta1, -theta2 if flip else theta2, theta3, theta4)
        target = forward_kinematics(geom, state)
        axis = target.rotation @ geom.r0.T @ geom.v4
        assume(math.hypot(axis[0], axis[1]) >= 2.0 * SINGULARITY_TOL)
        solutions = inverse_kinematics(geom, target)
        assert max(max(r) for r in solutions.residuals) < 1e-9
        assert any(max(abs(math.remainder(got - want, 2.0 * math.pi)) for got, want in
                       ((b.theta1, theta1), (b.theta2, state.theta2), (b.theta3, theta3)))
                   < 1e-6 and abs(b.theta4 - theta4) < 1e-12 for b in solutions.branches)


class TestSampling:
    def test_samples_on_unit_sphere(self):
        g = design_geometry()
        _, _, points, polar = sample_workspace_grid(g, 20, 20)
        norms = np.linalg.norm(points, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        assert np.all((polar >= 0.0) & (polar <= math.pi))

    def test_fixed_theta2_rows_share_polar_angle(self):
        g = design_geometry()
        _, theta2, _, polar = sample_workspace_grid(g, 16, 6)
        # theta2 varies fastest: column j of the (n1, n2) view holds theta2[j].
        assert theta2.shape == (6,)
        assert (polar.reshape(16, 6) == polar[:6]).all()

    def test_grid_extremes_match_formula(self):
        g = design_geometry()
        _, _, _, polar = sample_workspace_grid(g, 1000, 1000)
        ext = tilt_extremes(g.alpha, g.beta)
        assert abs(math.degrees(polar.min() - ext.tilt_min)) < 0.01
        assert abs(math.degrees(polar.max() - ext.tilt_max)) < 0.01

    def test_sample_count_contract(self):
        g = design_geometry()
        theta1, theta2, points, polar = sample_workspace_grid(g, 7, 9)
        assert (theta1.shape, theta2.shape, points.shape, polar.shape) == (
            (7,), (9,), (63, 3), (63,))
        with pytest.raises(DomainError):
            sample_workspace_grid(g, 1, 9)

    def test_csv_emission(self, tmp_path):
        g = design_geometry()
        path = tmp_path / "w.csv"
        write_workspace_csv(path, g, 16, 16)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theta1_rad,theta2_rad,x,y,z,polar_deg"
        assert len(lines) == 1 + 16 * 16
        first = [float(tok) for tok in lines[1].split(",")]
        assert len(first) == 6


_COLUMNS = ("theta1_rad", "theta2_rad", "x", "y", "z", "polar_deg")


class TestGridWriter:
    """The grid writer formats each theta1, theta2, z and polar angle once;
    its bytes are those of `csvfile.write_numeric_csv` on the whole table."""

    @staticmethod
    def check(tmp_path, geom, n1, n2, precision):
        write_workspace_csv(tmp_path / "grid.csv", geom, n1, n2, precision)
        theta1, theta2, points, polar = sample_workspace_grid(geom, n1, n2)
        table = np.column_stack([np.repeat(theta1, n2), np.tile(theta2, n1), points,
                                 np.degrees(polar)])
        csvfile.write_numeric_csv(tmp_path / "table.csv", _COLUMNS, table, precision)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()

    @pytest.mark.parametrize("precision", [1, 9, 17])
    @pytest.mark.parametrize("alpha, beta", [(30, 110), (60, 60), (70, 110)])
    @pytest.mark.parametrize("n1, n2", [(2, 2), (7, 12), (13, 5)])
    def test_named_builds(self, tmp_path, alpha, beta, n1, n2, precision):
        self.check(tmp_path, build_geometry(DEG(alpha), DEG(beta)), n1, n2, precision)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           st.integers(2, 24), st.integers(2, 24), st.integers(1, 17))
    def test_any_build(self, tmp_path_factory, alpha, beta, n1, n2, precision):
        self.check(tmp_path_factory.mktemp("grid"), build_geometry(alpha, beta), n1, n2,
                   precision)

    @pytest.mark.parametrize("alpha, beta", [(30, 110), (60, 60), (70, 110)])
    def test_every_line_holds_the_rings_z_and_polar_angle(self, alpha, beta):
        geom = build_geometry(DEG(alpha), DEG(beta))
        _, theta2, points, polar = sample_workspace_grid(geom, 64, 48)
        z = points[:, 2].reshape(64, 48)
        assert (z.view(np.int64) == dot_profile(geom, theta2).view(np.int64)).all()
        assert (polar.reshape(64, 48).view(np.int64) == polar[:48].view(np.int64)).all()

    def test_write_peaks_within_a_megabyte_of_the_sampler(self, tmp_path):
        # The (n, 6) table alone would add 12.6 MB at 512 x 512.
        geom = design_geometry()
        peaks = []
        for run in (lambda: sample_workspace_grid(geom, 512, 512),
                    lambda: write_workspace_csv(tmp_path / "w.csv", geom, 512, 512)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1_000_000
