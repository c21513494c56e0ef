import math

import numpy as np
import pytest

from ssmkit.errors import DegenerateGeometryError, DomainError
from ssmkit.kinematics import build_geometry
from ssmkit.screws import revolute_twist, rodrigues
from ssmkit.subproblems import subproblem1
from ssmkit.workspace import (
    critical_directions,
    dot_profile,
    dot_profile_derivatives,
    rotate_about,
    sample_workspace_grid,
    tilt_extremes,
    write_workspace_csv,
)

DEG = math.radians


def design_geometry():
    return build_geometry(DEG(30), DEG(110))


class TestRotateAbout:
    def test_matches_rodrigues_for_every_angle_and_vector(self):
        rng = np.random.default_rng(7)
        for alpha, beta in ((30, 110), (60, 60), (5, 170), (120, 45)):
            g = build_geometry(DEG(alpha), DEG(beta))
            thetas = rng.uniform(-math.pi, math.pi, 6)
            stack = rng.normal(size=(5, 3))
            stack /= np.linalg.norm(stack, axis=1)[:, None]
            for axis in (g.omega1, g.omega2, g.omega3):
                got = rotate_about(axis, thetas, stack)
                assert got.shape == (6, 5, 3)
                for i, theta in enumerate(thetas):
                    r = rodrigues(axis, theta)
                    for j, v in enumerate(stack):
                        assert np.abs(got[i, j] - r @ v).max() <= 1e-15
                        single = rotate_about(axis, theta, v)
                        assert single.shape == (3,)
                        assert np.abs(single - r @ v).max() <= 1e-15
                ring = rotate_about(axis, thetas, stack[0])
                assert ring.shape == (6, 3)
                assert np.abs(ring - got[:, 0]).max() <= 1e-15


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


class TestSampling:
    def test_samples_on_unit_sphere(self):
        g = design_geometry()
        _, _, points, polar = sample_workspace_grid(g, 20, 20)
        norms = np.linalg.norm(points, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        assert np.all((polar >= 0.0) & (polar <= math.pi))

    def test_fixed_theta2_rows_share_polar_angle(self):
        g = design_geometry()
        _, theta2, _, polar = sample_workspace_grid(g, 8, 6)
        # theta2 varies fastest: column j of the (n1, n2) view holds theta2[j].
        assert theta2.shape == (6,)
        assert np.ptp(polar.reshape(8, 6), axis=0).max() < 1e-12

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
