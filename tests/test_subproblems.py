import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unit_vectors
from ssmkit.errors import (
    DegenerateAxesError,
    DegenerateInputError,
    DomainError,
    NoSolutionError,
)
from ssmkit.screws import Twist, normalize_angle, revolute_twist, rodrigues
from ssmkit.subproblems import subproblem1, subproblem2, subproblem3prime

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestSubproblem1:
    def test_identity_case(self):
        sol = subproblem1(revolute_twist(Z), X, X)
        assert sol.multiplicity == 1
        assert sol.solutions[0] == 0.0

    def test_quarter_turn(self):
        sol = subproblem1(revolute_twist(Z), X, Y)
        assert abs(sol.solutions[0] - math.pi / 2) < 1e-12

    def test_round_trip_construction(self):
        omega = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        p = np.array([0.3, -0.5, 0.9])
        q = rodrigues(omega, 1.234) @ p
        sol = subproblem1(revolute_twist(omega), p, q)
        assert abs(sol.solutions[0] - 1.234) < 1e-12

    def test_point_on_axis_rejected(self):
        with pytest.raises(DegenerateInputError):
            subproblem1(revolute_twist(Z), 2.0 * Z, 2.0 * Z)

    def test_norm_mismatch_rejected(self):
        with pytest.raises(NoSolutionError):
            subproblem1(revolute_twist(Z), X, 2.0 * X)

    def test_axial_mismatch_rejected(self):
        with pytest.raises(NoSolutionError):
            subproblem1(revolute_twist(Z), X + Z, X - Z)

    def test_invalid_inputs(self):
        for angular in (np.zeros(3), 2.0 * Z):
            with pytest.raises(DomainError):
                Twist(np.zeros(3), angular)
        with pytest.raises(DomainError, match="linear part"):
            Twist(Y, Z)
        with pytest.raises(DomainError):
            subproblem1(revolute_twist(Z), [math.nan, 0.0, 0.0], Y)
        with pytest.raises(DomainError):
            subproblem1(revolute_twist(Z), X, [math.inf, 0.0, 0.0])
        with pytest.raises(DomainError, match="3-vector"):
            subproblem1(revolute_twist(Z), [1.0, 0.0], Y)

    @settings(max_examples=100, deadline=None)
    @given(unit_vectors, st.floats(-math.pi, math.pi))
    def test_residual_under_reapplication(self, omega, theta):
        p = np.array([0.4, 0.8, -0.3])
        if np.linalg.norm(np.cross(p, omega)) < 1e-2:
            p = p + np.array([0.5, 0.0, 0.0])
        q = rodrigues(omega, theta) @ p
        sol = subproblem1(revolute_twist(omega), p, q)
        r = rodrigues(omega, sol.solutions[0])
        assert np.linalg.norm(r @ p - q) < 1e-10


class TestSubproblem2:
    def test_zero_pair_among_solutions_when_p_equals_q(self):
        p = np.array([0.3, 0.7, 0.2])
        sol = subproblem2(revolute_twist(Z), revolute_twist(X), p, p)
        assert any(
            abs(t1) < 1e-12 and abs(t2) < 1e-12 for t1, t2 in sol.solutions
        )

    def test_round_trip_construction(self):
        q = rodrigues(Z, 0.7) @ (rodrigues(X, 0.4) @ Y)
        sol = subproblem2(revolute_twist(Z), revolute_twist(X), Y, q)
        assert any(
            abs(t1 - 0.7) < 1e-10 and abs(t2 - 0.4) < 1e-10
            for t1, t2 in sol.solutions
        )

    def test_norm_mismatch_rejected(self):
        with pytest.raises(NoSolutionError):
            subproblem2(revolute_twist(Z), revolute_twist(X), Y, 2.0 * Y)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            subproblem2(revolute_twist(Z), revolute_twist(X), [math.nan, 0.0, 0.0], X)
        with pytest.raises(DomainError):
            subproblem2(revolute_twist(Z), revolute_twist(X), Y, [0.0, -math.inf, 0.0])

    def test_parallel_axes_rejected(self):
        with pytest.raises(DegenerateAxesError):
            subproblem2(revolute_twist(Z), revolute_twist(Z), X, Y)

    def test_axes_parallel_to_float_precision_rejected(self):
        # |w1 x w2|^2 = 1.02e-18 clears the 1e-18 cut, but d = w1 . w2 rounds
        # to 1, and the solve divides by d^2 - 1.
        tilt = 1.01e-9
        w2 = [math.sin(tilt), 0.0, math.cos(tilt)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateAxesError):
                subproblem2(revolute_twist([0, 0, 1]), revolute_twist(w2), [1, 0, 0], [0, 1, 0])

    def test_no_intersection(self):
        # q at the pole of axis 1 cannot be reached from p near axis 2's plane
        w2 = np.array([math.sin(0.3), 0.0, math.cos(0.3)])
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NoSolutionError):
            subproblem2(revolute_twist(Z), revolute_twist(w2), p, Z)

    def test_pairs_sorted(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w2 = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
            p = rng.normal(size=3)
            q = rodrigues(Z, rng.uniform(-3, 3)) @ (
                rodrigues(w2, rng.uniform(-3, 3)) @ p
            )
            try:
                sol = subproblem2(revolute_twist(Z), revolute_twist(w2), p, q)
            except (NoSolutionError, DegenerateInputError):
                continue
            assert list(sol.solutions) == sorted(sol.solutions)

    def test_every_solution_reproduces_q(self):
        rng = np.random.default_rng(5)
        alpha = 0.9
        w1 = Z
        w2 = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        xi1, xi2 = revolute_twist(w1), revolute_twist(w2)
        for _ in range(300):
            p = rng.normal(size=3)
            t1, t2 = rng.uniform(-math.pi, math.pi, 2)
            q = rodrigues(w1, t1) @ (rodrigues(w2, t2) @ p)
            sol = subproblem2(xi1, xi2, p, q)
            assert sol.multiplicity in (1, 2)
            matched = False
            for s1, s2 in sol.solutions:
                err = np.linalg.norm(rodrigues(w1, s1) @ (rodrigues(w2, s2) @ p) - q)
                assert err < 1e-10
                if (
                    abs(normalize_angle(s1 - t1)) < 1e-9
                    and abs(normalize_angle(s2 - t2)) < 1e-9
                ):
                    matched = True
            assert matched


class TestSubproblem3Prime:
    def test_symmetric_tangent_sphere(self):
        p = np.array([0.2, -0.1, 0.5])
        sol = subproblem3prime(Y, p, p, 1.0)
        assert sol.solutions == (-1.0, 1.0)

    def test_two_crossings_on_axis(self):
        sol = subproblem3prime(X, np.zeros(3), np.array([2.0, 0.0, 0.0]), 1.0)
        assert np.allclose(sol.solutions, (1.0, 3.0), atol=1e-12)
        for theta in sol.solutions:
            residual = abs(
                np.linalg.norm(np.array([2.0, 0.0, 0.0]) - X * theta) - 1.0
            )
            assert residual < 1e-12

    def test_line_misses_sphere(self):
        # brute-force scan: min distance from the x-axis to (0,2,0) is 2 > 1
        q = np.array([0.0, 2.0, 0.0])
        grid = np.linspace(-10.0, 10.0, 100001)
        dmin = np.linalg.norm(q[None, :] - grid[:, None] * X[None, :], axis=1).min()
        assert dmin > 1.0
        with pytest.raises(NoSolutionError):
            subproblem3prime(X, np.zeros(3), q, 1.0)

    def test_exact_tangency_collapses_to_one(self):
        # line along x at distance exactly 2 from q
        sol = subproblem3prime(X, np.zeros(3), np.array([3.0, 2.0, 0.0]), 2.0)
        assert sol.multiplicity == 1
        assert abs(sol.solutions[0] - 3.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            subproblem3prime(2.0 * X, np.zeros(3), Y, 1.0)
        with pytest.raises(DomainError):
            subproblem3prime(X, np.zeros(3), Y, 0.0)
        with pytest.raises(DomainError):
            subproblem3prime(Z, [math.nan, 0.0, 0.0], np.zeros(3), 1.0)
        with pytest.raises(DomainError):
            subproblem3prime(Z, X, [0.0, 0.0, math.inf], 1.0)
        for delta in (math.inf, math.nan):
            with pytest.raises(DomainError):
                subproblem3prime(Z, X, np.zeros(3), delta)
        with pytest.raises(DomainError, match="3-vector"):
            subproblem3prime([1.0, 0.0], [0.0, 0.0], [2.0, 0.0], 1.0)

    def test_solutions_sorted_ascending(self):
        sol = subproblem3prime(X, np.array([5.0, 0.0, 0.0]), np.zeros(3), 2.0)
        assert list(sol.solutions) == sorted(sol.solutions)

    def test_random_residuals_and_multiplicity(self):
        from helpers import line_scan_multiplicity

        rng = np.random.default_rng(2024)
        checked = 0
        for i in range(2000):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = rng.normal(size=3)
            q = rng.normal(size=3)
            delta = rng.uniform(0.01, 3.0)
            u = q - p
            disc = float(u @ v) ** 2 + delta * delta - float(u @ u)
            try:
                sol = subproblem3prime(v, p, q, delta)
                count = sol.multiplicity
            except NoSolutionError:
                count = 0
            # discriminant sign decides the multiplicity
            if disc < -1e-12:
                assert count == 0
            elif disc > 1e-12:
                assert count == 2
            else:
                assert count == 1
            for theta in (sol.solutions if count else ()):
                assert abs(np.linalg.norm(q - p - v * theta) - delta) < 1e-10
            if i < 400:
                oracle = line_scan_multiplicity(v, p, q, delta)
                if oracle is not None:
                    assert count == oracle
                    checked += 1
        assert checked > 380  # scan oracle classified nearly all draws
