import math

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import angles, expm_series, hat, random_rotation, unit_vectors
from ssmkit.errors import DomainError
from ssmkit.screws import ensure_rotation, normalize_angle, revolute_twist, rodrigues

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestRodrigues:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rodrigues(Z, 0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        r = rodrigues(Z, math.pi / 2)
        assert np.allclose(r @ X, Y, atol=1e-15)
        assert np.allclose(r @ Y, -X, atol=1e-15)
        assert np.allclose(r @ Z, Z, atol=1e-15)

    def test_cyclic_permutation_matches_series_exponential(self):
        axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        angle = 2.0 * math.pi / 3.0
        r = rodrigues(axis, angle)
        # x -> y -> z -> x
        cyclic = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(r, cyclic, atol=1e-12)
        assert np.allclose(r, expm_series(hat(axis) * angle), atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(DomainError):
            rodrigues(np.array([0.0, 0.0, 2.0]), 0.3)
        with pytest.raises(DomainError, match="3-vector"):
            rodrigues([1.0, 0.0], 0.3)
        for axis in ([[1.0, 0.0], [0.0]], ["a", 0, 0], [1 + 2j, 0, 0], np.array([1 + 0j, 0, 0])):
            with pytest.raises(DomainError, match="expected a 3-vector of real numbers"):
                rodrigues(axis, 0.3)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(DomainError) as info:
            rodrigues(Z, angle)
        assert str(info.value) == f"angle: expected a finite number, got {angle}"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_axis_rejected(self, value):
        with pytest.raises(DomainError, match="must be unit"):
            rodrigues(np.array([0.0, value, 1.0]), 0.3)

    def test_output_orthonormal(self):
        r = rodrigues(np.array([0.6, 0.8, 0.0]), 1.234)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(unit_vectors, angles, angles)
    def test_angle_additivity(self, axis, t1, t2):
        lhs = rodrigues(axis, t1) @ rodrigues(axis, t2)
        assert np.abs(lhs - rodrigues(axis, t1 + t2)).max() < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(unit_vectors, angles)
    def test_axis_is_fixed_point(self, axis, t):
        assert np.abs(rodrigues(axis, t) @ axis - axis).max() < 1e-12


class TestTwistExp:
    """The exponential of a revolute twist through the origin is the
    Rodrigues rotation about its angular part, as forward kinematics
    composes it."""

    def test_revolute_zero_angle(self):
        xi = revolute_twist(Z)
        assert np.allclose(xi.linear, 0.0)
        assert np.allclose(rodrigues(xi.angular, 0.0), np.eye(3), atol=1e-15)

    def test_half_turn_about_x(self):
        r = rodrigues(revolute_twist(X).angular, math.pi)
        assert np.allclose(r, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(DomainError):
            revolute_twist([0.0, 0.0, 0.5])
        with pytest.raises(DomainError):
            revolute_twist([1.0, 1.0, 0.0])
        with pytest.raises(DomainError):
            revolute_twist([math.nan, 0.0, 1.0])
        with pytest.raises(DomainError, match="3-vector"):
            revolute_twist([1.0, 0.0])
        with pytest.raises(DomainError, match="expected a 3-vector of real numbers"):
            revolute_twist([[1.0, 0.0], [0.0]])

    @settings(max_examples=75, deadline=None)
    @given(unit_vectors, angles, unit_vectors, unit_vectors)
    def test_distances_preserved(self, axis, t, p, q):
        r = rodrigues(revolute_twist(axis).angular, t)
        p2 = 2.0 * p
        d_before = np.linalg.norm(p2 - q)
        d_after = np.linalg.norm(r @ p2 - r @ q)
        assert abs(d_before - d_after) < 1e-10


class TestValidation:
    def test_ensure_rotation_accepts_noisy_rotation(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        noisy = r + rng.normal(scale=1e-10, size=(3, 3))
        fixed = ensure_rotation(noisy)
        assert np.abs(fixed.T @ fixed - np.eye(3)).max() < 1e-12

    def test_ensure_rotation_rejects_garbage(self):
        with pytest.raises(DomainError):
            ensure_rotation(np.eye(3) * 1.1)
        with pytest.raises(DomainError):
            ensure_rotation(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_ensure_rotation_rejects_non_finite_entries(self, value):
        r = np.eye(3)
        r[0, 0] = value
        with pytest.raises(DomainError, match="must be finite"):
            ensure_rotation(r)

    def test_normalize_angle_edges(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi
        assert abs(normalize_angle(3.0 * math.pi / 2.0) + math.pi / 2.0) < 1e-15
        assert normalize_angle(0.0) == 0.0
        assert abs(normalize_angle(7.0) - (7.0 - 2.0 * math.pi)) < 1e-15
