"""Convex-cone helpers in the chamber hyperplane."""

import numpy as np
import pytest

from limitcone import cones
from limitcone.errors import InvalidInput


class TestChamberBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_orthonormal_zero_sum(self, n):
        b = cones.chamber_basis(n)
        assert b.shape == (n, n - 1)
        assert np.allclose(b.T @ b, np.eye(n - 1), atol=1e-12)
        assert np.allclose(b.sum(axis=0), 0.0, atol=1e-12)

    def test_spans_zero_sum_subspace(self):
        b = cones.chamber_basis(4)
        v = np.array([3.0, -1.0, 0.5, -2.5])
        assert np.allclose(b @ (b.T @ v), v, atol=1e-12)


class TestConeDistance:
    def test_zero_inside(self):
        rays = [np.array([1.0, 0.0, -1.0]), np.array([1.0, 1.0, -2.0])]
        v = rays[0] + 0.3 * rays[1]
        assert cones.cone_distance(v, rays) <= 1e-10

    def test_positive_outside(self):
        rays = [np.array([1.0, 0.0, -1.0])]
        v = np.array([0.0, 1.0, -1.0])
        assert cones.cone_distance(v, rays) > 0.1

    def test_exact_value_orthogonal_complement(self):
        rays = [np.array([1.0, 0.0])]
        v = np.array([0.0, 2.0])
        assert cones.cone_distance(v, rays) == pytest.approx(2.0, abs=1e-10)


class TestInCone:
    def test_membership_and_slack(self):
        rays = [np.array([1.0, 0.0, -1.0]), np.array([1.0, 1.0, -2.0])]
        assert cones.in_cone(2.0 * rays[0] + rays[1], rays)
        outside = np.array([-1.0, 0.0, 1.0])
        assert not cones.in_cone(outside, rays)
        assert cones.in_cone(outside, rays, slack=10.0)

    def test_slack_is_relative_to_norm(self):
        rays = [np.array([1.0, 0.0])]
        v = np.array([1.0, 1e-6])
        assert cones.in_cone(v, rays, slack=1e-5)
        assert cones.in_cone(1e8 * v, rays, slack=1e-5)


class TestFacetNormals:
    def test_planar_cone(self):
        rays = np.array([[1.0, 0.0], [1.0, 1.0] / np.sqrt(2.0)])
        normals = cones.facet_normals(rays)
        assert normals.shape == (2, 2)
        # inward: every ray on the nonnegative side of every facet
        assert np.all(normals @ rays.T >= -1e-9)
        # each facet of a planar cone passes through one extreme ray
        prods = np.abs(normals @ rays.T)
        assert np.all(np.isclose(prods.min(axis=1), 0.0, atol=1e-9))

    def test_one_dimensional_cone(self):
        normals = cones.facet_normals([[2.0], [3.0]])
        assert np.allclose(normals, [[1.0]])
        with pytest.raises(InvalidInput):
            cones.facet_normals([[1.0], [-1.0]])

    def test_rejects_degenerate(self):
        # a single ray is not full-dimensional in the plane
        with pytest.raises(InvalidInput):
            cones.facet_normals([[1.0, 0.0]])

    def test_rejects_zero_ray(self):
        with pytest.raises(InvalidInput):
            cones.facet_normals([[1.0, 0.0], [0.0, 0.0]])


class TestMarginDistance:
    RAYS = np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_interior_positive(self):
        assert cones.margin_distance(np.array([1.0, 1.0]), self.RAYS) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-9
        )

    def test_boundary_zero(self):
        assert cones.margin_distance(self.RAYS[0], self.RAYS) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_exterior_negative(self):
        assert cones.margin_distance(np.array([-1.0, -1.0]), self.RAYS) < 0.0

    def test_zero_vector(self):
        assert cones.margin_distance(np.zeros(2), self.RAYS) == 0.0


class TestExtremeRayIndices:
    def test_planar_angular_endpoints(self):
        u = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]])
        assert cones.extreme_ray_indices(u) == [0, 2]

    def test_single_ray(self):
        assert cones.extreme_ray_indices([[1.0, -1.0]]) == [0]

    def test_planar_rejects_overwide(self):
        u = np.array([[1.0, 0.0], [-1.0, 0.1], [0.0, -1.0]])
        with pytest.raises(InvalidInput):
            cones.extreme_ray_indices(u)

    def test_interior_ray_dropped_general(self):
        r1 = np.array([1.0, 0.0, -1.0])
        r2 = np.array([0.0, 1.0, -1.0])
        mid = r1 + r2
        assert cones.extreme_ray_indices([r1, mid, r2]) == [0, 2]

    def test_three_dimensional(self):
        rays = [
            np.array([1.0, 0.0, 0.0, -1.0]),
            np.array([0.0, 1.0, 0.0, -1.0]),
            np.array([0.0, 0.0, 1.0, -1.0]),
        ]
        interior = sum(rays)
        assert cones.extreme_ray_indices(rays + [interior]) == [0, 1, 2]

    @staticmethod
    def _units(*rows):
        return [np.asarray(r, dtype=float) / np.linalg.norm(r) for r in rows]

    def test_near_duplicate_keeps_its_ray(self):
        # a and a + 5e-12 w lie within the slack: neither counts as a
        # combination of the other
        a, b, c, w = self._units([1.0, 0.2, 0.1], [0.1, 1.0, 0.2], [0.2, 0.1, 1.0], [3, -5, 8])
        got = cones.extreme_ray_indices([a, b, c, a + 5e-12 * w])
        assert got == [0, 1, 2, 3]

    def test_identical_rows_are_one_extreme_ray(self):
        a, b = self._units([1.0, 0.2, 0.1], [0.1, 1.0, 0.2])
        assert cones.extreme_ray_indices([a, a]) == [0, 1]
        (mid,) = self._units(a + b)
        assert cones.extreme_ray_indices([a, b, mid, a, b]) == [0, 1, 3, 4]
