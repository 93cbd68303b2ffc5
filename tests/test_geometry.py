import numpy as np
import pytest

from emlink.geometry import (
    LinkGeometry,
    cap_direction_grid,
    rect_aperture,
    tensor_grid,
    truncation_order,
)

K = 2 * np.pi


class TestAperture:
    def test_paper_pair(self):
        tx = rect_aperture((0, 0, 0), 10.0, 10.0)
        rx = rect_aperture((0, 0, 25.5), 8.0, 8.0)
        assert tx.area == pytest.approx(100.0)
        assert rx.area == pytest.approx(64.0)
        assert np.allclose(rx.center, [0, 0, 25.5])

    def test_unit_square(self):
        assert rect_aperture((0, 0, 0), 1.0, 1.0).area == pytest.approx(1.0)

    def test_rejects_bad_sides(self):
        with pytest.raises(ValueError):
            rect_aperture((0, 0, 0), -1.0, 2.0)
        with pytest.raises(ValueError):
            rect_aperture((0, 0, 0), 1.0, 0.0)


class TestTensorGrid:
    def test_two_point_rule_mapped(self):
        grid = tensor_grid(rect_aperture((0, 0, 0), 1.0, 1.0), 4)
        assert len(grid.points) == 4
        expected = 1 / (2 * np.sqrt(3))
        assert sorted(np.round(grid.points[:, 0], 12)) == pytest.approx(
            [-expected, -expected, expected, expected]
        )
        assert grid.weights == pytest.approx(np.full(4, 0.25))

    def test_paper_count_and_area(self):
        grid = tensor_grid(rect_aperture((0, 0, 0), 10.0, 10.0), 512)
        assert len(grid.points) == 529  # 23 x 23
        assert np.sum(grid.weights) == pytest.approx(100.0, rel=1e-10)

    def test_quartic_integral(self):
        # int x^2 y^2 over the unit square = 1/144
        grid = tensor_grid(rect_aperture((0, 0, 0), 1.0, 1.0), 16)
        value = np.sum(grid.weights * grid.points[:, 0] ** 2 * grid.points[:, 1] ** 2)
        assert value == pytest.approx(1.0 / 144.0, rel=1e-12)

    def test_points_inside_and_offset_center(self):
        ap = rect_aperture((1.0, -2.0, 3.0), 2.0, 4.0)
        grid = tensor_grid(ap, 100)
        assert np.all(np.abs(grid.points[:, 0] - 1.0) < 1.0)
        assert np.all(np.abs(grid.points[:, 1] + 2.0) < 2.0)
        assert np.all(grid.points[:, 2] == 3.0)
        assert np.sum(grid.weights) == pytest.approx(8.0, rel=1e-10)
        # points are the row-major tensor product of the recorded axis nodes
        X, Y = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
        assert np.array_equal(grid.points[:, 0], X.ravel())
        assert np.array_equal(grid.points[:, 1], Y.ravel())

    def test_polynomial_exactness(self):
        # per-axis degree up to 2*ceil(sqrt(n)) - 1 integrates exactly
        rng = np.random.default_rng(7)
        ap = rect_aperture((0.5, 0.0, 0.0), 3.0, 2.0)
        grid = tensor_grid(ap, 36)  # 6 points per axis, degree 11
        for _ in range(5):
            px = rng.normal(size=12)
            py = rng.normal(size=12)
            fx = np.polyval(px, grid.points[:, 0])
            fy = np.polyval(py, grid.points[:, 1])
            value = np.sum(grid.weights * fx * fy)

            def integral(coeffs, a, b):
                anti = np.polyint(np.poly1d(coeffs))
                return anti(b) - anti(a)

            exact = integral(px, -1.0, 2.0) * integral(py, -1.0, 1.0)
            assert value == pytest.approx(exact, rel=1e-11)


class TestCapGrid:
    @pytest.mark.parametrize("deg", [10, 30, 60, 90, 180])
    def test_weight_sum_is_cap_solid_angle(self, deg):
        theta_e = np.radians(deg)
        grid = cap_direction_grid((0, 0, 1), theta_e, 24, 48)
        expected = 2 * np.pi * (1 - np.cos(theta_e))
        assert np.sum(grid.weights) == pytest.approx(expected, rel=1e-10)

    def test_full_sphere(self):
        grid = cap_direction_grid((0, 0, 1), np.pi, 16, 32)
        assert np.sum(grid.weights) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_sixty_degrees_is_pi(self):
        grid = cap_direction_grid((0, 0, 1), np.radians(60), 32, 186)
        assert np.sum(grid.weights) == pytest.approx(np.pi, rel=1e-12)

    def test_directions_inside_cap_and_unit(self):
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14)
        theta_e = np.radians(40)
        grid = cap_direction_grid(axis, theta_e, 12, 20)
        norms = np.linalg.norm(grid.directions, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-12
        assert np.min(grid.directions @ axis) >= np.cos(theta_e) - 1e-12

    def test_rotation_is_isometric(self):
        theta_e = np.radians(35)
        base = cap_direction_grid((0, 0, 1), theta_e, 10, 14)
        rotated = cap_direction_grid((1, -1, 0.5), theta_e, 10, 14)
        assert rotated.weights == pytest.approx(base.weights, abs=1e-15)
        gram_base = base.directions @ base.directions.T
        gram_rot = rotated.directions @ rotated.directions.T
        assert np.max(np.abs(gram_base - gram_rot)) < 1e-12

    def test_antipodal_axis(self):
        grid = cap_direction_grid((0, 0, -1), np.radians(20), 8, 8)
        assert np.min(grid.directions @ np.array([0, 0, -1.0])) >= np.cos(np.radians(20)) - 1e-12

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            cap_direction_grid((0, 0, 1), 0.0, 8, 8)
        with pytest.raises(ValueError):
            cap_direction_grid((0, 0, 1), 3.5, 8, 8)


class TestTruncationOrder:
    def test_paper_aperture(self):
        assert truncation_order(K, 10.0) == 75

    def test_small_argument(self):
        assert truncation_order(1.0, 1.0) == 4

    def test_override_matches_reported_value(self):
        # the reported L=93 is reproduced by the rule at the sum of the two
        # aperture half-diagonals, and presets may pin it explicitly
        d_eff = 0.5 * (np.hypot(10, 10) + np.hypot(8, 8))
        assert truncation_order(K, d_eff) == 93


class TestLinkGeometry:
    def test_paper_link_valid(self):
        geo = LinkGeometry(
            rect_aperture((0, 0, 0), 10.0, 10.0),
            rect_aperture((0, 0, 25.5), 8.0, 8.0),
            K,
        )
        assert geo.distance == pytest.approx(25.5)
        assert np.allclose(geo.axis, [0, 0, 1])

    def test_separation_bound_enforced(self):
        with pytest.raises(ValueError, match="validity"):
            LinkGeometry(
                rect_aperture((0, 0, 0), 10.0, 10.0),
                rect_aperture((0, 0, 5.0), 8.0, 8.0),
                K,
            )
