import numpy as np
import pytest
from reference_routes import LATERAL_IMAGES, image_maps

from emlink.channel import _fold
from emlink.geometry import (
    Aperture,
    DirectionGrid,
    LinkGeometry,
    SurfaceGrid,
    _image_steps,
    _rotation_to,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
    truncation_order,
)
from emlink.greens import translator_table
from emlink.specfun import gauss_legendre_rule, legendre_sequence

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

    @pytest.mark.parametrize(
        "center, sides, message",
        [((0, 0, 0), (np.nan, 1.0), "sides"), ((0, 0, 0), (1.0, np.inf), "sides"),
         ((0, np.nan, 0), (1.0, 1.0), "center")],
        ids=["nan-side", "inf-side", "nan-center"],
    )
    def test_rejects_non_finite_input(self, center, sides, message):
        with pytest.raises(ValueError, match=message):
            rect_aperture(center, *sides)

    @pytest.mark.parametrize("center", [(0, 0), (0, 0, 0, 0), [[0, 0, 0]], 0.0], ids=["two", "four", "nested", "scalar"])
    def test_rejects_a_center_of_other_than_three_numbers(self, center):
        # a two-number center would build, and the mode solve would then fail reading its z
        with pytest.raises(ValueError, match="three finite numbers"):
            rect_aperture(center, 1.0, 1.0)


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

    def test_arrays_are_read_only_and_own_their_data(self):
        grid = tensor_grid(rect_aperture((0, 0, 0), 4.0, 4.0), 16)
        for array in (grid.points, grid.weights, grid.nodes_x, grid.nodes_y, grid.weights_x, grid.weights_y,
                      grid.aperture.center):
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    def test_caller_arrays_stay_writeable(self):
        center = np.zeros(3)
        grid = SurfaceGrid(rect_aperture(center, 2.0, 2.0), 2)
        center[0] = 1.0  # the aperture copies its center and leaves the caller's array writeable
        assert np.array_equal(grid.points, tensor_grid(rect_aperture((0, 0, 0), 2.0, 2.0), 4).points)

    @pytest.mark.parametrize("center, sides, n", [((0, 0, 0), (4.0, 4.0), 4), ((1.0, -2.0, 3.0), (2.0, 4.0), 23)])
    def test_grid_is_its_rule(self, center, sides, n):
        # a grid is its aperture and order: the Gauss rule mapped to each side, bit for bit
        aperture = rect_aperture(center, *sides)
        grid = SurfaceGrid(aperture, n)
        rule = gauss_legendre_rule(n)
        x, wx = rule.map_to(center[0] - 0.5 * sides[0], center[0] + 0.5 * sides[0])
        y, wy = rule.map_to(center[1] - 0.5 * sides[1], center[1] + 0.5 * sides[1])
        for mine, expected in zip((grid.nodes_x, grid.weights_x, grid.nodes_y, grid.weights_y), (x, wx, y, wy)):
            assert np.array_equal(mine, expected)
        X, Y = np.meshgrid(x, y, indexing="ij")
        assert np.array_equal(grid.points, np.stack([X.ravel(), Y.ravel(), np.full(X.size, center[2])], axis=1))
        assert np.array_equal(grid.weights, np.outer(wx, wy).ravel())
        same = tensor_grid(aperture, n * n)
        assert same.aperture is aperture and same.n == n
        for name in ("nodes_x", "nodes_y", "weights_x", "weights_y", "points", "weights"):
            assert np.array_equal(getattr(same, name), getattr(grid, name))
            assert not getattr(grid, name).flags.writeable

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_order(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            SurfaceGrid(rect_aperture((0, 0, 0), 2.0, 2.0), n)

    @pytest.mark.parametrize(
        "center, sides, n_total, expected",
        [((0, 0, 0), (4.0, 4.0), 16, (True, True, True)), ((1.0, -2.0, 3.0), (2.0, 4.0), 100, (True, True, False))],
        ids=["square", "oblong"],
    )
    def test_symmetries(self, center, sides, n_total, expected):
        # a grid is a Gauss rule on its aperture, so on a coaxial link to a copy of
        # itself the fold mirrors both axes, and swaps them when the aperture is square
        tx = rect_aperture(center, *sides)
        rx = rect_aperture(np.add(center, (0, 0, 10.2)), *sides)
        geo = LinkGeometry(tx, rx, K)
        theta_e = np.radians(60)
        directions = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(34, theta_e))
        table = translator_table(directions, K, geo.r_pq, 34, windowed=True)
        src, rcv = tensor_grid(tx, n_total), tensor_grid(rx, n_total)
        assert _fold(src, rcv, geo, directions, table)[0] == expected


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

    @pytest.mark.parametrize("pole", [1.0, -1.0], ids=["plus-z", "minus-z"])
    @pytest.mark.parametrize("tilt", [1e-7, 1e-9])
    @pytest.mark.parametrize("plane", [0, 1], ids=["x-z", "y-z"])
    def test_axis_just_off_a_pole(self, pole, tilt, plane):
        # an axis a hair off +-z gets its own frame, not the pole's: every direction keeps its ring's cosine
        axis = np.zeros(3)
        axis[plane], axis[2] = np.sin(tilt), pole * np.cos(tilt)
        grid = cap_direction_grid(axis, np.radians(60), 12, 24)
        assert np.max(np.abs(grid.directions @ grid.axis - np.repeat(grid.cosines, 24))) <= 1e-15

    @pytest.mark.parametrize("angle", [1.6, 2.5, np.pi - 1e-7])
    def test_frame_about_a_minus_z_side_axis(self, angle):
        # an axis in the x-z plane on the -z side, at angle from +z, gets
        # R_y(angle) R_z(pi): the rotation from +z about y, as on the +z side,
        # then a half turn about the axis, so the cap's azimuths start at -x
        # of the +z-side frame
        c, s = np.cos(angle), np.sin(angle)
        r_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        assert np.max(np.abs(_rotation_to(np.array([s, 0.0, c])) - r_y @ np.diag([-1.0, -1.0, 1.0]))) <= 1e-15

    def test_rings(self):
        # ring-major: direction i * n_phi + j lies on ring i, with its cosine to the axis and its weight
        axis = np.array([1.0, -1.0, 0.5]) / 1.5
        grid = cap_direction_grid(axis, np.radians(50), 7, 12)
        assert np.max(np.abs(grid.axis - axis)) < 1e-15
        assert np.max(np.abs(grid.directions @ axis - np.repeat(grid.cosines, 12))) < 1e-15
        assert np.array_equal(grid.weights, np.repeat(grid.ring_weights, 12))
        for array in (grid.axis, grid.cosines, grid.ring_weights, grid.directions, grid.weights):
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    def test_rings_are_the_rule(self):
        # Gauss-Legendre in cos(theta) over [cos(theta_e), 1], crossed with n_phi azimuths, bit for bit
        grid = DirectionGrid((0.0, 0.0, 1.0), np.radians(50), 7, 12)
        rule, u0 = gauss_legendre_rule(7), np.cos(np.radians(50))
        assert np.array_equal(grid.cosines, 0.5 * (1.0 - u0) * rule.nodes + 0.5 * (1.0 + u0))
        assert np.array_equal(grid.ring_weights, 0.5 * (1.0 - u0) * rule.weights * (2.0 * np.pi / 12))
        same = cap_direction_grid((0.0, 0.0, 1.0), np.radians(50), 7, 12)
        for name in ("axis", "cosines", "ring_weights", "directions", "weights"):
            assert np.array_equal(getattr(same, name), getattr(grid, name))

    def test_caller_arrays_stay_writeable(self):
        axis = np.array([0.0, 0.0, 2.0])
        grid = DirectionGrid(axis, np.pi / 3, 1, 1)
        axis[0] = 0.5  # the grid holds its own normalized axis
        assert np.array_equal(grid.axis, [0.0, 0.0, 1.0])
        assert np.array_equal(grid.directions, DirectionGrid((0.0, 0.0, 1.0), np.pi / 3, 1, 1).directions)

    @pytest.mark.parametrize(
        "axis, theta_e, n_theta, n_phi, message",
        [((0, 0, 1), 0.0, 8, 8, "theta_e"), ((0, 0, 1), np.pi / 3, 0, 8, "sizes"),
         ((0, 0, 1), np.pi / 3, 8, 0, "sizes"), ((0, 0, 0), np.pi / 3, 8, 8, "axis"),
         ((0, np.nan, 1), np.pi / 3, 8, 8, "axis")],
        ids=["zero-angle", "no-rings", "no-azimuths", "zero-axis", "nan-axis"],
    )
    def test_constructor_rejects_bad_rules(self, axis, theta_e, n_theta, n_phi, message):
        with pytest.raises(ValueError, match=message):
            DirectionGrid(axis, theta_e, n_theta, n_phi)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            cap_direction_grid((0, 0, 1), 0.0, 8, 8)
        with pytest.raises(ValueError):
            cap_direction_grid((0, 0, 1), 3.5, 8, 8)



class TestValueEquality:
    """Geometry objects built apart from equal values are equal and hash alike."""

    def test_equal_objects_built_apart(self):
        a, b = rect_aperture((0, 0, 0), 1, 1), rect_aperture([0.0, 0.0, 0.0], 1.0, 1.0)
        g, h = cap_direction_grid((0, 0, 1), 1.0, 4, 8), cap_direction_grid(np.array([0.0, 0.0, 3.0]), 1.0, 4, 8)
        far = rect_aperture((0, 0, 5), 1, 1)
        pairs = [(a, b), (g, h), (tensor_grid(a, 9), SurfaceGrid(b, 3)),
                 (LinkGeometry(a, far, K), LinkGeometry(b, rect_aperture((0, 0, 5), 1, 1), K))]
        for x, y in pairs:
            assert x is not y and x == y and not (x != y)
            assert hash(x) == hash(y)
            assert len({x, y}) == 1
        # -0.0 and 0.0 are one coordinate
        assert rect_aperture((-0.0, 0, 0), 1, 1) == a and hash(rect_aperture((-0.0, 0, 0), 1, 1)) == hash(a)

    def test_unequal_objects(self):
        a = rect_aperture((0, 0, 0), 1, 1)
        for other in (rect_aperture((0, 0, 1e-15), 1, 1), rect_aperture((0, 0, 0), 1, 2),
                      rect_aperture((0, 0, 0), 2, 1), "aperture", None):
            assert a != other and not (a == other)
        g = cap_direction_grid((0, 0, 1), 1.0, 4, 8)
        for other in (cap_direction_grid((0, 1, 0), 1.0, 4, 8), cap_direction_grid((0, 0, 1), 0.9, 4, 8),
                      cap_direction_grid((0, 0, 1), 1.0, 5, 8), cap_direction_grid((0, 0, 1), 1.0, 4, 12), a):
            assert g != other
        assert tensor_grid(a, 9) != tensor_grid(a, 16)
        assert tensor_grid(a, 9) != tensor_grid(rect_aperture((0, 0, 0), 1, 2), 9)
        assert len({a, rect_aperture((0, 0, 0), 1, 2), rect_aperture((0, 0, 0), 1, 1)}) == 2

    def test_memo_takes_no_part(self):
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2), K)
        grid = cap_direction_grid(geo.axis, np.radians(60), *default_cap_densities(34, np.radians(60)))
        fresh = cap_direction_grid(geo.axis, np.radians(60), *default_cap_densities(34, np.radians(60)))
        before = hash(grid)
        table = translator_table(grid, K, geo.r_pq, 34, windowed=True)
        _fold(tensor_grid(geo.transmitter, 16), tensor_grid(geo.receiver, 16), geo, grid, table)
        assert grid._waves and not fresh._waves
        assert grid == fresh and hash(grid) == hash(fresh) == before


class TestDefaultCapDensities:
    """The band-limit rule for the cap grid; its accuracy is pinned in test_channel."""

    THETAS = np.radians(np.linspace(1.0, 180.0, 180))

    def test_presets(self):
        assert default_cap_densities(93, np.radians(60)) == (62, 108)
        assert default_cap_densities(34, np.radians(60)) == (28, 56)

    def test_floors(self):
        for L in (0, 1, 4, 93):
            n_theta, n_phi = default_cap_densities(L, np.radians(0.5))
            assert n_theta == 8 and n_phi >= 8

    def test_theta_nodes_capped_at_full_sphere_rule(self):
        for L in range(7, 200):
            assert max(default_cap_densities(L, t)[0] for t in self.THETAS) == L + 1

    def test_no_decrease_in_order_or_angle(self):
        table = np.array([[default_cap_densities(L, t) for t in self.THETAS] for L in range(0, 200)])
        assert np.all(np.diff(table, axis=0) >= 0)
        assert np.all(np.diff(table, axis=1) >= 0)

    def test_grids_about_z_are_mirror_symmetric(self):
        # closure under k_x -> -k_x, k_y -> -k_y and k_x <-> k_y depends on
        # n_phi alone (the rings sit at phi = 2 pi i / n_phi), so one grid per
        # n_phi covers every rule grid about z
        n_phis = {default_cap_densities(L, t)[1] for L in range(200) for t in self.THETAS}
        for n_phi in sorted(n_phis):
            grid = cap_direction_grid((0, 0, 1), np.pi / 3, 3, n_phi)
            for image, partner in zip(LATERAL_IMAGES, image_maps(grid)):
                assert partner is not None, (n_phi, image)
                assert np.max(np.abs(grid.directions[partner] - grid.directions @ image.T)) < 1e-14

    def test_phi_count_is_a_multiple_of_four(self):
        for L in range(200):
            assert all(default_cap_densities(L, t)[1] % 4 == 0 for t in self.THETAS), L

    def test_mirror_partner_rejects_odd_phi_count(self):
        grid = cap_direction_grid((0, 0, 1), np.pi / 3, 3, 25)
        x, y, swap = _image_steps(grid)
        assert x is None and swap is None
        assert y == 0

    @pytest.mark.parametrize("n_phi", [26, 54, 106])
    def test_no_swap_partner_for_phi_count_2_mod_4(self, n_phi):
        # phi -> pi/2 - phi maps ring sample i to n_phi/4 - i, not a sample
        grid = cap_direction_grid((0, 0, 1), np.pi / 3, 3, n_phi)
        x, y, swap = _image_steps(grid)
        assert (x, y) == (n_phi // 2, 0)
        assert swap is None

    def test_mirror_partner_is_an_involution(self):
        grid = cap_direction_grid((0, 0, 1), np.pi / 3, 5, 108)
        for partner in image_maps(grid):
            assert np.array_equal(partner[partner], np.arange(len(partner)))

    @pytest.mark.parametrize("L", [34, 75, 93])
    def test_pi_covers_full_sphere(self, L):
        # the Gauss rule in cos(theta) integrates every P_l, l <= 2L + 1, over
        # the sphere, and phi keeps the whole lateral bandwidth L
        n_theta, n_phi = default_cap_densities(L, np.pi)
        assert (n_theta, n_phi) == (L + 1, default_cap_densities(L, np.pi / 2)[1])
        grid = cap_direction_grid((0, 0, 1), np.pi, n_theta, n_phi)
        moments = legendre_sequence(2 * L + 1, grid.directions[:, 2]) @ grid.weights
        assert moments[0] == pytest.approx(4 * np.pi, rel=1e-13)
        assert np.max(np.abs(moments[1:])) < 1e-12


class TestImageSteps:
    """The closed-form images of a grid's rule are its directions' images under `LATERAL_IMAGES`."""

    @staticmethod
    def _check(grid):
        # where a map has images, it fixes the axis, and they keep each ring and lie on the mapped directions; a
        # mirror that fixes the axis, or the swap on a cap about +-z, has none only where the grid is not closed
        axis, ring = grid.axis, np.arange(len(grid.weights)) // grid.n_phi
        for image, partner, asked in zip(LATERAL_IMAGES, image_maps(grid), (True, True, abs(axis[2]) == 1.0)):
            fixes, mapped = np.array_equal(image @ axis, axis), grid.directions @ image.T
            if partner is not None:
                assert fixes
                assert np.max(np.abs(grid.directions[partner] - mapped)) <= 1e-14
                assert np.array_equal(ring[partner], ring)
            elif fixes and asked:
                gaps = np.linalg.norm(grid.directions[:, None, :] - mapped[None, :, :], axis=2).min(axis=0)
                assert np.max(gaps) > 1e-3, (image, grid)

    @pytest.mark.parametrize("L, deg", [(34, 60), (93, 60), (34, 120), (20, 180)])
    @pytest.mark.parametrize("axis", [(0, 0, 1), (0, 0, -1)], ids=["plus-z", "minus-z"])
    def test_rule_grids_about_z(self, axis, L, deg):
        theta_e = np.radians(deg)
        grid = cap_direction_grid(axis, theta_e, *default_cap_densities(L, theta_e))
        assert None not in _image_steps(grid)
        self._check(grid)

    @pytest.mark.parametrize("deg", [30, 90, 180])
    @pytest.mark.parametrize("n_phi", [25, 26, 28], ids=["odd", "2-mod-4", "0-mod-4"])
    @pytest.mark.parametrize(
        "axis",
        [(0, 0, 1), (0, 0, -1), (1, 0, 2), (-3, 0, -1), (1, 0, 0), (0, 2, 1), (0, -1, -3), (0, 1, 0), (1, 1, 1)],
        ids=["plus-z", "minus-z", "xz", "xz-below", "x", "yz", "yz-below", "y", "diagonal"],
    )
    def test_images_match_directions(self, axis, n_phi, deg):
        self._check(cap_direction_grid(axis, np.radians(deg), 4, n_phi))

    def test_no_image_where_the_map_moves_the_axis_or_the_step_is_fractional(self):
        # the full sphere about x is closed under the x-mirror, but it sends ring u to ring -u
        assert _image_steps(cap_direction_grid((1, 0, 0), np.pi, 8, 16)) == (None, 0, None)
        # phi -> pi/2 - phi sends sample j to n_phi/4 - j, not a sample, when 4 does not divide n_phi
        assert _image_steps(cap_direction_grid((0, 0, 1), np.pi, 8, 26)) == (13, 0, None)
        assert _image_steps(cap_direction_grid((0, 0, -1), np.pi, 8, 28)) == (14, 0, -7)
        # an axis off the y-z plane by roundoff moves under the x-mirror
        assert _image_steps(cap_direction_grid((1e-14, 0, 1), np.pi / 3, 8, 28)) == (None, 0, None)
        # the swap fixes a diagonal axis and closes its grid, but no fold asks for it off +-z
        assert _image_steps(cap_direction_grid((1, 1, 1), np.pi / 3, 8, 28)) == (None, None, None)


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

    @pytest.mark.parametrize(
        "rx_center, k, message",
        [((0, 0, 25.5), np.nan, "wavenumber"), ((0, np.nan, 25.5), K, "center")],
        ids=["nan-k", "nan-center"],
    )
    def test_rejects_non_finite_input(self, rx_center, k, message):
        # an Aperture built directly skips rect_aperture's checks; a NaN separation passes sep < bound
        rx = Aperture(np.array(rx_center, dtype=float), 8.0, 8.0)
        with pytest.raises(ValueError, match=message):
            LinkGeometry(rect_aperture((0, 0, 0), 10.0, 10.0), rx, k)

    def test_separation_bound_enforced(self):
        with pytest.raises(ValueError, match="validity"):
            LinkGeometry(
                rect_aperture((0, 0, 0), 10.0, 10.0),
                rect_aperture((0, 0, 5.0), 8.0, 8.0),
                K,
            )
