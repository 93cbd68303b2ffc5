import numpy as np
import pytest
from reference_routes import image_maps, per_direction_table, two_pass_error_sweep

from emlink import greens
from emlink.channel import _symmetries, propagate_current
from emlink.config import load_config
from emlink.geometry import (
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    truncation_order,
)
from emlink.greens import (
    _translator_weights,
    _tukey_window,
    expansion_error_sweep,
    sgf_exact,
    sgf_planewave,
    translator_series,
    translator_table,
)
from emlink.specfun import legendre_sequence

K = 2 * np.pi


def fig3_link(distance=20.0, side=10.0):
    return LinkGeometry(
        rect_aperture((0, 0, 0), side, side),
        rect_aperture((0, 0, distance), side, side),
        K,
    )


class TestScalarGreens:
    def test_full_wavelength_phase(self):
        g = sgf_exact((0, 0, 1.0), (0, 0, 0), K)
        assert g.real == pytest.approx(1 / (4 * np.pi), rel=1e-12)
        assert g.imag == pytest.approx(0.0, abs=1e-12)

    def test_half_wavelength_phase(self):
        g = sgf_exact((0, 0, 0.5), (0, 0, 0), K)
        assert g == pytest.approx(-1 / (2 * np.pi), rel=1e-12)

    def test_modulus_law(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r, s = rng.normal(size=3), rng.normal(size=3)
            R = np.linalg.norm(r - s)
            assert abs(sgf_exact(r, s, K)) == pytest.approx(1 / (4 * np.pi * R), rel=1e-12)

    def test_reciprocity(self):
        r, s = np.array([1.0, 2.0, 3.0]), np.array([-0.5, 0.1, 0.2])
        assert sgf_exact(r, s, K) == sgf_exact(s, r, K)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            sgf_exact((1, 1, 1), (1, 1, 1), K)


class TestTukeyWindow:
    def test_flat_start(self):
        for L in (2, 7, 100):
            assert _tukey_window(L)[0] == 1.0

    def test_taper_endpoint_and_midpoint(self):
        w = _tukey_window(100)
        assert w[100] == pytest.approx(0.0, abs=1e-15)
        assert w[75] == pytest.approx(0.5, rel=1e-12)

    def test_non_increasing(self):
        for L in (4, 33, 93):
            assert np.all(np.diff(_tukey_window(L)) <= 1e-15)


class TestTranslator:
    def test_single_term_series(self):
        geo = fig3_link()
        grid = cap_direction_grid(geo.axis, np.radians(45), 6, 8)
        table = translator_table(grid, K, geo.r_pq, 0, windowed=False)
        x = K * 20.0
        h0 = 1j * np.exp(-1j * x) / x
        assert np.max(np.abs(table - h0)) < 1e-12

    def test_direction_symmetry(self):
        # every sample in one theta-ring shares khat . rhat, hence alpha: the table holds one value per ring
        geo = fig3_link()
        grid = cap_direction_grid(geo.axis, np.radians(60), 5, 64)
        table = translator_table(grid, K, geo.r_pq, 30, windowed=False)
        assert table.shape == grid.cosines.shape == (5,)

    def test_window_never_amplifies(self):
        geo = fig3_link()
        grid = cap_direction_grid(geo.axis, np.pi, 64, 64)
        L = truncation_order(K, 10.0)
        unw = translator_table(grid, K, geo.r_pq, L, windowed=False)
        win = translator_table(grid, K, geo.r_pq, L, windowed=True)
        assert np.max(np.abs(win)) <= np.max(np.abs(unw)) * (1 + 1e-12)

    def test_windowed_decays_below_unwindowed_envelope(self):
        # past the taper onset the windowed profile sits well under the
        # unwindowed sidelobe envelope (binned to step over oscillation nulls)
        L = truncation_order(K, 10.0)
        theta = np.radians(np.linspace(0, 180, 721))

        def profile(windowed):
            vals = np.abs(translator_series(L, K * 20.0, np.cos(theta), windowed))
            return vals / vals.max()

        unw = profile(False)
        win = profile(True)
        deg = np.degrees(theta)
        for lo in range(45, 180, 5):
            sel = (deg >= lo) & (deg < lo + 5)
            assert np.max(win[sel]) < np.max(unw[sel])


    @pytest.mark.parametrize("deg", [60, 180])
    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("preset", ["paper", "ci"])
    def test_ring_table_matches_per_direction_route(self, preset, windowed, deg):
        cfg = load_config(preset)
        geo, L, theta_e = cfg.link_geometry(), cfg.truncation(), np.radians(deg)
        grid = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(L, theta_e))
        oracle = per_direction_table(grid, geo.k, geo.r_pq, L, windowed)
        table = np.repeat(translator_table(grid, geo.k, geo.r_pq, L, windowed), grid.n_phi)
        assert np.max(np.abs(table - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_ring_table_on_a_tilted_link(self):
        # the cap is rotated onto the link axis, so a direction's cosine is its ring's up to roundoff
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 3.0), rect_aperture((3.0, -2.0, 12.0), 3.0, 3.0), K)
        grid = cap_direction_grid(geo.axis, np.radians(75), 14, 40)
        oracle = per_direction_table(grid, K, geo.r_pq, 40, True)
        table = np.repeat(translator_table(grid, K, geo.r_pq, 40, True), grid.n_phi)
        assert np.max(np.abs(table - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_cap_about_another_axis_rejected(self):
        geo = fig3_link()
        grid = cap_direction_grid((0.0, 0.1, 1.0), np.radians(60), 5, 16)
        with pytest.raises(ValueError, match=r"cap about \[0\. +0\.0995.*link axis \[0\. 0\. 1\.\]"):
            translator_table(grid, K, geo.r_pq, 10, windowed=False)

    @pytest.mark.parametrize("preset", ["paper", "ci"])
    def test_mirror_and_swap_checks_are_exact(self, preset):
        # w alpha is one value per ring, and each image of a direction lies on its ring
        cfg = load_config(preset)
        geo, L, theta_e = cfg.link_geometry(), cfg.truncation(), np.radians(cfg.theta_e_deg)
        grid = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(L, theta_e))
        w_alpha = grid.weights * np.repeat(translator_table(grid, geo.k, geo.r_pq, L, cfg.windowed), grid.n_phi)
        residuals = [np.max(np.abs(w_alpha[partner] - w_alpha)) for partner in image_maps(grid)]
        assert residuals == [0.0, 0.0, 0.0]
        assert _symmetries(geo, grid) == (True, True, True)


class TestPlanewaveReconstruction:
    def test_fig3_configuration_full_sphere(self):
        geo = fig3_link()
        L = truncation_order(K, 10.0)
        grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
        table = translator_table(grid, K, geo.r_pq, L, windowed=False)
        s, r = (-5, 1, 1), (-3.5, 5, 20)
        approx = sgf_planewave(r, s, geo, grid, table)
        exact = sgf_exact(r, s, K)
        assert abs(approx - exact) / abs(exact) < 1e-6

    def test_center_to_center(self):
        geo = fig3_link()
        L = truncation_order(K, 10.0)
        grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
        table = translator_table(grid, K, geo.r_pq, L, windowed=False)
        p, q = geo.receiver.center, geo.transmitter.center
        approx = sgf_planewave(p, q, geo, grid, table)
        exact = sgf_exact(p, q, K)
        assert abs(approx - exact) / abs(exact) < 1e-9

    def test_identity_battery_random_pairs(self):
        # 20 random source/field pairs inside the 10/8 aperture pair at 20
        # wavelengths; L follows the rule at the sum of half-diagonals so the
        # worst-case corner pairs stay inside the series bandwidth
        geo = LinkGeometry(
            rect_aperture((0, 0, 0), 10.0, 10.0),
            rect_aperture((0, 0, 20.0), 8.0, 8.0),
            K,
        )
        d_eff = geo.transmitter.half_diagonal + geo.receiver.half_diagonal
        L = truncation_order(K, d_eff)
        grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
        table = translator_table(grid, K, geo.r_pq, L, windowed=False)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            s = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0])
            r = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4), 20.0])
            approx = sgf_planewave(r, s, geo, grid, table)
            exact = sgf_exact(r, s, K)
            worst = max(worst, abs(approx - exact) / abs(exact))
        assert worst < 1e-6

    def test_mismatched_table_rejected(self):
        geo = fig3_link()
        grid = cap_direction_grid(geo.axis, np.pi, 8, 8)
        other = cap_direction_grid(geo.axis, np.pi, 6, 6)
        table = translator_table(other, K, geo.r_pq, 10, windowed=False)
        with pytest.raises(ValueError):
            sgf_planewave((0, 0, 20.0), (0, 0, 0), geo, grid, table)


class TestTranslatorWeights:
    @pytest.fixture
    def stacked(self):
        # the error sweep's two windows stacked: w alpha takes one table, the sweep weights its stack by broadcast
        geo = fig3_link()
        grid = cap_direction_grid(geo.axis, np.radians(60), 9, 12)
        tables = np.stack([translator_table(grid, K, geo.r_pq, 12, windowed) for windowed in (False, True)])
        return geo, grid, tables

    def test_one_table_gives_weight_times_alpha_per_ring(self, stacked):
        # one value per ring, and each direction's weight times alpha is its ring's value
        _, grid, tables = stacked
        for table in tables:
            w_alpha = _translator_weights(grid, table)
            assert w_alpha.shape == (grid.n_theta,)
            assert np.array_equal(w_alpha, grid.ring_weights * table)
            assert np.array_equal(np.repeat(w_alpha, grid.n_phi), grid.weights * np.repeat(table, grid.n_phi))

    def test_sgf_planewave_rejects_stacked_tables(self, stacked):
        geo, grid, tables = stacked
        with pytest.raises(ValueError, match="does not match the direction grid's rings"):
            sgf_planewave((0, 0, 20.0), (0, 0, 0), geo, grid, tables)

    def test_propagate_current_rejects_stacked_tables(self, stacked):
        geo, grid, tables = stacked
        src, rcv = SurfaceGrid(geo.transmitter, 4), SurfaceGrid(geo.receiver, 4)
        with pytest.raises(ValueError, match="does not match the direction grid's rings"):
            propagate_current(np.ones(len(src.points), dtype=complex), src, rcv, geo, grid, tables)

    @pytest.mark.parametrize("shape", [(8,), (10,), (2, 10), (9, 2), (), (2, 9)])
    def test_wrong_ring_count_rejected(self, shape):
        grid = cap_direction_grid((0.0, 0.0, 1.0), np.radians(60), 9, 12)
        with pytest.raises(ValueError, match="does not match the direction grid's rings"):
            _translator_weights(grid, np.ones(shape, dtype=complex))


@pytest.fixture(scope="module")
def sweeps():
    geo = fig3_link()
    s, r = (-5, 1, 1), (-3.5, 5, 20)
    angles = np.radians([10, 20, 30, 40, 50, 60, 70, 80, 90, 180])
    rows = expansion_error_sweep(geo, s, r, angles)
    return {False: [(t, unw) for t, unw, _ in rows], True: [(t, win) for t, _, win in rows]}


class TestErrorSweep:

    def test_monotone_within_jitter(self, sweeps):
        for windowed in (False, True):
            errors = [e for _, e in sweeps[windowed][:9]]
            for a, b in zip(errors, errors[1:]):
                assert b <= 1.1 * a

    def test_full_sphere_floors(self, sweeps):
        # unwindowed converges to the exact value; the window leaves a small
        # series bias even over the full sphere
        assert sweeps[False][-1][1] < 1e-9
        assert sweeps[True][-1][1] < 1e-4

    def test_sixty_degree_levels(self, sweeps):
        # windowed reconstruction is already sub-percent at 60 degrees; the
        # unwindowed cap keeps a few-percent tail (its sidelobes extend far)
        unw = dict((round(np.degrees(t)), e) for t, e in sweeps[False])
        win = dict((round(np.degrees(t)), e) for t, e in sweeps[True])
        assert win[60] < 1e-2
        assert unw[60] < 5e-2
        assert win[60] < unw[60]

    def test_small_cap_much_worse_than_wide(self, sweeps):
        win = dict((round(np.degrees(t)), e) for t, e in sweeps[True])
        assert win[10] > 100 * win[60]

    @pytest.mark.parametrize("preset", ["paper", "ci"])
    def test_matches_two_pass_route(self, preset):
        # one grid, Legendre table and phase per angle for both windows gives
        # the per-window route's errors to its roundoff floor, about 1e-14 |G|
        cfg = load_config(preset)
        args = (cfg.check_geometry(), cfg.check_src, cfg.check_field, np.radians(cfg.sweep_theta_deg))
        new, old = np.array(expansion_error_sweep(*args)), np.array(two_pass_error_sweep(*args))
        assert np.array_equal(new[:, 0], old[:, 0])
        assert np.max(np.abs(new[:, 1:] - old[:, 1:])) <= 1e-13

    def test_one_legendre_table_per_batch_of_rings(self, monkeypatch):
        cfg = load_config("paper")
        args = cfg.check_geometry(), cfg.check_src, cfg.check_field
        L = truncation_order(K, cfg.check_aperture)
        cosines = []

        def counted(l_max, x):
            cosines.append(np.size(x))
            return legendre_sequence(l_max, x)

        monkeypatch.setattr(greens, "legendre_sequence", counted)
        expansion_error_sweep(*args, np.radians(cfg.sweep_theta_deg))
        assert len(cosines) == 1  # the paper's nine caps, 401 rings
        cosines.clear()
        angles = np.radians(np.linspace(0.9, 180.0, 200))
        rows = expansion_error_sweep(*args, angles)
        monkeypatch.undo()
        assert len(cosines) > 1 and max(cosines) <= greens._SWEEP_COSINES
        assert sum(cosines) == sum(default_cap_densities(L, theta_e)[0] for theta_e in angles)
        for i in (0, 77, 199):  # an angle swept in a batch and alone
            alone = expansion_error_sweep(*args, angles[i:i + 1])[0]
            assert np.max(np.abs(np.subtract(rows[i][1:], alone[1:]))) <= 1e-13

    def test_no_angle_gives_no_row(self):
        geo = fig3_link()
        assert expansion_error_sweep(geo, (-5, 1, 1), (-3.5, 5, 20), []) == []

    def test_matches_two_pass_route_off_axis(self):
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 3.0), rect_aperture((3.0, -2.0, 12.0), 3.0, 3.0), K)
        args = (geo, (1.0, -0.5, 0.3), (2.0, -1.0, 12.0), np.radians([15, 40, 75, 120, 180]))
        new, old = np.array(expansion_error_sweep(*args)), np.array(two_pass_error_sweep(*args))
        assert np.max(np.abs(new[:, 1:] - old[:, 1:])) <= 1e-13
