import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import (
    basis_eval,
    channel_matrix,
    mode_set_to_dict,
    quadrature_channel,
    quadrature_patterns,
    solved_channel,
    solved_direction_grid,
)

from emlink import channel, modes
from emlink.channel import FREE_SPACE_IMPEDANCE, _fold, propagate_current
from emlink.errors import BudgetError
from emlink.geometry import (
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
)
from emlink.greens import translator_table
from emlink.modes import (
    _PIVOT_TIE_REL,
    ModeSet,
    ModesResult,
    _axis_patterns,
    _gauge,
    _merge_spectra,
    _receiver_order,
    _sample_currents,
    basis_order_table,
    combiner_field,
    gram_currents,
    gram_fields,
    load_mode_set,
    mode_current_field,
    mode_set_from_dict,
    received_field,
    save_mode_set,
    solve_modes,
)

K = 2 * np.pi


class TestBasisOrderTable:
    def test_first_ten_entries(self):
        table = basis_order_table(3)
        assert np.array_equal(table, [
            (0, 0),
            (0, 1), (1, 0),
            (0, 2), (1, 1), (2, 0),
            (0, 3), (1, 2), (2, 1), (3, 0),
        ])

    def test_degenerate(self):
        assert np.array_equal(basis_order_table(0), [(0, 0)])

    def test_count_formula(self):
        assert len(basis_order_table(36)) == 703
        assert len(basis_order_table(14)) == 120


def _sampled_basis(table, grid):
    """The package's per-axis sampler on the identity rows: every basis function at every grid point."""
    return _sample_currents(table, np.eye(len(table)), grid)


class TestBasisEval:
    def test_constant_entry(self):
        ap = rect_aperture((0, 0, 0), 2.0, 5.0)
        grid = tensor_grid(ap, 16)
        E = _sampled_basis(basis_order_table(2), grid)
        assert E[:, 0] == pytest.approx(np.full(len(grid.points), 1 / np.sqrt(10.0)))

    def test_odd_entry_vanishes_at_center(self):
        ap = rect_aperture((0, 0, 0), 3.0, 3.0)
        # odd grid size puts a point exactly at the aperture center
        grid = tensor_grid(ap, 25)
        E = _sampled_basis(basis_order_table(1), grid)
        center = np.argmin(np.linalg.norm(grid.points, axis=1))
        assert abs(E[center, 1]) < 1e-14  # (0,1) entry ~ P_1(y)
        assert abs(E[center, 2]) < 1e-14  # (1,0) entry ~ P_1(x)

    @pytest.mark.parametrize("t", [4, 10])
    def test_gram_is_identity(self, t):
        ap = rect_aperture((1.0, -0.5, 2.0), 4.0, 2.5)
        grid = tensor_grid(ap, (t + 1) ** 2)
        E = _sampled_basis(basis_order_table(t), grid)
        gram = (E.T * grid.weights) @ E.conj()
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    @pytest.mark.parametrize("t, n_surface", [(5, 36), (9, 49)])
    def test_matches_dense_oracle(self, t, n_surface):
        # Px A Py^T against the dense legvander basis times the rows, on an
        # offset aperture whose sides differ, so swapping x and y moves it
        ap = rect_aperture((1.0, -0.5, 2.0), 4.0, 2.5)
        grid = tensor_grid(ap, n_surface)
        table = basis_order_table(t)
        rng = np.random.default_rng(t)
        rows = rng.normal(size=(3, len(table))) + 1j * rng.normal(size=(3, len(table)))
        expected = basis_eval(table, grid) @ rows.T
        got = _sample_currents(table, rows, grid)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_mode_currents_match_dense_oracle(self, ci_run):
        # mode_current_field on the transmitter grid and gram_currents on its
        # exact grid, against the dense basis times the coefficient rows
        ms = ci_run[0].modes
        E = basis_eval(ms.basis, ms.src_grid)
        for n in (0, 4):
            expected = ms.scale * (E @ ms.coefficients[n])
            got = mode_current_field(ms, n)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        grid = tensor_grid(ms.geometry.transmitter, (int(ms.basis.max()) + 1) ** 2)
        phi = ms.scale * (basis_eval(ms.basis, grid) @ ms.coefficients[:6].T)
        expected = (phi.T * grid.weights) @ np.conj(phi)
        assert np.max(np.abs(gram_currents(ms, 6) - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.fixture(scope="module")
def small_pipeline():
    """A deliberately small link for cheap channel-level checks."""
    geo = LinkGeometry(
        rect_aperture((0, 0, 0), 2.0, 2.0),
        rect_aperture((0, 0, 6.0), 1.6, 1.6),
        K,
    )
    L = 16
    grid = cap_direction_grid(geo.axis, np.radians(60), L + 1, 2 * L)
    table = translator_table(grid, K, geo.r_pq, L, windowed=True)
    src = tensor_grid(geo.transmitter, 64)
    rcv = tensor_grid(geo.receiver, 64)
    return geo, grid, table, src, rcv


def _pivots(rows):
    """Lowest index per row whose magnitude ties with the row's largest."""
    mag = np.abs(rows)
    return np.argmax(mag >= (1 - _PIVOT_TIE_REL) * mag.max(axis=1, keepdims=True), axis=1)


def _resolved(geo):
    """Gauss grids of 24 nodes per axis on the small pipeline's apertures, where its patterns are resolved."""
    return SurfaceGrid(geo.transmitter, 24), SurfaceGrid(geo.receiver, 24)


class TestRadiatedBasis:
    """The channel G between the two bases, from the solve's class blocks, against fields radiated on resolved grids."""

    def test_matches_kernel_route(self, small_pipeline):
        # column m of G is the receiver basis's projection of the field of basis current m,
        # radiated matrix-free onto a resolved receiver grid and projected by its quadrature
        geo, grid, table, *_ = small_pipeline
        src, rcv = _resolved(geo)
        basis, rcv_basis = basis_order_table(6), basis_order_table(_receiver_order(geo, grid))
        fields = np.stack([propagate_current(e, src, rcv, geo, grid, table) for e in basis_eval(basis, src).T], axis=1)
        expected = basis_eval(rcv_basis, rcv).T @ (rcv.weights[:, None] * fields)
        G = channel_matrix(basis, rcv_basis, geo, grid, table)
        assert G.shape == (len(rcv_basis), len(basis))
        assert np.max(np.abs(G - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_zero_translator_gives_zero_basis(self, small_pipeline):
        geo, grid, table, *_ = small_pipeline
        G = channel_matrix(basis_order_table(2), basis_order_table(14), geo, grid, np.zeros_like(table))
        assert np.max(np.abs(G)) == 0.0

    def test_scalar_case_is_uniform_current_power(self, small_pipeline):
        # with one constant unit-norm basis function, G^H G reduces to the received power of
        # that current, radiated here matrix-free onto a resolved grid: the receiver basis
        # holds all of it but a part far below the tolerance
        geo, grid, table, *_ = small_pipeline
        src, rcv = _resolved(geo)
        basis = basis_order_table(0)
        G = channel_matrix(basis, basis_order_table(_receiver_order(geo, grid)), geo, grid, table)
        psi = propagate_current(basis_eval(basis, src)[:, 0], src, rcv, geo, grid, table)
        oracle = np.sum(rcv.weights * np.abs(psi) ** 2)
        assert np.sum(np.abs(G[:, 0]) ** 2) == pytest.approx(oracle, rel=1e-12)


class TestClosedFormPatterns:
    """An axis's pattern of an orthonormal Legendre function is sqrt((2m+1) l) j^m j_m(a), a = k khat l / 2."""

    def test_match_a_gauss_sum(self):
        # the integral of sqrt((2m+1)/l) P_m(2x/l) e^{jk khat x} over the side, by a 60-node Gauss sum,
        # at a = 0, at a < 0 and at |a| up to 40; the y factor is the order-0 pattern at k_y = 0
        side, t = 10.0, 36
        khat = np.concatenate([[0.0, -0.0, 1e-15, -1e-12], np.linspace(-1.0, 1.0, 201)]) * 40.0 / (np.pi * side)
        assert np.max(np.abs(0.5 * K * side * khat)) == pytest.approx(40.0)
        closed = 1j ** np.arange(t + 1)[:, None] * _axis_patterns(t, side, K, khat) * np.sqrt(side)
        directions = np.stack([khat, np.zeros_like(khat)], axis=1)
        orders = np.stack([np.arange(t + 1), np.zeros(t + 1, dtype=int)], axis=1)
        gauss = quadrature_patterns(rect_aperture((0, 0, 0), side, side), orders, directions, K, -1, nodes=60)
        assert np.max(np.abs(closed - gauss)) <= 1e-13 * np.max(np.abs(gauss))


class TestSingularModes:
    def test_matches_galerkin_eigh(self, ci_run):
        # an eigh of the Galerkin matrix B = G^H G, with G by quadrature on resolved grids, formed here only
        result, _, cfg = ci_run
        ms = result.modes
        G = solved_channel(result, np.radians(cfg.theta_e_deg), cfg.truncation(), cfg.windowed)
        B = G.conj().T @ G
        vals = np.linalg.eigvalsh(B)[::-1]
        top = ms.eigenvalues[0]
        assert np.max(np.abs(vals - ms.eigenvalues)) <= 1e-13 * top
        a = ms.coefficients.T
        resid = np.max(np.abs(B @ a - a * ms.eigenvalues))
        assert resid <= 1e-8 * top

    def test_orthonormal_rows_descending(self, ci_run):
        ms = ci_run[0].modes
        a = ms.coefficients
        assert np.max(np.abs(a @ a.conj().T - np.eye(len(a)))) < 1e-12
        assert np.all(np.diff(ms.eigenvalues) <= 0)

    def test_no_eigenvalue_clamped(self, ci_run, paper_run):
        for result, _, _ in (ci_run, paper_run):
            assert result.modes.clamped_count == 0
            assert np.all(result.modes.eigenvalues >= 0)

    def test_gauge_pivot_real_positive(self, ci_run):
        # mirror orders (m, n) and (n, m) tie in magnitude on the square ci
        # link; the pivot is the lowest tied index, so the gauge is fixed
        rows = ci_run[0].modes.coefficients[:40]
        ref = rows[np.arange(len(rows)), _pivots(rows)]
        assert np.all(np.abs(ref.imag) <= 1e-14)
        assert np.all(ref.real > 0)

    @pytest.mark.parametrize("n_surface", [1, 4], ids=["one-node", "two-nodes"])
    def test_surface_points_set_only_the_output_grids(self, n_surface):
        # the receiver is a basis, not a grid: one or two nodes per axis leave every class its
        # rows, and the modes are those of 144 points, bit for bit
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2), K)
        result, usual = (solve_modes(geo, np.radians(60), 34, 3, points) for points in (n_surface, 144))
        ms = result.modes
        assert len(ms.rcv_grid.points) == n_surface and result.received.shape == (10, len(result.rcv_basis))
        assert np.array_equal(ms.eigenvalues, usual.modes.eigenvalues)
        assert np.array_equal(ms.coefficients, usual.modes.coefficients)
        assert np.array_equal(result.received, usual.received)
        assert np.count_nonzero(ms.eigenvalues) == 10
        assert np.max(np.abs(ms.coefficients @ ms.coefficients.conj().T - np.eye(10))) < 1e-12

    @pytest.mark.parametrize(
        "rx_center, n_surface, keep, mirrors",
        [
            ((0, 0, 10.2), 144, 40, (True, True, True)),
            ((0.9, 0, 10.2), 144, None, (False, True, False)),
            ((0.9, -0.6, 10.2), 144, 40, (False, False, False)),
            ((0, 0, 10.2), 1, None, (True, True, True)),
        ],
        ids=["four-classes", "x-offset", "no-mirror", "one-node"],
    )
    def test_fields_are_radiated_basis_times_rows(self, rx_center, n_surface, keep, mirrors):
        # the solve keeps its modes' received fields G a_n in the receiver basis, from its
        # class systems, not G: the swap-folded classes, two and one parity classes, and
        # one output node, against G by quadrature on resolved grids
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture(rx_center, 3.2, 3.2), K)
        result = solve_modes(geo, np.radians(60), 34, 14, n_surface, keep=keep)
        ms = result.modes
        grid = cap_direction_grid(geo.axis, np.radians(60), *default_cap_densities(34, np.radians(60)))
        table = translator_table(grid, K, geo.r_pq, 34, windowed=True)
        assert _fold(ms.src_grid, ms.rcv_grid, geo, grid, table)[0] == mirrors
        expected = ms.coefficients @ quadrature_channel(ms.basis, result.rcv_basis, geo, grid, table).T
        assert result.received.shape == (keep or 120, len(result.rcv_basis))
        assert np.max(np.abs(result.received - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_each_row_carries_its_own_beta(self, ci_run):
        # |G a_n|, with G by quadrature on resolved grids and so free of the solve's class
        # bookkeeping, is sqrt(beta_n) for every row down to the roundoff tail: ties are
        # relative, so no row sits beside another mode's beta
        result, _, cfg = ci_run
        ms = result.modes
        G = solved_channel(result, np.radians(cfg.theta_e_deg), cfg.truncation(), cfg.windowed)
        norms = np.linalg.norm(G @ ms.coefficients.T, axis=0)
        assert len(ms) == 120
        assert np.max(np.abs(norms - np.sqrt(ms.eigenvalues))) <= 1e-12 * np.sqrt(ms.eigenvalues[0])

    @pytest.mark.parametrize("roundoff", [1e-15, -1e-15])
    def test_beta_tie_goes_in_class_order(self, roundoff):
        # an exact pair split over the eo (1) and oe (2) classes comes out eo
        # first, whichever of its betas roundoff made the larger; the betas
        # stay sorted
        betas = np.array([1.0, 0.5 + roundoff, 0.5, 0.2])
        merged, order = _merge_spectra(betas, np.array([0, 2, 1, 0]))
        assert list(order) == [0, 2, 1, 3]
        assert np.all(np.diff(merged) <= 0)
        assert merged == pytest.approx(np.sort(betas)[::-1], abs=0)

    def test_ties_are_relative_to_the_pair(self):
        # betas far below 1e-12 beta_1 tie only with their own size: the tail is no one run,
        # so a row of a later class keeps its own beta instead of taking a larger one's place
        betas = np.array([1.0, 8e-13, 6e-38 * (1 + 1e-14), 6e-38, 1e-40])
        merged, order = _merge_spectra(betas, np.array([2, 1, 3, 0, 0]))
        assert list(order) == [0, 1, 3, 2, 4]  # only the pair at 6e-38 ties, and goes in class order
        assert np.array_equal(merged, betas)

    def test_gauge_tie_takes_lowest_index(self):
        # entries 0 and 2 tie up to roundoff; entry 2 is the larger by 1e-15
        row = np.array([[0.6j, 0.1, -0.6 * (1 + 1e-15), 0.3]])
        fixed = row * _gauge(row)[:, None]
        assert fixed[0, 0] == pytest.approx(0.6, abs=1e-16)
        assert np.abs(fixed[0]) == pytest.approx(np.abs(row[0]), abs=1e-16)


class TestSeriesGuards:
    """solve_modes refuses a translator order or a cap under which the plane-wave series cannot converge."""

    GEO = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2), K)

    def test_order_below_k_rho_max(self):
        # rho_max = 3.6 sqrt(2) = 5.09 wavelengths, k rho_max = 31.99
        with pytest.raises(ValueError, match=r"L = 31 is below ceil\(k rho_max\) = 32"):
            solve_modes(self.GEO, np.radians(60), 31, 2, 16)

    def test_cap_below_the_link_half_angle(self):
        with pytest.raises(ValueError, match=r"theta_e = 26 deg is below .* = 26.53 deg"):
            solve_modes(self.GEO, np.radians(26), 34, 2, 16)


class TestEntryBudget:
    """solve_modes checks the budget before it builds any grid or the order table."""

    # Never run these sizes without the monkeypatch: 10**9 points would build
    # two 31 623^2-point grids, and t = 10**5 a table of 5e9 orders.
    @pytest.mark.parametrize("n_surface, t", [(10**9, 14), (144, 10**5)], ids=["huge-grid", "huge-basis"])
    def test_rejected_before_anything_is_built(self, monkeypatch, n_surface, t):
        def built(*args, **kwargs):
            raise AssertionError("built before the budget check")

        for name in ("cap_direction_grid", "tensor_grid", "basis_order_table"):
            monkeypatch.setattr(modes, name, built)
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2), K)
        with pytest.raises(BudgetError):
            solve_modes(geo, np.radians(60), 34, t, n_surface)

    def test_square_link_memory_stays_near_the_counted_entries(self):
        # a square link with many output points and few orders: the solve builds no surface
        # grid, so 10 000 points per aperture add nothing to its peak, and its swap split
        # indexes the class blocks.  The ci link scaled by 1/4, so that L = 8 reaches
        # k rho_max = 8.0
        geo = LinkGeometry(rect_aperture((0, 0, 0), 1.0, 1.0), rect_aperture((0, 0, 2.55), 0.8, 0.8), K)
        solve_modes(geo, np.radians(60), 8, 2, 64)
        tracemalloc.start()
        try:
            solve_modes(geo, np.radians(60), 8, 2, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


def _swapped_columns(basis):
    """Column of basis entry (n, m) for each entry (m, n)."""
    m, n = basis.T
    index = np.full((m.max() + 1,) * 2, -1)
    index[m, n] = np.arange(len(basis))
    return index[n, m]


def _quadrature_betas(result, theta_e, L, windowed=True):
    """Squared singular values of `solved_channel`, descending, padded with zeros to the basis size."""
    sigma = np.linalg.svd(solved_channel(result, theta_e, L, windowed), compute_uv=False)
    return np.pad(sigma**2, (0, len(result.modes.basis) - len(sigma)))


def _solved_flags(ms, theta_e, L, windowed=True):
    grid, table = solved_direction_grid(ms.geometry, theta_e, L, windowed)
    return _fold(ms.src_grid, ms.rcv_grid, ms.geometry, grid, table)[0]


class TestSwapSymmetry:
    """A square coaxial link is also symmetric under x <-> y: the SVDs of ee and oo split in two, oe is eo's image."""

    @pytest.mark.parametrize("preset", ["ci", "paper"])
    def test_eighth_sum_swapped_is_the_quarter_sum(self, preset, ci_run, paper_run, monkeypatch):
        # ee and oo are summed over an eighth of the directions, and their swap-even and
        # swap-odd blocks taken from that sum; taken back to the classes' rows and columns,
        # they are the blocks a quarter sum without the swap gives
        result, _, cfg = {"ci": ci_run, "paper": paper_run}[preset]
        ms = result.modes
        grid, table = solved_direction_grid(ms.geometry, np.radians(cfg.theta_e_deg), cfg.truncation(), cfg.windowed)
        args = (ms.basis, result.rcv_basis, ms.geometry, grid, table)
        swapped = channel_matrix(*args)
        monkeypatch.setattr(modes, "_symmetries", lambda *_: channel._symmetries(*_)[:2] + (False,))
        expected = channel_matrix(*args)
        assert np.max(np.abs(swapped - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("preset", ["ci", "paper"])
    def test_oe_modes_are_eo_modes_swapped(self, preset, ci_run, paper_run):
        # the oe coefficient row of the k-th pair is the eo one with
        # (m, n) -> (n, m).  Above the roundoff tail, where a run of betas
        # tied to 1e-12 beta_1 holds just the pair, the oe mode comes right
        # after its eo mode with a bit-equal beta (in the tail the stored
        # betas are the sorted run, and the rows go in class order)
        ms = {"ci": ci_run, "paper": paper_run}[preset][0].modes
        m, n = ms.basis.T
        support = ms.coefficients != 0
        eo = np.flatnonzero(~np.any(support[:, (m % 2 == 1) | (n % 2 == 0)], axis=1))
        oe = np.flatnonzero(~np.any(support[:, (m % 2 == 0) | (n % 2 == 1)], axis=1))
        pairs = min(len(eo), len(oe))
        assert pairs >= 10
        eo, oe = eo[:pairs], oe[:pairs]
        assert np.array_equal(ms.coefficients[oe][:, _swapped_columns(ms.basis)], ms.coefficients[eo])
        strong = ms.eigenvalues[eo] > 1e-10 * ms.eigenvalues[0]
        assert np.count_nonzero(strong) >= 10
        assert np.array_equal(oe[strong], eo[strong] + 1)
        assert np.array_equal(ms.eigenvalues[oe[strong]], ms.eigenvalues[eo[strong]])

    def test_ee_and_oo_modes_are_swap_even_or_odd(self, ci_run):
        ms = ci_run[0].modes
        m, n = ms.basis.T
        swapped = _swapped_columns(ms.basis)
        same = (m % 2) == (n % 2)
        rows = np.flatnonzero(~np.any(ms.coefficients[:, ~same] != 0, axis=1))
        assert len(rows) > len(ms) // 3
        for row in ms.coefficients[rows]:
            assert np.array_equal(row[swapped], row) or np.array_equal(row[swapped], -row)

    def test_ci_betas_match_dense_route(self, ci_run):
        # against the squared singular values of G by quadrature on resolved grids, over every direction
        result, _, cfg = ci_run
        ms, theta_e = result.modes, np.radians(cfg.theta_e_deg)
        assert _solved_flags(ms, theta_e, cfg.truncation(), cfg.windowed) == (True, True, True)
        betas = _quadrature_betas(result, theta_e, cfg.truncation(), cfg.windowed)
        assert np.max(np.abs(betas[: len(ms)] - ms.eigenvalues)) <= 1e-13 * betas[0]

    @pytest.mark.parametrize(
        "tx_sides, rx_center, flags",
        [
            ((10.0, 8.0), (0, 0, 25.5), (True, True, False)),
            ((10.0, 10.0), (0.7, 0, 25.5), (False, True, False)),
            ((10.0, 10.0), (0.7, -0.4, 25.5), (False, False, False)),
        ],
        ids=["10x8-transmitter", "x-offset", "no-mirror"],
    )
    def test_links_without_the_swap_match_dense_route(self, tx_sides, rx_center, flags):
        # a rectangular transmitter, a receiver off the x mirror plane, or one
        # off both, on the paper direction grid (n_phi = 108, closed under the swap)
        geo = LinkGeometry(rect_aperture((0, 0, 0), *tx_sides), rect_aperture(rx_center, 8.0, 8.0), K)
        theta_e = np.radians(60)
        result = solve_modes(geo, theta_e, 93, 10, 64)
        ms = result.modes
        assert _solved_flags(ms, theta_e, 93) == flags
        betas = _quadrature_betas(result, theta_e, 93)
        assert np.max(np.abs(betas[: len(ms)] - ms.eigenvalues)) <= 1e-13 * betas[0]


def _ci_scale_betas(tx_center, rx_center):
    geo = LinkGeometry(rect_aperture(tx_center, 4.0, 4.0), rect_aperture(rx_center, 3.2, 3.2), K)
    return solve_modes(geo, np.radians(60), 34, 14, 144).modes.eigenvalues


class TestLinkSymmetry:
    """Mirror images, lateral translations and swapped ends of a ci-scale link keep its spectrum."""

    OFFSET = (0.9, -0.6, 10.2)

    @pytest.mark.parametrize("mirror", [(-1, 1, 1), (1, -1, 1)], ids=["x", "y"])
    def test_mirrored_receiver_offset(self, mirror):
        betas = _ci_scale_betas((0, 0, 0), self.OFFSET)
        image = _ci_scale_betas((0, 0, 0), np.multiply(self.OFFSET, mirror))
        assert np.max(np.abs(image - betas)) <= 1e-12 * betas[0]

    @pytest.mark.parametrize("rx_center", [(0, 0, 10.2), OFFSET], ids=["coaxial", "offset"])
    def test_lateral_translation(self, rx_center):
        shift = np.array([1.3, -0.7, 0.0])
        betas = _ci_scale_betas((0, 0, 0), rx_center)
        moved = _ci_scale_betas(shift, np.add(rx_center, shift))
        assert np.max(np.abs(moved - betas)) <= 1e-12 * betas[0]

    @pytest.mark.parametrize(
        "tx_center, rx_center", [((0, 0, 10.2), (0, 0, 0)), ((0, 0, 0), (0, 0, 10.2))],
        ids=["swapped", "swapped-mirror-image"],
    )
    def test_reciprocity(self, tx_center, rx_center):
        # the reverse link's channel is the transpose, with the same singular
        # values; t = 20 and 400 points put the discretization error below the
        # tolerance (at t = 14 and 144 points it is 2e-8 beta_1)
        def betas(tx, rx):
            return solve_modes(LinkGeometry(tx, rx, K), np.radians(60), 34, 20, 400).modes.eigenvalues[:20]

        forward = betas(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2))
        reverse = betas(rect_aperture(tx_center, 3.2, 3.2), rect_aperture(rx_center, 4.0, 4.0))
        assert np.max(np.abs(reverse - forward)) <= 1e-10 * forward[0]


class TestModeSet:
    def test_scale_examples(self):
        geo = LinkGeometry(rect_aperture((0, 0, 0), 1, 1), rect_aperture((0, 0, 9), 1, 1), K)
        basis = basis_order_table(0)
        ms_unit = ModeSet(np.array([1.0]), np.eye(1, dtype=complex), FREE_SPACE_IMPEDANCE,
                          FREE_SPACE_IMPEDANCE, basis, geo, 4)
        assert ms_unit.scale == pytest.approx(1.0)
        ms_watt = ModeSet(np.array([1.0]), np.eye(1, dtype=complex), 1.0,
                          FREE_SPACE_IMPEDANCE, basis, geo, 4)
        assert ms_watt.scale == pytest.approx(0.0515258, rel=1e-4)

    def test_solve_builds_each_grid_once(self, monkeypatch):
        # the solve builds no surface grid; the mode set builds each of its output grids once
        built = []

        def counted(aperture, n_total):
            built.append(n_total)
            return tensor_grid(aperture, n_total)

        monkeypatch.setattr(modes, "tensor_grid", counted)
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 3.2, 3.2), K)
        ms = solve_modes(geo, np.radians(60), 34, 3, 16).modes
        assert len(ms.src_grid.points) == len(ms.rcv_grid.points) == 16
        assert built == [16, 16]

    def test_mode_current_power(self, ci_run):
        # eta * integral |phi_n|^2 = P_t for every mode
        result, _, cfg = ci_run
        ms = result.modes
        gram = gram_currents(ms, 6)
        power = FREE_SPACE_IMPEDANCE * np.diag(gram).real
        assert power == pytest.approx(np.full(6, cfg.power_w), rel=1e-6)

    def test_received_power_tracks_eigenvalue(self, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        for n in range(4):
            psi = received_field(result, n)
            power = np.sum(ms.rcv_grid.weights * np.abs(psi) ** 2)
            expected = ms.eigenvalues[n] * cfg.power_w / FREE_SPACE_IMPEDANCE
            assert power == pytest.approx(expected, rel=0.02)

    def test_combiner_normalization(self, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        for n in range(4):
            chi = combiner_field(result, n)
            power = np.sum(ms.rcv_grid.weights * np.abs(chi) ** 2)
            assert power == pytest.approx(cfg.power_w / FREE_SPACE_IMPEDANCE, rel=0.02)

    def test_combiner_rejects_null_mode(self, small_pipeline):
        geo, grid, table, src, rcv = small_pipeline
        basis = basis_order_table(1)
        ms = ModeSet(
            np.array([1.0, 0.0, 0.0]), np.eye(3, dtype=complex), 1.0, FREE_SPACE_IMPEDANCE,
            basis, geo, len(src.points),
        )
        G = channel_matrix(basis, basis_order_table(_receiver_order(geo, grid)), geo, grid, table)
        result = ModesResult(ms, ms.coefficients @ G.T)
        assert combiner_field(result, 0).shape == (len(rcv.points),)
        with pytest.raises(ValueError):
            combiner_field(result, 1)

    def test_kernel_shape_checked(self, ci_run, small_pipeline):
        # received fields of another number of modes, a width that is no receiver basis's
        # (t_r + 1)(t_r + 2)/2, or one field alone do not fit the mode set
        result, _, _ = ci_run
        ms = result.modes
        for other in (result.received[:-1], result.received[:, :-1], result.received[0]):
            with pytest.raises(ValueError, match="do not match"):
                ModesResult(ms, other)
        assert ModesResult(ms, result.received[:, :231]).rcv_basis.max() == 20

    def test_mode_index_range(self, ci_run):
        result, _, _ = ci_run
        with pytest.raises(IndexError):
            mode_current_field(result.modes, len(result.modes))

    def test_combiner_index_range(self, ci_run):
        # the range is checked before beta_n is read: -1 would read the last mode, which is null on ci
        result, _, _ = ci_run
        for n in (-1, len(result.modes)):
            with pytest.raises(IndexError, match="mode index out of range"):
                combiner_field(result, n)

    def test_uniform_current_bounded_by_top_mode(self, ci_run):
        # Rayleigh quotient of any trial current cannot beat beta_1
        result, _, cfg = ci_run
        ms = result.modes
        # column 0 of G, by quadrature on resolved grids, is the field of the constant unit-norm basis current
        G = solved_channel(result, np.radians(cfg.theta_e_deg), cfg.truncation(), cfg.windowed)
        scalar = np.sum(np.abs(G[:, 0]) ** 2)
        assert scalar <= result.modes.eigenvalues[0] * (1 + 1e-12)


class TestGramMatrices:
    def test_current_gram_single(self, ci_run):
        result, _, cfg = ci_run
        gram = gram_currents(result.modes, 1)
        assert gram.shape == (1, 1)
        assert gram[0, 0].real == pytest.approx(cfg.power_w / FREE_SPACE_IMPEDANCE, rel=1e-10)

    def test_current_gram_orthogonality(self, ci_run):
        result, _, cfg = ci_run
        count = min(40, len(result.modes))
        gram = gram_currents(result.modes, count)
        diag = np.abs(np.diag(gram))
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert np.max(off) <= 1e-6 * np.max(diag)

    def test_field_gram_tracks_eigenvalues(self, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        count = min(40, len(ms))
        gram = gram_fields(result, count)
        scale = cfg.power_w / FREE_SPACE_IMPEDANCE
        diag = np.diag(gram).real
        expected = ms.eigenvalues[:count] * scale
        plateau = expected > 0.05 * expected[0]
        assert diag[plateau] == pytest.approx(expected[plateau], rel=0.05)
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert np.max(off) <= 0.03 * np.max(np.abs(diag))

    def test_count_bounds(self, ci_run):
        result, _, _ = ci_run
        with pytest.raises(ValueError):
            gram_currents(result.modes, len(result.modes) + 1)

    @pytest.mark.parametrize("gram", ["currents", "fields"])
    def test_count_outside_the_stored_modes_rejected(self, ci_run, gram):
        # a negative count would slice off the last modes and return a smaller Gram
        result, _, _ = ci_run
        n = len(result.modes)
        call = {"currents": lambda count: gram_currents(result.modes, count),
                "fields": lambda count: gram_fields(result, count)}[gram]
        for count in (-1, -2, -n, n + 1):
            with pytest.raises(ValueError, match=rf"count {count} is outside \[0, {n}\]"):
                call(count)
        assert call(0).shape == (0, 0)
        assert call(n).shape == (n, n)


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1]


def _with_repeats(values):
    """The values, then the negation of every second one and every third one again: repeated magnitudes."""
    return values + [-v for v in values[::2]] + values[::3]


class TestFormatted:
    """`_formatted(values, fmt)` is [fmt(v) for v in values.tolist()], with fmt called per distinct magnitude."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([v for v in _EDGE_FLOATS if np.isfinite(v)])), max_size=40))
    def test_repr_of_finite_floats(self, values):
        values = np.array(_with_repeats(values), dtype=float)
        assert modes._formatted(values, float.__repr__) == [repr(v) for v in values.tolist()]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), max_size=40))
    def test_exponent_format_of_any_float(self, values):
        values = np.array(_with_repeats(values), dtype=float)
        assert modes._formatted(values, "%.12e".__mod__) == ["%.12e" % v for v in values.tolist()]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([0, -1, -2**63, 2**63 - 1])),
                    max_size=40))
    def test_integers(self, values):
        # -(-2**63) is past int64, so that value is not negated
        values = np.array(_with_repeats([v for v in values if v > -2**63]) + values, dtype=np.int64)
        assert modes._formatted(values, "%d".__mod__) == ["%d" % v for v in values.tolist()]


class TestSerialization:
    def test_round_trip(self, tmp_path, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        path = tmp_path / "modeset.json"
        save_mode_set(ms, path)
        loaded = load_mode_set(path)
        assert loaded.surface_points == ms.surface_points == cfg.surface_points
        assert loaded.eigenvalues == pytest.approx(ms.eigenvalues)
        assert np.max(np.abs(loaded.coefficients - ms.coefficients)) < 1e-15
        assert np.array_equal(loaded.basis, ms.basis)
        assert loaded.scale == pytest.approx(ms.scale)
        assert loaded.geometry.distance == pytest.approx(ms.geometry.distance)
        assert len(loaded.src_grid.points) == len(ms.src_grid.points)

    def test_document_is_deterministic(self, tmp_path, ci_run):
        ms = ci_run[0].modes
        save_mode_set(ms, tmp_path / "a.json")
        save_mode_set(ms, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("link", ["ci", "square", "off-axis"])
    def test_writes_the_json_encoder_bytes(self, tmp_path, ci_run, link):
        # the encoder calls float.__repr__ per entry; the writer once per distinct magnitude
        if link == "ci":
            ms = ci_run[0].modes
        elif link == "square":  # the paper link scaled by 0.6: zeros outside each parity class, x <-> y twins
            geo = LinkGeometry(rect_aperture((0, 0, 0), 6.0, 6.0), rect_aperture((0, 0, 15.3), 4.8, 4.8), K)
            ms = solve_modes(geo, np.radians(60), 56, 14, 196).modes
        else:  # no mirror and no swap, so no zero coefficient and no twin
            geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 3.0), rect_aperture((0.7, -0.4, 10.2), 3.2, 2.6), K)
            ms = solve_modes(geo, np.radians(60), 34, 8, 64).modes
        # off the axis, a zero is rare: at most about one per row, its gauge pivot's imaginary part
        zeros = np.count_nonzero(ms.coefficients.real == 0) + np.count_nonzero(ms.coefficients.imag == 0)
        assert (zeros <= len(ms)) == (link == "off-axis")
        save_mode_set(ms, tmp_path / "modeset.json")
        expected = json.dumps(mode_set_to_dict(ms), sort_keys=True)
        assert (tmp_path / "modeset.json").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("where", ["eigenvalue", "coefficient"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_non_finite_and_writes_nothing(self, tmp_path, ci_run, where, value):
        # json.dumps would write NaN or Infinity, which no JSON reader need take
        ms = ci_run[0].modes
        if where == "eigenvalue":
            eigenvalues = ms.eigenvalues.copy()
            eigenvalues[5] = value
            ms = dataclasses.replace(ms, eigenvalues=eigenvalues)
        else:
            coefficients = ms.coefficients.copy()
            coefficients[3, 7] = complex(0.0, value)
            ms = dataclasses.replace(ms, coefficients=coefficients)
        path = tmp_path / "modeset.json"
        with pytest.raises(ValueError, match="non-finite"):
            save_mode_set(ms, path)
        assert not path.exists()

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            mode_set_from_dict({"format": "something-else"})

    @pytest.mark.parametrize("key", ["power_w", "impedance_ohm", "normalization_scale"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_physical_field(self, ci_run, key, value):
        doc = mode_set_to_dict(ci_run[0].modes)
        assert mode_set_from_dict(doc).power_w == doc["power_w"]
        doc[key] = value
        with pytest.raises(ValueError, match=key):
            mode_set_from_dict(doc)

    @pytest.mark.parametrize("fault", ["short", "nan"])
    def test_re_im_checked_before_the_table(self, monkeypatch, ci_run, fault):
        # the order table grows as t^2; a re_im that cannot fit is rejected first
        def built(*args, **kwargs):
            raise AssertionError("the order table was built")

        monkeypatch.setattr(modes, "basis_order_table", built)
        doc = mode_set_to_dict(ci_run[0].modes)
        if fault == "short":
            t = 2500
            doc["basis_order"], doc["coefficients"]["basis"] = t, (t + 1) * (t + 2) // 2
        else:
            doc["coefficients"]["re_im"][7] = float("nan")
        with pytest.raises(ValueError, match="re_im|finite"):
            mode_set_from_dict(doc)

    def test_validates_against_schema(self, tmp_path, ci_run):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "docs" / "modeset.schema.json").read_text()
        )
        result, _, cfg = ci_run
        doc = mode_set_to_dict(result.modes)
        jsonschema.validate(doc, schema)

