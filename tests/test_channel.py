import gc
import re
import weakref

import numpy as np
import pytest
from reference_routes import basis_eval, dense_kernel, exponential_folded_waves, radiated_basis, reference_field

from emlink import channel
from emlink.channel import (
    FREE_SPACE_IMPEDANCE,
    _fold,
    _folded_waves,
    _orbit_sums,
    _orbits,
    _parity_combinations,
    propagate_current,
)
from emlink.errors import BudgetError
from emlink.geometry import (
    _LATERAL_IMAGES,
    DirectionGrid,
    LinkGeometry,
    SurfaceGrid,
    _mirror_partner,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
    truncation_order,
)
from emlink.greens import sgf_exact, sgf_planewave, translator_table
from emlink.modes import _BLOCK, _radiated_blocks, basis_order_table

K = 2 * np.pi
OMEGA_MU = K * FREE_SPACE_IMPEDANCE


def h_point(r, s, geo, grid, table):
    """Pointwise kernel reference H(r, s) = -j omega mu G_planewave(r, s)."""
    return -1j * OMEGA_MU * sgf_planewave(r, s, geo, grid, table)


def _kernel_columns(cols, src, rcv, geo, grid, table):
    """Columns `cols` of H, as the fields of unit point sources through propagate_current."""
    out = []
    for j in cols:
        current = np.zeros(len(src.points), dtype=complex)
        current[j] = 1.0 / src.weights[j]
        out.append(propagate_current(current, src, rcv, geo, grid, table))
    return np.stack(out, axis=1)


def paper_link(distance=25.5):
    return LinkGeometry(
        rect_aperture((0, 0, 0), 10.0, 10.0),
        rect_aperture((0, 0, distance), 8.0, 8.0),
        K,
    )


@pytest.fixture(scope="module")
def paper_setup():
    """Paper-preset kernel ingredients: windowed translator on a 60-degree cap."""
    geo = paper_link()
    L = 93
    grid = cap_direction_grid(geo.axis, np.radians(60), L + 1, 2 * L)
    table = translator_table(grid, K, geo.r_pq, L, windowed=True)
    src = tensor_grid(geo.transmitter, 512)
    rcv = tensor_grid(geo.receiver, 512)
    return geo, grid, table, src, rcv


@pytest.fixture(scope="module")
def full_sphere_setup():
    geo = paper_link()
    L = truncation_order(K, geo.transmitter.half_diagonal + geo.receiver.half_diagonal)
    grid = cap_direction_grid(geo.axis, np.pi, L + 1, 2 * L)
    table = translator_table(grid, K, geo.r_pq, L, windowed=False)
    src = tensor_grid(geo.transmitter, 512)
    rcv = tensor_grid(geo.receiver, 512)
    return geo, grid, table, src, rcv


class TestKernelPoint:
    def test_full_sphere_matches_exact_oracle(self, full_sphere_setup):
        geo, grid, table, *_ = full_sphere_setup
        s, r = (-5, 1, 1), (-3.5, 5, 25.5)
        h = h_point(r, s, geo, grid, table)
        oracle = -1j * OMEGA_MU * sgf_exact(r, s, K)
        assert abs(h - oracle) / abs(oracle) < 1e-6

    def test_paper_preset_near_oracle(self, paper_setup):
        # windowed 60-degree cap keeps the kernel within a percent of the
        # exact-propagator oracle at interior points
        geo, grid, table, *_ = paper_setup
        s, r = (-5, 1, 1), (-3.5, 5, 25.5)
        h = h_point(r, s, geo, grid, table)
        oracle = -1j * OMEGA_MU * sgf_exact(r, s, K)
        assert np.isfinite(h)
        assert abs(abs(h) - abs(oracle)) / abs(oracle) < 1e-2


class TestKernelMatrix:
    """H, column by column through propagate_current, against the pointwise kernel."""

    def test_two_by_two_matches_pointwise(self, paper_setup):
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 4)
        rcv = tensor_grid(geo.receiver, 4)
        km = _kernel_columns(range(len(src.points)), src, rcv, geo, grid, table)
        for i in range(len(rcv.points)):
            for j in range(len(src.points)):
                direct = h_point(rcv.points[i], src.points[j], geo, grid, table)
                assert km[i, j] == pytest.approx(direct, rel=1e-12)

    def test_spot_checks_at_paper_scale(self, paper_setup):
        # 10 random columns, 5 random rows in each
        geo, grid, table, src, rcv = paper_setup
        rng = np.random.default_rng(1)
        cols = rng.choice(len(src.points), 10, replace=False)
        km = _kernel_columns(cols, src, rcv, geo, grid, table)
        assert np.all(np.isfinite(km))
        for c, j in enumerate(cols):
            for i in rng.choice(len(rcv.points), 5, replace=False):
                direct = h_point(rcv.points[i], src.points[j], geo, grid, table)
                assert abs(km[i, c] - direct) / abs(direct) < 1e-12

    def test_role_swap_is_not_symmetric(self, paper_setup):
        # H(r, s) carries r through the receiver-side factor only; swapping
        # roles and conjugate-transposing is a different kernel
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 4)
        rcv = tensor_grid(geo.receiver, 4)
        km = _kernel_columns(range(len(src.points)), src, rcv, geo, grid, table)
        swapped = np.empty_like(km)
        for i in range(len(rcv.points)):
            for j in range(len(src.points)):
                swapped[i, j] = h_point(src.points[j], rcv.points[i], geo, grid, table)
        assert np.max(np.abs(km - swapped.conj())) > 1e-3 * np.max(np.abs(km))

    def test_budget_guard(self, paper_setup):
        # the one dense sweep, the radiated basis, is budgeted
        geo, grid, table, src, rcv = paper_setup
        with pytest.raises(BudgetError):
            _radiated_blocks(basis_order_table(2), src, rcv, geo, grid, table, entry_budget=1000)


class TestPropagator:
    def test_zero_current(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        field = propagate_current(np.zeros(len(src.points), dtype=complex), src, rcv, geo, grid, table)
        assert np.max(np.abs(field)) == 0.0

    def test_delta_current_matches_kernel_column(self, paper_setup):
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 16)
        rcv = tensor_grid(geo.receiver, 16)
        km = dense_kernel(src, rcv, geo, grid, table)
        j = 5
        current = np.zeros(len(src.points), dtype=complex)
        current[j] = 1.0
        field = propagate_current(current, src, rcv, geo, grid, table)
        expected = km[:, j] * src.weights[j]
        assert np.max(np.abs(field - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_linearity_and_scaling(self, paper_setup):
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 16)
        rcv = tensor_grid(geo.receiver, 16)
        rng = np.random.default_rng(9)
        j1 = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        j2 = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        f1 = propagate_current(j1, src, rcv, geo, grid, table)
        f2 = propagate_current(j2, src, rcv, geo, grid, table)
        combo = propagate_current(2.0 * j1 + 0.5j * j2, src, rcv, geo, grid, table)
        assert combo == pytest.approx(2.0 * f1 + 0.5j * f2, rel=1e-12)
        assert propagate_current(2.0 * j1, src, rcv, geo, grid, table) == pytest.approx(2.0 * f1, rel=1e-14)

    def test_matches_kernel_matrix_route(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        km = dense_kernel(src, rcv, geo, grid, table)
        rng = np.random.default_rng(2)
        current = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        via_stages = propagate_current(current, src, rcv, geo, grid, table)
        via_matrix = km @ (src.weights * current)
        rel = np.linalg.norm(via_stages - via_matrix) / np.linalg.norm(via_matrix)
        assert rel < 1e-10


class TestSeparableFactors:
    """The per-axis sweeps, radiated basis and propagator, reproduce dense (points x directions) factors."""

    @pytest.mark.parametrize(
        "tx_center, rx_center, n_theta, n_phi, mirrors",
        [
            ((0.0, 0.0, 0.0), (0.0, 0.0, 12.0), 12, 24, (True, True, False)),
            ((1.5, -0.5, -2.0), (-2.0, 1.0, 9.0), 12, 24, (False, False, False)),
            ((0.0, 0.0, 0.0), (3.0, -2.0, 12.0), 12, 24, (False, False, False)),
            ((1.5, -0.5, -2.0), (-2.0, 1.0, 9.0), 107, 24, (False, False, False)),
            ((0.0, 0.0, 0.0), (3.0, 0.0, 12.0), 12, 24, (False, True, False)),
            ((0.0, 0.0, 0.0), (0.0, 0.0, 12.0), 12, 25, (False, True, False)),
        ],
        ids=["on-axis", "offset-centres", "tilted-axis", "several-blocks", "x-offset", "odd-phi"],
    )
    def test_matches_dense_exponentials(self, tx_center, rx_center, n_theta, n_phi, mirrors):
        self._check_against_dense(tx_center, rx_center, (3.0, 5.0), (2.0, 4.0), n_theta, n_phi, mirrors)

    @pytest.mark.parametrize(
        "rx_center, n_phi, mirrors",
        [
            ((0.0, 0.0, 12.0), 24, (True, True, True)),
            ((0.0, 0.0, 12.0), 28, (True, True, True)),
            ((0.0, 0.0, 12.0), 26, (True, True, False)),
            ((0.4, 0.0, 12.0), 24, (False, True, False)),
        ],
        ids=["square", "square-phi-4-mod-8", "square-phi-2-mod-4", "square-x-offset"],
    )
    def test_square_link_matches_dense_exponentials(self, rx_center, n_phi, mirrors):
        # the swap-split classes, summed over an eighth of the directions
        self._check_against_dense((0.0, 0.0, 0.0), rx_center, (3.0, 3.0), (2.0, 2.0), 12, n_phi, mirrors)

    @staticmethod
    def _check_against_dense(tx_center, rx_center, tx_sides, rx_sides, n_theta, n_phi, mirrors):
        geo = LinkGeometry(rect_aperture(tx_center, *tx_sides), rect_aperture(rx_center, *rx_sides), K)
        L = truncation_order(K, geo.transmitter.half_diagonal + geo.receiver.half_diagonal)
        grid = cap_direction_grid(geo.axis, np.radians(60), n_theta, n_phi)
        if n_theta > 12:
            # more than two blocks of directions, the last one partial
            assert len(grid.weights) > 2 * _BLOCK and len(grid.weights) % _BLOCK
        table = translator_table(grid, K, geo.r_pq, L, windowed=True)
        src = tensor_grid(geo.transmitter, 25)
        rcv = tensor_grid(geo.receiver, 16)
        dense = dense_kernel(src, rcv, geo, grid, table)

        # the classes radiated_basis splits into, and the folded sweeps: one
        # direction per orbit of the lateral mirrors, and one per orbit of
        # the mirrors and the swap (phi in [0, pi/4]) among those
        found, src_waves, rcv_waves, w_alpha, (reps, orbit, eighth, orbit_all) = _fold(src, rcv, geo, grid, table)
        assert found == mirrors
        lateral = sum(mirrors[:2])
        assert len(reps) == n_theta * {0: n_phi, 1: n_phi // 2 + 1, 2: n_phi // 4 + 1}[lateral]
        assert {waves.shape for waves in src_waves + rcv_waves} == {(5, len(reps)), (4, len(reps))}
        assert len(eighth) == (n_theta * (n_phi // 8 + 1) if mirrors[2] else len(reps))
        every = grid.weights * np.repeat(table, n_phi)
        for orbits in (orbit, orbit_all):
            assert abs(np.sum(_orbit_sums(orbits, w_alpha)) - np.sum(every)) <= 1e-13 * np.sum(np.abs(every))

        basis = basis_order_table(3)
        radiated = dense @ (src.weights[:, None] * basis_eval(basis, src))
        got = radiated_basis(basis, src, rcv, geo, grid, table)
        assert np.max(np.abs(got - radiated)) < 1e-13 * np.max(np.abs(radiated))

        rng = np.random.default_rng(11)
        current = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        field = propagate_current(current, src, rcv, geo, grid, table)
        expected = dense @ (src.weights * current)
        assert np.linalg.norm(field - expected) < 1e-13 * np.linalg.norm(expected)


class TestApertures:
    """Each grid is phased about its own aperture, and must lie on the link's."""

    @pytest.mark.parametrize(
        "tx, rx",
        [(((0.5, 0, 0), 4.0, 4.0), ((0, 0, 10.2), 3.2, 3.2)), (((0, 0, 0), 4.0, 4.0), ((0, 0, 10.2), 3.2, 3.0))],
        ids=["source-center", "receiver-side"],
    )
    def test_grid_off_the_link_rejected(self, tx, rx):
        geo = _ci_link((0, 0, 10.2))
        src, rcv = tensor_grid(rect_aperture(*tx), 16), tensor_grid(rect_aperture(*rx), 16)
        grid = cap_direction_grid(geo.axis, np.radians(60), 12, 24)
        table = translator_table(grid, K, geo.r_pq, 34, windowed=True)
        with pytest.raises(ValueError, match="aperture"):
            propagate_current(np.ones(16), src, rcv, geo, grid, table)
        with pytest.raises(ValueError, match="aperture"):
            radiated_basis(basis_order_table(2), src, rcv, geo, grid, table)


def _rule_and_oversampled(geo, L, theta_e, windowed=True):
    """(grid, table) at default_cap_densities and at 1.4x its density on both axes."""
    densities = default_cap_densities(L, theta_e)
    out = []
    for n_theta, n_phi in (densities, [int(np.ceil(1.4 * n)) for n in densities]):
        grid = cap_direction_grid(geo.axis, theta_e, n_theta, n_phi)
        out.append((grid, translator_table(grid, K, geo.r_pq, L, windowed)))
    return out


def _ci_link(rx_center):
    return LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture(rx_center, 3.2, 3.2), K)


class TestDirectionBudget:
    """The band-limit densities agree with a 1.4x oversampled grid to 1e-12 of the largest entry."""

    @pytest.mark.parametrize(
        "rx_center, deg",
        [((0, 0, 10.2), 30), ((0, 0, 10.2), 60), ((0, 0, 10.2), 90), ((2.4, -1.6, 9.6), 60)],
        ids=["ci-30", "ci-60", "ci-90", "ci-off-axis-60"],
    )
    def test_ci_kernel(self, rx_center, deg):
        geo = _ci_link(rx_center)
        src = tensor_grid(geo.transmitter, 144)
        rcv = tensor_grid(geo.receiver, 144)
        rule, over = _rule_and_oversampled(geo, 34, np.radians(deg))
        H = dense_kernel(src, rcv, geo, *rule)
        ref = dense_kernel(src, rcv, geo, *over)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rx_center", [(0, 0, 25.5), (6, -4, 24)], ids=["paper", "paper-off-axis"])
    def test_paper_corner_source(self, rx_center):
        # a point source at the corner node: the kernel column that spans the
        # widest lateral separation, i.e. the highest phi bandwidth
        geo = LinkGeometry(rect_aperture((0, 0, 0), 10.0, 10.0), rect_aperture(rx_center, 8.0, 8.0), K)
        src = tensor_grid(geo.transmitter, 512)
        rcv = tensor_grid(geo.receiver, 512)
        current = np.zeros(len(src.points), dtype=complex)
        current[0] = 1.0 / src.weights[0]
        rule, over = _rule_and_oversampled(geo, 93, np.radians(60))
        field = propagate_current(current, src, rcv, geo, *rule)
        ref = propagate_current(current, src, rcv, geo, *over)
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("windowed", [False, True], ids=["unwindowed", "windowed"])
    def test_full_sphere_green_function(self, windowed):
        # the theta_e = pi grid of demo 02 and the sgf-error sweep, at their points
        geo = LinkGeometry(rect_aperture((0, 0, 0), 10.0, 10.0), rect_aperture((0, 0, 20.0), 10.0, 10.0), K)
        s, r = (-5.0, 1.0, 1.0), (-3.5, 5.0, 20.0)
        rule, over = _rule_and_oversampled(geo, truncation_order(K, 10.0), np.pi, windowed)
        g = sgf_planewave(r, s, geo, *rule)
        assert abs(g - sgf_planewave(r, s, geo, *over)) <= 1e-12 * abs(g)


class TestReferenceOracle:
    def test_single_source_point(self):
        geo = paper_link()
        src = tensor_grid(rect_aperture((0, 0, 0), 1e-3, 1e-3), 1)
        rcv = tensor_grid(geo.receiver, 1)
        current = np.array([2.0 + 1.0j])
        field = reference_field(current, src, rcv, K)
        expected = -1j * OMEGA_MU * sgf_exact(rcv.points[0], src.points[0], K) * src.weights[0] * current[0]
        assert field[0] == pytest.approx(expected, rel=1e-12)

    def test_superposition(self):
        geo = paper_link()
        src = tensor_grid(geo.transmitter, 25)
        rcv = tensor_grid(geo.receiver, 9)
        rng = np.random.default_rng(4)
        j1 = rng.normal(size=25) + 1j * rng.normal(size=25)
        j2 = rng.normal(size=25) + 1j * rng.normal(size=25)
        lhs = reference_field(3.0 * j1 - 1j * j2, src, rcv, K)
        rhs = 3.0 * reference_field(j1, src, rcv, K) - 1j * reference_field(j2, src, rcv, K)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _smooth_currents(src, count, seed, order=1):
    """Random low-order Legendre combinations sampled on the source grid."""
    table = basis_order_table(order)
    E = basis_eval(table, src)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(count, len(table))) + 1j * rng.normal(size=(count, len(table)))
    return coeffs @ E.T


class TestFmmVersusDirect:
    def test_uniform_current_cap(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        current = np.ones(len(src.points), dtype=complex)
        fmm = propagate_current(current, src, rcv, geo, grid, table)
        direct = reference_field(current, src, rcv, K)
        rel = np.linalg.norm(fmm - direct) / np.linalg.norm(direct)
        assert rel < 0.02

    def test_smooth_currents_cap(self, paper_setup):
        # the 2% cap-truncation bound holds for genuinely smooth currents
        # (total order <= 1); higher orders radiate beyond the 60-degree cap
        geo, grid, table, src, rcv = paper_setup
        for current in _smooth_currents(src, 10, seed=21, order=1):
            fmm = propagate_current(current, src, rcv, geo, grid, table)
            direct = reference_field(current, src, rcv, K)
            assert np.linalg.norm(fmm - direct) / np.linalg.norm(direct) < 0.02

    def test_rougher_currents_cap_envelope(self, paper_setup):
        # measured envelope for order <= 3 combinations; documents how the
        # truncation error grows with current order
        geo, grid, table, src, rcv = paper_setup
        for current in _smooth_currents(src, 10, seed=21, order=3):
            fmm = propagate_current(current, src, rcv, geo, grid, table)
            direct = reference_field(current, src, rcv, K)
            assert np.linalg.norm(fmm - direct) / np.linalg.norm(direct) < 0.03

    def test_smooth_currents_full_sphere(self, full_sphere_setup):
        geo, grid, table, src, rcv = full_sphere_setup
        for current in _smooth_currents(src, 10, seed=22, order=3):
            fmm = propagate_current(current, src, rcv, geo, grid, table)
            direct = reference_field(current, src, rcv, K)
            assert np.linalg.norm(fmm - direct) / np.linalg.norm(direct) < 1e-3


def _ci_parts(geo, n_points=144):
    """Direction grid, translator table and surface grids of a link at the `ci` scale (L = 34, 60-degree cap)."""
    theta_e = np.radians(60)
    grid = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(34, theta_e))
    table = translator_table(grid, geo.k, geo.r_pq, 34, windowed=True)
    return grid, table, tensor_grid(geo.transmitter, n_points), tensor_grid(geo.receiver, n_points)


def _random_current(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestAdjointness:
    """<Hx, y>_rcv = <x, H^H y>_src, with H^H y = conj(H_swap W_rcv conj(y)) by reciprocity."""

    @pytest.mark.parametrize(
        "rx_center, tol", [((0, 0, 10.2), 1e-13), ((1.3, -0.7, 10.2), 1e-11)], ids=["coaxial", "offset"]
    )
    def test_inner_products_agree(self, rx_center, tol):
        geo = _ci_link(rx_center)
        swapped = LinkGeometry(geo.receiver, geo.transmitter, K)
        grid, table, src, rcv = _ci_parts(geo)
        grid_s, table_s, *_ = _ci_parts(swapped)
        x = _random_current(len(src.points), 31)
        y = _random_current(len(rcv.points), 32)
        hx = propagate_current(x, src, rcv, geo, grid, table)
        # the swapped link radiates from the receiver grid, so its source weights are W_rcv
        adj_y = np.conj(propagate_current(np.conj(y), rcv, src, swapped, grid_s, table_s))
        lhs = np.sum(rcv.weights * hx * np.conj(y))
        rhs = np.sum(src.weights * x * np.conj(adj_y))
        assert abs(lhs - rhs) <= tol * abs(lhs)


def _kept_arrays(grid, kind=None):
    """Every array the grid's memo holds, or only those of one kind of entry ("waves", "orbits", ...)."""
    return [
        value
        for key, entry in grid._waves.items()
        if kind is None or key[0] == kind
        for value in entry
        if isinstance(value, np.ndarray)
    ]


def _unkept(grid, key, make):
    return make()


class TestFactorMemo:
    """The folded factors, images, node checks and orbits are made once per grid and key, and live with the grid."""

    def test_repeat_makes_no_exponentials(self, monkeypatch):
        # nor any other plane-wave factor: no exp, and no cos or sin table of a mirrored axis
        geo = _ci_link((0, 0, 10.2))
        _, table, src, rcv = _ci_parts(geo)
        current = _random_current(len(src.points), 41)
        # two equal grids built apart: each makes its own tables, a cos and a sin per axis and side, once
        for grid in (_ci_parts(geo)[0], _ci_parts(geo)[0]):
            _derive(grid, src, rcv)
            calls = dict.fromkeys(_FACTOR_CALLS, 0)
            with monkeypatch.context() as patch:
                for name in calls:
                    patch.setattr(np, name, _counting(name, calls))
                propagate_current(current, src, rcv, geo, grid, table)
                first = dict(calls)
                propagate_current(current, src, rcv, geo, grid, table)
            assert first == {"exp": 0, "cos": 4, "sin": 4}
            assert calls == first  # the repeat made none

    def test_repeat_is_bit_identical(self, monkeypatch):
        # equal apertures: both sides have the same node offsets and differ only in sign
        geo = LinkGeometry(rect_aperture((0, 0, 0), 4.0, 4.0), rect_aperture((0, 0, 10.2), 4.0, 4.0), K)
        grid, table, src, rcv = _ci_parts(geo)
        current = _random_current(len(src.points), 42)
        first = propagate_current(current, src, rcv, geo, grid, table)
        repeat = propagate_current(current, src, rcv, geo, grid, table)
        monkeypatch.setattr(channel, "_kept", _unkept)  # every memo entry made afresh
        unkept = propagate_current(current, src, rcv, geo, grid, table)
        assert np.array_equal(first, unkept)
        assert np.array_equal(repeat, unkept)

    def test_one_grid_serves_many_links(self):
        # receivers that differ from the first in x only, in y only, and a second wavenumber
        base = _ci_link((0, 0, 10.2))
        grid, _, src, _ = _ci_parts(base)
        links = [base, LinkGeometry(base.transmitter, rect_aperture((0, 0, 10.2), 2.4, 3.2), K),
                 LinkGeometry(base.transmitter, rect_aperture((0, 0, 10.2), 3.2, 2.4), K),
                 LinkGeometry(base.transmitter, base.receiver, 1.1 * K)]
        current = _random_current(len(src.points), 43)
        flags = []
        for _ in range(2):
            for geo in links:
                table = translator_table(grid, geo.k, geo.r_pq, 34, windowed=True)
                rcv = tensor_grid(geo.receiver, 144)
                flags.append(_fold(src, rcv, geo, grid, table)[0])
                fresh = _ci_parts(geo)[0]
                assert np.array_equal(
                    propagate_current(current, src, rcv, geo, grid, table),
                    propagate_current(current, src, rcv, geo, fresh, table),
                )
        kinds = [key[0] for key in grid._waves]
        assert kinds.count("waves") == 2 + len(links)  # a source entry per k, a receiver entry per link
        assert kinds.count("orbits") == 2  # the square links fold by the swap too, the oblong ones do not
        assert kinds.count("partners") == 1
        assert len(kinds) == 2 + len(links) + 3  # nothing else
        # the oblong receivers are not swapped
        assert flags == [(True, True, True), (True, True, False), (True, True, False), (True, True, True)] * 2

    def test_directions_and_factors_are_read_only(self):
        geo = _ci_link((0, 0, 10.2))
        grid, table, src, rcv = _ci_parts(geo)
        with pytest.raises(ValueError):
            grid.directions[0, 0] = 0.0
        for array in (grid.axis, grid.cosines, grid.ring_weights, grid.weights):
            with pytest.raises(ValueError):
                array.flat[0] = 0.0
        rebuilt = DirectionGrid(grid.axis, grid.theta_e, grid.n_theta, grid.n_phi)
        assert np.array_equal(rebuilt.directions, grid.directions)
        propagate_current(_random_current(len(src.points), 44), src, rcv, geo, grid, table)
        assert len(_kept_arrays(grid, "waves")) == 4  # x and y, on the source side and the receiver side
        for value in _kept_arrays(grid):
            with pytest.raises(ValueError):
                value.flat[0] = 0

    def test_factors_die_with_their_grid(self):
        geo = _ci_link((0, 0, 10.2))
        grid, table, src, rcv = _ci_parts(geo)
        propagate_current(_random_current(len(src.points), 45), src, rcv, geo, grid, table)
        kept = [weakref.ref(value) for value in _kept_arrays(grid)]
        assert len(kept) == 11  # 4 factors, 3 images and the orbits' 4 index arrays
        del grid
        gc.collect()
        assert all(ref() is None for ref in kept)


# (tx center, tx sides), (rx center, rx sides), L, points per aperture, n_phi (None: the default), mirrors found
FOLD_LINKS = {
    "ci": ((0, 0, 0), (4.0, 4.0), (0, 0, 10.2), (3.2, 3.2), 34, 144, None, (True, True, True)),
    "paper": ((0, 0, 0), (10.0, 10.0), (0, 0, 25.5), (8.0, 8.0), 93, 512, None, (True, True, True)),
    "tx-10x8": ((0, 0, 0), (10.0, 8.0), (0, 0, 25.5), (8.0, 8.0), 93, 144, None, (True, True, False)),
    "x-offset": ((0, 0, 0), (10.0, 10.0), (0.7, 0, 25.5), (8.0, 8.0), 93, 144, None, (False, True, False)),
    "offset": ((0, 0, 0), (10.0, 10.0), (0.7, -0.4, 25.5), (8.0, 8.0), 93, 144, None, (False, False, False)),
    "minus-z": ((0, 0, 0), (4.0, 4.0), (0, 0, -10.2), (3.2, 3.2), 34, 144, None, (True, True, True)),
    "y-offset": ((0, 0, 0), (10.0, 10.0), (0, 0.7, 25.5), (8.0, 8.0), 93, 144, None, (True, False, False)),
    "phi-2-mod-4": ((0, 0, 0), (4.0, 4.0), (0, 0, 10.2), (3.2, 3.2), 34, 144, 54, (True, True, False)),
    "off-origin": ((1.0, -2.0, 3.0), (4.0, 4.0), (1.0, -2.0, 13.2), (3.2, 3.2), 34, 9, None, (True, True, True)),
    # off the x mirror plane by less than the direction grid can see: only r_pq[0] != 0 refuses the x mirror
    "x-hair-offset": ((0, 0, 0), (4.0, 4.0), (1e-13, 0, 10.2), (3.2, 3.2), 34, 144, None, (False, True, False)),
}


def _fold_parts(name):
    tx, tx_sides, rx, rx_sides, L, n_points, n_phi, mirrors = FOLD_LINKS[name]
    geo = LinkGeometry(rect_aperture(tx, *tx_sides), rect_aperture(rx, *rx_sides), K)
    theta_e = np.radians(60)
    n_theta, n_phi_rule = default_cap_densities(L, theta_e)
    grid = cap_direction_grid(geo.axis, theta_e, n_theta, n_phi or n_phi_rule)
    table = translator_table(grid, K, geo.r_pq, L, windowed=True)
    src, rcv = tensor_grid(geo.transmitter, n_points), tensor_grid(geo.receiver, n_points)
    return geo, grid, table, src, rcv, mirrors, (n_theta, n_phi or n_phi_rule)


# the numpy functions that make plane-wave factors: exponentials, and a mirrored axis's cosine and sine tables
_FACTOR_CALLS = ("exp", "cos", "sin")


def _derive(grid, *surfaces):
    """Read the grids' derived arrays, which take cosines and sines, so a count sees only the plane-wave factors."""
    for obj, names in ((grid, ("directions", "weights")), *((surface, ("points", "weights")) for surface in surfaces)):
        for name in names:
            getattr(obj, name)


def _counting(name, calls):
    """np.<name>, counting its calls in calls[name]."""
    original = getattr(np, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


def _no_symmetries(*args):
    return False, False, False


class TestFoldedPropagator:
    """propagate_current summed over one direction per orbit of the link's mirrors, one parity class at a time."""

    @pytest.mark.parametrize("name", list(FOLD_LINKS))
    def test_matches_one_class_route_and_dense_kernel(self, name, monkeypatch):
        geo, grid, table, src, rcv, mirrors, (n_theta, n_phi) = _fold_parts(name)
        assert _fold(src, rcv, geo, grid, table)[0] == mirrors
        current = _random_current(len(src.points), 51)
        folded = propagate_current(current, src, rcv, geo, grid, table)
        # each factor holds one direction per orbit: a quarter of the cap under both mirrors, half under one
        lateral = sum(mirrors[:2])
        kept_directions = n_theta * {0: n_phi, 1: n_phi // 2 + 1, 2: n_phi // 4 + 1}[lateral]
        assert {value.shape[1] for value in _kept_arrays(grid, "waves")} == {kept_directions}

        monkeypatch.setattr(channel, "_symmetries", _no_symmetries)
        one_class = propagate_current(current, src, rcv, geo, grid, table)
        if not any(mirrors):
            assert np.array_equal(folded, one_class)
        assert np.linalg.norm(folded - one_class) <= 1e-13 * np.linalg.norm(one_class)

        expected = dense_kernel(src, rcv, geo, grid, table) @ (src.weights * current)
        assert np.linalg.norm(folded - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_repeat_makes_no_exponentials_or_sorts(self, monkeypatch):
        geo, grid, table, src, rcv, *_ = _fold_parts("ci")
        current = _random_current(len(src.points), 52)
        _derive(grid, src, rcv)
        calls = dict.fromkeys((*_FACTOR_CALLS, "argsort", "unique"), 0)
        for name in calls:
            monkeypatch.setattr(np, name, _counting(name, calls))
        first = propagate_current(current, src, rcv, geo, grid, table)
        made = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        repeat = propagate_current(current, src, rcv, geo, grid, table)
        monkeypatch.undo()
        # the first call pairs the images by azimuth (no sort), finds the orbits (unique) and makes the
        # factors: a cos and a sin table per mirrored axis and side, no exp
        assert made == {"exp": 0, "cos": 4, "sin": 4, "argsort": 0, "unique": 2}
        assert calls == dict.fromkeys(calls, 0)
        assert np.array_equal(first, repeat)

    def test_images_keep_each_ring(self):
        # a map that moves rings onto each other gets no partner: the x-mirror of a full sphere about x sends u to -u
        x, y, swap = _mirror_partner(cap_direction_grid((1, 0, 0), np.pi, 8, 16), _LATERAL_IMAGES)
        assert x is None and swap is None and y is not None
        for name in FOLD_LINKS:
            grid = _fold_parts(name)[1]
            ring = np.arange(len(grid.weights)) // grid.n_phi
            for partner in _mirror_partner(grid, _LATERAL_IMAGES):
                assert partner is None or np.array_equal(ring[partner], ring), name

    @pytest.mark.parametrize("name", ["ci", "x-offset"])
    def test_mode_solve_leaves_nothing_to_make(self, name, monkeypatch):
        # the solve and the propagator read one fold: after the radiated basis
        # on a fresh grid, propagating on that grid makes no plane-wave factor and no sort
        geo, grid, table, src, rcv, mirrors, _ = _fold_parts(name)
        current = _random_current(len(src.points), 53)
        _derive(grid, src, rcv)
        calls = dict.fromkeys((*_FACTOR_CALLS, "argsort", "unique"), 0)
        for counted in calls:
            monkeypatch.setattr(np, counted, _counting(counted, calls))
        _radiated_blocks(basis_order_table(4), src, rcv, geo, grid, table, entry_budget=10**7)
        # per side, on the folded directions: an exp per axis without a mirror, a cos and a sin per mirrored one
        mirrored = sum(mirrors[:2])
        assert {f: calls[f] for f in _FACTOR_CALLS} == {"exp": 2 * (2 - mirrored), "cos": 2 * mirrored,
                                                         "sin": 2 * mirrored}
        calls.update(dict.fromkeys(calls, 0))
        field = propagate_current(current, src, rcv, geo, grid, table)
        monkeypatch.undo()
        assert calls == dict.fromkeys(calls, 0)
        assert np.array_equal(field, propagate_current(current, src, rcv, geo, _fold_parts(name)[1], table))


class TestFoldedWaves:
    """The folded factors from cosine and sine tables are Q times the exponentials, real or imaginary by class."""

    @pytest.mark.parametrize("n", [6, 7, 1], ids=["even-n", "odd-n", "one-node"])
    @pytest.mark.parametrize("name", ["ci", "x-offset", "offset"])
    def test_match_exponentials(self, name, n):
        geo, grid, table, *_, mirrors, _ = _fold_parts(name)
        reps = _orbits(grid, mirrors)[0]
        for aperture, sign in ((geo.transmitter, -1), (geo.receiver, 1)):
            surface = SurfaceGrid(aperture, n)
            waves = _folded_waves(surface, sign, grid, K, mirrors[:2], reps)
            expected = exponential_folded_waves(surface, sign, grid, K, mirrors[:2], reps)
            for got, want, mirrored in zip(waves, expected, mirrors[:2]):
                assert got.dtype == complex and got.shape == want.shape == (n, len(reps))
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
                if mirrored:
                    (even, _), (odd, _) = _parity_combinations(n, True)[1]
                    assert np.all(got[even].imag == 0) and np.all(got[odd].real == 0)
                else:
                    assert np.array_equal(got, want)  # the same exponentials, with no Q = I product


class TestTranslatorShape:
    """A translator table must hold one value per ring, and is checked before it is multiplied."""

    @pytest.mark.parametrize("caller", ["propagate_current", "sgf_planewave", "_fold"])
    def test_column_table_rejected(self, caller):
        geo = _ci_link((0, 0, 10.2))
        grid, table, src, rcv = _ci_parts(geo)
        for bad in (table[:, None], np.repeat(table, grid.n_phi)):  # a column, and one value per direction
            call = {
                "propagate_current": lambda: propagate_current(np.ones(len(src.points)), src, rcv, geo, grid, bad),
                "sgf_planewave": lambda: sgf_planewave((0.5, 0.2, 10.2), (0.1, -0.3, 0.0), geo, grid, bad),
                "_fold": lambda: _fold(src, rcv, geo, grid, bad),
            }[caller]
            with pytest.raises(ValueError, match=re.escape(f"{bad.shape}") + ".*" + re.escape(f"{grid.cosines.shape}")):
                call()
