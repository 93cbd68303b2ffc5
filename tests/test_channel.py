import numpy as np
import pytest

from emlink.channel import (
    FREE_SPACE_IMPEDANCE,
    kernel_matrix,
    propagate_current,
    reference_field,
)
from emlink.errors import BudgetError
from emlink.geometry import (
    LinkGeometry,
    cap_direction_grid,
    rect_aperture,
    tensor_grid,
    truncation_order,
)
from emlink.greens import sgf_exact, sgf_planewave, translator_table
from emlink.modes import basis_eval, basis_order_table

K = 2 * np.pi
OMEGA_MU = K * FREE_SPACE_IMPEDANCE


def h_point(r, s, geo, grid, table):
    """Pointwise kernel reference H(r, s) = -j omega mu G_planewave(r, s)."""
    return -1j * OMEGA_MU * sgf_planewave(r, s, geo, grid, table)


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
    def test_two_by_two_matches_pointwise(self, paper_setup):
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 4)
        rcv = tensor_grid(geo.receiver, 4)
        km = kernel_matrix(src, rcv, geo, grid, table)
        for i in range(len(rcv.points)):
            for j in range(len(src.points)):
                direct = h_point(rcv.points[i], src.points[j], geo, grid, table)
                assert km.entries[i, j] == pytest.approx(direct, rel=1e-12)

    def test_spot_checks_at_paper_scale(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        km = kernel_matrix(src, rcv, geo, grid, table)
        assert np.all(np.isfinite(km.entries))
        rng = np.random.default_rng(1)
        for _ in range(50):
            i = int(rng.integers(len(rcv.points)))
            j = int(rng.integers(len(src.points)))
            direct = h_point(rcv.points[i], src.points[j], geo, grid, table)
            assert abs(km.entries[i, j] - direct) / abs(direct) < 1e-12

    def test_role_swap_is_not_symmetric(self, paper_setup):
        # H(r, s) carries r through the receiver-side factor only; swapping
        # roles and conjugate-transposing is a different kernel
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 4)
        rcv = tensor_grid(geo.receiver, 4)
        km = kernel_matrix(src, rcv, geo, grid, table).entries
        swapped = np.empty_like(km)
        for i in range(len(rcv.points)):
            for j in range(len(src.points)):
                swapped[i, j] = h_point(src.points[j], rcv.points[i], geo, grid, table)
        assert np.max(np.abs(km - swapped.conj())) > 1e-3 * np.max(np.abs(km))

    def test_budget_guard(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        with pytest.raises(BudgetError):
            kernel_matrix(src, rcv, geo, grid, table, entry_budget=1000)


class TestPropagator:
    def test_zero_current(self, paper_setup):
        geo, grid, table, src, rcv = paper_setup
        field = propagate_current(np.zeros(len(src.points), dtype=complex), src, rcv, geo, grid, table)
        assert np.max(np.abs(field)) == 0.0

    def test_delta_current_matches_kernel_column(self, paper_setup):
        geo, grid, table, *_ = paper_setup
        src = tensor_grid(geo.transmitter, 16)
        rcv = tensor_grid(geo.receiver, 16)
        km = kernel_matrix(src, rcv, geo, grid, table)
        j = 5
        current = np.zeros(len(src.points), dtype=complex)
        current[j] = 1.0
        field = propagate_current(current, src, rcv, geo, grid, table)
        expected = km.entries[:, j] * src.weights[j]
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
        km = kernel_matrix(src, rcv, geo, grid, table)
        rng = np.random.default_rng(2)
        current = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        via_stages = propagate_current(current, src, rcv, geo, grid, table)
        via_matrix = km.entries @ (src.weights * current)
        rel = np.linalg.norm(via_stages - via_matrix) / np.linalg.norm(via_matrix)
        assert rel < 1e-10


def _dense_kernel(src, rcv, geo, grid, table):
    """H from one dense exponential per (surface point, direction) pair."""
    dirs = grid.directions
    A = np.exp(-1j * K * ((geo.transmitter.center - src.points) @ dirs.T))
    B = np.exp(-1j * K * ((rcv.points - geo.receiver.center) @ dirs.T))
    w_alpha = grid.weights * table.values
    return -K * OMEGA_MU / (16 * np.pi**2) * ((B * w_alpha) @ A.T)


class TestSeparableFactors:
    """Per-axis plane-wave factors reproduce the dense (points x directions) ones."""

    @pytest.mark.parametrize(
        "tx_center, rx_center",
        [
            ((0.0, 0.0, 0.0), (0.0, 0.0, 12.0)),
            ((1.5, -0.5, -2.0), (-2.0, 1.0, 9.0)),
            ((0.0, 0.0, 0.0), (3.0, -2.0, 12.0)),
        ],
        ids=["on-axis", "offset-centres", "tilted-axis"],
    )
    def test_matches_dense_exponentials(self, tx_center, rx_center):
        geo = LinkGeometry(rect_aperture(tx_center, 3.0, 5.0), rect_aperture(rx_center, 2.0, 4.0), K)
        L = truncation_order(K, geo.transmitter.half_diagonal + geo.receiver.half_diagonal)
        grid = cap_direction_grid(geo.axis, np.radians(60), 12, 24)
        table = translator_table(grid, K, geo.r_pq, L, windowed=True)
        src = tensor_grid(geo.transmitter, 25)
        rcv = tensor_grid(geo.receiver, 16)
        dense = _dense_kernel(src, rcv, geo, grid, table)
        entries = kernel_matrix(src, rcv, geo, grid, table).entries
        assert np.max(np.abs(entries - dense)) < 1e-13 * np.max(np.abs(dense))

        rng = np.random.default_rng(11)
        current = rng.normal(size=len(src.points)) + 1j * rng.normal(size=len(src.points))
        field = propagate_current(current, src, rcv, geo, grid, table)
        expected = entries @ (src.weights * current)
        assert np.linalg.norm(field - expected) < 1e-13 * np.linalg.norm(expected)


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
    E = basis_eval(src.aperture, table, src)
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
