import json

import numpy as np
import pytest

from emlink.channel import FREE_SPACE_IMPEDANCE, kernel_matrix
from emlink.geometry import LinkGeometry, cap_direction_grid, rect_aperture, tensor_grid
from emlink.greens import translator_table
from emlink.modes import (
    assemble_galerkin,
    basis_eval,
    basis_order_table,
    build_mode_set,
    combiner_field,
    gram_currents,
    gram_fields,
    hermitian_eig,
    load_mode_set,
    mode_current_field,
    mode_set_from_dict,
    mode_set_to_dict,
    received_field,
    save_mode_set,
)

K = 2 * np.pi


class TestBasisOrderTable:
    def test_first_ten_entries(self):
        table = basis_order_table(3)
        assert table.orders == (
            (0, 0),
            (0, 1), (1, 0),
            (0, 2), (1, 1), (2, 0),
            (0, 3), (1, 2), (2, 1), (3, 0),
        )

    def test_degenerate(self):
        assert basis_order_table(0).orders == ((0, 0),)

    def test_count_formula(self):
        assert len(basis_order_table(36)) == 703
        assert len(basis_order_table(14)) == 120


class TestBasisEval:
    def test_constant_entry(self):
        ap = rect_aperture((0, 0, 0), 2.0, 5.0)
        grid = tensor_grid(ap, 16)
        E = basis_eval(ap, basis_order_table(2), grid)
        assert E[:, 0] == pytest.approx(np.full(len(grid.points), 1 / np.sqrt(10.0)))

    def test_odd_entry_vanishes_at_center(self):
        ap = rect_aperture((0, 0, 0), 3.0, 3.0)
        # odd grid size puts a point exactly at the aperture center
        grid = tensor_grid(ap, 25)
        E = basis_eval(ap, basis_order_table(1), grid)
        center = np.argmin(np.linalg.norm(grid.points, axis=1))
        assert abs(E[center, 1]) < 1e-14  # (0,1) entry ~ P_1(y)
        assert abs(E[center, 2]) < 1e-14  # (1,0) entry ~ P_1(x)

    @pytest.mark.parametrize("t", [4, 10])
    def test_gram_is_identity(self, t):
        ap = rect_aperture((1.0, -0.5, 2.0), 4.0, 2.5)
        grid = tensor_grid(ap, (t + 1) ** 2)
        E = basis_eval(ap, basis_order_table(t), grid)
        gram = (E.T * grid.weights) @ E
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_grid_aperture_mismatch_rejected(self):
        ap = rect_aperture((0, 0, 0), 2.0, 2.0)
        other = rect_aperture((0, 0, 0), 3.0, 2.0)
        grid = tensor_grid(other, 9)
        with pytest.raises(ValueError):
            basis_eval(ap, basis_order_table(2), grid)


@pytest.fixture(scope="module")
def small_pipeline():
    """A deliberately small link for cheap kernel-level checks."""
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
    kernel = kernel_matrix(src, rcv, geo, grid, table)
    return geo, kernel, src, rcv


class TestAssembleGalerkin:
    def test_zero_kernel_gives_zero_matrix(self, small_pipeline):
        geo, kernel, src, rcv = small_pipeline
        E = basis_eval(geo.transmitter, basis_order_table(2), src)
        B = assemble_galerkin(np.zeros_like(kernel), E, src, rcv)
        assert np.max(np.abs(B)) == 0.0

    def test_scalar_case_is_uniform_current_power(self, small_pipeline):
        # with one constant unit-norm basis function, B reduces to the
        # received power of that current, computed here by direct quadrature
        geo, kernel, src, rcv = small_pipeline
        E = basis_eval(geo.transmitter, basis_order_table(0), src)
        B = assemble_galerkin(kernel, E, src, rcv)
        psi = kernel @ (src.weights * E[:, 0])
        oracle = np.sum(rcv.weights * np.abs(psi) ** 2)
        assert B[0, 0] == pytest.approx(oracle, rel=1e-12)
        assert abs(B[0, 0].imag) < 1e-12 * abs(B[0, 0])

    def test_hermitian_and_psd(self, small_pipeline):
        geo, kernel, src, rcv = small_pipeline
        E = basis_eval(geo.transmitter, basis_order_table(6), src)
        B = assemble_galerkin(kernel, E, src, rcv)
        assert np.max(np.abs(B - B.conj().T)) < 1e-10 * np.max(np.abs(B))
        eigvals = np.linalg.eigvalsh(0.5 * (B + B.conj().T))
        assert eigvals.min() >= -1e-8 * eigvals.max()


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = hermitian_eig(np.eye(4))
        assert vals == pytest.approx(np.ones(4))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-12

    def test_diagonal_ordering_and_gauge(self):
        vals, vecs = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert vals == pytest.approx([3.0, 2.0, 1.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
        assert np.max(np.abs(vecs - expected)) < 1e-12

    def test_gauge_makes_largest_entry_real_positive(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = A @ A.conj().T
        _, vecs = hermitian_eig(H)
        for i in range(6):
            pivot = np.argmax(np.abs(vecs[:, i]))
            assert vecs[pivot, i].imag == pytest.approx(0.0, abs=1e-14)
            assert vecs[pivot, i].real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_residual_bound(self, ci_run):
        result, _, _ = ci_run
        ms = result.modes
        E = basis_eval(ms.geometry.transmitter, ms.basis, ms.src_grid)
        B = assemble_galerkin(result.kernel, E, ms.src_grid, ms.rcv_grid)
        vals, vecs = hermitian_eig(B)
        resid = np.max(np.abs(B @ vecs - vecs * vals))
        assert resid <= 1e-8 * vals[0]


class TestModeSet:
    def test_scale_examples(self):
        src = tensor_grid(rect_aperture((0, 0, 0), 1, 1), 4)
        rcv = tensor_grid(rect_aperture((0, 0, 9), 1, 1), 4)
        geo = LinkGeometry(src.aperture, rcv.aperture, K)
        basis = basis_order_table(0)
        ms_unit = build_mode_set(np.array([1.0]), np.eye(1, dtype=complex), basis,
                                 geo, src, rcv, power_w=FREE_SPACE_IMPEDANCE)
        assert ms_unit.scale == pytest.approx(1.0)
        ms_watt = build_mode_set(np.array([1.0]), np.eye(1, dtype=complex), basis,
                                 geo, src, rcv, power_w=1.0)
        assert ms_watt.scale == pytest.approx(0.0515258, rel=1e-4)

    def test_negative_eigenvalues_clamped(self):
        src = tensor_grid(rect_aperture((0, 0, 0), 1, 1), 4)
        rcv = tensor_grid(rect_aperture((0, 0, 9), 1, 1), 4)
        geo = LinkGeometry(src.aperture, rcv.aperture, K)
        ms = build_mode_set(
            np.array([2.0, 1.0, -1e-12]), np.eye(3, dtype=complex),
            basis_order_table(1), geo, src, rcv,
        )
        assert ms.clamped_count == 1
        assert ms.eigenvalues[2] == 0.0
        assert ms.normalized[0] == 1.0

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
            psi = received_field(ms, n, result.kernel)
            power = np.sum(ms.rcv_grid.weights * np.abs(psi) ** 2)
            expected = ms.eigenvalues[n] * cfg.power_w / FREE_SPACE_IMPEDANCE
            assert power == pytest.approx(expected, rel=0.02)

    def test_combiner_normalization(self, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        for n in range(4):
            chi = combiner_field(ms, n, result.kernel)
            power = np.sum(ms.rcv_grid.weights * np.abs(chi) ** 2)
            assert power == pytest.approx(cfg.power_w / FREE_SPACE_IMPEDANCE, rel=0.02)

    def test_combiner_rejects_null_mode(self, small_pipeline):
        geo, kernel, src, rcv = small_pipeline
        ms = build_mode_set(
            np.array([1.0, 0.0, 0.0]), np.eye(3, dtype=complex),
            basis_order_table(1), geo, src, rcv,
        )
        with pytest.raises(ValueError):
            combiner_field(ms, 1, kernel)

    def test_kernel_shape_checked(self, ci_run, small_pipeline):
        # a kernel from another link does not fit the mode set's stored grids
        result, _, _ = ci_run
        ms = result.modes
        _, other, _, rcv = small_pipeline
        with pytest.raises(ValueError):
            received_field(ms, 0, other)
        with pytest.raises(ValueError):
            combiner_field(ms, 0, other)
        with pytest.raises(ValueError):
            gram_fields(ms, 2, other)
        E = basis_eval(ms.geometry.transmitter, basis_order_table(1), ms.src_grid)
        with pytest.raises(ValueError):
            assemble_galerkin(result.kernel, E, ms.src_grid, rcv)

    def test_mode_index_range(self, ci_run):
        result, _, _ = ci_run
        with pytest.raises(IndexError):
            mode_current_field(result.modes, len(result.modes))

    def test_uniform_current_bounded_by_top_mode(self, ci_run):
        # Rayleigh quotient of any trial current cannot beat beta_1
        result, _, _ = ci_run
        ms = result.modes
        E = basis_eval(ms.geometry.transmitter, basis_order_table(0), ms.src_grid)
        scalar = assemble_galerkin(result.kernel, E, ms.src_grid, ms.rcv_grid)[0, 0].real
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
        gram = gram_fields(ms, count, result.kernel)
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


class TestSerialization:
    def test_round_trip(self, tmp_path, ci_run):
        result, _, cfg = ci_run
        ms = result.modes
        path = tmp_path / "modeset.json"
        save_mode_set(ms, path, surface_points=cfg.surface_points)
        loaded = load_mode_set(path)
        assert loaded.eigenvalues == pytest.approx(ms.eigenvalues)
        assert np.max(np.abs(loaded.coefficients - ms.coefficients)) < 1e-15
        assert loaded.basis.max_total_order == ms.basis.max_total_order
        assert loaded.scale == pytest.approx(ms.scale)
        assert loaded.geometry.distance == pytest.approx(ms.geometry.distance)
        assert len(loaded.src_grid.points) == len(ms.src_grid.points)

    def test_document_is_deterministic(self, ci_run):
        result, _, cfg = ci_run
        doc1 = json.dumps(mode_set_to_dict(result.modes), sort_keys=True)
        doc2 = json.dumps(mode_set_to_dict(result.modes), sort_keys=True)
        assert doc1 == doc2

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            mode_set_from_dict({"format": "something-else"})

    def test_validates_against_schema(self, tmp_path, ci_run):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "docs" / "modeset.schema.json").read_text()
        )
        result, _, cfg = ci_run
        doc = mode_set_to_dict(result.modes, surface_points=cfg.surface_points)
        jsonschema.validate(doc, schema)

