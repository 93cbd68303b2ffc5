"""Galerkin solution of the maximal-power-transfer eigenproblem.

The mode currents phi_n on the transmitter solve the Fredholm problem
beta phi = integral M(s, s') phi(s') ds' with M(s, s') = integral over the
receiver of H(r, s) conj(H(r, s')) dr.  Projecting onto an orthonormal 2-D
Legendre basis {e_i} reduces it to the Hermitian eigenproblem beta a = B a
with b_ij = <e_i, M e_j>.  B is assembled as the quadrature sandwich

    B = (H W_src E)^H W_rcv (H W_src E),

which is the same discretization as nested quadrature of b_ij but costs three
matrix products, and is Hermitian PSD by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import FREE_SPACE_IMPEDANCE, KernelMatrix, kernel_matrix
from .geometry import (
    Aperture,
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
)
from .greens import translator_table
from .specfun import legendre_sequence

__all__ = [
    "BasisIndexTable",
    "ModeSet",
    "basis_order_table",
    "basis_eval",
    "assemble_galerkin",
    "hermitian_eig",
    "build_mode_set",
    "solve_modes",
    "mode_current_field",
    "received_field",
    "combiner_field",
    "gram_currents",
    "gram_fields",
    "mode_set_to_dict",
    "mode_set_from_dict",
    "save_mode_set",
    "load_mode_set",
]

MODESET_FORMAT = "emlink.modeset/1"

# combiners are undefined for numerically null modes
_NULL_MODE_REL = 1e-12


@dataclass(frozen=True)
class BasisIndexTable:
    """Ordered (m, n) Legendre order pairs, grouped by total order m + n."""

    orders: tuple[tuple[int, int], ...]
    max_total_order: int

    def __len__(self) -> int:
        return len(self.orders)


def basis_order_table(t: int) -> BasisIndexTable:
    """(t+1)(t+2)/2 order pairs: total order j ascending, x-order m ascending."""
    if t < 0:
        raise ValueError("max total order must be non-negative")
    orders = tuple((m, j - m) for j in range(t + 1) for m in range(j + 1))
    return BasisIndexTable(orders, t)


def basis_eval(aperture: Aperture, table: BasisIndexTable, grid: SurfaceGrid) -> np.ndarray:
    """Sample the orthonormal 2-D Legendre basis on a surface grid.

    Column i holds sqrt((2m+1)(2n+1)/(Lx Ly)) P_m(2x/Lx) P_n(2y/Ly) for
    table entry i = (m, n), with (x, y) aperture-local coordinates.
    """
    if grid.aperture is not aperture and not (
        np.allclose(grid.aperture.center, aperture.center)
        and grid.aperture.side_x == aperture.side_x
        and grid.aperture.side_y == aperture.side_y
    ):
        raise ValueError("grid was not built on this aperture")
    t = table.max_total_order
    lx, ly = aperture.side_x, aperture.side_y
    xloc = 2.0 * (grid.points[:, 0] - aperture.center[0]) / lx
    yloc = 2.0 * (grid.points[:, 1] - aperture.center[1]) / ly
    px = legendre_sequence(t, np.clip(xloc, -1.0, 1.0))
    py = legendre_sequence(t, np.clip(yloc, -1.0, 1.0))
    out = np.empty((len(grid.points), len(table)))
    for i, (m, n) in enumerate(table.orders):
        out[:, i] = np.sqrt((2 * m + 1) * (2 * n + 1) / (lx * ly)) * px[m] * py[n]
    return out


def assemble_galerkin(kernel: KernelMatrix, basis_src: np.ndarray) -> np.ndarray:
    """Hermitian PSD B = (H W_src E)^H W_rcv (H W_src E) over the kernel's grids."""
    if basis_src.shape[0] != kernel.shape[1]:
        raise ValueError("basis samples do not match the kernel's source grid")
    w_src = kernel.src_grid.weights
    w_rcv = kernel.rcv_grid.weights
    radiated = kernel.entries @ (w_src[:, None] * basis_src)
    return radiated.conj().T @ (w_rcv[:, None] * radiated)


def hermitian_eig(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending real eigenvalues and gauge-fixed orthonormal eigenvectors.

    Raises if the input is not Hermitian to 1e-8 relative; each eigenvector is
    rotated so its largest-magnitude entry is real positive, which makes the
    decomposition reproducible run to run.
    """
    M = np.asarray(B)
    scale = np.max(np.abs(M))
    if scale == 0:
        n = M.shape[0]
        return np.zeros(n), np.eye(n, dtype=complex)
    if np.max(np.abs(M - M.conj().T)) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    vals = vals[::-1]
    vecs = np.ascontiguousarray(vecs[:, ::-1]).astype(complex)
    for i in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, i])))
        ref = vecs[pivot, i]
        if ref != 0:
            vecs[:, i] *= np.conj(ref) / abs(ref)
    top = max(vals[0], 0.0)
    if top > 0:
        resid = np.max(np.abs(M @ vecs - vecs * vals))
        if resid > 1e-8 * top:
            raise ValueError(f"eigen residual {resid:.3e} exceeds 1e-8 * beta_1")
    return vals, vecs


@dataclass(frozen=True)
class ModeSet:
    """Eigenvalues and basis coefficients of the transfer-maximizing currents.

    `coefficients[n]` expands mode current n in the Legendre basis; currents
    carry the physical normalization scale sqrt(P_t / eta) so that the
    radiated power of each mode current is P_t.
    """

    eigenvalues: np.ndarray        # (modes,) descending, clamped at 0
    coefficients: np.ndarray       # (modes, basis) complex, orthonormal rows
    scale: float                   # sqrt(P_t / eta)
    power_w: float
    impedance_ohm: float
    basis: BasisIndexTable
    geometry: LinkGeometry
    src_grid: SurfaceGrid
    rcv_grid: SurfaceGrid
    clamped_count: int = 0

    @property
    def normalized(self) -> np.ndarray:
        """Eigenvalues scaled so the strongest mode is 1."""
        top = self.eigenvalues[0]
        return self.eigenvalues / top if top > 0 else self.eigenvalues.copy()

    def __len__(self) -> int:
        return len(self.eigenvalues)


def build_mode_set(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    basis: BasisIndexTable,
    geometry: LinkGeometry,
    src_grid: SurfaceGrid,
    rcv_grid: SurfaceGrid,
    power_w: float = 1.0,
    impedance_ohm: float = FREE_SPACE_IMPEDANCE,
    keep: int | None = None,
) -> ModeSet:
    """Package an eigendecomposition, clamping negative roundoff eigenvalues."""
    vals = np.asarray(eigenvalues, dtype=float).copy()
    clamped = int(np.sum(vals < 0))
    vals[vals < 0] = 0.0
    coeff = eigenvectors.T.copy()
    if keep is not None and keep > 0:
        vals = vals[:keep]
        coeff = coeff[:keep]
    return ModeSet(
        eigenvalues=vals,
        coefficients=coeff,
        scale=float(np.sqrt(power_w / impedance_ohm)),
        power_w=float(power_w),
        impedance_ohm=float(impedance_ohm),
        basis=basis,
        geometry=geometry,
        src_grid=src_grid,
        rcv_grid=rcv_grid,
        clamped_count=clamped,
    )


@dataclass(frozen=True)
class ModesResult:
    """Everything the mode pipeline produced, kernel included."""

    modes: ModeSet
    kernel: KernelMatrix


def solve_modes(
    geometry: LinkGeometry,
    theta_e: float,
    L: int,
    t: int,
    n_surface: int,
    windowed: bool = True,
    n_theta: int | None = None,
    n_phi: int | None = None,
    power_w: float = 1.0,
    impedance_ohm: float = FREE_SPACE_IMPEDANCE,
    keep: int | None = None,
    entry_budget: int = 10**7,
) -> ModesResult:
    """End-to-end pipeline: grids, translator, kernel, Galerkin matrix, modes."""
    nt_def, np_def = default_cap_densities(L, theta_e)
    nt = n_theta if n_theta else nt_def
    nph = n_phi if n_phi else np_def
    dir_grid = cap_direction_grid(geometry.axis, theta_e, nt, nph)
    table = translator_table(dir_grid, geometry.k, geometry.r_pq, L, windowed)
    src = tensor_grid(geometry.transmitter, n_surface)
    rcv = tensor_grid(geometry.receiver, n_surface)
    kernel = kernel_matrix(src, rcv, geometry, dir_grid, table, entry_budget)
    basis = basis_order_table(t)
    E = basis_eval(geometry.transmitter, basis, src)
    galerkin = assemble_galerkin(kernel, E)
    vals, vecs = hermitian_eig(galerkin)
    modes = build_mode_set(
        vals, vecs, basis, geometry, src, rcv, power_w, impedance_ohm, keep
    )
    return ModesResult(modes, kernel)


def mode_current_field(modes: ModeSet, n: int, grid: SurfaceGrid | None = None) -> np.ndarray:
    """Mode current phi_n sampled on a transmitter grid (default: the stored one)."""
    if not 0 <= n < len(modes):
        raise IndexError("mode index out of range")
    grid = grid if grid is not None else modes.src_grid
    E = basis_eval(modes.geometry.transmitter, modes.basis, grid)
    return modes.scale * (E @ modes.coefficients[n])


def received_field(modes: ModeSet, n: int, kernel: KernelMatrix) -> np.ndarray:
    """Field psi_n radiated by mode current n onto the kernel's receiver grid."""
    phi = mode_current_field(modes, n, kernel.src_grid)
    return kernel.entries @ (kernel.src_grid.weights * phi)


def combiner_field(modes: ModeSet, n: int, kernel: KernelMatrix) -> np.ndarray:
    """Unit-power receive basis chi_n = psi_n / sqrt(beta_n)."""
    beta = modes.eigenvalues[n]
    if beta < _NULL_MODE_REL * modes.eigenvalues[0]:
        raise ValueError(f"mode {n} is numerically null; combiner undefined")
    return received_field(modes, n, kernel) / np.sqrt(beta)


def _exact_gram_grid(modes: ModeSet) -> SurfaceGrid:
    # products of two order-t polynomials need t+1 Gauss points per axis
    n1 = modes.basis.max_total_order + 1
    return tensor_grid(modes.geometry.transmitter, n1 * n1)


def gram_currents(modes: ModeSet, count: int) -> np.ndarray:
    """Gram matrix of the first `count` mode currents over the transmitter.

    Evaluated on an internal grid fine enough to integrate basis products
    exactly; for orthonormal coefficients this is (P_t/eta) * identity.
    """
    if count > len(modes):
        raise ValueError("count exceeds the number of stored modes")
    grid = _exact_gram_grid(modes)
    E = basis_eval(modes.geometry.transmitter, modes.basis, grid)
    phi = modes.scale * (E @ modes.coefficients[:count].T)
    return (phi.T * grid.weights) @ np.conj(phi)


def gram_fields(modes: ModeSet, count: int, kernel: KernelMatrix) -> np.ndarray:
    """Gram matrix of the first `count` received fields over the receiver.

    Diagonal tracks beta_n * (P_t/eta); off-diagonals measure biorthogonality
    leakage of the discretization.
    """
    if count > len(modes):
        raise ValueError("count exceeds the number of stored modes")
    E = basis_eval(modes.geometry.transmitter, modes.basis, kernel.src_grid)
    phi = modes.scale * (E @ modes.coefficients[:count].T)
    psi = kernel.entries @ (kernel.src_grid.weights[:, None] * phi)
    return (psi.T * kernel.rcv_grid.weights) @ np.conj(psi)


def mode_set_to_dict(modes: ModeSet, surface_points: int | None = None) -> dict:
    """JSON-ready document; see docs/modeset.schema.json for the contract."""
    coeff = modes.coefficients
    re_im = np.empty(coeff.size * 2)
    re_im[0::2] = coeff.real.ravel()
    re_im[1::2] = coeff.imag.ravel()
    geom = modes.geometry
    if surface_points is None:
        surface_points = len(modes.src_grid.points)
    return {
        "format": MODESET_FORMAT,
        "wavenumber": geom.k,
        "transmitter": {
            "center": geom.transmitter.center.tolist(),
            "side_x": geom.transmitter.side_x,
            "side_y": geom.transmitter.side_y,
        },
        "receiver": {
            "center": geom.receiver.center.tolist(),
            "side_x": geom.receiver.side_x,
            "side_y": geom.receiver.side_y,
        },
        "surface_points": int(surface_points),
        "basis_order": modes.basis.max_total_order,
        "power_w": modes.power_w,
        "impedance_ohm": modes.impedance_ohm,
        "normalization_scale": modes.scale,
        "clamped_count": modes.clamped_count,
        "eigenvalues": modes.eigenvalues.tolist(),
        "coefficients": {
            "modes": int(coeff.shape[0]),
            "basis": int(coeff.shape[1]),
            "re_im": re_im.tolist(),
        },
    }


def mode_set_from_dict(doc: dict) -> ModeSet:
    """Rebuild a ModeSet (grids included) from its JSON document."""
    if doc.get("format") != MODESET_FORMAT:
        raise ValueError(f"unsupported mode-set format {doc.get('format')!r}")
    tx = rect_aperture(doc["transmitter"]["center"], doc["transmitter"]["side_x"], doc["transmitter"]["side_y"])
    rx = rect_aperture(doc["receiver"]["center"], doc["receiver"]["side_x"], doc["receiver"]["side_y"])
    geometry = LinkGeometry(tx, rx, float(doc["wavenumber"]))
    n_pts = int(doc["surface_points"])
    src = tensor_grid(tx, n_pts)
    rcv = tensor_grid(rx, n_pts)
    basis = basis_order_table(int(doc["basis_order"]))
    shape = (doc["coefficients"]["modes"], doc["coefficients"]["basis"])
    flat = np.asarray(doc["coefficients"]["re_im"], dtype=float)
    if len(flat) != 2 * shape[0] * shape[1]:
        raise ValueError(f"re_im holds {len(flat)} values, not 2 * modes * basis")
    coeff = (flat[0::2] + 1j * flat[1::2]).reshape(shape)
    if shape[1] != len(basis):
        raise ValueError("coefficient width does not match the basis order")
    eigenvalues = np.asarray(doc["eigenvalues"], dtype=float)
    if len(eigenvalues) == 0:
        raise ValueError("a mode set needs at least one eigenvalue")
    if len(eigenvalues) != shape[0]:
        raise ValueError(f"{len(eigenvalues)} eigenvalues for {shape[0]} coefficient rows")
    if not np.all(np.isfinite(eigenvalues)):
        raise ValueError("eigenvalues must be finite")
    if np.any(eigenvalues < 0):
        raise ValueError("eigenvalues must be non-negative")
    if np.any(np.diff(eigenvalues) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    if eigenvalues[0] == 0:
        raise ValueError("eigenvalues are all zero")
    return ModeSet(
        eigenvalues=eigenvalues,
        coefficients=coeff,
        scale=float(doc["normalization_scale"]),
        power_w=float(doc["power_w"]),
        impedance_ohm=float(doc["impedance_ohm"]),
        basis=basis,
        geometry=geometry,
        src_grid=src,
        rcv_grid=rcv,
        clamped_count=int(doc.get("clamped_count", 0)),
    )


def save_mode_set(modes: ModeSet, path, surface_points: int | None = None) -> None:
    doc = mode_set_to_dict(modes, surface_points)
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_mode_set(path) -> ModeSet:
    return mode_set_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
