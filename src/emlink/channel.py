"""Scalar channel kernel between apertures and the three-stage propagator.

The single-polarization kernel is

    H(r, s) = (-k omega mu / 16 pi^2) * sum_khat w * e^{-jk khat.r_qs}
              * alpha(khat) * e^{-jk khat.r_rp}
            = -j omega mu * G_planewave(r, s),

with omega*mu = k * eta for unit wavelength.  Kernel matrices and fields are
built through the aggregation/translation/disaggregation factorization, which
is algebraically identical to entrywise evaluation.

Both surface grids are tensor products on z-normal planes, so every
plane-wave factor splits exactly into an x part and a y part:
e^{-jk khat.(x_i, y_j, z)} = X[i] * Y[j].  The complex exponentials are the
per-axis factors alone, n1 * n_dir per axis, all from `_plane_waves`.
`propagate_current` applies them matrix-free; `kernel_matrix` forms the
(points x directions) factors as outer products of them for its one GEMM.
The weighted translator is built here too, for every caller,
greens.sgf_planewave included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError
from .geometry import DirectionGrid, LinkGeometry, SurfaceGrid

if TYPE_CHECKING:
    from .greens import TranslatorTable

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "KernelMatrix",
    "kernel_matrix",
    "propagate_current",
    "reference_field",
]

FREE_SPACE_IMPEDANCE = 376.730  # ohms

DEFAULT_ENTRY_BUDGET = 10**7


def _omega_mu(k: float) -> float:
    # with lambda = 1 units, omega*mu0 = k * eta
    return k * FREE_SPACE_IMPEDANCE


def _kernel_scale(k: float) -> float:
    return -k * _omega_mu(k) / (16.0 * np.pi**2)


def _plane_waves(offsets: np.ndarray, grid: DirectionGrid, k: float) -> np.ndarray:
    """Plane-wave factors e^{-jk khat.offset}, shape (n_offsets, n_dir)."""
    return np.exp(-1j * k * (offsets @ grid.directions.T))


def _axis_waves(
    surface: SurfaceGrid, origin: np.ndarray, sign: float, grid: DirectionGrid, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis factors of e^{-jk khat.(sign * (point - origin))} on a tensor grid.

    Returns X (n_x, n_dir) and Y (n_y, n_dir) with the factor at point
    (nodes_x[i], nodes_y[j]) equal to X[i] * Y[j]; X carries the constant z phase.
    """
    nx, ny = len(surface.nodes_x), len(surface.nodes_y)
    dz = surface.aperture.center[2] - origin[2]
    x_offsets = np.stack([surface.nodes_x - origin[0], np.zeros(nx), np.full(nx, dz)], axis=1)
    y_offsets = np.stack([np.zeros(ny), surface.nodes_y - origin[1], np.zeros(ny)], axis=1)
    return _plane_waves(sign * x_offsets, grid, k), _plane_waves(sign * y_offsets, grid, k)


def _outer_waves(x_waves: np.ndarray, y_waves: np.ndarray) -> np.ndarray:
    """(n_x * n_y, n_dir) factors from per-axis ones, in the grid's point order."""
    return (x_waves[:, None, :] * y_waves[None, :, :]).reshape(-1, x_waves.shape[1])


def _translator_weights(grid: DirectionGrid, table: TranslatorTable) -> np.ndarray:
    """Quadrature weight times translator value, one per direction sample."""
    if len(table.values) != len(grid.weights):
        raise ValueError("translator table does not match the direction grid")
    return grid.weights * table.values


@dataclass(frozen=True)
class KernelMatrix:
    """Dense H sampled on (receiver points) x (source points)."""

    entries: np.ndarray       # (n_rcv, n_src) complex
    src_grid: SurfaceGrid
    rcv_grid: SurfaceGrid
    direction_grid: DirectionGrid
    table: TranslatorTable

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _check_budget(*sizes: int, budget: int) -> None:
    worst = max(sizes)
    if worst > budget:
        raise BudgetError(
            f"assembly needs {worst} complex entries, above the budget {budget}; "
            "reduce grid sizes or raise entry_budget"
        )


def kernel_matrix(
    src: SurfaceGrid,
    rcv: SurfaceGrid,
    geometry: LinkGeometry,
    grid: DirectionGrid,
    table: TranslatorTable,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> KernelMatrix:
    """Assemble H over the two surface grids via the diagonal factorization."""
    w_alpha = _translator_weights(grid, table)
    n_dir = len(w_alpha)
    _check_budget(
        len(rcv.points) * len(src.points),
        n_dir * len(src.points),
        n_dir * len(rcv.points),
        budget=entry_budget,
    )
    k = geometry.k
    ax, ay = _axis_waves(src, geometry.transmitter.center, -1.0, grid, k)
    bx, by = _axis_waves(rcv, geometry.receiver.center, 1.0, grid, k)
    A = _outer_waves(ax, ay)
    B_w = _outer_waves(bx, by * w_alpha)
    entries = _kernel_scale(k) * (B_w @ A.T)
    return KernelMatrix(entries, src, rcv, grid, table)


def propagate_current(
    current: np.ndarray,
    src: SurfaceGrid,
    rcv: SurfaceGrid,
    geometry: LinkGeometry,
    grid: DirectionGrid,
    table: TranslatorTable,
) -> np.ndarray:
    """Radiate a sampled current through aggregate / translate / disaggregate.

    Returns the field at the receiver grid points; equals
    kernel_matrix @ (weights * current) up to roundoff.  Matrix-free: with
    J[i, j] the weighted current at (nodes_x[i], nodes_y[j]) and X, Y the
    source-side axis factors, the far field is sum_j Y[j] * (J^T X)[j]; with
    X', Y' the receiver-side ones, the field is (X' * w alpha * far) @ Y'^T.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    w_alpha = _translator_weights(grid, table)
    k = geometry.k
    ax, ay = _axis_waves(src, geometry.transmitter.center, -1.0, grid, k)
    bx, by = _axis_waves(rcv, geometry.receiver.center, 1.0, grid, k)
    weighted = (src.weights * current).reshape(len(ax), len(ay))
    far = np.einsum("jd,jd->d", ay, weighted.T @ ax)
    field = (bx * (w_alpha * far)) @ by.T
    return _kernel_scale(k) * field.ravel()


def reference_field(current: np.ndarray, src: SurfaceGrid, rcv: SurfaceGrid, k: float) -> np.ndarray:
    """Direct-quadrature radiation E(r) = -j omega mu * sum_s w g(r, s) J(s).

    Independent of the plane-wave machinery; the validation oracle for
    propagate_current.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    diff = rcv.points[:, None, :] - src.points[None, :, :]
    R = np.linalg.norm(diff, axis=2)
    g = np.exp(-1j * k * R) / (4.0 * np.pi * R)
    return -1j * _omega_mu(k) * (g @ (src.weights * current))
