"""Scalar channel kernel between apertures and the three-stage propagator.

The single-polarization kernel is

    H(r, s) = (-k omega mu / 16 pi^2) * sum_khat w * e^{-jk khat.r_qs}
              * alpha(khat) * e^{-jk khat.r_rp}
            = -j omega mu * G_planewave(r, s),

with omega*mu = k * eta for unit wavelength.  Fields are radiated through
the aggregation/translation/disaggregation factorization, which is
algebraically identical to entrywise evaluation; H itself is never formed.

Both surface grids are tensor products on z-normal planes, so every
plane-wave factor splits exactly into an x part and a y part:
e^{-jk khat.(x_i, y_j, z)} = X[i] * Y[j].  The complex exponentials are the
per-axis factors alone, n1 * n_dir per axis, all from `_axis_waves`.
`propagate_current` applies them matrix-free; it makes them once per direction
grid and node offsets, not on every call, and the grid keeps them while it lives.
The one dense sweep, the radiated basis in `modes`, makes its own once per solve.
The weighted translator is built here too, for every caller,
greens.sgf_planewave included, and so are its folds by the lateral mirrors
and the x <-> y swap a link shares with its grid (`_mirror_fold`), which the
mode solve sums over.
Each grid is phased about its own aperture's center; `propagate_current`
and `_mirror_fold` check that the grids lie on the link's apertures.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    _LATERAL_IMAGES,
    DirectionGrid,
    LinkGeometry,
    SurfaceGrid,
    _mirror_partner,
    _mirrored_nodes,
    _swapped_nodes,
)

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "propagate_current",
]

FREE_SPACE_IMPEDANCE = 376.730  # ohms


def _omega_mu(k: float) -> float:
    # with lambda = 1 units, omega*mu0 = k * eta
    return k * FREE_SPACE_IMPEDANCE


def _kernel_scale(k: float) -> float:
    return -k * _omega_mu(k) / (16.0 * np.pi**2)


def _axis_waves(
    surface: SurfaceGrid, sign: float, directions: np.ndarray, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis factors of e^{-jk khat.(sign * (point - c))} on a tensor grid, c its aperture's center.

    Returns X (n_x, n_dir) and Y (n_y, n_dir) with the factor at point
    (nodes_x[i], nodes_y[j]) equal to X[i] * Y[j].
    """
    cx, cy, _ = surface.aperture.center
    x = np.exp(-1j * k * np.outer(sign * (surface.nodes_x - cx), directions[:, 0]))
    y = np.exp(-1j * k * np.outer(sign * (surface.nodes_y - cy), directions[:, 1]))
    return x, y


def _grid_waves(
    surface: SurfaceGrid, sign: float, grid: DirectionGrid, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """`_axis_waves` on the grid's directions: made once per k, sign and node offsets, kept read-only on the grid."""
    cx, cy, _ = surface.aperture.center
    key = (k, sign, (surface.nodes_x - cx).tobytes(), (surface.nodes_y - cy).tobytes())
    waves = grid._waves.get(key)
    if waves is None:
        waves = grid._waves[key] = _axis_waves(surface, sign, grid.directions, k)
        for factor in waves:
            factor.flags.writeable = False
    return waves


def _check_apertures(src: SurfaceGrid, rcv: SurfaceGrid, geometry: LinkGeometry) -> None:
    """Each grid lies on its end's aperture of the link: same center and sides."""
    for grid, aperture, end in ((src, geometry.transmitter, "source"), (rcv, geometry.receiver, "receiver")):
        own = grid.aperture
        sides = (own.side_x, own.side_y) == (aperture.side_x, aperture.side_y)
        if not (sides and np.array_equal(own.center, aperture.center)):
            raise ValueError(f"the {end} grid is not on the link's {end} aperture")


def _translator_weights(grid: DirectionGrid, table: np.ndarray) -> np.ndarray:
    """Quadrature weight times translator value, one per direction sample."""
    if len(table) != len(grid.weights):
        raise ValueError("translator table does not match the direction grid")
    return grid.weights * table


def _mirror_fold(
    src: SurfaceGrid, rcv: SurfaceGrid, geometry: LinkGeometry, grid: DirectionGrid, table: np.ndarray
) -> tuple[tuple[bool, bool, bool], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lateral symmetries a link shares with its direction grid, and the grid folded by them.

    Axis a (0 for x, 1 for y) is mirrored when the link axis lies in the
    plane normal to it (r_pq[a] = 0), both node grids are symmetric about
    their aperture centers, the direction grid maps onto itself under
    k_a -> -k_a, and w alpha agrees at each direction and its image to 1e-12
    of its largest value.  The swap k_x <-> k_y is a symmetry when both axes
    are mirrored, both grids are square (`_swapped_nodes`) and the direction
    grid and w alpha pass the same checks under it.

    Returns the three flags (x, y, swap); one direction per orbit of the
    mirrored axes (the lowest index: phi in [0, pi/2] on a cap about z
    mirrored in both) and the sum of w alpha over each orbit; and the
    positions among those directions of one per orbit of all the symmetries
    found (phi in [0, pi/4] with the swap, the same directions without it)
    with the sum of w alpha over each of those orbits.
    """
    _check_apertures(src, rcv, geometry)
    w_alpha = _translator_weights(grid, table)
    tol = 1e-12 * np.max(np.abs(w_alpha), initial=0.0)
    link = [
        geometry.r_pq[axis] == 0.0 and _mirrored_nodes(src, axis) and _mirrored_nodes(rcv, axis) for axis in (0, 1)
    ]
    link.append(all(link) and _swapped_nodes(src) and _swapped_nodes(rcv))
    partners = _mirror_partner(grid, _LATERAL_IMAGES) if any(link) else [None] * 3
    found = [
        ok and partner is not None and bool(np.max(np.abs(w_alpha[partner] - w_alpha), initial=0.0) <= tol)
        for partner, ok in zip(partners, link)
    ]
    found[2] = all(found)
    label = np.arange(len(w_alpha))
    for partner, ok in zip(partners[:2], found):
        if ok:
            label = np.minimum(label, label[partner])
    reps, orbit = np.unique(label, return_inverse=True)
    if found[2]:
        label = np.minimum(label, label[partners[2]])
    reps_all, orbit_all = np.unique(label, return_inverse=True)
    return (
        tuple(found),
        grid.directions[reps],
        _orbit_sums(orbit, w_alpha),
        np.searchsorted(reps, reps_all),
        _orbit_sums(orbit_all, w_alpha),
    )


def _orbit_sums(orbit: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.bincount(orbit, values.real) + 1j * np.bincount(orbit, values.imag)


def propagate_current(
    current: np.ndarray,
    src: SurfaceGrid,
    rcv: SurfaceGrid,
    geometry: LinkGeometry,
    grid: DirectionGrid,
    table: np.ndarray,
) -> np.ndarray:
    """Radiate a sampled current through aggregate / translate / disaggregate.

    Returns the field at the receiver grid points, H @ (weights * current)
    up to roundoff.  Matrix-free: with J[i, j] the weighted current at
    (nodes_x[i], nodes_y[j]) and X, Y the source-side axis factors, the far
    field is sum_j Y[j] * (J^T X)[j]; with X', Y' the receiver-side ones, the
    field is (X' * w alpha * far) @ Y'^T.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    _check_apertures(src, rcv, geometry)
    w_alpha = _translator_weights(grid, table)
    k = geometry.k
    ax, ay = _grid_waves(src, -1.0, grid, k)
    bx, by = _grid_waves(rcv, 1.0, grid, k)
    weighted = (src.weights * current).reshape(len(ax), len(ay))
    far = np.einsum("jd,jd->d", ay, weighted.T @ ax)
    field = (bx * (w_alpha * far)) @ by.T
    return _kernel_scale(k) * field.ravel()
