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
e^{-jk khat.(x_i, y_j, z)} = X[i] * Y[j].  This module finds the lateral
mirrors and the x <-> y swap a link shares with its direction grid
(`_symmetries`) and their orbits (`_orbits`), which the mode solve in
`modes` reads too, and builds the fold of `propagate_current` (`_fold`),
with w alpha from `greens._translator_weights`: each end's per-axis factors
on one direction per orbit of the mirrors, combined by the even/odd
combinations of mirrored nodes (`_parity_combinations`).  Every surface
grid is symmetric about its aperture's center, so on every axis, mirrored by
the link or not, those combinations are cosines (even) and j times sines
(odd) of the nodes' half-distances: the folded factors are real rows
(`_row_phases`) from one cosine and one sine table per axis and no
exponential, the package's only plane-wave factors besides the pointwise
sums in `greens`.  The solve reads none: its patterns are closed forms of
its Legendre bases.

`propagate_current` applies the factors matrix-free: each parity class of
the current radiates only into the same class of the receiver and is summed
over one direction per orbit (a quarter of the cap on a coaxial link, 1 736
of 6 696 directions on the paper link); the maps keep each ring and move
its azimuths in closed form (`geometry._image_steps`), so the orbits are
found on one ring, and an orbit's w alpha is its ring's times its size.  The
direction grid keeps, read-only and while it lives, what a repeat call would
make again (`_kept`): the orbits (0.02 MB on the paper link), which a
mode solve on the grid leaves there too, and per k, side, mirrors and node
offsets the folded per-axis factors, n1 x n_orbits float64 per axis:
1.28 MB for both sides of the paper link (9.9 MB unfolded).  A repeat call
makes no plane-wave factor (no exponential, cosine or sine), only the
orbits' w alpha.  `_fold` checks that the grids lie on the link's apertures.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .geometry import DirectionGrid, LinkGeometry, SurfaceGrid, _image_steps
from .greens import _translator_weights

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "propagate_current",
]

FREE_SPACE_IMPEDANCE = 376.730  # ohms


def _kernel_scale(k: float) -> float:
    # -k omega mu / 16 pi^2, with omega mu = k * eta in lambda = 1 units
    return -k * (k * FREE_SPACE_IMPEDANCE) / (16.0 * np.pi**2)


def _check_apertures(src: SurfaceGrid, rcv: SurfaceGrid, geometry: LinkGeometry) -> None:
    """Each grid lies on its end's aperture of the link: same center and sides."""
    for grid, aperture, end in ((src, geometry.transmitter, "source"), (rcv, geometry.receiver, "receiver")):
        if grid.aperture != aperture:
            raise ValueError(f"the {end} grid is not on the link's {end} aperture")


def _kept(grid: DirectionGrid, key: tuple, make) -> tuple:
    """grid._waves[key], made by `make` on a miss: read-only, and valid as long as the grid, whose rule is fixed."""
    kept = grid._waves.get(key)
    if kept is None:
        kept = grid._waves[key] = make()
        for value in kept:
            value.flags.writeable = False
    return kept


def _symmetries(geometry: LinkGeometry, grid: DirectionGrid) -> tuple[bool, bool, bool]:
    """The flags (x, y, swap) of `_fold`, which the mode solve reads too."""
    link = [bool(geometry.r_pq[axis] == 0.0) for axis in (0, 1)]
    link.append(all(link) and all(end.side_x == end.side_y for end in (geometry.transmitter, geometry.receiver)))
    found = [ok and step is not None for step, ok in zip(_image_steps(grid), link)]
    found[2] = all(found)
    return tuple(found)


def _orbits(grid: DirectionGrid, found: tuple[bool, bool, bool]) -> tuple[np.ndarray, ...]:
    """The orbits of the symmetries `found`, found on one ring of n_phi azimuths and kept on the grid (see `_fold`).

    Returns the lowest direction of each orbit of the mirrors found,
    ring-major, and the sizes of a ring's orbits; then the positions among
    those of the lowest direction of each orbit of all the symmetries found,
    and the sizes of a ring's orbits of them, each image an `_image_steps` map;
    only the mode solve reads these two, for the swap.
    """

    def make():
        label = np.arange(grid.n_phi)
        images = [(step - np.arange(grid.n_phi)) % grid.n_phi for step, ok in zip(_image_steps(grid), found) if ok]
        for image in images[:2]:
            label = np.minimum(label, label[image])
        reps, sizes = np.unique(label, return_counts=True)
        if found[2]:
            label = np.minimum(label, label[images[2]])
        reps_all, sizes_all = np.unique(label, return_counts=True)
        rings = np.arange(grid.n_theta)[:, None]
        eighth = len(reps) * rings + np.searchsorted(reps, reps_all)
        return (grid.n_phi * rings + reps).ravel(), sizes, eighth.ravel(), sizes_all

    return _kept(grid, ("orbits", found), make)


def _pair_split(a: np.ndarray, pairs: np.ndarray, sign: int) -> np.ndarray:
    """The even (sign 1) or odd (sign -1) orthonormal combinations of the rows of `a` that the involution `pairs` pairs.

    For each row i <= pairs[i] in order, the even rows are
    (a_i + a_pairs[i]) / sqrt(2), or a_i alone where pairs[i] = i, and for
    each i < pairs[i] the odd rows are (a_i - a_pairs[i]) / sqrt(2).  Together
    they are an orthogonal change of a's rows, made by indexing a.  The
    mirror of an axis's nodes pairs them here, the swap x <-> y the orders
    in the mode solve.
    """
    i = np.arange(len(pairs))
    kept = np.flatnonzero(i <= pairs if sign > 0 else i < pairs)
    norm = np.where(pairs[kept] == kept, 2.0, np.sqrt(2.0))
    return (a[kept] + sign * a[pairs[kept]]) / norm[:, None]


@functools.lru_cache(maxsize=8)  # a call needs at most four: two axes on each side
def _parity_combinations(n: int) -> np.ndarray:
    """Orthogonal Q (n, n) over one axis's n nodes, kept per n, read-only.

    The even and then the odd combinations (`_pair_split`) of the nodes
    under the mirror i -> n-1-i: first the ceil(n/2) rows
    (b_i + b_{n-1-i}) / sqrt(2) and the middle node, then the rest,
    (b_i - b_{n-1-i}) / sqrt(2).
    """
    mirror = np.arange(n)[::-1]
    q = np.concatenate([_pair_split(np.eye(n), mirror, sign) for sign in (1, -1)])
    q.flags.writeable = False
    return q


@functools.lru_cache(maxsize=4)  # a call needs at most two: one per side
def _row_phases(n_x: int, n_y: int) -> np.ndarray:
    """j^(x row parity + y row parity), (n_x, n_y), read-only: an odd row's kept factors are 1/j times its factors."""
    phases = np.outer(*(np.where(np.arange(n) < n - n // 2, 1.0 + 0j, 1j) for n in (n_x, n_y)))
    phases.flags.writeable = False
    return phases


def _row_classes(n: int, mirrored: bool) -> tuple[slice, ...]:
    """The row classes of `_parity_combinations(n)`: the even and the odd rows on a mirrored axis, else all rows."""
    even = n - n // 2
    return (slice(0, even), slice(even, n)) if mirrored else (slice(0, n),)


def _folded_waves(
    surface: SurfaceGrid, sign: float, grid: DirectionGrid, k: float, mirrored: tuple[bool, bool], reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Qx X and Qy Y as real rows, with Q from `_parity_combinations` of each axis, on the directions `reps`.

    X (n_x, n_dir) and Y (n_y, n_dir) are the per-axis factors of
    e^{-jk khat.(sign * (point - c))} on a tensor grid, c its aperture's
    center: the factor at point (nodes_x[i], nodes_y[j]) is X[i] * Y[j].
    Each axis's nodes are a Gauss rule symmetric about c, so node n-1-i is
    node i mirrored about c, whether or not the link is: with h_i the
    half-distance between the two and theta_i = k sign h_i khat_a, even row i
    of Q X is sqrt(2) cos(theta_i), exactly real, and odd row i is
    j sqrt(2) sin(theta_i), kept as sqrt(2) sin(theta_i) (`_row_phases`); the
    middle node of an odd n is a row of ones.  So the float64 rows take one
    cosine and one sine table per axis over the floor(n/2) pairs, and no
    exponential.  Kept, read-only, on the grid by k, sign, mirrors and offsets.
    """
    cx, cy, _ = surface.aperture.center
    offsets = surface.nodes_x - cx, surface.nodes_y - cy
    key = ("waves", k, sign, mirrored, *(offset.tobytes() for offset in offsets))

    def axis_waves(offset: np.ndarray, kx: np.ndarray) -> np.ndarray:
        half = len(offset) // 2
        theta = k * sign * np.outer(0.5 * (offset[::-1][:half] - offset[:half]), kx)
        middle = np.ones((len(offset) - 2 * half, len(kx)))
        return np.concatenate([np.sqrt(2.0) * np.cos(theta), middle, np.sqrt(2.0) * np.sin(theta)])

    def make():
        directions = grid.directions[reps]
        return tuple(axis_waves(offset, directions[:, a]) for a, offset in enumerate(offsets))

    return _kept(grid, key, make)


def _fold(src: SurfaceGrid, rcv: SurfaceGrid, geometry: LinkGeometry, grid: DirectionGrid, table: np.ndarray) -> tuple:
    """The lateral symmetries a link shares with its direction grid, and both ends' factors folded by them.

    Axis a (0 for x, 1 for y) is mirrored when the link axis lies in the
    plane normal to it (r_pq[a] = 0) and the direction grid's rule is closed
    under k_a -> -k_a with each ring kept in place (`geometry._image_steps`);
    each surface grid is a Gauss rule on its aperture (`_check_apertures`),
    so its nodes are symmetric about the aperture's center.  The swap
    k_x <-> k_y is a symmetry when both axes are mirrored, both apertures are
    square and the rule is closed under it (n_phi a multiple of 4).  w alpha
    is one value per ring, so it is even under every such map, with no check,
    and an orbit's w alpha is its ring's times its size; the grid keeps the
    orbits and the factors, so a repeat makes only those products.

    Returns the three flags (x, y, swap); the source's and the receiver's
    `_folded_waves` on one direction per orbit of the mirrored axes (the
    lowest: phi in [0, pi/2] on a cap about z mirrored in both), and those
    orbits' w alpha.
    """
    _check_apertures(src, rcv, geometry)
    w_alpha = _translator_weights(grid, table)
    found = _symmetries(geometry, grid)
    reps, sizes, *_ = _orbits(grid, found)
    waves = [_folded_waves(end, sign, grid, geometry.k, found[:2], reps) for end, sign in ((src, -1), (rcv, 1))]
    return found, *waves, np.outer(w_alpha, sizes).ravel()


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

    Folded by the link's mirrors (`_fold`): J becomes Qx J Qy^T, with
    Q from `_parity_combinations` on each axis, and the factors Q X, Q Y,
    kept as real rows: J and the field take their row phases (`_row_phases`)
    once, so each class aggregates and disaggregates by real products.
    Source class (p, q) (`_row_classes`) radiates only into receiver class
    (p, q), and in a class the summand is even under the mirrors, so each
    class is summed over one direction per orbit with the orbit's
    w alpha; Q'^T maps the receiver classes back to the grid.  An axis without
    a mirror is one class of all its rows, and a link without mirrors the
    one class over every direction.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    found, (ax, ay), (bx, by), w_orbit = _fold(src, rcv, geometry, grid, table)
    qx, qy, qx_r, qy_r = (_parity_combinations(len(f)) for f in (ax, ay, bx, by))
    src_x, src_y, rcv_x, rcv_y = (_row_classes(len(f), m) for f, m in zip((ax, ay, bx, by), found[:2] * 2))
    weighted = qx @ (src.weights * current).reshape(len(ax), len(ay)) @ qy.T * _row_phases(len(ax), len(ay))
    field = np.zeros((len(bx), len(by)), dtype=complex)
    for (sx, rx), (sy, ry) in itertools.product(zip(src_x, rcv_x), zip(src_y, rcv_y)):
        re, im = (np.einsum("jd,jd->d", ay[sy], part[sx, sy].T @ ax[sx]) for part in (weighted.real, weighted.imag))
        far = w_orbit * (re + 1j * im)
        field.real[rx, ry] = bx[rx] @ (far.real * by[ry]).T
        field.imag[rx, ry] = bx[rx] @ (far.imag * by[ry]).T
    return _kernel_scale(geometry.k) * (qx_r.T @ (field * _row_phases(len(bx), len(by))) @ qy_r).ravel()
