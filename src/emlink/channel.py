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
e^{-jk khat.(x_i, y_j, z)} = X[i] * Y[j].  The weighted translator is built
here, for every caller, greens.sgf_planewave included, from the table's one
value per ring of the direction grid; so is the one
fold of a link (`_fold`) that the mode solve in `modes` and
`propagate_current` both read: the lateral mirrors and the x <-> y swap the
link shares with its direction grid, their orbits, and each end's per-axis
factors on one direction per orbit of the mirrors, combined by the even/odd
combinations of mirrored nodes (`_parity_combinations`).  On a mirrored axis
those combinations are cosines (even) and j times sines (odd) of the nodes'
half-distances, so the folded factors come from one cosine and one sine
table per mirrored axis and from exponentials only on an axis without a
mirror; they are the package's only plane-wave factors besides the pointwise
sums in `greens`.

`propagate_current` applies the factors matrix-free: each parity class of
the current radiates only into the same class of the receiver and is summed
over one direction per orbit (a quarter of the cap on a coaxial link, 1 736
of 6 696 directions on the paper link).  The direction grid keeps, read-only
and while it lives, what a repeat call would make again (`_kept`): the
mirror images of its directions, the orbits, and per k, side, mirrors and
node offsets the folded per-axis factors, n1 x n_orbits complex per axis:
2.56 MB for both sides of the paper link (9.9 MB unfolded), and 0.29 MB for
its images and orbits.  A repeat call, or a call after a mode solve on the
same grids, makes no plane-wave factor (no exponential, cosine or sine), only
w alpha and the orbit sums.  Each surface grid is the Gauss rule of its
aperture, phased about the aperture's center, so its nodes are symmetric
about that center; `_fold` checks that the grids lie on the link's apertures,
and reads the mirrors from the link alone.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .geometry import _LATERAL_IMAGES, DirectionGrid, LinkGeometry, SurfaceGrid, _mirror_partner

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


def _translator_weights(grid: DirectionGrid, table: np.ndarray) -> np.ndarray:
    """Quadrature weight times translator value, one per direction sample, from the table's one value per ring."""
    table = np.asarray(table)
    if table.shape != grid.cosines.shape:
        raise ValueError(
            f"translator table of shape {table.shape} does not match the direction grid's rings {grid.cosines.shape}"
        )
    return grid.weights * np.repeat(table, grid.n_phi)


def _kept(grid: DirectionGrid, key: tuple, make) -> tuple:
    """grid._waves[key], made by `make` on a miss: read-only, and valid as long as the grid, whose rule is fixed."""
    kept = grid._waves.get(key)
    if kept is None:
        kept = grid._waves[key] = make()
        for value in kept:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return kept


def _partners(grid: DirectionGrid) -> tuple:
    """`_mirror_partner` of the grid under `_LATERAL_IMAGES`, kept on the grid."""
    return _kept(grid, ("partners",), lambda: tuple(_mirror_partner(grid, _LATERAL_IMAGES)))


def _symmetries(geometry: LinkGeometry, grid: DirectionGrid) -> tuple[bool, bool, bool]:
    """The flags (x, y, swap) of `_fold`."""
    link = [bool(geometry.r_pq[axis] == 0.0) for axis in (0, 1)]
    link.append(all(link) and all(end.side_x == end.side_y for end in (geometry.transmitter, geometry.receiver)))
    if not any(link):
        return False, False, False
    found = [ok and partner is not None for partner, ok in zip(_partners(grid), link)]
    found[2] = all(found)
    return tuple(found)


def _orbits(grid: DirectionGrid, found: tuple[bool, bool, bool]) -> tuple[np.ndarray, ...]:
    """The orbits of the symmetries `found` on the grid, kept on the grid (see `_fold`).

    Returns the lowest direction of each orbit of the mirrors found and each
    direction's orbit among them; then the positions among those of one
    direction per orbit of all the symmetries found, and each direction's
    orbit among these.
    """

    def make():
        partners = _partners(grid) if any(found) else (None,) * 3
        label = np.arange(len(grid.weights))
        for partner, ok in zip(partners[:2], found):
            if ok:
                label = np.minimum(label, label[partner])
        reps, orbit = np.unique(label, return_inverse=True)
        if found[2]:
            label = np.minimum(label, label[partners[2]])
        reps_all, orbit_all = np.unique(label, return_inverse=True)
        return reps, orbit, np.searchsorted(reps, reps_all), orbit_all

    return _kept(grid, ("orbits", found), make)


def _orbit_sums(orbit: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.bincount(orbit, values.real) + 1j * np.bincount(orbit, values.imag)


@functools.lru_cache(maxsize=16)  # a call needs at most four: two axes on each side
def _parity_combinations(n: int, mirrored: bool) -> tuple[np.ndarray, tuple[tuple[slice, int | None], ...]]:
    """Orthogonal Q (n, n) over one axis's nodes, and its row classes; kept per (n, mirrored), Q read-only.

    On a mirrored axis the first ceil(n/2) rows of Q are the even
    combinations (b_i + b_{n-1-i}) / sqrt(2) of mirrored nodes and the middle
    node, the rest the odd ones (b_i - b_{n-1-i}) / sqrt(2); each class pairs
    with the Legendre orders of its parity.  Otherwise Q = I and one class
    (parity None) takes every order.
    """
    if not mirrored:
        q, classes = np.eye(n), ((slice(0, n), None),)
    else:
        half, even = n // 2, n - n // 2
        i = np.arange(half)
        q = np.zeros((n, n))
        q[i, i] = q[i, n - 1 - i] = q[even + i, i] = np.sqrt(0.5)
        q[even + i, n - 1 - i] = -np.sqrt(0.5)
        if n % 2:
            q[half, half] = 1.0
        classes = ((slice(0, even), 0), (slice(even, n), 1))
    q.flags.writeable = False
    return q, classes


def _folded_waves(
    surface: SurfaceGrid, sign: float, grid: DirectionGrid, k: float, mirrored: tuple[bool, bool], reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Qx X and Qy Y, with Q from `_parity_combinations` of each axis, on the directions `reps`.

    X (n_x, n_dir) and Y (n_y, n_dir) are the per-axis factors of
    e^{-jk khat.(sign * (point - c))} on a tensor grid, c its aperture's
    center: the factor at point (nodes_x[i], nodes_y[j]) is X[i] * Y[j].
    On a mirrored axis node n-1-i is node i mirrored about c, so with h_i the
    half-distance between the two and theta_i = k sign h_i khat_a, even row i
    of Q X is sqrt(2) cos(theta_i), exactly real, and odd row i is
    j sqrt(2) sin(theta_i), exactly imaginary; the middle node of an odd n is
    a row of ones.  So the rows take one cosine and one sine table over the
    floor(n/2) pairs, and only an axis without a mirror takes exponentials.
    Kept, read-only, on the grid by k, sign, the mirrors and the node offsets.
    """
    cx, cy, _ = surface.aperture.center
    offsets = surface.nodes_x - cx, surface.nodes_y - cy
    key = ("waves", k, sign, mirrored, *(offset.tobytes() for offset in offsets))

    def axis_waves(offset: np.ndarray, kx: np.ndarray, mirror: bool) -> np.ndarray:
        if not mirror:
            return np.exp(-1j * k * np.outer(sign * offset, kx))
        n, half = len(offset), len(offset) // 2
        theta = k * sign * np.outer(0.5 * (offset[::-1][:half] - offset[:half]), kx)
        waves = np.zeros((n, len(kx)), dtype=complex)
        waves.real[:half] = np.sqrt(2.0) * np.cos(theta)
        waves.real[half:n - half] = 1.0
        waves.imag[n - half:] = np.sqrt(2.0) * np.sin(theta)
        return waves

    def make():
        directions = grid.directions[reps]
        return tuple(axis_waves(offset, directions[:, a], m) for a, (offset, m) in enumerate(zip(offsets, mirrored)))

    return _kept(grid, key, make)


def _fold(
    src: SurfaceGrid, rcv: SurfaceGrid, geometry: LinkGeometry, grid: DirectionGrid, table: np.ndarray
) -> tuple[tuple[bool, bool, bool], tuple, tuple, np.ndarray, tuple[np.ndarray, ...]]:
    """The lateral symmetries a link shares with its direction grid, and both ends' factors folded by them.

    Axis a (0 for x, 1 for y) is mirrored when the link axis lies in the
    plane normal to it (r_pq[a] = 0) and the direction grid maps each of its
    rings onto itself under k_a -> -k_a (`geometry._mirror_partner`); each
    surface grid is a Gauss rule on its aperture (`_check_apertures`), so its
    nodes are symmetric about the aperture's center.  The swap k_x <-> k_y is
    a symmetry when both axes are mirrored, both apertures are square and the
    direction grid passes the same check under it.  w alpha is one value per
    ring, so it is even under every such map, with no check.  The grid keeps
    its images, the orbits and the factors, so a repeat makes only w alpha.

    Returns the three flags (x, y, swap); the source's and the receiver's
    `_folded_waves` on one direction per orbit of the mirrored axes (the
    lowest index: phi in [0, pi/2] on a cap about z mirrored in both); w alpha
    on every direction; and `_orbits`, whose sums of w alpha (`_orbit_sums`)
    weight those directions, or, with the swap, their subset phi in [0, pi/4].
    """
    _check_apertures(src, rcv, geometry)
    w_alpha = _translator_weights(grid, table)
    found = _symmetries(geometry, grid)
    orbits = _orbits(grid, found)
    waves = [_folded_waves(end, sign, grid, geometry.k, found[:2], orbits[0]) for end, sign in ((src, -1), (rcv, 1))]
    return found, *waves, w_alpha, orbits


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
    Q from `_parity_combinations` on each axis, and the factors Q X, Q Y.
    Source class (p, q) radiates only into receiver class (p, q), and in a
    class the summand is even under the mirrors, so each class is summed over
    one direction per orbit with the orbit's sum of w alpha; Q'^T maps the
    receiver classes back to the grid.  A link without mirrors is the one
    class Q = I over every direction.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    found, (ax, ay), (bx, by), w_alpha, (_, orbit, *_) = _fold(src, rcv, geometry, grid, table)
    w_orbit = _orbit_sums(orbit, w_alpha)
    (qx, src_x), (qy, src_y), (qx_r, rcv_x), (qy_r, rcv_y) = (
        _parity_combinations(len(f), m) for f, m in zip((ax, ay, bx, by), found[:2] * 2)
    )
    weighted = qx @ (src.weights * current).reshape(len(ax), len(ay)) @ qy.T
    field = np.zeros((len(bx), len(by)), dtype=complex)
    for ((sx, _), (rx, _)), ((sy, _), (ry, _)) in itertools.product(zip(src_x, rcv_x), zip(src_y, rcv_y)):
        far = (ay[sy] * (weighted[sx, sy].T @ ax[sx])).sum(axis=0)
        field[rx, ry] = (bx[rx] * (w_orbit * far)) @ by[ry].T
    return _kernel_scale(geometry.k) * (qx_r.T @ field @ qy_r).ravel()
