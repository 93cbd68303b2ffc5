"""Free-space Green's functions and the windowed plane-wave translator.

The scalar Green's function g(r, s) = e^{-jkR}/(4 pi R) is expanded over a
sphere (or cap) of plane-wave directions as

    g(r, s) = (-jk / 16 pi^2) * sum_khat w * e^{-jk khat.r_qs} * alpha(khat.rhat_pq)
              * e^{-jk khat.r_rp},

with r_qs = q - s, r_rp = r - p for group centers q (source side) and p
(field side).  The translator alpha is a truncated spherical-Hankel/Legendre
series, optionally tapered with a Tukey window to suppress its wide-angle
sidelobes.  It depends on khat only through khat . rhat_pq, and every
direction grid is a cap of rings about its axis (`geometry.DirectionGrid`),
so on a cap about rhat_pq the translator table holds one value per ring, at
the ring's cosine: 62 values for the 6 696 directions of the paper link.
alpha has one route, `_alphas`, and the weighted translator w alpha one,
`_translator_weights`, one value per ring for every caller, `channel._fold`
included: the plane-wave sum weights each ring's sum of phases.
"""

from __future__ import annotations

import numpy as np

from .geometry import DirectionGrid, LinkGeometry, cap_direction_grid, default_cap_densities, truncation_order
from .specfun import legendre_sequence, spherical_hankel_paper

__all__ = [
    "sgf_exact",
    "translator_series",
    "translator_table",
    "sgf_planewave",
    "expansion_error_sweep",
]


def sgf_exact(r, s, k: float) -> complex:
    """Scalar Green's function e^{-jkR}/(4 pi R), R = |r - s|."""
    R = float(np.linalg.norm(np.asarray(r, float) - np.asarray(s, float)))
    if R == 0.0:
        raise ValueError("source and field points coincide")
    return np.exp(-1j * k * R) / (4.0 * np.pi * R)


# ring cosines per Legendre table in expansion_error_sweep: (L + 1) x 4096 floats, 2.5 MB at the paper's L = 75
_SWEEP_COSINES = 4096


def _tukey_window(L: int) -> np.ndarray:
    """Tukey taper w_0 .. w_L: flat up to L/2, raised cosine on (L/2, L]."""
    if L < 2:
        raise ValueError("window needs L >= 2")
    l = np.arange(L + 1)
    w = np.ones(L + 1)
    half = L / 2.0
    taper = l > half
    w[taper] = 0.5 * (1.0 + np.cos(np.pi * (l[taper] - half) / half))
    return w


def _alphas(L: int, k_rpq: float, cos_gamma) -> np.ndarray:
    """alpha at each of n cosines cos gamma, unwindowed (row 0) and windowed (row 1), shape (2, n) complex.

    Both windows' coefficients (-j)^l (2l+1) h_l(k r_pq) [w_l], as real and imaginary rows, meet the
    Legendre table P_l(cos gamma) in one real product, so the table is never copied to complex.
    """
    if L < 0:
        raise ValueError("L must be non-negative")
    ls = np.arange(L + 1)
    coef = (-1j) ** ls * (2 * ls + 1) * spherical_hankel_paper(L, k_rpq)
    rows = np.stack([coef, coef * _tukey_window(L) if L >= 2 else coef])
    re_im = np.concatenate([rows.real, rows.imag]) @ legendre_sequence(L, cos_gamma)
    return re_im[:2] + 1j * re_im[2:]


def translator_series(L: int, k_rpq: float, cos_gamma, windowed: bool) -> np.ndarray:
    """alpha = sum_l (-j)^l (2l+1) h_l(k r_pq) P_l(cos gamma) [w_l] at each cos gamma.

    h_l is the j - i*y Hankel convention; OverflowError propagates from its
    upward recurrence (`spherical_hankel_paper`) when L is pushed far beyond
    k*r_pq.  The Tukey taper w_l applies when windowed and L >= 2; this is
    that window's row of `_alphas`.
    """
    return _alphas(L, k_rpq, cos_gamma)[int(windowed)]


def translator_table(grid: DirectionGrid, k: float, r_pq, L: int, windowed: bool) -> np.ndarray:
    """Translator alpha(khat . rhat_pq) on each ring of the grid, shape (n_theta,) complex.

    The grid must be a cap about rhat_pq, so that khat . rhat_pq is its ring
    cosine and the value holds for every direction on the ring.  A grid
    about another axis raises ValueError.
    """
    r_pq = np.asarray(r_pq, dtype=float)
    rpq = float(np.linalg.norm(r_pq))
    if rpq <= 0:
        raise ValueError("translation vector must be non-zero")
    if not np.allclose(grid.axis, r_pq / rpq, rtol=0.0, atol=1e-13):
        raise ValueError(f"the direction grid is a cap about {grid.axis}, not about the link axis {r_pq / rpq}")
    return translator_series(L, k * rpq, grid.cosines, windowed)


def _translator_weights(grid: DirectionGrid, table: np.ndarray) -> np.ndarray:
    """w alpha, (n_theta,): the weight of each direction on a ring times the ring's translator value.

    A table of any other shape, a stack of tables among them, raises
    ValueError naming the grid's rings.
    """
    table = np.asarray(table)
    if table.shape != grid.cosines.shape:
        raise ValueError(
            f"translator table of shape {table.shape} does not match the direction grid's rings {grid.cosines.shape}"
        )
    return grid.ring_weights * table


def _planewave_sum(r, s, geometry: LinkGeometry, grid: DirectionGrid, w_alpha: np.ndarray):
    """(-jk / 16 pi^2) sum_khat e^{-jk khat.(r_qs + r_rp)} w alpha: each ring's sum of phases times w_alpha's row."""
    r_qs = geometry.transmitter.center - np.asarray(s, float)
    r_rp = np.asarray(r, float) - geometry.receiver.center
    phase = np.exp(-1j * geometry.k * (grid.directions @ (r_qs + r_rp)))
    return -1j * geometry.k / (16.0 * np.pi**2) * (phase.reshape(grid.n_theta, grid.n_phi).sum(axis=1) @ w_alpha)


def sgf_planewave(r, s, geometry: LinkGeometry, grid: DirectionGrid, table: np.ndarray) -> complex:
    """Scalar Green's function reconstructed from the plane-wave expansion."""
    return complex(_planewave_sum(r, s, geometry, grid, _translator_weights(grid, table)))


def expansion_error_sweep(geometry: LinkGeometry, s, r, theta_list) -> list[tuple[float, float, float]]:
    """Relative reconstruction errors |G_a - G| / |G|, unwindowed and windowed, versus cap half-angle.

    Returns (theta_e, unwindowed error, windowed error) per angle.  G_a
    integrates the expansion over a cap of half-angle theta_e around the link
    axis, on that cap's default_cap_densities grid; both windows share the
    grid and its phases.  The translator is evaluated per ring: one call of
    `_alphas`, one Legendre table, serves the rings of consecutive caps, up
    to _SWEEP_COSINES cosines (a cap with more rings gets a call of its own),
    and both windows' w alpha is one broadcast, (n_theta, 2).  G is the exact
    scalar Green's function.  L is the truncation rule applied to the largest
    aperture side.  An empty theta_list gives [].
    """
    D = max(max(aperture.side_x, aperture.side_y) for aperture in (geometry.transmitter, geometry.receiver))
    L = truncation_order(geometry.k, D)
    exact = sgf_exact(r, s, geometry.k)
    thetas = [float(theta_e) for theta_e in theta_list]
    sizes = [default_cap_densities(L, theta_e) for theta_e in thetas]
    batches, rings = [], 0  # consecutive angles whose rings share a Legendre table
    for i, (n_theta, _) in enumerate(sizes):
        if not batches or rings + n_theta > _SWEEP_COSINES:
            batches.append([])
            rings = 0
        batches[-1].append(i)
        rings += n_theta
    out = []
    for batch in batches:
        grids = [cap_direction_grid(geometry.axis, thetas[i], *sizes[i]) for i in batch]
        alphas = _alphas(L, geometry.k * geometry.distance, np.concatenate([grid.cosines for grid in grids]))
        ring_alphas = np.split(alphas, np.cumsum([sizes[i][0] for i in batch[:-1]]), axis=1)
        for i, alpha in zip(batch, ring_alphas):
            grid = grids.pop(0)  # freed once summed, with the directions it made
            w_alpha = (grid.ring_weights * alpha).T
            unwindowed, windowed = np.abs(_planewave_sum(r, s, geometry, grid, w_alpha) - exact) / abs(exact)
            out.append((thetas[i], float(unwindowed), float(windowed)))
    return out
