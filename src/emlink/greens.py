"""Free-space Green's functions and the windowed plane-wave translator.

The scalar Green's function g(r, s) = e^{-jkR}/(4 pi R) is expanded over a
sphere (or cap) of plane-wave directions as

    g(r, s) = (-jk / 16 pi^2) * sum_khat w * e^{-jk khat.r_qs} * alpha(khat.rhat_pq)
              * e^{-jk khat.r_rp},

with r_qs = q - s, r_rp = r - p for group centers q (source side) and p
(field side).  The translator alpha is a truncated spherical-Hankel/Legendre
series, optionally tapered with a Tukey window to suppress its wide-angle
sidelobes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _plane_waves, _translator_weights
from .geometry import DirectionGrid, LinkGeometry, cap_direction_grid, default_cap_densities, truncation_order
from .specfun import legendre_sequence, spherical_hankel_paper

__all__ = [
    "TranslatorTable",
    "sgf_exact",
    "tukey_window",
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


def tukey_window(L: int) -> np.ndarray:
    """Tukey taper w_0 .. w_L: flat up to L/2, raised cosine on (L/2, L]."""
    if L < 2:
        raise ValueError("window needs L >= 2")
    l = np.arange(L + 1)
    w = np.ones(L + 1)
    half = L / 2.0
    taper = l > half
    w[taper] = 0.5 * (1.0 + np.cos(np.pi * (l[taper] - half) / half))
    return w


@dataclass(frozen=True)
class TranslatorTable:
    """Translator values alpha(khat . rhat_pq), one per direction sample."""

    values: np.ndarray   # (n,) complex
    L: int
    windowed: bool
    k_rpq: float         # series argument k * |r_pq|
    axis: np.ndarray     # rhat_pq


def translator_series(L: int, k_rpq: float, cos_gamma, windowed: bool) -> np.ndarray:
    """alpha = sum_l (-j)^l (2l+1) h_l(k r_pq) P_l(cos gamma) [w_l] at each cos gamma.

    h_l is the j - i*y Hankel convention; OverflowError propagates from the
    Neumann recurrence when L is pushed far beyond k*r_pq.  The Tukey taper
    w_l applies when windowed and L >= 2.
    """
    if L < 0:
        raise ValueError("L must be non-negative")
    ls = np.arange(L + 1)
    coef = (-1j) ** ls * (2 * ls + 1) * spherical_hankel_paper(L, k_rpq)
    if windowed and L >= 2:
        coef = coef * tukey_window(L)
    return coef @ legendre_sequence(L, cos_gamma)


def translator_table(
    grid: DirectionGrid, k: float, r_pq, L: int, windowed: bool
) -> TranslatorTable:
    """Tabulate the translator series at khat . rhat_pq for every direction sample."""
    r_pq = np.asarray(r_pq, dtype=float)
    rpq = float(np.linalg.norm(r_pq))
    if rpq <= 0:
        raise ValueError("translation vector must be non-zero")
    axis = r_pq / rpq
    cosg = np.clip(grid.directions @ axis, -1.0, 1.0)
    values = translator_series(L, k * rpq, cosg, windowed)
    return TranslatorTable(values, int(L), bool(windowed), k * rpq, axis)


def sgf_planewave(r, s, geometry: LinkGeometry, grid: DirectionGrid, table: TranslatorTable) -> complex:
    """Scalar Green's function reconstructed from the plane-wave expansion."""
    r_qs = geometry.transmitter.center - np.asarray(s, float)
    r_rp = np.asarray(r, float) - geometry.receiver.center
    w_alpha = _translator_weights(grid, table)
    phase = _plane_waves((r_qs + r_rp)[None, :], grid, geometry.k)[0]
    return complex(-1j * geometry.k / (16.0 * np.pi**2) * (phase @ w_alpha))


def expansion_error_sweep(
    geometry: LinkGeometry,
    s,
    r,
    theta_list,
    windowed: bool,
    L: int | None = None,
    n_theta: int | None = None,
    n_phi: int | None = None,
) -> list[tuple[float, float]]:
    """Relative reconstruction error |G_a - G| / |G| versus cap half-angle.

    G_a integrates the expansion over a cap of half-angle theta_e around the
    link axis; G is the exact scalar Green's function.  L defaults to the
    truncation rule applied to the largest aperture side.
    """
    if L is None:
        D = max(
            geometry.transmitter.side_x,
            geometry.transmitter.side_y,
            geometry.receiver.side_x,
            geometry.receiver.side_y,
        )
        L = truncation_order(geometry.k, D)
    nt_def, np_def = default_cap_densities(L, np.pi)
    nt = n_theta if n_theta is not None else nt_def
    nph = n_phi if n_phi is not None else np_def
    exact = sgf_exact(r, s, geometry.k)
    out = []
    for theta_e in theta_list:
        grid = cap_direction_grid(geometry.axis, float(theta_e), nt, nph)
        table = translator_table(grid, geometry.k, geometry.r_pq, L, windowed)
        approx = sgf_planewave(r, s, geometry, grid, table)
        out.append((float(theta_e), abs(approx - exact) / abs(exact)))
    return out
