"""Reference routes the tests check the package against.

`reference_field` is the direct-sum oracle of `propagate_current`;
`solved_radiated_basis` rebuilds R for a solved mode set, which keeps only
its modes' fields.
"""

import numpy as np

from emlink.channel import FREE_SPACE_IMPEDANCE
from emlink.geometry import cap_direction_grid, default_cap_densities
from emlink.greens import translator_table
from emlink.modes import radiated_basis


def reference_field(current, src, rcv, k):
    """Direct-quadrature radiation E(r) = -j omega mu * sum_s w g(r, s) J(s).

    Independent of the plane-wave machinery: g is the free-space Green's
    function e^{-jkR} / (4 pi R), and omega mu = k eta for unit wavelength.
    """
    current = np.asarray(current)
    if current.shape != (len(src.points),):
        raise ValueError("current must be sampled on the source grid")
    diff = rcv.points[:, None, :] - src.points[None, :, :]
    R = np.linalg.norm(diff, axis=2)
    g = np.exp(-1j * k * R) / (4.0 * np.pi * R)
    return -1j * (k * FREE_SPACE_IMPEDANCE) * (g @ (src.weights * current))


def solved_radiated_basis(modes, theta_e, L, windowed=True):
    """R = H W_src E of a mode set's link, on the direction grid and translator `solve_modes` builds."""
    geo = modes.geometry
    grid = cap_direction_grid(geo.axis, theta_e, *default_cap_densities(L, theta_e))
    table = translator_table(grid, geo.k, geo.r_pq, L, windowed)
    return radiated_basis(modes.basis, modes.src_grid, modes.rcv_grid, geo, grid, table)
