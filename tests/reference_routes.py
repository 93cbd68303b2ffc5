"""Reference routes the tests check the package against.

`reference_field` is the direct-sum oracle of `propagate_current`, and
`dense_kernel` the plane-wave sum with one exponential per (point,
direction) pair; `dense_betas` are the betas it gives a mode set's link;
`exponential_folded_waves` is Q times the per-axis exponentials of every
node, the route `channel._folded_waves` replaced with cosine and sine tables;
`basis_eval` is the dense Legendre basis, built from numpy's `legvander`
rather than the package's per-axis patterns; `radiated_basis` is the full R
from the solve's own parity blocks, and `solved_radiated_basis` rebuilds it
for a solved mode set, which keeps only its modes' fields.
`per_direction_table` is the translator evaluated at every direction's own
cosine rather than once per ring, `two_pass_error_sweep` the per-window
route of `expansion_error_sweep` on it, and `step_down_waterfill` the
active-set loop of `waterfill`.  `mode_set_to_dict` is the mode-set
document whose `json.dumps(..., sort_keys=True)` `save_mode_set` must write
byte for byte.
"""

import numpy as np
from numpy.polynomial.legendre import legvander

from emlink.capacity import PowerAllocation
from emlink.channel import FREE_SPACE_IMPEDANCE, _parity_combinations
from emlink.geometry import cap_direction_grid, default_cap_densities, truncation_order
from emlink.greens import sgf_exact, translator_series, translator_table
from emlink.modes import DEFAULT_ENTRY_BUDGET, MODESET_FORMAT, _radiated_blocks, _unfold


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


def basis_eval(table, grid):
    """E (n_points, n_basis): sqrt((2m+1)(2n+1)/(Lx Ly)) P_m(2x/Lx) P_n(2y/Ly) for table row (m, n).

    (x, y) are local coordinates on the grid's aperture, and grid point
    i * ny + j sits at (nodes_x[i], nodes_y[j]).
    """
    aperture, t = grid.aperture, int(table.max())

    def axis(nodes, center, side):
        return legvander(2.0 * (nodes - center) / side, t) * np.sqrt((2 * np.arange(t + 1) + 1.0) / side)

    px = axis(grid.nodes_x, aperture.center[0], aperture.side_x)
    py = axis(grid.nodes_y, aperture.center[1], aperture.side_y)
    m, n = table.T
    return (px[:, None, m] * py[None, :, n]).reshape(len(grid.points), len(table))


def dense_kernel(src, rcv, geometry, grid, table):
    """H from one dense exponential per (surface point, direction) pair, 2048 directions at a time."""
    k = geometry.k
    w_alpha = grid.weights * np.repeat(table, grid.n_phi)  # the table holds one value per ring
    H = np.zeros((len(rcv.points), len(src.points)), dtype=complex)
    for start in range(0, len(grid.weights), 2048):
        dirs = grid.directions[start:start + 2048]
        A = np.exp(-1j * k * ((geometry.transmitter.center - src.points) @ dirs.T))
        B = np.exp(-1j * k * ((rcv.points - geometry.receiver.center) @ dirs.T))
        H += (B * w_alpha[start:start + 2048]) @ A.T
    return -k * (k * FREE_SPACE_IMPEDANCE) / (16 * np.pi**2) * H


def exponential_folded_waves(surface, sign, grid, k, mirrored, reps):
    """`channel._folded_waves` as Qx X and Qy Y: Q from `_parity_combinations` times one exponential per node."""
    directions = grid.directions[reps]
    cx, cy, _ = surface.aperture.center
    return tuple(
        _parity_combinations(len(offset), m)[0] @ np.exp(-1j * k * np.outer(sign * offset, directions[:, axis]))
        for axis, (offset, m) in enumerate(zip((surface.nodes_x - cx, surface.nodes_y - cy), mirrored))
    )

def dense_betas(modes, theta_e, L, windowed=True):
    """Squared singular values of W_rcv^(1/2) H W_src E, descending, with H the dense kernel of a mode set's link.

    H is built on the direction grid and translator `solve_modes` builds,
    and E is `basis_eval`, so no parity class or fold is used.
    """
    geo, src, rcv = modes.geometry, modes.src_grid, modes.rcv_grid
    grid, table = solved_direction_grid(geo, theta_e, L, windowed)
    R = dense_kernel(src, rcv, geo, grid, table) @ (src.weights[:, None] * basis_eval(modes.basis, src))
    sigma = np.linalg.svd(np.sqrt(rcv.weights)[:, None] * R, compute_uv=False)
    return np.pad(sigma**2, (0, len(modes.basis) - len(sigma)))


def radiated_basis(basis, src, rcv, geometry, grid, table, entry_budget=DEFAULT_ENTRY_BUDGET):
    """R = H W_src E, (n_rcv, n_basis): the solve's parity blocks unfolded as R @ I."""
    return _unfold(*_radiated_blocks(basis, src, rcv, geometry, grid, table, entry_budget), np.eye(len(basis)))


def solved_direction_grid(geometry, theta_e, L, windowed=True):
    """The direction grid and translator table `solve_modes` builds for a link."""
    grid = cap_direction_grid(geometry.axis, theta_e, *default_cap_densities(L, theta_e))
    return grid, translator_table(grid, geometry.k, geometry.r_pq, L, windowed)


def solved_radiated_basis(modes, theta_e, L, windowed=True):
    """R = H W_src E of a mode set's link, on the direction grid and translator `solve_modes` builds."""
    geo = modes.geometry
    grid, table = solved_direction_grid(geo, theta_e, L, windowed)
    return radiated_basis(modes.basis, modes.src_grid, modes.rcv_grid, geo, grid, table)


def per_direction_table(grid, k, r_pq, L, windowed):
    """The translator at each direction's cosine khat . rhat_pq: one Legendre column per direction, any axis."""
    r_pq = np.asarray(r_pq, dtype=float)
    rpq = float(np.linalg.norm(r_pq))
    return translator_series(L, k * rpq, np.clip(grid.directions @ (r_pq / rpq), -1.0, 1.0), windowed)


def two_pass_error_sweep(geometry, s, r, theta_list):
    """(theta_e, unwindowed error, windowed error) per angle, each window on its own grid, table and sum.

    Every (angle, window) pair builds the cap grid, its `per_direction_table`
    and its own plane-wave sum over every direction.
    """
    D = max(max(aperture.side_x, aperture.side_y) for aperture in (geometry.transmitter, geometry.receiver))
    L = truncation_order(geometry.k, D)
    k = geometry.k
    exact = sgf_exact(r, s, k)
    offset = (geometry.transmitter.center - np.asarray(s, float)) + (np.asarray(r, float) - geometry.receiver.center)
    out = []
    for theta_e in map(float, theta_list):
        errors = []
        for windowed in (False, True):
            grid = cap_direction_grid(geometry.axis, theta_e, *default_cap_densities(L, theta_e))
            table = per_direction_table(grid, k, geometry.r_pq, L, windowed)
            phase = np.exp(-1j * k * (grid.directions @ offset))
            approx = -1j * k / (16.0 * np.pi**2) * (phase @ (grid.weights * table))
            errors.append(abs(approx - exact) / abs(exact))
        out.append((theta_e, *errors))
    return out


def step_down_waterfill(betas, p_t, sigma2):
    """Water-filling that starts from every positive channel and drops the weakest until its power is >= 0."""
    betas = np.asarray(betas, dtype=float)
    with np.errstate(over="ignore"):  # a floor or level past the float range is inf, and infeasible
        inv = sigma2 / betas[betas > 0]
        for M in range(len(inv), 0, -1):
            level = (p_t + np.sum(inv[:M])) / M
            if not np.isfinite(level):
                continue
            candidate = level - inv[:M]
            if candidate[-1] >= 0:
                powers = np.zeros_like(betas)
                powers[:M] = candidate
                return PowerAllocation(powers, M, float(level))
    raise ValueError("water-filling found no feasible active set")


def mode_set_to_dict(modes):
    """The JSON-ready emlink.modeset/1 document; see docs/modeset.schema.json."""
    coeff = modes.coefficients
    re_im = np.empty(coeff.size * 2)
    re_im[0::2] = coeff.real.ravel()
    re_im[1::2] = coeff.imag.ravel()
    geom = modes.geometry
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
        "surface_points": int(modes.surface_points),
        "basis_order": int(modes.basis.max()),
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
