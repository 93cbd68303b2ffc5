"""Reference routes the tests check the package against.

`reference_field` is the direct-sum oracle of `propagate_current`, and
`dense_kernel` the plane-wave sum with one exponential per (point,
direction) pair;
`exponential_folded_waves` is Q times the per-axis exponentials of every
node, complex, the route `channel._folded_waves` replaced with cosine and
sine tables kept as real rows, with Q the even/odd node combinations
`even_odd_combinations`;
`LATERAL_IMAGES` are the mirror and swap maps of k whose images
`geometry._image_steps` gives in closed form, and `image_maps` lays those
steps out as one index per direction;
`basis_eval` is the dense Legendre basis, built from numpy's `legvander`
rather than the package's per-axis patterns; `quadrature_patterns` are the
far-field patterns of a Legendre basis by a Gauss rule on each axis of the
aperture, and `quadrature_channel` the channel G between a transmitter and
a receiver basis that they give over every direction of a grid, in complex
arithmetic, with no closed form, fold or parity class; `solved_channel` is
it on the direction grid, translator and receiver basis of a solve;
`channel_matrix` is the whole G assembled from the solve's own class
blocks (`modes._channel_blocks`);
`orbit_weights` finds the fold's orbits on the full grid, from one label
per direction, and sums w alpha over each with `np.bincount`, the route the
per-ring orbits of `channel._orbits` replaced.
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
from emlink.channel import FREE_SPACE_IMPEDANCE
from emlink.geometry import SurfaceGrid, _image_steps, cap_direction_grid, default_cap_densities, truncation_order
from emlink.greens import sgf_exact, translator_series, translator_table
from emlink.modes import DEFAULT_ENTRY_BUDGET, MODESET_FORMAT, _channel_blocks


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


def even_odd_combinations(n):
    """Orthogonal (n, n): rows (e_i + e_{n-1-i}) / sqrt(2), e_{n//2} alone for odd n, then rows (e_i - e_{n-1-i}) / sqrt(2)."""
    eye, half = np.eye(n), n // 2
    mirrored = eye[::-1][:half]
    return np.vstack([(eye[:half] + mirrored) / np.sqrt(2), eye[half:n - half], (eye[:half] - mirrored) / np.sqrt(2)])


def exponential_folded_waves(surface, sign, grid, k, reps):
    """`channel._folded_waves` as Qx X and Qy Y: `even_odd_combinations` times one exponential per node."""
    directions = grid.directions[reps]
    cx, cy, _ = surface.aperture.center
    return tuple(
        even_odd_combinations(len(offset)) @ np.exp(-1j * k * np.outer(sign * offset, directions[:, axis]))
        for axis, offset in enumerate((surface.nodes_x - cx, surface.nodes_y - cy))
    )


# the lateral images a direction grid can be closed under, as maps of
# (k_x, k_y, k_z): k_x -> -k_x, k_y -> -k_y and the swap k_x <-> k_y
LATERAL_IMAGES = (np.diag([-1, 1, 1]), np.diag([1, -1, 1]), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


def image_maps(grid):
    """Each direction's image under each map of `LATERAL_IMAGES`, from its `_image_steps` step, or None."""
    starts = grid.n_phi * np.arange(grid.n_theta)[:, None]
    return [None if step is None else (starts + (step - np.arange(grid.n_phi)) % grid.n_phi).ravel()
            for step in _image_steps(grid)]


def quadrature_patterns(aperture, basis, directions, k, sign, nodes=60):
    """(n_basis, n_dir): the integral of each basis function times e^{-jk khat.(sign (s - c))} over the aperture, c its centre.

    Each axis's pattern is an n-node Gauss sum of the `legvander` basis times
    one exponential per node and direction, and the pattern of order (m, n)
    is the x pattern of m times the y pattern of n.
    """
    grid, t = SurfaceGrid(aperture, nodes), int(basis.max())
    axes = []
    for nodes_a, weights, center, side, khat in zip(
        (grid.nodes_x, grid.nodes_y), (grid.weights_x, grid.weights_y), aperture.center,
        (aperture.side_x, aperture.side_y), np.asarray(directions)[:, :2].T,
    ):
        legendre = legvander(2.0 * (nodes_a - center) / side, t) * np.sqrt((2 * np.arange(t + 1) + 1.0) / side)
        axes.append((weights[:, None] * legendre).T @ np.exp(-1j * k * sign * np.outer(nodes_a - center, khat)))
    m, n = basis.T
    return axes[0][m] * axes[1][n]


def quadrature_channel(basis, rcv_basis, geometry, grid, table, nodes=60):
    """G (n_rcv_basis, n_basis): the receiver basis's projections of the fields of the transmitter basis, summed over every direction."""
    k = geometry.k
    w_alpha = grid.weights * np.repeat(table, grid.n_phi)  # the table holds one value per ring
    src = quadrature_patterns(geometry.transmitter, basis, grid.directions, k, -1, nodes)
    rcv = quadrature_patterns(geometry.receiver, rcv_basis, grid.directions, k, 1, nodes)
    return -k * (k * FREE_SPACE_IMPEDANCE) / (16 * np.pi**2) * ((rcv * w_alpha) @ src.T)


def solved_channel(result, theta_e, L, windowed=True, basis=None, nodes=60):
    """`quadrature_channel` of a solve's link, on the direction grid, translator and receiver basis the solve built."""
    modes = result.modes
    grid, table = solved_direction_grid(modes.geometry, theta_e, L, windowed)
    basis = modes.basis if basis is None else basis
    return quadrature_channel(basis, result.rcv_basis, modes.geometry, grid, table, nodes)


def channel_matrix(basis, rcv_basis, geometry, grid, table, entry_budget=DEFAULT_ENTRY_BUDGET):
    """G (n_rcv_basis, n_basis) from the solve's class blocks: each block taken back through its combinations, oe from eo."""
    G = np.zeros((len(rcv_basis), len(basis)), dtype=complex)
    for cls, blocks in _channel_blocks(basis, rcv_basis, geometry, grid, table, entry_budget):
        if blocks:
            G[np.ix_(cls.rows, cls.cols)] = sum(b if c_r is None else c_r.T @ b @ c_c for b, c_r, c_c in blocks)
        else:  # oe: eo's block, the previous class's, read through the swap
            G[np.ix_(cls.rows, cls.cols)] = G[np.ix_(eo.rows, eo.cols)][np.ix_(*cls.swap)]
        eo = cls
    return G


def orbit_weights(grid, table, found):
    """The orbits of the symmetries `found` (x, y, swap) and their w alpha, from a label per direction.

    Returns the lowest direction of each orbit of the mirrors found, the
    sum of w alpha over each, the positions among those directions of the
    lowest direction of each orbit of all the symmetries found, and half the
    sum of w alpha over each of these orbits.  w alpha is spread over every
    direction, the orbits follow from each direction's images (`image_maps`)
    and the sums are `np.bincount`s.
    """
    w_alpha = grid.weights * np.repeat(table, grid.n_phi)
    label = np.arange(len(w_alpha))
    images = [image for image, ok in zip(image_maps(grid), found) if ok]
    for image in images[:2]:
        label = np.minimum(label, label[image])
    reps, orbit = np.unique(label, return_inverse=True)
    if found[2]:
        label = np.minimum(label, label[images[2]])
    reps_all, orbit_all = np.unique(label, return_inverse=True)
    sums = [np.bincount(o, w_alpha.real) + 1j * np.bincount(o, w_alpha.imag) for o in (orbit, orbit_all)]
    return reps, sums[0], np.searchsorted(reps, reps_all), 0.5 * sums[1]


def solved_direction_grid(geometry, theta_e, L, windowed=True):
    """The direction grid and translator table `solve_modes` builds for a link."""
    grid = cap_direction_grid(geometry.axis, theta_e, *default_cap_densities(L, theta_e))
    return grid, translator_table(grid, geometry.k, geometry.r_pq, L, windowed)


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
