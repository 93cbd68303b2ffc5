"""Maximal-power-transfer modes: the singular system of the channel between two Legendre bases.

The mode currents phi_n solve beta phi = M phi, with M(s, s') the receiver
integral of H(r, s) conj(H(r, s')).  Both ends are expanded in orthonormal
2-D Legendre bases, the transmitter's of total order t (`basis_order_table`)
and the receiver's of order t_r, and the channel between them is

    G = F_r^T diag(w alpha) F_s,

summed over the directions of the cap, with F_s the far-field patterns of
the transmitter's basis currents and F_r the receiver's basis projections of
each plane wave; the received power of a current a is |G a|^2, so
beta = sigma(G)^2 and the coefficient rows are conj(V^H) (Miller, Appl.
Opt. 39, 2000), of which only the kept ones are built.  No surface grid
enters: on a side l the pattern of the order-m function
sqrt((2m+1)/l) P_m(2x/l) is sqrt((2m+1) l) j^m j_m(a), a = k khat_a l/2
(DLMF 18.17.19: the integral of P_m(u) e^{jau} over [-1, 1] is
2 j^m j_m(a)), and a pattern in x and y is the product of the two; the
receiver's, for the field's phase e^{-jk khat.(r - p)}, carries (-j)^m.
The receiver's order follows from the direction grid, not from a setting:
a received plane wave's Legendre coefficients fall as j_m(a_r), with
a_r = k (side/2) max|khat_a| over the grid (the larger over the receiver's
two axes), so t_r = ceil(a_r) + 12 holds all but a part of the field that
moves beta by less than 1e-12 beta_1 (34 on the paper link, 21 on ci).

Mirror symmetry splits the SVD (Knorr, IEEE TAP 21, 1973).  j_m has the
parity of m, so when the link and its direction grid are symmetric under
x -> -x (`channel._symmetries`: the link axis lies in the plane x = 0 and
the cap's rule is closed under k_x -> -k_x), a receiver order m' sees only
transmitter orders m of its parity, and likewise for y: G is block-diagonal
in up to four classes ee, eo, oe, oo of order parities, shared by both ends.
Inside a class the summand is even under the mirrors of khat, so the sweep
runs over one direction per orbit (`channel._orbits`) weighted by the
orbit's w alpha, a quarter of the grid; an axis without a mirror is one
class of both parities, and a general link the one-class case.  The
patterns are real times their phase j^m (or (-j)^m), so the sweep takes two
real products, with w alpha's real and imaginary parts, and each entry is
then phased by (-j)^(m' + n') j^(m + n).

A square link (both apertures square, on a grid with 4 | n_phi) is also
symmetric under the swap x <-> y, which takes the summand of a direction to
that of its swap image with the orders (m, n) -> (n, m) at both ends.  So ee
and oo are each summed once, over an eighth of the grid (phi in [0, pi/4])
with half of each orbit's w alpha, and the block is that sum S plus S read
through the swap.  oe is eo with x and y exchanged, so it is not swept or
decomposed: its block is eo's read through the swap, its betas and rows are
eo's, its orders (n, m) for eo's (m, n).  Only the SVD splits ee and oo, into
the swap-even and swap-odd combinations of their rows and columns, made by
indexing the block.  The paper link's 630 x 703 channel becomes five SVDs,
90 x 100, 81 x 90 (ee), 153 x 171 (eo) and 81 x 90, 72 x 81 (oo).

The merged spectrum is sorted descending.  Two betas tie when they agree to
1e-12 of their own size, and tied betas take their rows in class order (ee
even, ee odd, eo, oe, oo even, oo odd), so an eo mode of a square link comes
just before its oe image, and every row sits beside its own beta.

A ModeSet keeps only independent values: its basis is the (m, n) order table
of `basis_order_table`, its grids follow from the apertures and the requested
`surface_points`, which set only the output grids (maps and Gram matrices),
and its current scale sqrt(P_t / eta) follows from the transmit power and
the free-space impedance, which the loader checks.

A ModesResult pairs the mode set with its modes' received fields as
receiver coefficients, G a_n = sigma_n u_n, each class block times its
columns of the kept rows; the field functions sample them on the mode set's
receiver grid, and take the result, so they cannot be handed fields of
another link.

A basis is only ever sampled per axis, as Px and Py: a current or field is
Px A Py^T, with A its coefficient row scattered onto the (m, n) order grid,
so no function forms the (n_points x n_basis) basis matrix.
"""

from __future__ import annotations

import array
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import FREE_SPACE_IMPEDANCE, _kernel_scale, _orbits, _pair_split, _symmetries
from .errors import BudgetError
from .geometry import (
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
)
from .greens import _translator_weights, translator_table
from .specfun import legendre_sequence, spherical_bessel_j

__all__ = [
    "ModeSet",
    "ModesResult",
    "basis_order_table",
    "solve_modes",
    "mode_current_field",
    "received_field",
    "combiner_field",
    "gram_currents",
    "gram_fields",
    "save_mode_set",
    "load_mode_set",
]

MODESET_FORMAT = "emlink.modeset/1"

DEFAULT_ENTRY_BUDGET = 10**7

# directions per block of the sweep in `_channel_blocks`, at most: the paper link's ee
# blocks of 434 directions hold pattern products of 1.2 and 0.7 MB, in a 2 MB L2 cache
_BLOCK = 512

# receiver orders past the largest pattern argument a_r (see the module docstring)
_RECEIVER_MARGIN = 12

# combiners are undefined for numerically null modes
_NULL_MODE_REL = 1e-12

# entries this close to a row's largest magnitude tie for the gauge pivot
_PIVOT_TIE_REL = 1e-8

# betas this close, relative to the larger of the two, tie, and their modes go in class order
_BETA_TIE_REL = 1e-12

# j^0 .. j^3: the phase j^p of a pattern of order sum p is _TURNS[p % 4], and (-j)^p its conjugate
_TURNS = np.array([1, 1j, -1, -1j])


def basis_order_table(t: int) -> np.ndarray:
    """(t+1)(t+2)/2 rows of Legendre orders (m, n): total order j = m + n ascending, x-order m ascending.

    The table always holds (t, 0), so t = table.max().
    """
    if t < 0:
        raise ValueError("max total order must be non-negative")
    j = np.repeat(np.arange(t + 1), np.arange(1, t + 2))
    m = np.arange(len(j)) - j * (j + 1) // 2
    return np.stack([m, j - m], axis=1)


def _axis_legendre(t: int, grid: SurfaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Px[i, m] = sqrt((2m+1)/Lx) P_m(2x_i/Lx) at the aperture-local nodes_x, and Py likewise.

    Basis entry (m, n) at grid point (x_i, y_j) is Px[i, m] * Py[j, n], on the
    aperture the grid was built on.
    """
    aperture = grid.aperture

    def axis(nodes: np.ndarray, center: float, side: float) -> np.ndarray:
        norms = np.sqrt((2 * np.arange(t + 1) + 1.0) / side)
        return legendre_sequence(t, 2.0 * (nodes - center) / side).T * norms

    cx, cy, _ = aperture.center
    return axis(grid.nodes_x, cx, aperture.side_x), axis(grid.nodes_y, cy, aperture.side_y)


def _check_budget(entries: int, entry_budget: int) -> None:
    if entries > entry_budget:
        raise BudgetError(
            f"assembly needs {entries} complex entries, above the budget {entry_budget}; "
            "reduce grid sizes or raise entry_budget"
        )


def _receiver_order(geometry: LinkGeometry, grid) -> int:
    """t_r = ceil(a_r) + _RECEIVER_MARGIN, a_r = k (side / 2) max|khat_a| over the direction grid, the larger axis."""
    reach = np.abs(grid.directions[:, :2]).max(axis=0) * (geometry.receiver.side_x, geometry.receiver.side_y)
    return math.ceil(0.5 * geometry.k * reach.max()) + _RECEIVER_MARGIN


def _axis_patterns(t: int, sides: np.ndarray, k: float, khat: np.ndarray) -> np.ndarray:
    """sqrt((2m+1) l) j_m(k khat l / 2) for m = 0..t, shape (t + 1,) + shape(sides * khat): the real parts of the patterns.

    The pattern of sqrt((2m+1)/l) P_m(2x/l) on a side l centred at 0, the
    integral of it times e^{jk khat x}, is j^m times this (DLMF 18.17.19).
    """
    a = 0.5 * k * sides * khat
    return spherical_bessel_j(t, a) * np.sqrt((2 * np.arange(t + 1) + 1.0).reshape((-1,) + (1,) * a.ndim) * sides)


class _Class(NamedTuple):
    """One parity class of the channel G.

    Its rows are the receiver basis entries `rows`, its columns the
    transmitter's `cols`; `parity` is its (x, y) order parity, -1 on an
    axis without a mirror, where the class holds the orders of both
    parities.  On a square link `swap` holds, for ee and oo, the
    permutations (m, n) -> (n, m) of its rows and of its columns; for oe,
    the positions of those images among eo's rows and columns, so its block
    is eo's read through them; None otherwise.
    """

    rows: np.ndarray
    cols: np.ndarray
    parity: tuple[int, int]
    swap: tuple[np.ndarray, np.ndarray] | None


def _symmetry_classes(basis: np.ndarray, rcv_basis: np.ndarray, found: tuple[bool, bool, bool]) -> list[_Class]:
    """The parity classes ee, eo, oe, oo (x parity first) that have columns, under the flags `found` of `channel._symmetries`.

    Order (m, n) is row (m + n)(m + n + 1)/2 + m of an order table (`basis_order_table`).
    """

    def members(table: np.ndarray, *parity: int) -> np.ndarray:
        return np.flatnonzero(np.all((table % 2 == parity) | (np.array(parity) < 0), axis=1))

    def images(table: np.ndarray, own: np.ndarray, *parity: int) -> np.ndarray:
        n, j = table[own, 1], table[own].sum(axis=1)
        return np.searchsorted(members(table, *parity), j * (j + 1) // 2 + n)

    out = []
    for p, q in itertools.product(*((0, 1) if mirrored else (-1,) for mirrored in found[:2])):
        rows, cols = members(rcv_basis, p, q), members(basis, p, q)
        if len(cols) == 0:
            continue
        # row and column (m, n) are row and column (n, m) of class (q, p)
        swap = (images(rcv_basis, rows, q, p), images(basis, cols, q, p)) if found[2] and p >= q else None
        out.append(_Class(rows, cols, (p, q), swap))
    return out


def _channel_blocks(basis, rcv_basis, geometry, grid, table, entry_budget) -> list[tuple[_Class, list[tuple]]]:
    """The classes of `_symmetry_classes`, each with the blocks of G = F_r^T diag(w alpha) F_s that it decomposes into.

    A block sums, over one direction per orbit of the link's mirrors
    (`channel._orbits`) with the orbit's w alpha times the kernel scale, the
    products of the receiver's and the transmitter's per-axis patterns
    (`_axis_patterns`), _BLOCK directions at a time, as one real product
    whose receiver rows carry w alpha's real and imaginary parts; the entry
    of receiver orders (m', n') and transmitter orders (m, n) then takes the
    phase (-j)^(m' + n') j^(m + n).  A class's blocks are (B, C_r, C_c), B
    the combination C_r G_class C_c^T, with C_r and C_c None for the
    identity but on ee and oo of a square link.  There ee and oo are summed
    over one direction per orbit of the mirrors and the swap (phi in
    [0, pi/4]) with half the orbit's w alpha, S, and G_class is S plus S read
    through the swap; so its swap-even and swap-odd combinations
    (`channel._pair_split` under the swap) of rows and columns, whose cross
    terms vanish, are those of 2 S, and are its two blocks.  oe has no block
    of its own: it is eo's read through its `swap`.  The budget bounds each
    class's pattern products and its block.
    """
    found = _symmetries(geometry, grid)
    reps, sizes, eighth, sizes_all = _orbits(grid, found)
    w_alpha = _kernel_scale(geometry.k) * _translator_weights(grid, table)
    sides = np.array([[end.side_x, end.side_y] for end in (geometry.transmitter, geometry.receiver)])
    # (order, end, axis, direction): both ends' patterns on both axes from one array of Bessel arguments
    khat = grid.directions[reps, :2].T
    patterns = _axis_patterns(max(basis.max(), rcv_basis.max()), sides[:, :, None], geometry.k, khat)
    folds = [(np.outer(w_alpha, sizes).ravel(), patterns)]
    if found[2]:  # 2 S: the orbits' whole w alpha
        folds.append((np.outer(w_alpha, sizes_all).ravel(), patterns[..., eighth]))
    out = []
    for cls in _symmetry_classes(basis, rcv_basis, found):
        if cls.swap is not None and cls.parity[0] != cls.parity[1]:
            out.append((cls, []))
            continue
        (w, f), (m_r, n_r), (m, n) = folds[cls.swap is not None], rcv_basis[cls.rows].T, basis[cls.cols].T
        _check_budget(max(len(m_r), len(m)) * max(_BLOCK, len(m)), entry_budget)
        weighted, sums = (f[:, 1, 1] * w.real, f[:, 1, 1] * w.imag), 0.0
        bounds = np.linspace(0, len(w), -(-len(w) // _BLOCK) + 1).astype(int)  # blocks of equal size
        for sl in map(slice, bounds[:-1], bounds[1:]):  # row p * rows + r: receiver row r with w alpha's part p
            x = f[m_r, 1, 0, sl]
            received = np.concatenate([x * part[n_r, sl] for part in weighted])
            sums += received @ (f[m, 0, 0, sl] * f[n, 0, 1, sl]).T
        phases = np.outer(_TURNS[(m_r + n_r) % 4].conj(), _TURNS[(m + n) % 4])
        block = phases * (sums[: len(m_r)] + 1j * sums[len(m_r) :])
        blocks = [(block, None, None)] if cls.swap is None else []
        for sign in () if cls.swap is None else (1, -1):
            c_r, c_c = (_pair_split(np.eye(len(swap)), swap, sign) for swap in cls.swap)
            if len(c_c):
                blocks.append((_pair_split(_pair_split(block, cls.swap[0], sign).T, cls.swap[1], sign).T, c_r, c_c))
        out.append((cls, blocks))
    return out


def _gauge(rows: np.ndarray) -> np.ndarray:
    """The phase per row that makes its pivot entry real positive.

    The pivot is the lowest index whose magnitude ties with the row's largest,
    so symmetric ties (mirror orders on a square link) are not left to roundoff.
    """
    mag = np.abs(rows)
    pivot = np.argmax(mag >= (1.0 - _PIVOT_TIE_REL) * mag.max(axis=1, keepdims=True), axis=1)
    ref = rows[np.arange(len(rows)), pivot]
    return np.conj(ref) / np.abs(ref)


@dataclass(frozen=True)
class ModeSet:
    """Eigenvalues and basis coefficients of the transfer-maximizing currents.

    `coefficients[n]` expands mode current n in the Legendre basis whose (m, n)
    orders are the rows of `basis`; currents carry the physical normalization
    `scale` = sqrt(P_t / eta), so that the radiated power of each mode current is P_t.
    The grids are `tensor_grid(aperture, surface_points)` on each end, built
    when first read.
    """

    eigenvalues: np.ndarray        # (modes,) descending, non-negative
    coefficients: np.ndarray       # (modes, basis) complex, orthonormal rows
    power_w: float
    impedance_ohm: float
    basis: np.ndarray              # (basis, 2) int, from basis_order_table
    geometry: LinkGeometry
    surface_points: int            # requested points per aperture
    clamped_count: int = 0         # always 0; kept for emlink.modeset/1

    @cached_property
    def src_grid(self) -> SurfaceGrid:
        return tensor_grid(self.geometry.transmitter, self.surface_points)

    @cached_property
    def rcv_grid(self) -> SurfaceGrid:
        return tensor_grid(self.geometry.receiver, self.surface_points)

    @property
    def scale(self) -> float:
        return float(np.sqrt(self.power_w / self.impedance_ohm))

    @property
    def normalized(self) -> np.ndarray:
        """Eigenvalues scaled so the strongest mode is 1."""
        top = self.eigenvalues[0]
        return self.eigenvalues / top if top > 0 else self.eigenvalues.copy()

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ModesResult:
    """A mode set and the received fields of its modes, solved together.

    `received[n]` is mode n's field G a_n in the receiver's orthonormal
    Legendre basis `rcv_basis`, unscaled: (modes, (t_r+1)(t_r+2)/2) complex.
    """

    modes: ModeSet
    received: np.ndarray

    def __post_init__(self):
        if self.received.shape != (len(self.modes), len(self.rcv_basis)):
            raise ValueError(f"received fields of shape {self.received.shape} do not match the mode set's "
                             f"{len(self.modes)} modes in a receiver basis of (t_r + 1)(t_r + 2)/2 functions")

    @cached_property
    def rcv_basis(self) -> np.ndarray:
        """The receiver's (m, n) order table, `basis_order_table(t_r)`, t_r from the fields' width."""
        return basis_order_table(math.isqrt(2 * self.received.shape[-1]) - 1)


def _check_series(geometry: LinkGeometry, theta_e: float, L: int) -> None:
    """ValueError unless the translator series of order L converges on the link and the cap holds its directions.

    With rho_max the sum of the apertures' half-diagonals, the series needs
    L >= ceil(k rho_max), and the cap must reach the link's geometric
    half-angle atan(rho_max / d), under which each end sees the other.
    """
    order, half_angle = math.ceil(geometry.k * geometry.rho_max), math.atan(geometry.rho_max / geometry.distance)
    if L < order:
        raise ValueError(f"the truncation order L = {L} is below ceil(k rho_max) = {order}, where the series converges")
    if theta_e < half_angle:
        raise ValueError(f"the cap half-angle theta_e = {math.degrees(theta_e):.4g} deg is below the link's geometric "
                         f"half-angle atan(rho_max / d) = {math.degrees(half_angle):.4g} deg")


def solve_modes(
    geometry: LinkGeometry,
    theta_e: float,
    L: int,
    t: int,
    n_surface: int,
    windowed: bool = True,
    power_w: float = 1.0,
    keep: int | None = None,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> ModesResult:
    """End-to-end pipeline: direction grid, translator, channel blocks, one SVD per class block (two per swap class), modes.

    Beyond a block's rank, its V^H completes the block's columns with beta = 0.
    The first `keep` modes are kept (all when `keep` is None or <= 0), with
    their received fields.  n_surface sets only the mode set's output grids.
    The budget bounds the class blocks and their V^H, at most
    n_rcv_basis x n_basis and n_basis x n_basis, and the kept modes' fields on
    the output grid, n_surface x n_basis; it is checked before anything is
    built, with t_r bounded by |khat_a| <= 1, and so are L and theta_e
    (`_check_series`).
    """
    n1, n_basis = int(np.ceil(np.sqrt(max(n_surface, 1)))), (t + 1) * (t + 2) // 2
    t_r = math.ceil(0.5 * geometry.k * max(geometry.receiver.side_x, geometry.receiver.side_y)) + _RECEIVER_MARGIN
    _check_budget(max(n1 * n1, (t_r + 1) * (t_r + 2) // 2, n_basis) * n_basis, entry_budget)
    _check_series(geometry, theta_e, L)
    dir_grid = cap_direction_grid(geometry.axis, theta_e, *default_cap_densities(L, theta_e))
    table = translator_table(dir_grid, geometry.k, geometry.r_pq, L, windowed)
    basis, rcv_basis = basis_order_table(t), basis_order_table(_receiver_order(geometry, dir_grid))
    spectra = []  # (class, betas, conj(V^H), C_c, (U sigma)^T, C_r), in class order
    for cls, blocks in _channel_blocks(basis, rcv_basis, geometry, dir_grid, table, entry_budget):
        if blocks:
            systems = [_singular_system(*block) for block in blocks]
        else:  # oe takes eo's singular system, its columns and its field rows read through the swap
            row_swap, col_swap = cls.swap
            systems = [(beta, v[:, col_swap], None, fields[:, row_swap], None) for beta, v, _, fields, _ in systems]
        spectra += [(cls, *system) for system in systems]
    classes = np.concatenate([np.full(len(beta), label) for label, (_, beta, *_) in enumerate(spectra)])
    betas, order = _merge_spectra(np.concatenate([beta for _, beta, *_ in spectra]), classes)
    kept = slice(keep) if keep is not None and keep > 0 else slice(None)
    merged = order[kept]
    # only the kept rows are built: merged row r is row r - start of its spectrum's rows, taken through the
    # spectrum's combinations back to its class's columns, and its field likewise to its class's receiver rows
    coefficients = np.zeros((len(merged), len(basis)), dtype=complex)
    received = np.zeros((len(merged), len(rcv_basis)), dtype=complex)
    start, merged_class = 0, classes[merged]
    for label, (cls, _, rows, c_c, fields, c_r) in enumerate(spectra):
        mine = np.flatnonzero(merged_class == label)
        picked = merged[mine] - start
        coefficients[np.ix_(mine, cls.cols)] = rows[picked] if c_c is None else rows[picked] @ c_c
        received[np.ix_(mine, cls.rows)] = fields[picked] if c_r is None else fields[picked] @ c_r
        start += len(rows)
    gauge = _gauge(coefficients)[:, None]
    coefficients, received = coefficients * gauge, received * gauge
    modes = ModeSet(betas[kept], coefficients, float(power_w), FREE_SPACE_IMPEDANCE, basis, geometry, n_surface)
    return ModesResult(modes, received)


def _singular_system(block: np.ndarray, c_r: np.ndarray | None, c_c: np.ndarray | None) -> tuple:
    """Betas of a class block B = C_r G C_c^T, with conj(V^H), C_c, (U sigma)^T and C_r.

    Its SVD U diag(sigma) V^H gives sigma^2, padded with zeros to the width;
    the coefficient rows over the class's columns are conj(V^H) C_c, and
    their received fields over its receiver rows (U sigma)^T C_r, zero past
    the rank; None stands for the identity.
    """
    width = block.shape[1]
    # B^H = U' diag(sigma) V'^H, which LAPACK takes faster than B: V = U' and U = V'
    v, sigma, uh = np.linalg.svd(block.conj().T, full_matrices=len(block) < width)
    fields = np.concatenate([uh.conj() * sigma[:, None], np.zeros((width - len(sigma), len(block)))])
    return np.concatenate([sigma**2, np.zeros(width - len(sigma))]), v.T, c_c, fields, c_r


def _merge_spectra(betas: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Betas sorted descending, and the row order that goes with them.

    Neighbours tie when they agree to _BETA_TIE_REL of the larger, and the
    rows of a run of ties go in class order, so of each pair of a square link
    (an eo mode and its oe image, equal by construction) the eo mode comes
    first.  The betas stay sorted; a tie is relative, so a run never reaches
    betas of another size, and each row sits beside its own beta to
    _BETA_TIE_REL of it.
    """
    order = np.argsort(-betas, kind="stable")
    betas = betas[order]
    run = np.concatenate(([0], np.cumsum(betas[1:] < (1.0 - _BETA_TIE_REL) * betas[:-1])))
    return betas, order[np.lexsort((classes[order], run))]


def _sample_currents(basis: np.ndarray, rows: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """The currents (or fields) of coefficient rows (count, n_basis) at a grid's points, (n_points, count).

    Each row is scattered onto its (m, n) order grid A, and the current on
    the tensor grid is Px A Py^T (see `_axis_legendre`).
    """
    px, py = _axis_legendre(int(basis.max()), grid)
    m, n = basis.T
    orders = np.zeros((len(rows), px.shape[1], py.shape[1]), dtype=complex)
    orders[:, m, n] = rows
    return (px @ orders @ py.T).reshape(len(rows), len(grid.points)).T


def mode_current_field(modes: ModeSet, n: int) -> np.ndarray:
    """Mode current phi_n sampled on the mode set's transmitter grid."""
    if not 0 <= n < len(modes):
        raise IndexError("mode index out of range")
    return modes.scale * _sample_currents(modes.basis, modes.coefficients[n : n + 1], modes.src_grid)[:, 0]


def received_field(result: ModesResult, n: int) -> np.ndarray:
    """Field psi_n of mode current n on the mode set's receiver grid, sampled from its receiver coefficients."""
    modes = result.modes
    if not 0 <= n < len(modes):
        raise IndexError("mode index out of range")
    return modes.scale * _sample_currents(result.rcv_basis, result.received[n : n + 1], modes.rcv_grid)[:, 0]


def combiner_field(result: ModesResult, n: int) -> np.ndarray:
    """Unit-power receive basis chi_n = psi_n / sqrt(beta_n)."""
    field = received_field(result, n)  # an index out of range raises IndexError here
    beta = result.modes.eigenvalues[n]
    if beta < _NULL_MODE_REL * result.modes.eigenvalues[0]:
        raise ValueError(f"mode {n} is numerically null; combiner undefined")
    return field / np.sqrt(beta)


def gram_currents(modes: ModeSet, count: int) -> np.ndarray:
    """Gram matrix of the first `count` mode currents over the transmitter.

    Evaluated on an internal grid fine enough to integrate basis products
    exactly; for orthonormal coefficients this is (P_t/eta) * identity.
    """
    if not 0 <= count <= len(modes):
        raise ValueError(f"count {count} is outside [0, {len(modes)}], the number of stored modes")
    # products of two order-t polynomials need t+1 Gauss points per axis
    grid = SurfaceGrid(modes.geometry.transmitter, int(modes.basis.max()) + 1)
    phi = modes.scale * _sample_currents(modes.basis, modes.coefficients[:count], grid)
    return (phi.T * grid.weights) @ np.conj(phi)


def gram_fields(result: ModesResult, count: int) -> np.ndarray:
    """Gram matrix of the first `count` received fields over the receiver, on the mode set's receiver grid.

    Diagonal tracks beta_n * (P_t/eta); off-diagonals measure the
    biorthogonality leakage of that grid's quadrature.
    """
    modes = result.modes
    if not 0 <= count <= len(modes):
        raise ValueError(f"count {count} is outside [0, {len(modes)}], the number of stored modes")
    psi = modes.scale * _sample_currents(result.rcv_basis, result.received[:count], modes.rcv_grid)
    return (psi.T * modes.rcv_grid.weights) @ np.conj(psi)


_JSON_KINDS = {"object": dict, "array": list, "number": (int, float)}


def _member(obj: dict, key: str, kind: str, default=None):
    """obj[key] (or the default when absent), checked to be a JSON `kind`: object, array or finite float number."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"{key!r} must be a JSON {kind}")
    if kind == "number":
        try:
            finite = math.isfinite(value)
        except OverflowError as exc:  # an integer past the float range
            raise ValueError(f"{key!r} is past the float range") from exc
        if not finite:
            raise ValueError(f"{key!r} must be finite")
    return value


def _integer(obj: dict, key: str, default=None) -> int:
    """obj[key] as a JSON number with no fractional part."""
    value = _member(obj, key, "number", default)
    if value != int(value):
        raise ValueError(f"{key!r} must be an integer")
    return int(value)


def _numbers(obj: dict, key: str) -> np.ndarray:
    """obj[key], a flat JSON array of numbers, as a float array; ValueError on any other entry.

    array.array takes no string, where numpy would parse "1.5"; true and false
    still load as 1 and 0.
    """
    try:
        return np.frombuffer(array.array("d", _member(obj, key, "array")))
    except TypeError as exc:  # a string, object, array or null entry
        raise ValueError(f"{key!r} must hold numbers") from exc
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(f"{key!r} holds a number past the float range") from exc


def _known(obj: dict, *keys: str) -> dict:
    """obj, checked to hold no key but `keys`, as docs/modeset.schema.json requires."""
    if unknown := sorted(obj.keys() - set(keys)):
        raise ValueError(f"unknown key {unknown[0]!r}")
    return obj


def mode_set_from_dict(doc: dict) -> ModeSet:
    """Rebuild a ModeSet from its JSON document; ValueError if it is malformed.  No grid is built."""
    if not isinstance(doc, dict):
        raise ValueError("a mode set must be a JSON object")
    if doc.get("format") != MODESET_FORMAT:
        raise ValueError(f"unsupported mode-set format {doc.get('format')!r}")
    _known(doc, "format", "wavenumber", "transmitter", "receiver", "surface_points", "basis_order", "power_w",
           "impedance_ohm", "normalization_scale", "clamped_count", "eigenvalues", "coefficients")
    apertures = []
    for key in ("transmitter", "receiver"):
        side = _known(_member(doc, key, "object"), "center", "side_x", "side_y")
        center = _numbers(side, "center")
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError(f"{key} center must hold three finite numbers")
        apertures.append(rect_aperture(center, _member(side, "side_x", "number"), _member(side, "side_y", "number")))
    tx, rx = apertures
    geometry = LinkGeometry(tx, rx, float(_member(doc, "wavenumber", "number")))
    n_pts = _integer(doc, "surface_points")
    if n_pts < 1:
        raise ValueError("surface_points must be >= 1")
    t = _integer(doc, "basis_order")
    block = _known(_member(doc, "coefficients", "object"), "modes", "basis", "re_im")
    shape = (_integer(block, "modes"), _integer(block, "basis"))
    # these checks come before the table, whose size grows as t^2
    if shape[1] != (t + 1) * (t + 2) // 2:
        raise ValueError("coefficient width does not match the basis order")
    flat = _numbers(block, "re_im")
    if flat.shape != (2 * shape[0] * shape[1],):
        raise ValueError(f"re_im holds {flat.size} values, not 2 * modes * basis")
    if not np.all(np.isfinite(flat)):
        raise ValueError("coefficients must be finite")
    basis = basis_order_table(t)
    for key in ("power_w", "impedance_ohm", "normalization_scale"):
        if not float(_member(doc, key, "number")) > 0:
            raise ValueError(f"{key} must be finite and positive")
    power_w, impedance_ohm = float(doc["power_w"]), float(doc["impedance_ohm"])
    scale = float(np.sqrt(power_w / impedance_ohm))
    if abs(float(doc["normalization_scale"]) - scale) > 1e-12 * scale:
        raise ValueError(f"normalization_scale must equal sqrt(power_w / impedance_ohm) = {scale!r}")
    coeff = (flat[0::2] + 1j * flat[1::2]).reshape(shape)
    eigenvalues = _numbers(doc, "eigenvalues")
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
    clamped_count = _integer(doc, "clamped_count", 0)
    if clamped_count < 0:
        raise ValueError("clamped_count must be >= 0")
    return ModeSet(
        eigenvalues=eigenvalues,
        coefficients=coeff,
        power_w=power_w,
        impedance_ohm=impedance_ohm,
        basis=basis,
        geometry=geometry,
        surface_points=n_pts,
        clamped_count=clamped_count,
    )


def _formatted(values: np.ndarray, fmt) -> list[str]:
    """[fmt(v) for v in values.tolist()] for a 1-D array, calling fmt once per distinct nonzero magnitude.

    fmt must write a negative value as "-" and its magnitude's text, and NaN
    with no sign, as float.__repr__, %d and %.12e do; -0.0 is "-" + fmt(0.0).
    """
    if values.dtype.kind == "f":
        negative = np.signbit(values) & ~np.isnan(values)
        magnitude = np.abs(values)
    else:  # integers: the unsigned view holds |v| exactly, the most negative one too
        negative = values < 0
        magnitude = np.abs(values).view(f"u{values.itemsize}")
    nonzero = np.flatnonzero(magnitude)
    distinct, inverse = np.unique(magnitude[nonzero], return_inverse=True)
    index = np.zeros(len(values), dtype=np.intp)  # 0 for zero, i for distinct[i - 1]
    index[nonzero] = inverse + 1
    texts = [fmt(values.dtype.type(0).item()), *map(fmt, distinct.tolist())]
    table = np.array(texts + ["-" + text for text in texts], dtype=object)
    return table[index + len(texts) * negative].tolist()


def save_mode_set(modes: ModeSet, path) -> None:
    """Write the emlink.modeset/1 document (docs/modeset.schema.json) as json.dumps(doc, sort_keys=True) would.

    ValueError, before anything is written, on a non-finite eigenvalue or
    coefficient, which JSON cannot hold.
    """
    coeff = modes.coefficients
    if not (np.all(np.isfinite(modes.eigenvalues)) and np.all(np.isfinite(coeff))):
        raise ValueError("a mode set with non-finite eigenvalues or coefficients cannot be written")
    re_im = np.empty(coeff.size * 2)
    re_im[0::2] = coeff.real.ravel()
    re_im[1::2] = coeff.imag.ravel()
    geom = modes.geometry
    doc = {
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
        "coefficients": {"modes": int(coeff.shape[0]), "basis": int(coeff.shape[1]), "re_im": []},
    }
    # json.dumps would call float.__repr__ on every entry; most are +-0.0 or share a magnitude
    slot = '"re_im": []'
    head, tail = json.dumps(doc, sort_keys=True).split(slot)  # ValueError unless the slot occurs once
    text = "".join((head, '"re_im": [', ", ".join(_formatted(re_im, float.__repr__)), "]", tail))
    Path(path).write_text(text, encoding="utf-8")


def load_mode_set(path) -> ModeSet:
    return mode_set_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
