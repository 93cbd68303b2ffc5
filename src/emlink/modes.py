"""Maximal-power-transfer modes: the singular system of the radiated basis.

The mode currents phi_n solve beta phi = M phi, with M(s, s') the receiver
integral of H(r, s) conj(H(r, s')).  In an orthonormal 2-D Legendre basis E
this is beta a = R^H W_rcv R a, where R = H W_src E holds the fields the
basis currents radiate onto the receiver grid.  Neither H nor R^H W_rcv R is
formed: R is a sum of separable per-axis patterns over 512 directions at a
time (`_radiated_blocks`, the package's one dense plane-wave sweep, on the
folded factors `channel._fold` keeps for the propagator too), and the
SVD W_rcv^(1/2) R = U diag(sigma) V^H gives beta = sigma^2 >= 0 and the
coefficient rows conj(V^H) (Miller, Appl. Opt. 39, 2000), of which only the
kept ones are built.  The entry budget bounds R and the blocks' V^H, at
most n_basis x n_basis, before anything is built.

Mirror symmetry splits that SVD (Knorr, IEEE TAP 21, 1973).  When the link
and its direction grid are symmetric under x -> -x (a coaxial link on a cap
grid with even n_phi; the check is made, not assumed), the even and odd
combinations of mirrored receiver nodes only see basis orders m of the same
parity, and likewise for y and n.  So Q W_rcv^(1/2) R, with Q the orthogonal
change to those combinations, is block-diagonal in up to four classes ee,
eo, oe, oo, each with its own SVD.  Inside a block the summand is even under
both mirrors of khat, so the direction sum runs over one direction per orbit
(phi in [0, pi/2]) weighted by the orbit's w alpha, a quarter of the grid.
A symmetry the link lacks leaves its axis in one class, unfolded, of both
parities; a general link is the one-class case.  Each Gauss rule is
symmetric about its aperture's center, so on every axis the folded factors
of even rows are real and those of odd rows imaginary, and so are the basis
patterns of even and odd orders: the fold keeps the factors as real rows,
and the sweep splits w alpha into its real and imaginary rows, so its outer
products and GEMM are real, and gives every class's entry (row, order) the
phase j^(row parity + order parity) per axis, a row phase times an order phase.

A square link (both apertures square, on a grid with 4 | n_phi) is also
symmetric under the swap x <-> y, which takes the summand of a direction to
that of its swap image with rows (i, j) -> (j, i) and orders (m, n) -> (n, m).
So ee and oo are each summed once, over an eighth of the grid (phi in
[0, pi/4]) with half of each orbit's w alpha, and the block is that sum S
plus S read through the swap.  oe is eo with x and y exchanged, so it is not
swept or decomposed: its block is eo's read through the swap, its betas and
rows are eo's, its orders (n, m) for eo's (m, n).  Only the SVD splits ee
and oo, into the swap-even and swap-odd combinations of their rows and
orders, made by indexing the block, so no rows x rows matrix is formed.
The paper link's 529 x 703 problem becomes five SVDs, 78 x 100, 66 x 90
(ee), 132 x 171 (eo) and 66 x 90, 55 x 81 (oo), against 144 x 190,
132 x 171 twice and 121 x 171 without the swap.

The merged spectrum is sorted descending, and betas that tie to 1e-12 beta_1
take their rows in class order (ee even, ee odd, eo, oe, oo even, oo odd), so
an eo mode of a square link comes just before its oe image unless modes of
other classes tie with them.

A ModeSet keeps only independent values: its basis is the (m, n) order table
of `basis_order_table`, its grids follow from the apertures and the requested
`surface_points`, and its current scale sqrt(P_t / eta) follows from the
transmit power and the free-space impedance, which the loader checks.

A ModesResult pairs the mode set with its modes' received fields
R @ coefficients.T, (n_rcv, modes), and R itself is not rebuilt: Q R is
block-diagonal, so each block times its columns of the kept rows gives
that block's rows of every field.  The field functions take the
result and cannot be handed fields of another link.

The basis is only ever sampled per axis, as Px and Py: a current is
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

from .channel import FREE_SPACE_IMPEDANCE, _fold, _kernel_scale, _parity_combinations, _row_classes, _row_phases
from .errors import BudgetError
from .geometry import (
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
)
from .greens import translator_table
from .specfun import legendre_sequence

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

# directions per block of the dense sweep in `_radiated_blocks`: on the paper
# link a block's real waves and columns, 1.1 and 0.7 MB, stay in a 2 MB L2 cache
_BLOCK = 512

# combiners are undefined for numerically null modes
_NULL_MODE_REL = 1e-12

# entries this close to a row's largest magnitude tie for the gauge pivot
_PIVOT_TIE_REL = 1e-8

# betas this close (relative to beta_1) tie, and their modes go in class order
_BETA_TIE_REL = 1e-12

# j^0, j^1, j^2: the phase of an order (m, n) with 0, 1 or 2 odd parities
_TURNS = np.array([1, 1j, -1])


def basis_order_table(t: int) -> np.ndarray:
    """(t+1)(t+2)/2 rows of Legendre orders (m, n): total order j = m + n ascending, x-order m ascending.

    The table always holds (t, 0), so t = table.max().
    """
    if t < 0:
        raise ValueError("max total order must be non-negative")
    return np.array([(m, j - m) for j in range(t + 1) for m in range(j + 1)], dtype=int)


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


def _of_parity(orders: np.ndarray, parity: int | None) -> np.ndarray:
    return np.ones(len(orders), dtype=bool) if parity is None else orders % 2 == parity


def _swap_split(a: np.ndarray, swap: np.ndarray, sign: int) -> np.ndarray:
    """The swap-even (sign 1) or swap-odd (sign -1) orthonormal combinations of the rows of `a` that the involution `swap` pairs.

    For each row i <= swap[i] in order, the even rows are
    (a_i + a_swap[i]) / sqrt(2), or a_i alone where swap[i] = i, and for
    each i < swap[i] the odd rows are (a_i - a_swap[i]) / sqrt(2).  Together
    they are an orthogonal change of a's rows, made by indexing a.
    """
    i = np.arange(len(swap))
    kept = i <= swap if sign > 0 else i < swap
    norm = np.where(swap[kept] == i[kept], 2.0, np.sqrt(2.0))
    return (a[kept] + sign * a[swap[kept]]) / norm[:, None]


def _check_budget(entries: int, entry_budget: int) -> None:
    if entries > entry_budget:
        raise BudgetError(
            f"assembly needs {entries} complex entries, above the budget {entry_budget}; "
            "reduce grid sizes or raise entry_budget"
        )


class _Class(NamedTuple):
    """One parity class of the radiated basis and its block.

    Its rows are the rows_x x rows_y receiver parity combinations, row-major,
    its columns the basis entries `cols`; `parity` is its (x, y) parity, None
    on an axis without a mirror, where the class holds the even and the odd
    rows and the orders of both parities.  On a square link `swap` holds, for
    ee and oo, the permutations (i, j) -> (j, i) of its rows and
    (m, n) -> (n, m) of its columns; for oe, the positions of those images
    among eo's rows and columns, so its block is eo's read through them;
    None otherwise.
    """

    rows_x: slice
    rows_y: slice
    parity: tuple[int | None, int | None]
    cols: np.ndarray
    swap: tuple[np.ndarray, np.ndarray] | None
    block: np.ndarray | None = None


def _symmetry_classes(basis: np.ndarray, sizes: tuple[int, int], mirrored: tuple[bool, bool, bool]) -> list[_Class]:
    """The parity classes ee, eo, oe, oo (x parity first) that have columns, with their `swap` on a square link.

    The receiver's sizes[0] x sizes[1] rows split by `channel._row_classes` under `_fold`'s flags `mirrored`.
    """
    m, n = basis.T
    index = np.full((int(basis.max()) + 1,) * 2, -1)
    index[m, n] = np.arange(len(basis))
    out = []
    for (rows_x, p), (rows_y, q) in itertools.product(*map(_row_classes, sizes, mirrored[:2])):
        cols = np.flatnonzero(_of_parity(m, p) & _of_parity(n, q))
        if len(cols) == 0:
            continue
        perms = None
        if mirrored[2] and p >= q:
            # row (i, j) and column (m, n) are row (j, i) and column (n, m) of class (q, p), whose sub-grid is n_y x n_x
            n_x, n_y = rows_x.stop - rows_x.start, rows_y.stop - rows_y.start
            images = np.flatnonzero(_of_parity(m, q) & _of_parity(n, p))
            perms = np.arange(n_x * n_y).reshape(n_y, n_x).T.ravel(), np.searchsorted(images, index[n[cols], m[cols]])
        out.append(_Class(rows_x, rows_y, (p, q), cols, perms))
    return out


def _patterns(weights: np.ndarray, legendre: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """One axis's basis patterns (w P)^T X = (Q w P)^T (Q X), Q X the source's folded factors, as real rows.

    The Gauss rule is symmetric about the aperture's center, so order m's
    column of Q w P vanishes, to roundoff, off the rows of its parity, real
    for even m and imaginary for odd m: times the factors' kept real rows it
    gives the real part of an even pattern and the imaginary part of an odd one.
    """
    return (_parity_combinations(len(factors)) @ (weights[:, None] * legendre)).T @ factors


def _radiated_blocks(basis, src, rcv, geometry, grid, table, entry_budget):
    """Blocks of (Qx (x) Qy) R, with Q from `_parity_combinations` per receiver axis, one per `_Class`.

    Returns qx, qy and the classes of `_symmetry_classes`, each with its
    block.  A block sums its (rows x directions) plane-wave factors, the
    receiver's factors from `channel._fold` times the orbits' w alpha on the
    y side, one direction per orbit of the mirrors, against the basis
    patterns (`_patterns`), _BLOCK directions at a time; the budget bounds R,
    each block and one block of factors.  The sweep is real: it reads the
    kept factors and the patterns as real rows, odd rows and odd orders being
    j times theirs, and splits w alpha into its real and imaginary rows; the
    stacked rows, 2 x step x n_sub floats, take the bytes of the step x n_sub
    complex entries the budget counts.  Block entry (row, order) is j^(row parity + order parity)
    on each axis times that real sum, in every class: a row phase
    (`channel._row_phases`) times an order phase.

    On a square link ee and oo are summed over one direction per orbit of
    the mirrors and the swap (phi in [0, pi/4]) with half the orbit's
    w alpha, S, and the block is S plus S read through the class's `swap`:
    the swap takes a direction's summand to that of its image with rows and
    columns swapped, and a direction the swap fixes is counted twice, at
    half weight.  oe is eo's block read through its `swap`.
    """
    _check_budget(len(rcv.points) * len(basis), entry_budget)
    mirrored, (ax, ay), (bx, by), w_orbit, eighth, w_eighth = _fold(src, rcv, geometry, grid, table)
    qx, qy = _parity_combinations(len(bx)), _parity_combinations(len(by))
    px, py = _axis_legendre(int(basis.max()), src)
    fx, fy = _patterns(src.weights_x, px, ax), _patterns(src.weights_y, py, ay)
    folds = [(w_orbit, bx, by, fx, fy)]
    if mirrored[2]:  # take() keeps the rows C-ordered, which f[:, eighth] does not
        folds.append((w_eighth, *(f.take(eighth, axis=1) for f in folds[0][1:])))
    m, n = basis.T
    blocks = []
    for cls in _symmetry_classes(basis, (len(bx), len(by)), mirrored):
        (p, q), mc, nc = cls.parity, m[cls.cols], n[cls.cols]
        if cls.swap is not None and p != q:
            blocks.append(cls._replace(block=blocks[-1].block[np.ix_(*cls.swap)]))
            continue
        w, cx, cy, fx, fy = folds[cls.swap is not None]
        cx, cy = cx[cls.rows_x], cy[cls.rows_y][:, None] * np.stack([w.real, w.imag])  # cy: (n_y, 2, n_dir)
        n_sub, n_dir = len(cx) * len(cy), cx.shape[1]
        step = min(_BLOCK, n_dir)
        _check_budget(max(n_sub * len(mc), step * len(mc), step * n_sub), entry_budget)
        block = np.zeros((n_sub * 2, len(mc)))
        for start in range(0, n_dir, step):
            sl = slice(start, start + step)
            waves = cx[:, None, None, sl] * cy[None, :, :, sl]
            block += waves.reshape(len(block), waves.shape[3]) @ (fx[mc, sl] * fy[nc, sl]).T
        block = block[0::2] + 1j * block[1::2]  # row 2r + p: row r's sum with w alpha's real (p = 0) or imaginary part
        if cls.swap is not None:
            block = block + block[np.ix_(*cls.swap)]
        block *= (_kernel_scale(geometry.k) * _row_phases(len(bx), len(by))[cls.rows_x, cls.rows_y]).reshape(-1, 1)
        block *= _TURNS[mc % 2 + nc % 2]
        blocks.append(cls._replace(block=block))
    return qx, qy, blocks


def _unfold(qx: np.ndarray, qy: np.ndarray, blocks: list[_Class], rows: np.ndarray) -> np.ndarray:
    """R @ rows.T, (n_rcv, len(rows)), from the class blocks without forming R.

    (Qx (x) Qy) R is block-diagonal in the classes, so each block times its
    columns of the rows gives its rows of the product, and (Qx (x) Qy)^T maps
    them back to the grid.
    """
    nx, ny, width = len(qx), len(qy), len(rows)
    parity = np.zeros((nx, ny, width), dtype=complex)
    for cls in blocks:
        n_x, n_y = cls.rows_x.stop - cls.rows_x.start, cls.rows_y.stop - cls.rows_y.start
        parity[cls.rows_x, cls.rows_y] = (cls.block @ rows[:, cls.cols].T).reshape(n_x, n_y, width)
    half = (qx.T @ parity.reshape(nx, ny * width)).reshape(nx, ny, width)
    return (qy.T @ half).reshape(nx * ny, width)


def _fix_gauge(rows: np.ndarray) -> np.ndarray:
    """Rotate each row so its pivot entry is real positive.

    The pivot is the lowest index whose magnitude ties with the row's largest,
    so symmetric ties (mirror orders on a square link) are not left to roundoff.
    """
    mag = np.abs(rows)
    pivot = np.argmax(mag >= (1.0 - _PIVOT_TIE_REL) * mag.max(axis=1, keepdims=True), axis=1)
    ref = rows[np.arange(len(rows)), pivot]
    return rows * (np.conj(ref) / np.abs(ref))[:, None]


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
    """A mode set and the received fields of its modes, solved together."""

    modes: ModeSet
    fields: np.ndarray     # R @ coefficients.T, (n_rcv, modes) complex, unscaled

    def __post_init__(self):
        expected = (len(self.modes.rcv_grid.points), len(self.modes))
        if self.fields.shape != expected:
            raise ValueError(f"mode fields of shape {self.fields.shape} do not match the mode set's {expected}")


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
    """End-to-end pipeline: grids, translator, radiated basis, one SVD per class block (two per swap class), modes.

    Beyond a block's rank, its V^H completes the block's columns with beta = 0.
    The first `keep` modes are kept (all when `keep` is None or <= 0), with
    their received fields.  The budget bounds R's blocks and their V^H,
    n_rcv x n_basis and at most n_basis x n_basis, and is checked before
    anything is built.
    """
    n1, n_basis = int(np.ceil(np.sqrt(max(n_surface, 1)))), (t + 1) * (t + 2) // 2
    _check_budget(max(n1 * n1, n_basis) * n_basis, entry_budget)
    dir_grid = cap_direction_grid(geometry.axis, theta_e, *default_cap_densities(L, theta_e))
    table = translator_table(dir_grid, geometry.k, geometry.r_pq, L, windowed)
    src = tensor_grid(geometry.transmitter, n_surface)
    rcv = tensor_grid(geometry.receiver, n_surface)
    basis = basis_order_table(t)
    qx, qy, blocks = _radiated_blocks(basis, src, rcv, geometry, dir_grid, table, entry_budget)
    # Q is orthogonal and pairs nodes of equal weight, so Q W_rcv Q^T is diagonal
    wx, wy = qx**2 @ rcv.weights_x, qy**2 @ rcv.weights_y
    spectra = []  # (class, betas, conj(V^H), C_c or None for the identity), in class order
    for cls in blocks:
        scaled = np.sqrt(np.outer(wx[cls.rows_x], wy[cls.rows_y]).ravel())[:, None] * cls.block
        if cls.swap is None:
            systems = [_singular_system(scaled)]
        elif cls.parity[0] == cls.parity[1]:
            # rows the swap pairs weigh the same, so the row combinations commute with W^(1/2)
            row_swap, col_swap = cls.swap
            splits = ((sign, _swap_split(np.eye(len(col_swap)), col_swap, sign)) for sign in (1, -1))
            systems = [
                _singular_system(_swap_split(_swap_split(scaled, row_swap, sign).T, col_swap, sign).T, c_c)
                for sign, c_c in splits
                if len(c_c)
            ]
        else:  # oe takes eo's singular system, its columns read through the swap
            systems = [(beta, rows[:, cls.swap[1]], None) for beta, rows, _ in systems]
        spectra += [(cls, *system) for system in systems]
    classes = np.concatenate([np.full(len(beta), label) for label, (_, beta, *_) in enumerate(spectra)])
    betas, order = _merge_spectra(np.concatenate([beta for _, beta, *_ in spectra]), classes)
    kept = slice(keep) if keep is not None and keep > 0 else slice(None)
    merged = order[kept]
    # only the kept rows are built: merged row r is row r - start of its spectrum's
    # rows, taken through the spectrum's column combinations back to its class's columns
    coefficients = np.zeros((len(merged), len(basis)), dtype=complex)
    start, merged_class = 0, classes[merged]
    for label, (cls, _, rows, c_c) in enumerate(spectra):
        mine = np.flatnonzero(merged_class == label)
        picked = rows[merged[mine] - start]
        coefficients[np.ix_(mine, cls.cols)] = picked if c_c is None else picked @ c_c
        start += len(rows)
    coefficients = _fix_gauge(coefficients)
    modes = ModeSet(betas[kept], coefficients, float(power_w), FREE_SPACE_IMPEDANCE, basis, geometry, n_surface)
    # src and rcv are what the cached grid properties would build again
    vars(modes).update(src_grid=src, rcv_grid=rcv)
    return ModesResult(modes, _unfold(qx, qy, blocks, coefficients))


def _singular_system(scaled: np.ndarray, c_c: np.ndarray | None = None) -> tuple:
    """Betas of a weighted class block W^(1/2) B, or of its combination C_r W^(1/2) B C_c^T, with conj(V^H) and C_c.

    Its SVD U diag(sigma) V^H gives sigma^2, padded with zeros to the width;
    the coefficient rows over B's columns are conj(V^H) C_c, with no C_c for
    the identity.
    """
    width = scaled.shape[1]
    _, sigma, vh = np.linalg.svd(scaled, full_matrices=len(scaled) < width)
    return np.pad(sigma**2, (0, width - len(sigma))), vh.conj(), c_c


def _merge_spectra(betas: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Betas sorted descending, and the row order that goes with them.

    Inside a run of betas that agree to _BETA_TIE_REL * beta_1 the rows go in
    class order, so of each pair of a square link (an eo mode and its oe
    image, equal by construction) the eo mode comes first.  The betas stay
    sorted.
    """
    order = np.argsort(-betas, kind="stable")
    betas = betas[order]
    run = np.concatenate(([0], np.cumsum(np.diff(betas) < -_BETA_TIE_REL * betas[0])))
    return betas, order[np.lexsort((classes[order], run))]


def _sample_currents(basis: np.ndarray, rows: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """The currents of coefficient rows (count, n_basis) at a grid's points, (n_points, count).

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
    """Field psi_n of mode current n on the mode set's receiver grid."""
    modes = result.modes
    if not 0 <= n < len(modes):
        raise IndexError("mode index out of range")
    return modes.scale * result.fields[:, n]


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
    """Gram matrix of the first `count` received fields over the receiver.

    Diagonal tracks beta_n * (P_t/eta); off-diagonals measure biorthogonality
    leakage of the discretization.
    """
    modes = result.modes
    if not 0 <= count <= len(modes):
        raise ValueError(f"count {count} is outside [0, {len(modes)}], the number of stored modes")
    psi = modes.scale * result.fields[:, :count]
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
