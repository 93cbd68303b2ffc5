"""Apertures, surface quadrature grids, spherical-cap direction grids.

All lengths are in wavelengths (lambda = 1, k = 2*pi), the convention the
configuration fixes; nothing below depends on it except through k.  Apertures
are axis-aligned rectangles facing +z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import gauss_legendre_rule

__all__ = [
    "Aperture",
    "SurfaceGrid",
    "DirectionGrid",
    "LinkGeometry",
    "rect_aperture",
    "tensor_grid",
    "cap_direction_grid",
    "default_cap_densities",
    "truncation_order",
]

_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Aperture:
    """Planar rectangular aperture; only the +z normal is implemented."""

    center: np.ndarray
    side_x: float
    side_y: float

    @property
    def area(self) -> float:
        return self.side_x * self.side_y

    @property
    def half_diagonal(self) -> float:
        return 0.5 * float(np.hypot(self.side_x, self.side_y))


def _frozen(array) -> np.ndarray:
    """A read-only float copy of `array`; the caller's own array stays writeable."""
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


def rect_aperture(center, side_x: float, side_y: float) -> Aperture:
    """Axis-aligned rectangular aperture with a +z normal; it holds its own read-only copy of the center."""
    if side_x <= 0 or side_y <= 0:
        raise ValueError("aperture sides must be positive")
    return Aperture(_frozen(center), float(side_x), float(side_y))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SurfaceGrid:
    """Quadrature points and area weights on an aperture, the tensor product of one Gauss rule per axis.

    The grid holds the per-axis nodes and weights; `points` and `weights`
    are derived from them when first read, so they cannot disagree: point
    i * len(nodes_y) + j sits at (nodes_x[i], nodes_y[j]) at the aperture's
    z, with weight weights_x[i] * weights_y[j].  Every array is read-only
    and the per-axis ones are the grid's own copies (`_frozen`), so its node
    checks `symmetries` are made once.
    """

    aperture: Aperture
    nodes_x: np.ndarray    # (n_x,)
    nodes_y: np.ndarray    # (n_y,)
    weights_x: np.ndarray  # (n_x,), sums to side_x
    weights_y: np.ndarray  # (n_y,), sums to side_y

    def __post_init__(self):
        for name in ("nodes_x", "nodes_y", "weights_x", "weights_y"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @cached_property
    def points(self) -> np.ndarray:
        """(n_x * n_y, 3) points, row-major over (nodes_x, nodes_y)."""
        nx, ny = len(self.nodes_x), len(self.nodes_y)
        z = np.full(nx * ny, self.aperture.center[2])
        return _read_only(np.stack([np.repeat(self.nodes_x, ny), np.tile(self.nodes_y, nx), z], axis=1))

    @cached_property
    def weights(self) -> np.ndarray:
        """(n_x * n_y,) area weights, summing to the aperture area."""
        return _read_only(np.outer(self.weights_x, self.weights_y).ravel())

    @cached_property
    def symmetries(self) -> tuple[bool, bool, bool]:
        """(x, y, square): the nodes and weights along x, and along y, are symmetric about the aperture's center;
        the sides, the nodes about the center and the weights agree on x and y.

        Nodes agree to 1e-13 of their largest offset from the center, weights to 1e-13 relative.
        """
        cx, cy, _ = self.aperture.center
        axes = (self.nodes_x - cx, self.weights_x), (self.nodes_y - cy, self.weights_y)

        def same(axis, other) -> bool:  # two (nodes, weights) pairs
            scale = np.max(np.abs(axis[0]), initial=0.0)
            nodes = np.allclose(axis[0], other[0], rtol=0.0, atol=1e-13 * scale)
            return bool(nodes and np.allclose(axis[1], other[1], rtol=1e-13, atol=0.0))

        x, y = (same((nodes, w), (-nodes[::-1], w[::-1])) for nodes, w in axes)
        sides = self.aperture.side_x == self.aperture.side_y and len(self.nodes_x) == len(self.nodes_y)
        return x, y, sides and same(*axes)


def tensor_grid(aperture: Aperture, n_total: int) -> SurfaceGrid:
    """Tensor-product Gauss-Legendre grid with ceil(sqrt(n_total)) points per axis.

    Weights carry the affine Jacobian side_x*side_y/4, so they sum to the
    aperture area and the grid integrates per-axis polynomial degree
    <= 2*ceil(sqrt(n_total)) - 1 exactly.
    """
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    n1 = int(np.ceil(np.sqrt(n_total)))
    rule = gauss_legendre_rule(n1)
    cx, cy, _ = aperture.center
    x, wx = rule.map_to(cx - 0.5 * aperture.side_x, cx + 0.5 * aperture.side_x)
    y, wy = rule.map_to(cy - 0.5 * aperture.side_y, cy + 0.5 * aperture.side_y)
    return SurfaceGrid(aperture, x, y, wx, wy)


def _rotation_to(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping +z onto `axis` (Rodrigues form)."""
    c = float(axis @ _Z_AXIS)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # antipodal: rotate by pi about x
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(_Z_AXIS, axis)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


@dataclass(frozen=True)
class DirectionGrid:
    """Unit wavevector samples on a spherical cap, held as the rings it is made of (see `cap_direction_grid`).

    Ring i is the circle at cosine `cosines[i]` = cos(theta_i) to `axis`
    (normalized on construction), sampled at n_phi uniform azimuths, each with solid-angle weight
    `ring_weights[i]`.  `directions` and `weights` are derived from the rings
    when first read, ring-major (direction i * n_phi + j is azimuth
    2 pi j / n_phi on ring i), so they cannot disagree with them; the weights
    sum to the cap's 2*pi*(1 - cos(theta_e)).  Every array is read-only and
    the ring vectors are the grid's own copies, so what `channel` keeps in
    `_waves` stays valid: the mirror images of the directions, the orbits and
    the folded plane-wave factors.  A function of the angle to the axis alone,
    such as the translator (`greens.translator_table`), is evaluated once
    per ring.
    """

    axis: np.ndarray          # (3,) cap axis, stored normalized
    cosines: np.ndarray       # (n_theta,) cos(theta) of each ring about the axis
    ring_weights: np.ndarray  # (n_theta,) steradians per direction on each ring
    n_phi: int
    _waves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("axis must be non-zero")
        object.__setattr__(self, "axis", _frozen(axis / norm))
        for name in ("cosines", "ring_weights"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.cosines.shape != self.ring_weights.shape or self.cosines.ndim != 1:
            raise ValueError("a direction grid needs one cosine and one weight per ring")
        if self.n_phi < 1:
            raise ValueError("grid sizes must be >= 1")

    @cached_property
    def directions(self) -> np.ndarray:
        """(n_theta * n_phi, 3) unit vectors, ring-major."""
        u = self.cosines
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        sin_t = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        about_z = np.stack(
            [
                np.outer(sin_t, np.cos(phi)).ravel(),
                np.outer(sin_t, np.sin(phi)).ravel(),
                np.repeat(u, self.n_phi),
            ],
            axis=1,
        )
        return _read_only(about_z @ _rotation_to(self.axis).T)

    @cached_property
    def weights(self) -> np.ndarray:
        """(n_theta * n_phi,) steradians, ring-major."""
        return _read_only(np.repeat(self.ring_weights, self.n_phi))


def cap_direction_grid(axis, theta_e: float, n_theta: int, n_phi: int) -> DirectionGrid:
    """Quadrature for integrals over the cap {k_hat : angle(k_hat, axis) <= theta_e}, as n_theta rings.

    Gauss-Legendre in u = cos(theta) over [cos(theta_e), 1] gives the ring
    cosines, crossed with a uniform (trapezoid-on-periodic) phi rule of n_phi
    azimuths per ring; the sample weight on the ring at node u is
    w_u * (1 - cos(theta_e))/2 * (2*pi/n_phi).
    """
    if not (0.0 < theta_e <= np.pi):
        raise ValueError("theta_e must lie in (0, pi]")
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be >= 1")
    rule = gauss_legendre_rule(n_theta)
    u0 = np.cos(theta_e)
    u = 0.5 * (1.0 - u0) * rule.nodes + 0.5 * (1.0 + u0)
    wu = 0.5 * (1.0 - u0) * rule.weights
    return DirectionGrid(axis, u, wu * (2.0 * np.pi / n_phi), n_phi)


def default_cap_densities(L: int, theta_e: float) -> tuple[int, int]:
    """Default (n_theta, n_phi) for a cap grid paired with an order-L translator.

    The integrand is band-limited (Bucci & Franceschetti, IEEE TAP 35, 1987):
    the degree-L translator has polar bandwidth L, so the cap's polar extent
    theta_e needs about L theta_e / 2 Gauss nodes; the plane waves have phi
    bandwidth at most k rho_max sin(theta), with rho_max the sum of the
    apertures' half-diagonals, and the series needs L >= k rho_max to
    converge.  So, with y = L theta_e / 2,

        n_theta = min(L + 1, ceil(y + 3 y^(1/3)) + 2)
        n_phi   = ceil(L sin(min(theta_e, pi/2))) + 24, rounded up to a multiple of 4,

    with n_theta at least 8.  The L + 1 cap is the full-sphere rule, which
    theta_e = pi reaches.  The margins were measured: on both presets the
    kernel agrees with a 1.4x oversampled grid to ~1e-13 of its largest entry.
    A multiple of 4 makes a cap about z closed under both lateral mirrors
    k_x -> -k_x and k_y -> -k_y and under the swap k_x <-> k_y (phi ->
    pi/2 - phi), which a coaxial link's mode solve folds by.
    """
    y = 0.5 * L * theta_e
    n_theta = min(L + 1, int(np.ceil(y + 3.0 * y ** (1.0 / 3.0))) + 2)
    n_phi = int(np.ceil(L * np.sin(min(theta_e, 0.5 * np.pi)))) + 24
    return max(8, n_theta), n_phi + -n_phi % 4


# the lateral images a direction grid can be closed under, as maps of
# (k_x, k_y, k_z): k_x -> -k_x, k_y -> -k_y and the swap k_x <-> k_y
_LATERAL_IMAGES = (np.diag([-1, 1, 1]), np.diag([1, -1, 1]), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))

# directions are paired on this lattice, then checked to 1e-12; each of a
# key's three coordinates fits in 21 bits, so a key packs into one int64
_MIRROR_KEY_SCALE = 2**19
_KEY_BITS = 21


def _lattice_keys(directions: np.ndarray) -> np.ndarray:
    shifted = np.rint(directions * _MIRROR_KEY_SCALE).astype(np.int64) + _MIRROR_KEY_SCALE
    return (shifted[:, 0] << 2 * _KEY_BITS) | (shifted[:, 1] << _KEY_BITS) | shifted[:, 2]


def _mirror_partner(grid: DirectionGrid, images) -> list[np.ndarray | None]:
    """For each image map (a signed permutation matrix of k, as in `_LATERAL_IMAGES`), each direction's image.

    The grid's lattice keys are made and sorted once; each map's images are
    exact (a signed permutation of the coordinates), so their keys are the
    keys of their directions when the grid is closed under the map.  A map
    gets None when it is not: the sorted keys differ, or a paired direction
    lies more than 1e-12 from the image.
    """
    keys = _lattice_keys(grid.directions)
    order = np.argsort(keys)
    ranked = keys[order]
    partners = []
    for image in images:
        mapped = grid.directions @ image.T
        wanted = _lattice_keys(mapped)
        by_key = np.argsort(wanted)
        partner = None
        if np.array_equal(wanted[by_key], ranked):
            partner = np.empty(len(keys), dtype=int)
            partner[by_key] = order
            if np.max(np.abs(grid.directions[partner] - mapped), initial=0.0) > 1e-12:
                partner = None
        partners.append(partner)
    return partners


def truncation_order(k: float, D: float) -> int:
    """Series truncation L = ceil(kD + 2.9 (kD)^(1/3)) for aperture size D."""
    if k <= 0 or D <= 0:
        raise ValueError("k and D must be positive")
    kd = k * D
    return int(np.ceil(kd + 2.9 * kd ** (1.0 / 3.0)))


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter/receiver pair with the plane-wave expansion validity check.

    The center separation must be at least the sum of the two apertures'
    half-diagonals, otherwise the translated expansion diverges.
    """

    transmitter: Aperture
    receiver: Aperture
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("wavenumber must be positive")
        sep = float(np.linalg.norm(self.r_pq))
        bound = self.transmitter.half_diagonal + self.receiver.half_diagonal
        if sep < bound:
            raise ValueError(
                f"center separation {sep:.4g} violates the expansion validity "
                f"bound {bound:.4g} (sum of aperture half-diagonals)"
            )

    @property
    def r_pq(self) -> np.ndarray:
        """Vector from the transmitter center q to the receiver center p."""
        return self.receiver.center - self.transmitter.center

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.r_pq))

    @property
    def axis(self) -> np.ndarray:
        return self.r_pq / self.distance
