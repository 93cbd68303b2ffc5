"""Apertures, surface quadrature grids, spherical-cap direction grids.

Each grid is its quadrature rule and derives every array from it when first
read: a `SurfaceGrid` is its aperture and Gauss order, a `DirectionGrid` its
axis, cap angle and ring and azimuth counts.  All lengths are in wavelengths
(lambda = 1, k = 2*pi), the convention the configuration fixes; nothing below
depends on it except through k.  Apertures are axis-aligned rectangles facing +z.
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


class _ByValue:
    """== and hash over `_value()`, a tuple of numbers: a dataclass's own == would compare ndarray fields."""

    def __eq__(self, other):
        return type(other) is type(self) and self._value() == other._value()

    def __hash__(self):
        return hash(self._value())


@dataclass(frozen=True, eq=False)
class Aperture(_ByValue):
    """Planar rectangular aperture; only the +z normal is implemented.

    Apertures compare and hash by value, the center as a tuple of floats.
    """

    center: np.ndarray
    side_x: float
    side_y: float

    def _value(self) -> tuple:
        return tuple(self.center.tolist()), self.side_x, self.side_y

    @property
    def area(self) -> float:
        return self.side_x * self.side_y

    @property
    def half_diagonal(self) -> float:
        return 0.5 * float(np.hypot(self.side_x, self.side_y))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def rect_aperture(center, side_x: float, side_y: float) -> Aperture:
    """Axis-aligned rectangular aperture with a +z normal; it holds its own read-only copy of the center."""
    if side_x <= 0 or side_y <= 0:
        raise ValueError("aperture sides must be positive")
    return Aperture(_read_only(np.array(center, dtype=float)), float(side_x), float(side_y))


@dataclass(frozen=True)
class SurfaceGrid:
    """The n-point Gauss-Legendre rule on each side of an aperture, and their tensor product.

    Every array is derived from the aperture and the cached
    `gauss_legendre_rule(n)` when first read, and is read-only.  Along each
    axis the rule is mapped to the side, so the nodes lie on the aperture,
    symmetric about its center up to roundoff (`channel._fold` relies on it),
    and the weights sum to the side; point i * n + j sits at (nodes_x[i],
    nodes_y[j]) at the aperture's z, with weight weights_x[i] * weights_y[j].
    """

    aperture: Aperture
    n: int  # nodes per axis

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a surface grid needs n >= 1 nodes per axis")

    def _side(self, axis: int) -> tuple[np.ndarray, ...]:
        """The rule's nodes and weights mapped to the aperture's side along `axis` (0 for x, 1 for y), read-only."""
        center, side = self.aperture.center[axis], (self.aperture.side_x, self.aperture.side_y)[axis]
        return tuple(map(_read_only, gauss_legendre_rule(self.n).map_to(center - 0.5 * side, center + 0.5 * side)))

    nodes_x = cached_property(lambda self: self._side(0)[0])    # (n,)
    nodes_y = cached_property(lambda self: self._side(1)[0])    # (n,)
    weights_x = cached_property(lambda self: self._side(0)[1])  # (n,), sums to side_x
    weights_y = cached_property(lambda self: self._side(1)[1])  # (n,), sums to side_y

    @cached_property
    def points(self) -> np.ndarray:
        """(n * n, 3) points, row-major over (nodes_x, nodes_y)."""
        z = np.full(self.n * self.n, self.aperture.center[2])
        return _read_only(np.stack([np.repeat(self.nodes_x, self.n), np.tile(self.nodes_y, self.n), z], axis=1))

    @cached_property
    def weights(self) -> np.ndarray:
        """(n * n,) area weights, summing to the aperture area."""
        return _read_only(np.outer(self.weights_x, self.weights_y).ravel())


def tensor_grid(aperture: Aperture, n_total: int) -> SurfaceGrid:
    """`SurfaceGrid` of ceil(sqrt(n_total)) points per axis, exact for per-axis degree < 2 ceil(sqrt(n_total))."""
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    return SurfaceGrid(aperture, int(np.ceil(np.sqrt(n_total))))


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


@dataclass(frozen=True, eq=False)
class DirectionGrid(_ByValue):
    """Quadrature for integrals over the cap {k_hat : angle(k_hat, axis) <= theta_e}, as n_theta rings.

    Gauss-Legendre in u = cos(theta) over [cos(theta_e), 1] gives the ring
    `cosines`, crossed with a uniform (trapezoid-on-periodic) phi rule of
    n_phi azimuths per ring; each sample on the ring at node u weighs
    `ring_weights` = w_u * (1 - cos(theta_e))/2 * (2*pi/n_phi) steradians.
    The grid is its axis (normalized on construction), theta_e, n_theta and
    n_phi; every array is derived from them and the cached
    `gauss_legendre_rule(n_theta)` when first read, and is read-only.
    `directions` and `weights` are ring-major (direction i * n_phi + j is
    azimuth 2 pi j / n_phi on ring i), and the weights sum to the cap's
    2*pi*(1 - cos(theta_e)).  So what `channel` keeps in `_waves` stays
    valid: the mirror images of the directions, the orbits and the folded
    plane-wave factors.  A function of the angle to the axis alone, such as
    the translator (`greens.translator_table`), is one value per ring, and a
    map that fixes the axis keeps each ring in place, so its images are
    paired by azimuth (`_mirror_partner`).  Grids compare and hash by their
    rule, the axis as a tuple of floats; the memo takes no part.
    """

    axis: np.ndarray  # (3,) cap axis, stored normalized
    theta_e: float    # cap half-angle, in (0, pi]
    n_theta: int      # rings
    n_phi: int        # azimuths per ring
    _waves: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("axis must be non-zero")
        if not (0.0 < self.theta_e <= np.pi):
            raise ValueError("theta_e must lie in (0, pi]")
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("grid sizes must be >= 1")
        object.__setattr__(self, "axis", _read_only(axis / norm))

    def _value(self) -> tuple:
        return tuple(self.axis.tolist()), self.theta_e, self.n_theta, self.n_phi

    @cached_property
    def cosines(self) -> np.ndarray:
        """(n_theta,) cos(theta) of each ring about the axis."""
        u0 = np.cos(self.theta_e)
        return _read_only(0.5 * (1.0 - u0) * gauss_legendre_rule(self.n_theta).nodes + 0.5 * (1.0 + u0))

    @cached_property
    def ring_weights(self) -> np.ndarray:
        """(n_theta,) steradians per direction on each ring."""
        wu = 0.5 * (1.0 - np.cos(self.theta_e)) * gauss_legendre_rule(self.n_theta).weights
        return _read_only(wu * (2.0 * np.pi / self.n_phi))

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
    """The `DirectionGrid` of n_theta rings of n_phi azimuths on the cap of half-angle theta_e about `axis`."""
    return DirectionGrid(axis, theta_e, n_theta, n_phi)


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

def _mirror_partner(grid: DirectionGrid, images) -> list[np.ndarray | None]:
    """For each image map (a signed permutation matrix of k, as in `_LATERAL_IMAGES`), each direction's image.

    A map that fixes the cap axis sends every ring onto itself and moves the
    azimuth the same way on each, so the azimuth map is read once, in the
    cap's own frame, on the ring farthest from the axis, and laid over every
    ring.  A map gets None when a paired direction lies more than 1e-12 from
    its image: the grid is not closed under it, or the map moves a ring onto
    another (the x-mirror of a full sphere about x sends ring u to ring -u).
    """
    n_phi = grid.n_phi
    widest = int(np.argmin(np.abs(grid.cosines)))
    ring = grid.directions[widest * n_phi:(widest + 1) * n_phi]
    frame = _rotation_to(grid.axis)
    starts = n_phi * np.arange(grid.n_theta)[:, None]
    partners = []
    for image in images:
        local = ring @ image.T @ frame
        shift = np.rint(np.arctan2(local[:, 1], local[:, 0]) * (n_phi / (2.0 * np.pi))).astype(int) % n_phi
        partner = (starts + shift).ravel()
        if np.max(np.abs(grid.directions[partner] - grid.directions @ image.T), initial=0.0) > 1e-12:
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
