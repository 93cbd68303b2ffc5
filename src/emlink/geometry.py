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
    if not (0 < side_x < np.inf and 0 < side_y < np.inf):
        raise ValueError("aperture sides must be positive and finite")
    center = np.array(center, dtype=float)
    if center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError("aperture center must be three finite numbers")
    return Aperture(_read_only(center), float(side_x), float(side_y))


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
    """Rotation matrix mapping +z onto the unit `axis`.

    On the +z side, Rodrigues' rotation from +z about z x axis; on the -z
    side, Rodrigues' rotation from -z about -z x axis after diag(1, -1, -1),
    the half turn about x that takes +z to -z.  Each is exactly I or
    diag(1, -1, -1) on +-z, and its 1 / (1 + |c|) never exceeds 1.
    """
    c = float(axis @ _Z_AXIS)
    pole = _Z_AXIS if c >= 0 else -_Z_AXIS
    v = np.cross(pole, axis)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    rotation = np.eye(3) + vx + vx @ vx / (1.0 + abs(c))
    return rotation if c >= 0 else rotation @ np.diag([1.0, -1.0, -1.0])


@dataclass(frozen=True, eq=False)
class DirectionGrid(_ByValue):
    """Quadrature for integrals over the cap {k_hat : angle(k_hat, axis) <= theta_e}, as n_theta rings.

    The cached `gauss_legendre_rule(n_theta)`, mapped to u = cos(theta) over
    [cos(theta_e), 1] by its `map_to` as `SurfaceGrid` maps its rule to a
    side, gives the ring `cosines` and their weights w_u, crossed with a
    uniform (trapezoid-on-periodic) phi rule of n_phi azimuths per ring; each
    sample on a ring weighs `ring_weights` = w_u * (2*pi/n_phi) steradians.
    The grid is its axis (normalized on construction), theta_e, n_theta and
    n_phi; every array is derived from them when first read, and is read-only.
    `directions` and `weights` are ring-major (direction i * n_phi + j is
    azimuth 2 pi j / n_phi on ring i), and the weights sum to the cap's
    2*pi*(1 - cos(theta_e)).  So what `channel` keeps in `_waves`, the
    orbits and the folded plane-wave factors, stays valid.  A function of the
    angle to the axis alone, such as the translator
    (`greens.translator_table`), is one value per ring, and a lateral mirror
    or swap that fixes the axis keeps each ring in place and maps its
    azimuths in closed form (`_image_steps`).  Grids compare and hash by
    their rule, the axis as a tuple of floats; the memo takes no part.  A
    zero or non-finite axis, an angle outside (0, pi] or a size below 1
    raises ValueError when the grid is built.
    """

    axis: np.ndarray  # (3,) cap axis, stored normalized
    theta_e: float    # cap half-angle, in (0, pi]
    n_theta: int      # rings
    n_phi: int        # azimuths per ring
    _waves: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not 0 < norm < np.inf:
            raise ValueError("axis must be non-zero and finite")
        if not (0.0 < self.theta_e <= np.pi):
            raise ValueError("theta_e must lie in (0, pi]")
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("grid sizes must be >= 1")
        object.__setattr__(self, "axis", _read_only(axis / norm))

    def _value(self) -> tuple:
        return tuple(self.axis.tolist()), self.theta_e, self.n_theta, self.n_phi

    @cached_property
    def _rings(self) -> tuple[np.ndarray, np.ndarray]:
        """Ring cosines and weights w_u, read-only: the rule mapped to u = cos(theta) over [cos(theta_e), 1]."""
        return tuple(map(_read_only, gauss_legendre_rule(self.n_theta).map_to(np.cos(self.theta_e), 1.0)))

    cosines = cached_property(lambda self: self._rings[0])  # (n_theta,) cos(theta) of each ring

    @cached_property
    def ring_weights(self) -> np.ndarray:
        """(n_theta,) steradians per direction on each ring."""
        return _read_only(self._rings[1] * (2.0 * np.pi / self.n_phi))

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
        """(n_theta * n_phi,) steradians, ring-major, for callers outside the package: no fold path reads it."""
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


def _image_steps(grid: DirectionGrid) -> tuple[int | None, int | None, int | None]:
    """The images of k_x -> -k_x, k_y -> -k_y and k_x <-> k_y as steps s: sample j goes to (s - j) mod n_phi.

    The cap's frame (`_rotation_to`) is a rotation about x when the axis has
    no x part and about y when it has no y part, after diag(1, -1, -1) on the
    -z side; each of these commutes with the mirror that fixes the axis,
    which then keeps each ring in place and acts on the azimuth alone:
    the x-mirror takes phi to pi - phi (s = n_phi/2), the y-mirror to -phi
    (s = 0).  On a cap about +z the swap takes phi to pi/2 - phi
    (s = n_phi/4), about -z to -pi/2 - phi (s = -n_phi/4).  Any other map,
    and a map whose s is not an integer, gets None: `channel._symmetries`,
    which the fold and the mode solve read, asks for the swap only on a link
    with both mirrors, whose axis is +z or -z.
    """
    n, (ax, ay, az) = grid.n_phi, grid.axis
    swap = n // 4 * int(az) if ax == ay == 0.0 and n % 4 == 0 else None
    return n // 2 if ax == 0.0 and n % 2 == 0 else None, 0 if ay == 0.0 else None, swap


def truncation_order(k: float, D: float) -> int:
    """Series truncation L = ceil(kD + 2.9 (kD)^(1/3)) for aperture size D."""
    if k <= 0 or D <= 0:
        raise ValueError("k and D must be positive")
    kd = k * D
    return int(np.ceil(kd + 2.9 * kd ** (1.0 / 3.0)))


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter/receiver pair with the plane-wave expansion validity check.

    The center separation must be at least `rho_max`, otherwise the
    translated expansion diverges.
    """

    transmitter: Aperture
    receiver: Aperture
    k: float

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise ValueError("wavenumber must be positive and finite")
        if not np.all(np.isfinite(self.r_pq)):
            raise ValueError("aperture centers must be finite")
        sep = float(np.linalg.norm(self.r_pq))
        if sep < self.rho_max:
            raise ValueError(
                f"center separation {sep:.4g} violates the expansion validity "
                f"bound {self.rho_max:.4g} (sum of aperture half-diagonals)"
            )

    @property
    def rho_max(self) -> float:
        """The sum of the apertures' half-diagonals, the radius the translator series must converge over."""
        return self.transmitter.half_diagonal + self.receiver.half_diagonal

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
