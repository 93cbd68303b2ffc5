"""Apertures, surface quadrature grids, spherical-cap direction grids.

All lengths are in wavelengths (lambda = 1, k = 2*pi) unless a caller chooses
otherwise; nothing below depends on that convention except through k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    normal: np.ndarray = field(default_factory=lambda: _Z_AXIS.copy())

    @property
    def area(self) -> float:
        return self.side_x * self.side_y

    @property
    def half_diagonal(self) -> float:
        return 0.5 * float(np.hypot(self.side_x, self.side_y))


def rect_aperture(center, side_x: float, side_y: float) -> Aperture:
    """Axis-aligned rectangular aperture with a +z normal."""
    if side_x <= 0 or side_y <= 0:
        raise ValueError("aperture sides must be positive")
    return Aperture(np.asarray(center, dtype=float), float(side_x), float(side_y))


@dataclass(frozen=True)
class SurfaceGrid:
    """Quadrature points and area weights on an aperture.

    The points are the tensor product of `nodes_x` and `nodes_y` at the
    aperture's z, in row-major order: point i * len(nodes_y) + j sits at
    (nodes_x[i], nodes_y[j]).
    """

    points: np.ndarray   # (n, 3)
    weights: np.ndarray  # (n,), sums to the aperture area
    aperture: Aperture
    nodes_x: np.ndarray  # (n_x,)
    nodes_y: np.ndarray  # (n_y,)


def tensor_grid(aperture: Aperture, n_total: int) -> SurfaceGrid:
    """Tensor-product Gauss-Legendre grid with ceil(sqrt(n_total)) points per axis.

    Weights carry the affine Jacobian side_x*side_y/4, so they sum to the
    aperture area and the grid integrates per-axis polynomial degree
    <= 2*ceil(sqrt(n_total)) - 1 exactly.
    """
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if not np.allclose(aperture.normal, _Z_AXIS, atol=1e-12):
        raise ValueError("only +z-normal planar apertures are supported")
    n1 = int(np.ceil(np.sqrt(n_total)))
    rule = gauss_legendre_rule(n1)
    cx, cy, cz = aperture.center
    x, wx = rule.map_to(cx - 0.5 * aperture.side_x, cx + 0.5 * aperture.side_x)
    y, wy = rule.map_to(cy - 0.5 * aperture.side_y, cy + 0.5 * aperture.side_y)
    X, Y = np.meshgrid(x, y, indexing="ij")
    points = np.stack([X.ravel(), Y.ravel(), np.full(n1 * n1, cz)], axis=1)
    weights = np.outer(wx, wy).ravel()
    return SurfaceGrid(points, weights, aperture, x, y)


@dataclass(frozen=True)
class DirectionGrid:
    """Unit wavevector samples on a spherical cap around `axis`.

    Weights are solid-angle measure; they sum to 2*pi*(1 - cos(theta_e)).
    """

    directions: np.ndarray  # (n, 3) unit vectors
    weights: np.ndarray     # (n,) steradians
    axis: np.ndarray        # unit vector, cap center
    theta_e: float          # half-angle, radians

    @property
    def solid_angle(self) -> float:
        return 2.0 * np.pi * (1.0 - np.cos(self.theta_e))


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


def cap_direction_grid(axis, theta_e: float, n_theta: int, n_phi: int) -> DirectionGrid:
    """Quadrature for integrals over the cap {k_hat : angle(k_hat, axis) <= theta_e}.

    Gauss-Legendre in u = cos(theta) over [cos(theta_e), 1] crossed with a
    uniform (trapezoid-on-periodic) phi rule; the sample weight is
    w_u * (1 - cos(theta_e))/2 * (2*pi/n_phi).
    """
    if not (0.0 < theta_e <= np.pi):
        raise ValueError("theta_e must lie in (0, pi]")
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be >= 1")
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("axis must be non-zero")
    axis = axis / norm

    rule = gauss_legendre_rule(n_theta)
    u0 = np.cos(theta_e)
    u = 0.5 * (1.0 - u0) * rule.nodes + 0.5 * (1.0 + u0)
    wu = 0.5 * (1.0 - u0) * rule.weights
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    directions = np.stack(
        [
            np.outer(sin_t, np.cos(phi)).ravel(),
            np.outer(sin_t, np.sin(phi)).ravel(),
            np.repeat(u, n_phi),
        ],
        axis=1,
    )
    weights = np.repeat(wu * (2.0 * np.pi / n_phi), n_phi)
    rot = _rotation_to(axis)
    return DirectionGrid(directions @ rot.T, weights, axis, float(theta_e))


def default_cap_densities(L: int, theta_e: float) -> tuple[int, int]:
    """Default (n_theta, n_phi) for a cap grid paired with an order-L translator.

    The translator is a degree-L polynomial in cos(gamma), so resolving it
    needs ~L+1 Gauss nodes on the retained u-interval no matter how narrow
    the cap is; phi keeps the conventional 2L samples.
    """
    return max(8, L + 1), max(8, 2 * L)


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
