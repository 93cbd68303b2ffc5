"""Legendre polynomials, Gauss-Legendre quadrature, and spherical Bessel functions.

Everything here is self-contained double-precision numerics; no external
special-function library is used.  Each Bessel kind has one recurrence.
The spherical Bessel functions j_l take an array of real arguments of any
sign, zero included, for the closed-form Legendre patterns of the mode
solve, by Miller's downward recurrence.  The translator's spherical Hankel
sequence takes one positive scalar and its own upward recurrence.  It
follows the engineering e^{-jkR} phase convention, h_l(x) = j_l(x) - i*y_l(x),
which is the convention the plane-wave translator requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "legendre_sequence",
    "gauss_legendre_rule",
    "spherical_hankel_paper",
]

# A second-kind part y_l beyond this is treated as an overflow of the Hankel sequence;
# double precision tops out near 1.8e308 and downstream products need headroom.
_OVERFLOW_LIMIT = 1e280

# Rescaling threshold for the downward (Miller) recurrence.
_RESCALE_LIMIT = 1e250

# Below this |x|, j_l(x) is its leading term x^l / (2l+1)!! to double precision.
_SMALL_ARGUMENT = 1e-8


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def map_to(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Affinely map the rule to the interval [a, b]."""
        half = 0.5 * (b - a)
        return half * self.nodes + 0.5 * (a + b), half * self.weights


def legendre_sequence(l_max: int, x) -> np.ndarray:
    """Evaluate P_0(x) .. P_{l_max}(x) by the three-term recurrence.

    Parameters
    ----------
    l_max : int
        Highest order, >= 0.
    x : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    ndarray of shape (l_max + 1,) + shape(x)
        P_n = ((2n-1)/n) x P_{n-1} - ((n-1)/n) P_{n-2}, seeded with
        P_0 = 1, P_1 = x.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("Legendre argument outside [-1, 1]")
    out = np.empty((l_max + 1,) + x.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = x
    for n in range(2, l_max + 1):
        out[n] = ((2 * n - 1) * x * out[n - 1] - (n - 1) * out[n - 2]) / n
    return out


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P'_n(x) for the Newton root solve (x strictly inside (-1, 1))."""
    p_prev, p = legendre_sequence(n, x)[n - 1 :]
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


# rules already built, by order; their arrays are read-only
_RULES: dict[int, QuadratureRule] = {}


def gauss_legendre_rule(n: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n.

    Nodes are the roots of P_n, found by Newton iteration from the asymptotic
    cosine guess; weights are 2 / ((1 - x^2) P'_n(x)^2).  Convergence to
    1e-15 with at most 100 iterations.  Every call with the same n returns
    the same rule, whose nodes and weights are read-only.
    """
    if n < 1:
        raise ValueError("rule order must be >= 1")
    rule = _RULES.get(n)
    if rule is None:
        rule = _RULES[n] = _newton_rule(n)
        for array in (rule.nodes, rule.weights):
            array.flags.writeable = False
    return rule


def _newton_rule(n: int) -> QuadratureRule:
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0))
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact +/- symmetry so downstream grids are bit-reproducible
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order])


def spherical_bessel_j(l_max: int, x) -> np.ndarray:
    """First-kind spherical Bessel functions j_0(x) .. j_{l_max}(x) at each real x, shape (l_max + 1,) + shape(x).

    The closed-form patterns of the mode solve are its one use; their
    arguments are bounded by k times half a side.  Miller's downward
    recurrence on the whole array, started well above both l_max and the
    largest |x|, so it runs O(l_max + max|x|) steps, rescaled as it grows
    and normalized against the closed-form seed j_0 = sin x / x (or j_1
    where sin x is nearly zero), which is also the order-0 value.  Below
    |x| = 1e-8 the leading term x^l / (2l+1)!! is exact in double precision,
    which gives j_l(0) = delta_l0; a negative x takes j_l(-x) = (-1)^l j_l(x).
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    small = a < _SMALL_ARGUMENT
    a[small] = 1.0  # the recurrence's argument; small ones take the leading term below
    s, c, inverse = np.sin(a), np.cos(a), 1.0 / a
    j0, j1 = s * inverse, (s * inverse - c) * inverse
    top = max(l_max, int(np.ceil(a.max(initial=0.0))))
    start = top + max(16, int(np.ceil(np.sqrt(40.0 * top))))
    # rows 0 .. max(l_max, 1) of the sequence are kept; above them only the two the recurrence reads
    f = np.empty((max(l_max, 1) + 1, a.size))
    upper, current = np.zeros(a.size), np.full(a.size, 1e-300)  # orders l + 1 and l, from l = start
    for l in range(start, 0, -1):
        lower = current * inverse
        lower *= 2 * l + 1
        lower -= upper
        upper, current = current, lower
        if l <= len(f):
            f[l - 1] = current
        if l % 4 == 0:  # a step grows an entry by at most (2 l + 1) / 1e-8: four stay in range up to start ~ 1e6
            big = np.abs(current) > _RESCALE_LIMIT
            if big.any():
                upper[big], current[big] = upper[big] / _RESCALE_LIMIT, current[big] / _RESCALE_LIMIT
                f[l - 1 :, big] /= _RESCALE_LIMIT  # the kept rows made so far
    # j0 degenerates at the zeros of sin; j1 cannot vanish there too
    out = f[: l_max + 1] * np.where(np.abs(j0) >= np.abs(j1), j0 / f[0], j1 / f[1])
    out[0] = j0  # the seed itself, which the recurrence gives only to its cancellation near a zero of sin
    tiny = np.abs(x).ravel()[small]
    out[:, small] = np.cumprod([np.ones_like(tiny)] + [tiny / (2 * l + 1) for l in range(1, l_max + 1)], axis=0)
    out[1::2] *= np.where(x.ravel() < 0, -1.0, 1.0)
    return out.reshape((l_max + 1,) + x.shape)


def spherical_hankel_paper(l_max: int, x: float) -> np.ndarray:
    """Spherical Hankel sequence h_0(x) .. h_{l_max}(x), h_l = j_l - i*y_l, at one x > 0.

    This pairs with the e^{-jkR} propagation phase used throughout; note it
    coincides with the usual *second*-kind spherical Hankel function.  One
    upward recurrence h_{l+1} = (2l+1)/x h_l - h_{l-1}, O(l_max) scalar
    steps, seeded from sin x and cos x: h_0 = (sin x + i cos x) / x.  Its
    imaginary part is the upward recurrence on -y_l, which is stable for the
    second kind; past l ~ x its real part loses j_l to roundoff of y_l, so
    each h_l stays accurate relative to |h_l|.  Raises OverflowError once
    y_l leaves the representable range (l far above x).
    """
    x = float(x)
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if x <= 0:
        raise ValueError("argument must be positive")
    s, c = np.sin(x), np.cos(x)
    h = [complex(s / x, c / x), complex(s / (x * x) - c / x, c / (x * x) + s / x)]
    for l in range(1, l_max):
        h.append((2 * l + 1) / x * h[l] - h[l - 1])
        if abs(h[-1].imag) > _OVERFLOW_LIMIT:
            raise OverflowError(
                f"y_{l + 1}({x:g}), the second kind in h_{l + 1}, exceeds the supported range; "
                "reduce the truncation order or increase the separation"
            )
    return np.array(h[: l_max + 1])
