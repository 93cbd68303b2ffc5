"""Degrees of freedom, water-filling, and capacity curves for parallel subchannels.

Subchannel n carries gain beta_n (descending, beta_1 normalized to one for
SNR bookkeeping); total transmit power P_t is split across channels against
per-channel noise power sigma^2, and capacity is counted in bits (log2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerAllocation",
    "SpectrumFit",
    "CapacityPoint",
    "dof_geometric",
    "waterfill",
    "spectrum_fit",
    "capacity_vs_snr",
]


def dof_geometric(area_t: float, area_r: float, d: float) -> float:
    """Geometric spatial degrees of freedom A_t * A_r / (lambda^2 d^2), lengths in wavelengths."""
    if min(area_t, area_r, d) <= 0:
        raise ValueError("areas and distance must be positive")
    return area_t * area_r / (d * d)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subchannel powers (watts); zero beyond the active set."""

    powers: np.ndarray
    active_count: int
    water_level: float


def waterfill(betas: np.ndarray, p_t: float, sigma2: float) -> PowerAllocation:
    """Closed-form water-filling over the largest feasible active set.

    For the active set of size M,
        P_n = P_t/M + (1/M) sum_i sigma^2/beta_i - sigma^2/beta_n.
    With descending betas the feasible sets (every P_n >= 0) are the
    prefixes up to the largest M whose level (P_t + sum_{i<=M} sigma^2/beta_i)/M
    reaches sigma^2/beta_M, so one cumulative sum finds M.  A channel with
    beta = 0, or with a floor or level past the float range, gets no power.
    """
    betas = np.asarray(betas, dtype=float)
    if not (0 < p_t < np.inf and 0 < sigma2 < np.inf):
        raise ValueError("p_t and sigma2 must be finite and positive")
    if not np.all(np.isfinite(betas)):
        raise ValueError("betas must be finite")
    if betas.size == 0 or betas[0] <= 0:
        raise ValueError("spectrum has no usable channel")
    if np.any(np.diff(betas) > 0):
        raise ValueError("betas must be sorted descending")
    with np.errstate(over="ignore"):  # past the float range: inf, and infeasible
        inv = sigma2 / betas[betas > 0]
        totals = p_t + np.cumsum(inv)
    n = int(np.count_nonzero(np.isfinite(totals)))  # the floors ascend: a prefix is finite
    if n == 0:
        raise ValueError("p_t + sigma2/beta_1 exceeds the float range")
    levels = totals[:n] / np.arange(1, n + 1)
    M = int(np.flatnonzero(levels - inv[:n] >= 0)[-1]) + 1
    level = (p_t + np.sum(inv[:M])) / M
    powers = np.zeros_like(betas)
    powers[:M] = level - inv[:M]
    return PowerAllocation(powers, M, float(level))


def _noise_power(p_t: float, snr_db: float) -> float:
    """sigma^2 = P_t * 10^(-SNR/10); inf once 10^(-SNR/10) passes the float range."""
    try:
        return p_t * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        return np.inf


def _rate(betas: np.ndarray, alloc: PowerAllocation, sigma2: float) -> float:
    """sum log2(1 + beta_n P_n / sigma^2) over the channels that carry power."""
    active = alloc.powers > 0
    return float(np.sum(np.log2(1.0 + betas[active] * alloc.powers[active] / sigma2)))


def _capacity_equal(beta_avg: float, n: int, p_t: float, sigma2: float) -> float:
    """Flat-plateau capacity N log2(1 + beta_avg P_t / (N sigma^2))."""
    if n < 1:
        raise ValueError("channel count must be >= 1")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return float(n * np.log2(1.0 + beta_avg * p_t / (n * sigma2)))


@dataclass(frozen=True)
class SpectrumFit:
    """Piecewise plateau + exponential-decay description of a spectrum."""

    plateau_avg: float
    decay_rate: float        # c in beta_n ~ 10^(-c (n - N - 1)) past the plateau
    r_squared: float         # log-domain fit quality of the piecewise model
    intercept_log10: float
    n_plateau: int
    n_tail_points: int


def spectrum_fit(betas: np.ndarray, n_plateau: int, tail_floor_rel: float = 1e-12) -> SpectrumFit:
    """Fit plateau average and tail decay rate of a descending spectrum.

    The tail regression runs over modes n > n_plateau with
    beta_n > tail_floor_rel * beta_1 (points below that are treated as a
    numerical floor, not signal).  R^2 compares the piecewise model with the
    retained spectrum in the log domain.
    """
    betas = np.asarray(betas, dtype=float)
    if len(betas) <= n_plateau + 2:
        raise ValueError("spectrum too short beyond the plateau to fit a tail")
    if n_plateau < 1:
        raise ValueError("plateau count must be >= 1")
    bn = betas / betas[0]
    nvals = np.arange(1, len(bn) + 1)
    mask = (nvals > n_plateau) & (bn > tail_floor_rel)
    if np.sum(mask) < 2:
        raise ValueError("not enough usable tail points above the floor")
    x = (nvals[mask] - (n_plateau + 1)).astype(float)
    y = np.log10(bn[mask])
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    c = -float(slope)
    plateau_avg = float(np.mean(bn[:n_plateau]))
    model_log = np.where(
        nvals <= n_plateau,
        np.log10(plateau_avg),
        intercept - c * (nvals - (n_plateau + 1)),
    )
    keep = bn > tail_floor_rel
    y_all = np.log10(bn[keep])
    resid = y_all - model_log[keep]
    ss_tot = float(np.sum((y_all - y_all.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SpectrumFit(plateau_avg, c, r2, float(intercept), int(n_plateau), int(np.sum(mask)))


@dataclass(frozen=True)
class CapacityPoint:
    snr_db: float
    sigma2_w: float
    c_waterfill_bits: float
    c_equal_bits: float
    allocation: PowerAllocation


def capacity_vs_snr(
    betas: np.ndarray,
    p_t: float,
    snr_db_list,
    n_plateau: int,
) -> tuple[CapacityPoint, ...]:
    """Water-filling and flat-plateau capacities across SNR points.

    sigma^2 = P_t * 10^(-SNR/10); betas should be normalized (beta_1 = 1) so
    the SNR axis means transmit power over noise in the strongest channel.
    """
    betas = np.asarray(betas, dtype=float)
    snrs = list(snr_db_list)
    if not snrs:
        raise ValueError("need at least one SNR point")
    if not 1 <= n_plateau <= len(betas):
        raise ValueError("n_plateau must index into the spectrum")
    beta_avg = float(np.mean(betas[:n_plateau]))
    points = []
    for snr in snrs:
        sigma2 = _noise_power(p_t, snr)
        alloc = waterfill(betas, p_t, sigma2)
        c_wf = _rate(betas, alloc, sigma2)
        c_eq = _capacity_equal(beta_avg, n_plateau, p_t, sigma2)
        points.append(
            CapacityPoint(float(snr), sigma2, c_wf, c_eq, alloc)
        )
    return tuple(points)
