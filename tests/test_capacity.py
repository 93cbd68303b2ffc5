import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import step_down_waterfill

from emlink.capacity import (
    _capacity_equal,
    _rate,
    capacity_vs_snr,
    dof_geometric,
    spectrum_fit,
    waterfill,
)
from emlink.config import load_config


def greedy_quantized_capacity(betas, p_t, sigma2, steps=100):
    """Discrete water-filling oracle: allocate power in quanta of p_t/steps.

    For concave per-channel rates, greedy quantum-by-quantum allocation is
    optimal among allocations on that grid, so it brute-forces the problem at
    the grid resolution without enumerating the whole simplex.
    """
    betas = np.asarray(betas, dtype=float)
    quantum = p_t / steps
    alloc = np.zeros_like(betas)
    for _ in range(steps):
        gains = np.log2(1 + betas * (alloc + quantum) / sigma2) - np.log2(
            1 + betas * alloc / sigma2
        )
        best = int(np.argmax(gains))
        alloc[best] += quantum
    return float(np.sum(np.log2(1 + betas * alloc / sigma2))), alloc


def exhaustive_three_channel(betas, p_t, sigma2, steps=50):
    """Full simplex enumeration for three channels."""
    best = 0.0
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            p = np.array([i, j, steps - i - j]) * (p_t / steps)
            value = float(np.sum(np.log2(1 + betas * p / sigma2)))
            best = max(best, value)
    return best


class TestDofGeometric:
    def test_paper_value(self):
        assert dof_geometric(100.0, 64.0, 25.5) == pytest.approx(9.842, abs=0.01)

    def test_unit_case(self):
        assert dof_geometric(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_inverse_square_distance(self):
        near = dof_geometric(4.0, 3.0, 10.0)
        far = dof_geometric(4.0, 3.0, 20.0)
        assert near == pytest.approx(4 * far, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dof_geometric(1.0, 1.0, 0.0)


def _paper_spectrum_at(distance):
    """(beta / beta_1 of the paper link's kept modes at `distance` wavelengths, its geometric DoF N)."""
    cfg = load_config("paper", overrides=[f"distance={distance}"])
    geo = cfg.link_geometry()
    return cfg.solve().modes.normalized, dof_geometric(geo.transmitter.area, geo.receiver.area, geo.distance)


class TestDofAgainstDistance:
    """The spectrum follows the Fresnel number N = A_T A_R / (lambda d)^2 far out, and falls below it near in.

    Miller (Appl. Opt. 39, 2000) and Piestun & Miller (JOSA A 17, 2000) give
    the far-field law; near-field analyses (Dardari, IEEE JSAC 38, 2020) give
    fewer modes than the paraxial N once d nears the apertures' size.
    """

    @pytest.mark.parametrize("distance", [20.0, 25.5, 35.0, 50.0])
    def test_far_field_follows_the_fresnel_number(self, distance):
        normalized, n_geo = _paper_spectrum_at(distance)
        assert abs(np.sum(normalized) - n_geo) <= 0.15 * n_geo  # measured: at most 0.105 N, at 20 lambda
        assert abs(np.count_nonzero(normalized >= 10 ** -0.3) - n_geo) <= 2  # the -3 dB count: 15 / 9 / 4 / 3

    def test_near_field_falls_below_the_fresnel_number(self):
        # 13.5 lambda, just past the 12.73 lambda validity bound: 26.75 against N = 35.1
        normalized, n_geo = _paper_spectrum_at(13.5)
        assert np.sum(normalized) < n_geo


class TestWaterfill:
    def test_single_channel_takes_everything(self):
        alloc = waterfill(np.array([0.7]), 1.0, 0.3)
        assert alloc.powers == pytest.approx([1.0])
        assert alloc.active_count == 1

    def test_two_channel_closed_form(self):
        alloc = waterfill(np.array([1.0, 0.5]), 1.0, 0.1)
        assert alloc.powers == pytest.approx([0.55, 0.45], rel=1e-12)
        assert alloc.active_count == 2
        assert alloc.water_level == pytest.approx(0.65, rel=1e-12)

    def test_weak_channel_dropped(self):
        alloc = waterfill(np.array([1.0, 0.01]), 1.0, 1.0)
        assert alloc.active_count == 1
        assert alloc.powers == pytest.approx([1.0, 0.0])

    def test_zero_gain_channels_ignored(self):
        alloc = waterfill(np.array([1.0, 0.5, 0.0]), 2.0, 0.2)
        assert alloc.powers[2] == 0.0
        assert np.sum(alloc.powers) == pytest.approx(2.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            waterfill(np.array([0.5, 1.0]), 1.0, 0.1)

    def test_rejects_empty_or_dead(self):
        with pytest.raises(ValueError):
            waterfill(np.array([0.0, 0.0]), 1.0, 0.1)

    @pytest.mark.parametrize(
        "betas, p_t, sigma2",
        [([1.0, np.nan, 0.5], 1.0, 0.1), ([np.inf, 1.0, 0.5], 1.0, 0.1),
         ([1.0, 0.5], np.nan, 0.1), ([1.0, 0.5], np.inf, 0.1),
         ([1.0, 0.5], 1.0, np.nan), ([1.0, 0.5], 1.0, np.inf)],
        ids=["nan-beta", "infinite-beta", "nan-power", "infinite-power", "nan-noise", "infinite-noise"],
    )
    def test_rejects_non_finite(self, betas, p_t, sigma2):
        # a NaN beta slips past the ordering check, since NaN compares false
        with pytest.raises(ValueError, match="finite"):
            waterfill(np.array(betas), p_t, sigma2)

    def test_overflowing_floor_gets_no_power(self):
        # sigma2 / 1e-320 overflows to inf; that channel stays inactive
        betas = np.array([1.0, 0.5, 1e-320])
        alloc = waterfill(betas, 1.0, 1.0)
        assert alloc.active_count == 2
        assert np.array_equal(alloc.powers, step_down_waterfill(betas, 1.0, 1.0).powers)

    def test_overflowing_level_gets_no_power(self):
        # each floor sigma2 / 1e-307 is finite, but their sum passes the float range
        betas = np.array([1.0] + [1e-307] * 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = waterfill(betas, 1.0, 1.0)
        assert alloc.active_count == 1
        assert np.array_equal(alloc.powers, np.r_[1.0, np.zeros(30)])
        assert alloc.water_level == 2.0
        assert np.array_equal(alloc.powers, step_down_waterfill(betas, 1.0, 1.0).powers)

    def test_rejects_first_level_past_float_range(self):
        # sigma2 / 1e-300 overflows, so not even one channel has a finite level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                waterfill(np.array([1e-300]), 1.0, 1e10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 30))
    def test_overflowing_tail_matches_step_down_loop(self, seed, n, tail):
        # a tail of floors sigma2 / beta in [1e306, 1e308): some sums of them pass the float range
        rng = np.random.default_rng(seed)
        sigma2 = 10.0 ** rng.uniform(-4.0, 2.0)
        gains = np.sort(10.0 ** rng.uniform(-8.0, 0.0, n))[::-1]
        floors = np.sort(10.0 ** rng.uniform(306.0, 308.0, tail))
        betas = np.concatenate([gains, sigma2 / floors])
        p_t = 10.0 ** rng.uniform(-3.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = waterfill(betas, p_t, sigma2)
        old = step_down_waterfill(betas, p_t, sigma2)
        assert np.all(np.isfinite(new.powers)) and np.isfinite(new.water_level)
        # each power is level - floor, so it carries roundoff of the level's size
        assert abs(np.sum(new.powers) - p_t) <= 1e-12 * new.active_count * new.water_level
        assert new.active_count == old.active_count
        assert np.array_equal(new.powers, old.powers)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_step_down_loop(self, seed, n, zeros, dyadic, at_boundary):
        rng = np.random.default_rng(seed)
        if dyadic:
            # powers of two: exact sums, frequent ties, and an exact zero-power edge below
            gains = 2.0 ** -rng.integers(0, 12, n)
            sigma2 = 2.0 ** int(rng.integers(-6, 6))
        else:
            gains = np.repeat(10.0 ** rng.uniform(-8.0, 0.0, n), rng.integers(1, 3, n))
            sigma2 = 10.0 ** rng.uniform(-4.0, 2.0)
        betas = np.concatenate([np.sort(gains)[::-1], np.zeros(zeros)])
        inv = sigma2 / betas[betas > 0]
        m = int(rng.integers(1, len(inv) + 1))
        # the water level sits exactly on channel m's floor sigma2 / beta_m
        p_t = m * inv[m - 1] - np.sum(inv[:m])
        if not (dyadic and at_boundary and p_t > 0):
            p_t = 10.0 ** rng.uniform(-3.0, 2.0)
        new, old = waterfill(betas, p_t, sigma2), step_down_waterfill(betas, p_t, sigma2)
        assert new.active_count == old.active_count
        assert np.array_equal(new.powers, old.powers)
        assert new.water_level == old.water_level

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_kkt_and_conservation(self, gains, p_t, sigma2):
        betas = np.sort(np.asarray(gains))[::-1]
        betas[0] = max(betas[0], 0.02)
        alloc = waterfill(betas, p_t, sigma2)
        assert np.sum(alloc.powers) == pytest.approx(p_t, rel=1e-10)
        active = alloc.powers > 0
        levels = alloc.powers[active] + sigma2 / betas[active]
        assert np.max(np.abs(levels - alloc.water_level)) < 1e-10 * alloc.water_level
        inactive = ~active & (betas > 0)
        if np.any(inactive):
            assert np.all(sigma2 / betas[inactive] >= alloc.water_level * (1 - 1e-12))

    def test_monotone_active_count_in_snr(self):
        rng = np.random.default_rng(17)
        betas = np.sort(rng.uniform(0.05, 1.0, size=6))[::-1]
        betas[0] = 1.0
        previous = 0
        for snr in range(-5, 31, 2):
            alloc = waterfill(betas, 1.0, 10 ** (-snr / 10))
            assert alloc.active_count >= previous
            previous = alloc.active_count


class TestCapacityWaterfill:
    def test_single_channel_one_bit(self):
        assert _rate(np.array([1.0]), waterfill(np.array([1.0]), 1.0, 1.0), 1.0) == pytest.approx(1.0)

    def test_two_channel_frozen_value(self):
        # allocation (0.55, 0.45) gives log2(6.5) + log2(3.25)
        betas = np.array([1.0, 0.5])
        value = _rate(betas, waterfill(betas, 1.0, 0.1), 0.1)
        assert value == pytest.approx(np.log2(6.5) + np.log2(3.25), rel=1e-12)
        assert value == pytest.approx(4.40088, abs=1e-5)

    def test_beats_exhaustive_three_channel_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            betas = np.sort(rng.uniform(0.02, 1.0, size=3))[::-1]
            p_t = float(rng.uniform(0.5, 4.0))
            sigma2 = float(rng.uniform(0.05, 2.0))
            closed = _rate(betas, waterfill(betas, p_t, sigma2), sigma2)
            grid_best = exhaustive_three_channel(betas, p_t, sigma2)
            assert closed >= grid_best - 1e-9
            step_gain = np.log2(1 + betas[0] * (p_t / 50) / sigma2)
            assert closed - grid_best <= step_gain


class TestCapacityEqual:
    def test_single_channel(self):
        assert _capacity_equal(1.0, 1, 1.0, 1.0) == pytest.approx(1.0)

    def test_ten_channels_at_ten_db(self):
        assert _capacity_equal(1.0, 10, 1.0, 0.1) == pytest.approx(10.0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            _capacity_equal(1.0, 0, 1.0, 1.0)


class TestSpectrumFit:
    @staticmethod
    def synthetic(n_plateau=10, c=0.127, count=60, anchor=0.5):
        betas = np.empty(count)
        betas[:n_plateau] = 1.0
        n = np.arange(n_plateau + 1, count + 1)
        betas[n_plateau:] = anchor * 10.0 ** (-c * (n - n_plateau - 1))
        return betas

    def test_exact_model_recovery(self):
        betas = self.synthetic()
        fit = spectrum_fit(betas, 10)
        assert fit.decay_rate == pytest.approx(0.127, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.plateau_avg == pytest.approx(1.0)

    def test_floor_filter_trims_tail(self):
        betas = self.synthetic(count=120)
        betas[80:] = 1e-14  # numerical junk below the floor
        fit = spectrum_fit(betas, 10, tail_floor_rel=1e-9)
        assert fit.decay_rate == pytest.approx(0.127, abs=1e-9)
        assert fit.n_tail_points < 80

    def test_model_evaluation(self):
        betas = self.synthetic()
        fit = spectrum_fit(betas, 10)
        n = np.arange(1, len(betas) + 1)
        # the piecewise model: the plateau average, then the fitted exponential decay
        tail = 10.0 ** (fit.intercept_log10 - fit.decay_rate * (n - fit.n_plateau - 1))
        model = np.where(n <= fit.n_plateau, fit.plateau_avg, tail)
        assert np.max(np.abs(model - betas) / betas) < 1e-10

    def test_degenerate_zero_tail_rejected(self):
        betas = np.concatenate([np.ones(10), np.zeros(20)])
        with pytest.raises(ValueError):
            spectrum_fit(betas, 10)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spectrum_fit(np.ones(11), 10)


class TestCapacityCurve:
    def test_monotone_in_snr(self):
        betas = self.example_spectrum()
        curve = capacity_vs_snr(betas, 1.0, range(0, 31), n_plateau=4)
        c_wf = [p.c_waterfill_bits for p in curve]
        assert np.all(np.diff(c_wf) > 0)
        counts = [p.allocation.active_count for p in curve]
        assert np.all(np.diff(counts) >= 0)

    def test_power_conserved_at_every_point(self):
        betas = self.example_spectrum()
        curve = capacity_vs_snr(betas, 2.0, [0, 10, 20], n_plateau=4)
        for point in curve:
            assert np.sum(point.allocation.powers) == pytest.approx(2.0, rel=1e-10)

    def test_waterfill_dominates_true_equal_split(self):
        # equal split of P_t over the first N actual channels is feasible,
        # so the water-filling optimum can never fall below it
        betas = self.example_spectrum()
        n = 4
        for snr in range(0, 31, 3):
            sigma2 = 10 ** (-snr / 10)
            c_wf = _rate(betas, waterfill(betas, 1.0, sigma2), sigma2)
            c_true_equal = float(np.sum(np.log2(1 + betas[:n] * (1.0 / n) / sigma2)))
            assert c_wf >= c_true_equal - 1e-12

    def test_sigma2_follows_snr(self):
        betas = self.example_spectrum()
        curve = capacity_vs_snr(betas, 1.0, [0, 10], n_plateau=2)
        assert curve[0].sigma2_w == pytest.approx(1.0)
        assert curve[1].sigma2_w == pytest.approx(0.1)

    def test_empty_snr_rejected(self):
        with pytest.raises(ValueError):
            capacity_vs_snr(self.example_spectrum(), 1.0, [], n_plateau=2)

    @staticmethod
    def example_spectrum():
        n = np.arange(1, 31)
        betas = np.where(n <= 4, 1.0, 10.0 ** (-0.2 * (n - 4)))
        return betas
