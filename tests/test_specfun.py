import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from emlink.specfun import (
    _newton_rule,
    gauss_legendre_rule,
    legendre_sequence,
    spherical_bessel_j,
    spherical_hankel_paper,
)


def _neumann_y(l_max, x):
    """y_0 .. y_l_max as the package gives them: minus the imaginary part of h = j - i*y."""
    return -spherical_hankel_paper(l_max, x).imag


class TestLegendre:
    def test_seed_values(self):
        assert legendre_sequence(1, 0.3) == pytest.approx([1.0, 0.3])

    def test_p2_closed_form(self):
        # P2(x) = (3x^2 - 1)/2
        assert legendre_sequence(2, 0.5)[2] == pytest.approx(-0.125)

    def test_endpoint_is_one(self):
        assert legendre_sequence(50, 1.0) == pytest.approx(np.ones(51))

    def test_recursion_residual(self):
        x = 0.7319
        p = legendre_sequence(40, x)
        for n in range(2, 41):
            expected = ((2 * n - 1) / n) * x * p[n - 1] - ((n - 1) / n) * p[n - 2]
            assert p[n] == pytest.approx(expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_sequence(3, 1.5)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1, 1, 7)
        table = legendre_sequence(10, xs)
        for j, x in enumerate(xs):
            assert table[:, j] == pytest.approx(legendre_sequence(10, float(x)))

    def test_orthogonality_under_quadrature(self):
        # int P_m P_n dx = 2/(2n+1) delta_mn, checked with a 64-point rule
        rule = gauss_legendre_rule(64)
        table = legendre_sequence(20, rule.nodes)
        gram = (table * rule.weights) @ table.T
        expected = np.diag(2.0 / (2.0 * np.arange(21) + 1.0))
        assert np.max(np.abs(gram - expected)) < 1e-10


class TestGaussLegendre:
    def test_single_point_is_midpoint_rule(self):
        rule = gauss_legendre_rule(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_two_point_closed_form(self):
        rule = gauss_legendre_rule(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    def test_x30_integral(self):
        rule = gauss_legendre_rule(16)
        value = np.sum(rule.weights * rule.nodes**30)
        assert value == pytest.approx(2.0 / 31.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_monomial_exactness(self, n):
        rule = gauss_legendre_rule(n)
        for p in range(2 * n):
            value = np.sum(rule.weights * rule.nodes**p)
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            if exact:
                assert value == pytest.approx(exact, rel=1e-12)
            else:
                assert abs(value) < 1e-12

    def test_invariants(self):
        for n in (3, 17, 40):
            rule = gauss_legendre_rule(n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1.0)
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-12)

    def test_against_numpy_reference(self):
        x_ref, w_ref = np.polynomial.legendre.leggauss(64)
        rule = gauss_legendre_rule(64)
        assert np.max(np.abs(rule.nodes - x_ref)) < 1e-13
        assert np.max(np.abs(rule.weights - w_ref)) < 1e-13

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)

    @pytest.mark.parametrize("n", [1, 23, 62])
    def test_built_once_and_read_only(self, n):
        # a repeat call returns the rule of the first, bit-identical to a
        # fresh Newton solve, and neither array can be written
        rule = gauss_legendre_rule(n)
        again = gauss_legendre_rule(n)
        fresh = _newton_rule(n)
        assert again is rule
        for array, solved in ((rule.nodes, fresh.nodes), (rule.weights, fresh.weights)):
            assert np.array_equal(array, solved)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class TestSphericalBessel:
    def test_j0_closed_form(self):
        assert spherical_bessel_j(0, np.pi / 2)[0] == pytest.approx(2 / np.pi)

    def test_j1_closed_form(self):
        expected = np.sin(1.0) - np.cos(1.0)  # sin x / x^2 - cos x / x at x = 1
        assert spherical_bessel_j(1, 1.0)[1] == pytest.approx(expected, rel=1e-12)

    def test_y0_values(self):
        assert _neumann_y(0, np.pi / 2)[0] == pytest.approx(0.0, abs=1e-15)
        assert _neumann_y(0, np.pi)[0] == pytest.approx(1 / np.pi)

    @pytest.mark.parametrize("x", [1.0, 10.0, 100.0])
    def test_cross_product_identity(self, x):
        # j_{l+1} y_l - j_l y_{l+1} = 1/x^2, certifying both kinds jointly
        j = spherical_bessel_j(121, x)
        y = _neumann_y(121, x)
        value = j[1:] * y[:-1] - j[:-1] * y[1:]
        assert np.max(np.abs(value * x * x - 1.0)) < 1e-9

    @pytest.mark.parametrize("x", [1.0, 10.0, 100.0])
    def test_recurrence_consistency(self, x):
        for seq in (spherical_bessel_j(120, x), _neumann_y(120, x)):
            l = np.arange(1, 120)
            lhs = seq[l - 1] + seq[l + 1]
            rhs = (2 * l + 1) / x * seq[l]
            keep = np.abs(seq[l]) > 1e-280
            resid = np.abs(lhs - rhs)[keep] / np.abs(rhs[keep])
            assert np.max(resid) < 1e-9

    @pytest.mark.parametrize("x", [1.0, 10.0, 100.0, 40 * np.pi])
    def test_against_scipy(self, x):
        l = np.arange(121)
        j_ref = spherical_jn(l, x)
        y_ref = spherical_yn(l, x)
        j = spherical_bessel_j(120, x)
        y = _neumann_y(120, x)
        keep = np.abs(j_ref) > 1e-250
        assert np.max(np.abs(j[keep] - j_ref[keep]) / np.abs(j_ref[keep])) < 1e-10
        assert np.max(np.abs(y - y_ref) / np.abs(y_ref)) < 1e-10

    def test_miller_path_at_sine_zero(self):
        # x = 40*pi makes j0 ~ 1e-17; normalization must fall back to j1.
        # entries that are pure cancellation noise (near-zeros of j_l) are
        # only meaningful in absolute terms
        x = 40 * np.pi
        j = spherical_bessel_j(140, x)
        l = np.arange(141)
        j_ref = spherical_jn(l, x)
        keep = np.abs(j_ref) > 1e-12 * np.max(np.abs(j_ref))
        assert np.max(np.abs(j[keep] - j_ref[keep]) / np.abs(j_ref[keep])) < 1e-9

    def test_domain_errors(self):
        # y_l and h_l are singular at 0 and defined here for x > 0 only; j_l is entire, and
        # takes x = 0 and x < 0 (see test_array_of_any_sign)
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                spherical_hankel_paper(3, x)
        with pytest.raises(ValueError):
            spherical_bessel_j(-1, 1.0)

    def test_array_of_any_sign(self):
        # one call on an array: j_l(0) = delta_l0, j_l(-x) = (-1)^l j_l(x), tiny arguments on their leading term,
        # and arguments past the top order, as the closed-form patterns of a mode solve need them
        x = np.concatenate([[0.0, -0.0, 1e-12, -1e-12, 1e-8, -3e-8], np.linspace(-40.0, 40.0, 401)]).reshape(-1, 1)
        j = spherical_bessel_j(36, x)
        assert j.shape == (37,) + x.shape
        assert np.array_equal(j[:, :2, 0], np.repeat(np.eye(37, 1), 2, axis=1))
        reference = spherical_jn(np.arange(37)[:, None, None], x)
        assert np.max(np.abs(j - reference)) <= 1e-14
        assert np.array_equal(spherical_bessel_j(36, -x), j * (-1.0) ** np.arange(37)[:, None, None])

    def test_neumann_overflow_raises(self):
        with pytest.raises(OverflowError):
            spherical_hankel_paper(400, 1.0)


class TestHankel:
    def test_h0_closed_form(self):
        for x in (0.7, np.pi / 2, 9.0):
            expected = 1j * np.exp(-1j * x) / x
            assert spherical_hankel_paper(0, x)[0] == pytest.approx(expected, rel=1e-12)
        assert spherical_hankel_paper(0, np.pi / 2)[0] == pytest.approx(2 / np.pi)

    def test_componentwise_consistency(self):
        x = 50.0
        h = spherical_hankel_paper(100, x)
        l = np.arange(101)
        expected = spherical_jn(l, x) - 1j * spherical_yn(l, x)
        assert np.max(np.abs(h - expected) / np.abs(expected)) < 1e-10

    @pytest.mark.parametrize(
        "l_max, x",
        [(93, 2 * np.pi * 25.5), (75, 2 * np.pi * 20), (34, 2 * np.pi * 10.2), (120, 60.0), (34, 2 * np.pi * 1e4)],
        ids=["paper", "sgf-error", "ci", "past-x", "far"],
    )
    def test_against_scipy_at_translator_arguments(self, l_max, x):
        # the translator's orders and arguments k r_pq, an order past x, and a link 10^4 wavelengths long
        l = np.arange(l_max + 1)
        expected = spherical_jn(l, x) - 1j * spherical_yn(l, x)
        h = spherical_hankel_paper(l_max, x)
        assert np.max(np.abs(h - expected) / np.abs(expected)) <= 1e-14
