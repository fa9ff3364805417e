import math

import numpy as np
import pytest

from anisowf.errors import ConfigError, DomainError
from anisowf.io import poly_from_dict
from anisowf.poly import PolynomialData, eval_grad, eval_poly, poly_1d, principal_part


def random_poly(rng, degree):
    coeffs = np.where(rng.uniform(size=degree + 1) < 0.5, rng.standard_normal(degree + 1), 0.0)
    coeffs[degree] = rng.standard_normal() + 2.0
    return PolynomialData(coeffs)


class TestEval:
    def test_square(self):
        p = poly_1d(0.0, 0.0, 1.0)
        assert eval_poly(p, 3.0) == pytest.approx(9.0)
        assert eval_grad(p, 3.0) == pytest.approx(6.0)

    def test_cube(self):
        p = poly_1d(0.0, 0.0, 0.0, 1.0)
        assert eval_poly(p, 2.0) == pytest.approx(8.0)
        assert eval_grad(p, 2.0) == pytest.approx(12.0)

    def test_vectorized_eval(self):
        p = poly_1d(1.0, -2.0, 0.5)
        xs = np.linspace(-2, 2, 7)
        vals = eval_poly(p, xs)
        expect = 1.0 - 2.0 * xs + 0.5 * xs ** 2
        np.testing.assert_allclose(vals, expect)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-5
        for degree in (2, 4, 6):
            p = random_poly(rng, degree)
            for _ in range(5):
                x = rng.uniform(-1.5, 1.5)
                fd = (eval_poly(p, x + step) - eval_poly(p, x - step)) / (2 * step)
                assert eval_grad(p, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_dense_evaluator_matches_monomial_sums(self):
        rng = np.random.default_rng(3)
        for degree in range(7):
            for p in (PolynomialData([]), random_poly(rng, degree)):
                x = rng.uniform(-1.5, 1.5, size=(7, 3))
                value = np.zeros((7, 3))
                grad = np.zeros((7, 3))
                for k, c in enumerate(p.coeffs):
                    value += c * x ** k
                    if k:
                        grad += c * k * x ** (k - 1)
                np.testing.assert_allclose(eval_poly(p, x), value, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(eval_grad(p, x), grad, rtol=1e-12, atol=1e-12)
                if p.degree == 0:
                    assert eval_grad(p, x).shape == (7, 3)
                    assert not np.any(eval_grad(p, x))
                flat = x.reshape(-1)
                np.testing.assert_array_equal(eval_poly(p, flat), eval_poly(p, flat[:, None])[:, 0])
                np.testing.assert_array_equal(eval_grad(p, flat), eval_grad(p, flat[:, None])[:, 0])
                assert type(eval_poly(p, 0.7)) is float
                assert type(eval_poly(p, x[0, 0])) is float


class TestPrincipalPart:
    def test_drops_lower_order(self):
        p = poly_1d(1.0, 3.0, 1.0)  # 1 + 3x + x^2
        top = principal_part(p)
        np.testing.assert_array_equal(top.coeffs, [0.0, 0.0, 1.0])

    def test_cubic(self):
        p = poly_1d(0.0, -1.0, 0.0, 1.0)  # x^3 - x
        np.testing.assert_array_equal(principal_part(p).coeffs, [0.0, 0.0, 0.0, 1.0])

    def test_homogeneous_fixed_point(self):
        p = poly_1d(0.0, 0.0, 0.0, -4.0)
        np.testing.assert_array_equal(principal_part(p).coeffs, p.coeffs)


class TestStructure:
    def test_parity(self):
        assert poly_1d(0.0, 0.0, 2.0).is_even()
        assert poly_1d(0.0, 1.0, 0.0, 3.0).is_odd()
        assert not poly_1d(1.0, 1.0).is_even()
        assert not poly_1d(1.0, 1.0).is_odd()

    def test_degree_ignores_zero_coeffs(self):
        p = poly_1d(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert p.degree == 2
        np.testing.assert_array_equal(p.coeffs, [0.0, 0.0, 1.0])
        assert PolynomialData([0.0, -0.0]).degree == 0 and PolynomialData([]).degree == 0
        # -0.0 is stored as 0.0, and the array is read-only
        assert np.signbit(poly_1d(-0.0, 1.0).coeffs).tolist() == [False, False]
        with pytest.raises(ValueError):
            p.coeffs[0] = 1.0

    def test_bad_multi_index(self):
        # coefficients are one ascending list: a nested one is refused
        for coeffs in ([[0.0, 1.0]], np.zeros((2, 2))):
            with pytest.raises(DomainError, match="one ascending list"):
                PolynomialData(coeffs)

    def test_non_finite_coefficient_and_fractional_index_rejected(self):
        for c in (math.inf, -math.inf, math.nan, "inf"):
            with pytest.raises(DomainError, match="finite"):
                PolynomialData([0.0, 0.0, c])
        # a degree is a position in the array: a fractional one is refused where JSON is read
        with pytest.raises(ConfigError, match="alpha"):
            poly_from_dict({"dim": 1, "coeffs": [{"alpha": [2.5], "c": 1.0}]})

    def test_complex_coefficient_rejected(self):
        for c in (np.complex128(1 + 2j), 1 + 2j, np.array(1 + 2j)):
            with pytest.raises(DomainError, match="real"):
                PolynomialData([0.0, 0.0, c])
