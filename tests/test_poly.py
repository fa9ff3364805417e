import itertools
import math

import numpy as np
import pytest

from anisowf.errors import DomainError
from anisowf.poly import PolynomialData, eval_grad, eval_poly, poly_1d, principal_part


def random_poly(rng, dim, degree):
    coeffs = {}
    for alpha in itertools.product(range(degree + 1), repeat=dim):
        if sum(alpha) <= degree and rng.uniform() < 0.5:
            coeffs[alpha] = rng.standard_normal()
    coeffs[tuple([degree] + [0] * (dim - 1))] = rng.standard_normal() + 2.0
    return PolynomialData(dim, coeffs)


class TestEval:
    def test_square(self):
        p = poly_1d(0.0, 0.0, 1.0)
        assert eval_poly(p, 3.0) == pytest.approx(9.0)
        assert eval_grad(p, 3.0)[0] == pytest.approx(6.0)

    def test_cube(self):
        p = poly_1d(0.0, 0.0, 0.0, 1.0)
        assert eval_poly(p, 2.0) == pytest.approx(8.0)
        assert eval_grad(p, 2.0)[0] == pytest.approx(12.0)

    def test_cross_term(self):
        p = PolynomialData(2, {(1, 1): 1.0})
        assert eval_poly(p, [2.0, 5.0]) == pytest.approx(10.0)
        np.testing.assert_allclose(eval_grad(p, [2.0, 5.0]), [5.0, 2.0])

    def test_vectorized_eval(self):
        p = poly_1d(1.0, -2.0, 0.5)
        xs = np.linspace(-2, 2, 7)
        vals = eval_poly(p, xs)
        expect = 1.0 - 2.0 * xs + 0.5 * xs ** 2
        np.testing.assert_allclose(vals, expect)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-5
        for dim in (1, 2, 3):
            for degree in (2, 4, 6):
                p = random_poly(rng, dim, degree)
                for _ in range(5):
                    x = rng.uniform(-1.5, 1.5, size=dim)
                    g = eval_grad(p, x)
                    for j in range(dim):
                        e = np.zeros(dim)
                        e[j] = step
                        fd = (eval_poly(p, x + e) - eval_poly(p, x - e)) / (2 * step)
                        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_dense_evaluator_matches_monomial_sums(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3):
            for degree in range(7):
                for p in (PolynomialData(dim, {}), random_poly(rng, dim, degree)):
                    x = rng.uniform(-1.5, 1.5, size=(7, 3, dim))
                    value = np.zeros((7, 3))
                    grad = np.zeros((7, 3, dim))
                    for alpha, c in p.coeffs.items():
                        value += c * np.prod(x ** np.array(alpha), axis=-1)
                        for j in range(dim):
                            if alpha[j]:
                                lower = np.array(alpha) - np.eye(dim, dtype=int)[j]
                                grad[..., j] += c * alpha[j] * np.prod(x ** lower, axis=-1)
                    np.testing.assert_allclose(eval_poly(p, x), value, rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(eval_grad(p, x), grad, rtol=1e-12, atol=1e-12)
                    if p.degree == 0:
                        assert eval_grad(p, x).shape == (7, 3, dim)
                        assert not np.any(eval_grad(p, x))
                    if dim == 1:
                        flat = x.reshape(-1)
                        np.testing.assert_array_equal(eval_poly(p, flat),
                                                      eval_poly(p, flat[:, None]))
                        np.testing.assert_array_equal(eval_grad(p, flat),
                                                      eval_grad(p, flat[:, None]))
                        assert type(eval_poly(p, 0.7)) is float
                    assert type(eval_poly(p, x[0, 0])) is float


class TestPrincipalPart:
    def test_drops_lower_order(self):
        p = poly_1d(1.0, 3.0, 1.0)  # 1 + 3x + x^2
        top = principal_part(p)
        assert top.coeffs == {(2,): 1.0}

    def test_cubic(self):
        p = poly_1d(0.0, -1.0, 0.0, 1.0)  # x^3 - x
        assert principal_part(p).coeffs == {(3,): 1.0}

    def test_homogeneous_fixed_point(self):
        p = PolynomialData(2, {(2, 1): 4.0, (0, 3): -1.0})
        assert principal_part(p).coeffs == p.coeffs


class TestStructure:
    def test_parity(self):
        assert poly_1d(0.0, 0.0, 2.0).is_even()
        assert poly_1d(0.0, 1.0, 0.0, 3.0).is_odd()
        assert not poly_1d(1.0, 1.0).is_even()
        assert not poly_1d(1.0, 1.0).is_odd()

    def test_degree_ignores_zero_coeffs(self):
        p = PolynomialData(1, {(5,): 0.0, (2,): 1.0})
        assert p.degree == 2

    def test_homogeneity(self):
        assert PolynomialData(2, {(1, 1): 1.0, (2, 0): -2.0}).is_homogeneous()
        assert not PolynomialData(2, {(1, 1): 1.0, (1, 0): 1.0}).is_homogeneous()

    def test_bad_multi_index(self):
        with pytest.raises(DomainError):
            PolynomialData(2, {(1,): 1.0})

    def test_non_finite_coefficient_and_fractional_index_rejected(self):
        for c in (math.inf, -math.inf, math.nan, "inf"):
            with pytest.raises(DomainError, match="finite"):
                PolynomialData(1, {(2,): c})
        with pytest.raises(DomainError, match="multi-index"):
            PolynomialData(1, {(2.5,): 1.0})
        with pytest.raises(DomainError, match="dimension"):
            PolynomialData(1.7, {})
        assert PolynomialData(1.0, {(2.0,): 1.0}).coeffs == {(2,): 1.0}

    def test_complex_coefficient_rejected(self):
        for c in (np.complex128(1 + 2j), 1 + 2j, np.array(1 + 2j)):
            with pytest.raises(DomainError, match="real"):
                PolynomialData(1, {(2,): c})
