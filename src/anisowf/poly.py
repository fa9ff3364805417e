"""Real polynomials in several variables, stored by multi-index.

Used both as chirp phase functions and as evolution symbols.  Coefficients
map a multi-index alpha (tuple of nonnegative ints) to a real number; the
degree is the largest |alpha| carrying a nonzero coefficient.  Evaluation
expands them into a dense coefficient array and applies Horner's rule one
variable at a time.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError


def _integer(v) -> int | None:
    """v as an int when it is a finite integral number, else None."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v else None


class PolynomialData:
    """p(x) = sum_alpha c_alpha x^alpha with real coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict):
        if _integer(dim) is None or dim < 1:
            raise DomainError(f"polynomial dimension must be an integer >= 1, got {dim!r}")
        dim = int(dim)
        clean = {}
        for alpha, c in coeffs.items():
            index = tuple(_integer(a) for a in alpha)
            if None in index or len(index) != dim or any(a < 0 for a in index):
                raise DomainError(f"bad multi-index {tuple(alpha)} for dimension {dim}")
            if np.iscomplexobj(c):
                raise DomainError("coefficients must be real")
            c = float(c)
            if not np.isfinite(c):
                raise DomainError(f"coefficients must be finite, got {c}")
            if c != 0.0:
                clean[index] = clean.get(index, 0.0) + c
        self.dim = dim
        self.coeffs = clean

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(a) for a in self.coeffs)

    def is_homogeneous(self) -> bool:
        orders = {sum(a) for a in self.coeffs}
        return len(orders) <= 1

    def is_even(self) -> bool:
        return all(sum(a) % 2 == 0 for a in self.coeffs)

    def is_odd(self) -> bool:
        return bool(self.coeffs) and all(sum(a) % 2 == 1 for a in self.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{a}: {c}" for a, c in sorted(self.coeffs.items()))
        return f"PolynomialData(dim={self.dim}, {{{terms}}})"


def poly_1d(*coeffs_ascending) -> PolynomialData:
    """Convenience: poly_1d(c0, c1, c2, ...) = c0 + c1 x + c2 x^2 + ..."""
    return PolynomialData(1, {(k,): c for k, c in enumerate(coeffs_ascending)})


def coeff_array(p: PolynomialData) -> np.ndarray:
    """Dense coefficients c[alpha] of p, shape (degree + 1,) * dim."""
    c = np.zeros((p.degree + 1,) * p.dim)
    for alpha, coef in p.coeffs.items():
        c[alpha] = coef
    return c


def _points(p: PolynomialData, x) -> np.ndarray:
    """x as points of shape (..., dim); a 1-d p also takes bare coordinates."""
    x = np.asarray(x, dtype=float)
    if p.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != p.dim:
        raise DomainError(f"point dimension {x.shape[-1]} != polynomial dimension {p.dim}")
    return x


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nested Horner evaluation of dense coefficients c at points x of shape (..., dim)."""
    out = npoly.polyval(x[..., 0], c)
    for j in range(1, x.shape[-1]):
        out = npoly.polyval(x[..., j], out, tensor=False)
    return out


def eval_poly(p: PolynomialData, x) -> np.ndarray | float:
    """Evaluate p at x; x has shape (..., dim), result has shape (...)."""
    out = _horner(coeff_array(p), _points(p, x))
    if out.ndim == 0:
        return float(out)
    return out


def eval_grad(p: PolynomialData, x) -> np.ndarray:
    """Gradient of p at x; x has shape (..., dim), result shape (..., dim)."""
    x = _points(p, x)
    c = coeff_array(p)
    return np.stack([_horner(npoly.polyder(c, axis=j), x) for j in range(p.dim)], axis=-1)


def principal_part(p: PolynomialData) -> PolynomialData:
    """Top-degree homogeneous component."""
    m = p.degree
    return PolynomialData(p.dim, {a: c for a, c in p.coeffs.items() if sum(a) == m})

