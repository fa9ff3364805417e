"""Real polynomials in one variable, stored as ascending coefficient arrays.

Used both as chirp phase functions and as evolution symbols.  coeffs[k]
multiplies x^k, and trailing zeros are dropped, so the degree is
len(coeffs) - 1.  Evaluation applies Horner's rule (numpy's polyval) to
that array, or to its derivative, at each entry of x.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError


class PolynomialData:
    """p(x) = sum_k coeffs[k] x^k with real, finite coefficients."""

    __slots__ = ("coeffs",)
    dim = 1

    def __init__(self, coeffs):
        if np.iscomplexobj(coeffs):
            raise DomainError("coefficients must be real")
        c = np.array(coeffs, dtype=float, ndmin=1)
        if c.ndim != 1:
            raise DomainError(f"coefficients must form one ascending list, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DomainError(f"coefficients must be finite, got {c[~np.isfinite(c)][0]}")
        live = np.flatnonzero(c)
        # + 0.0 turns -0.0 into 0.0: a zero coefficient has one sign, whatever made it
        self.coeffs = c[:live[-1] + 1] + 0.0 if live.size else np.zeros(1)
        self.coeffs.flags.writeable = False

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_even(self) -> bool:
        return not np.any(self.coeffs[1::2])

    def is_odd(self) -> bool:
        return bool(np.any(self.coeffs)) and not np.any(self.coeffs[::2])

    def __repr__(self):
        return f"PolynomialData({self.coeffs.tolist()})"


def poly_1d(*coeffs_ascending) -> PolynomialData:
    """Convenience: poly_1d(c0, c1, c2, ...) = c0 + c1 x + c2 x^2 + ..."""
    return PolynomialData(coeffs_ascending)


def eval_poly(p: PolynomialData, x) -> np.ndarray | float:
    """p at each entry of x; a float for a scalar x."""
    out = npoly.polyval(np.asarray(x, dtype=float), p.coeffs)
    return float(out) if out.ndim == 0 else out


def eval_grad(p: PolynomialData, x) -> np.ndarray:
    """p' at each entry of x."""
    return npoly.polyval(np.asarray(x, dtype=float), npoly.polyder(p.coeffs))


def principal_part(p: PolynomialData) -> PolynomialData:
    """Top-degree term c x^m."""
    top = np.zeros_like(p.coeffs)
    top[-1] = p.coeffs[-1]
    return PolynomialData(top)
