"""Anisotropic phase-space geometry on (N, d) coordinate arrays.

The scaling radius lambda solves lambda^(-2t)|x|^2 + lambda^(-2s)|xi|^2 = 1
for a phase-space point (x, xi).  Projection along the power curve
mu -> (mu^t x, mu^s xi) retracts any nonzero point onto the unit sphere
S^(2d-1), and the angle to the nearest member is the one metric between
sets of such unit directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_TINY = np.finfo(float).tiny
# Newton steps of log_lambda_many: at most 9 settle within 2 ulps of the root
# for t, s in [0.3, 300] and coordinates from 1e-300 to 1e300.
_NEWTON_STEPS = 12
_LOG_TINY = -math.log(_TINY)


@dataclass(frozen=True)
class AnisoIndex:
    """Decay index t and regularity index s, with t > 0, s > 0, t + s > 1."""

    t: float
    s: float

    def __post_init__(self):
        if not (self.t > 0.0 and self.s > 0.0):
            raise DomainError(f"indices must be positive, got t={self.t}, s={self.s}")
        if not self.t + self.s > 1.0:
            raise DomainError(f"need t + s > 1, got t + s = {self.t + self.s}")


class PhasePoint:
    """A point (x, xi) in phase space R^d x R^d; coordinates are 1-d arrays."""

    __slots__ = ("x", "xi")

    def __init__(self, x, xi):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if x.ndim != 1 or xi.ndim != 1 or x.shape != xi.shape:
            raise DomainError(f"x and xi must be 1-d of equal length, got {x.shape} vs {xi.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise DomainError("phase point has non-finite coordinates")
        self.x = x
        self.xi = xi

    def __repr__(self):
        return f"PhasePoint(x={self.x.tolist()}, xi={self.xi.tolist()})"


class SphereDirection:
    """Unit vector on S^(2d-1), stored as the concatenated (x, xi) block."""

    __slots__ = ("z",)

    def __init__(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or z.size % 2 != 0:
            raise DomainError("direction must be a flat even-length vector")
        n = np.linalg.norm(z)
        if abs(n - 1.0) > 1e-12:
            raise DomainError(f"direction norm {n} deviates from 1 beyond 1e-12")
        self.z = z

    def __repr__(self):
        return f"SphereDirection({self.z.tolist()})"


def _log_sq_norms(v: np.ndarray) -> np.ndarray:
    """log |row|^2 of an (N, d) array, -inf for a zero row.  A row whose squared
    sum is not a normal double is divided by its largest magnitude first."""
    with np.errstate(over="ignore", divide="ignore"):
        sq = np.sum(v * v, axis=1)
        out = np.log(sq)
    off = ~((sq >= _TINY) & np.isfinite(sq)) & (v != 0.0).any(axis=1)
    if off.any():
        m = np.max(np.abs(v[off]), axis=1)
        out[off] = 2.0 * np.log(m) + np.log(np.sum((v[off] / m[:, None]) ** 2, axis=1))
    return out


def log_lambda_many(idx: AnisoIndex, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """log(lambda) of the scaling roots for points given as (N, d) coordinate arrays.

    Root of lambda^(-2t) a + lambda^(-2s) b = 1 for a = |x|^2, b = |xi|^2,
    solved in u = log(lambda): h(u) = logaddexp(La - 2t u, Lb - 2s u) is convex
    and strictly decreasing, and h >= 0 at the larger axis root u0, so Newton's
    steps from u0 rise monotonically to the root; _NEWTON_STEPS of them reach it
    over the double range.  The log stays finite where lambda itself would
    leave the double range.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    t, s = idx.t, idx.s
    la = _log_sq_norms(xs)   # -inf where x == 0
    lb = _log_sq_norms(xis)
    if np.any(np.isneginf(la) & np.isneginf(lb)):
        raise DomainError("lambda is undefined at the zero point")

    # u0: log of max(|x|^(1/t), |xi|^(1/s)); dominant term contributes exactly 1 there.
    u = np.maximum(la / (2.0 * t), lb / (2.0 * s))
    for _ in range(_NEWTON_STEPS):
        a, b = la - 2.0 * t * u, lb - 2.0 * s * u
        h = np.logaddexp(a, b)
        # -h'(u) = 2t pa + 2s (1 - pa), pa = e^(a - h) the first term's share of e^h
        pa = np.exp(a - h)
        u = u + h / (2.0 * s + 2.0 * (t - s) * pa)
    return u


def project_many(idx: AnisoIndex, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Projection of points given as (N, d) coordinate arrays -> directions (N, 2d): each
    block over its power of lambda, or scaled in logs where a power is not a normal double."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    u = log_lambda_many(idx, xs, xis)[:, None]
    with np.errstate(all="ignore"):   # the rows this spoils are `far`
        lam = np.exp(u)
        out = np.concatenate([xs / lam ** idx.t, xis / lam ** idx.s], axis=1)
    far = np.abs(u[:, 0]) * max(1.0, idx.t, idx.s) >= _LOG_TINY
    if far.any():
        v = np.concatenate([xs, xis], axis=1)[far]
        rate = np.repeat([idx.t, idx.s], xs.shape[1])
        with np.errstate(divide="ignore"):
            out[far] = np.sign(v) * np.exp(np.log(np.abs(v)) - rate * u[far])
    return out


def curve_scales(idx: AnisoIndex, mus) -> np.ndarray:
    """(mu^t, mu^s) for each factor mu, as an (N, 2) array, inf where a power
    leaves the double range.  These are Python float powers, of float exponents too:
    numpy's power can differ in the last bit, and it warns where they raise OverflowError."""
    def power(mu, e):
        try:
            return mu ** float(e)
        except OverflowError:
            return math.inf

    mus = np.asarray(mus, dtype=float).tolist()
    return np.array([(power(mu, idx.t), power(mu, idx.s)) for mu in mus]).reshape(-1, 2)


def scale_point(idx: AnisoIndex, p: PhasePoint, mu: float) -> PhasePoint:
    """Move p along its curve: (mu^t x, mu^s xi)."""
    if not mu > 0.0:
        raise DomainError(f"scale factor must be positive, got {mu}")
    return PhasePoint(p.x * mu ** idx.t, p.xi * mu ** idx.s)


def nearest_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle from each unit row of a to the nearest unit row of b, shape (N,).

    a and b are (N, 2d) and (M, 2d) direction sets, M > 0 (an empty a may
    have any width): the angle is the arccos of the largest dot product,
    clipped to [-1, 1].
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] == 0:
        raise DomainError("the set to measure against must be nonempty")
    a = np.asarray(a, dtype=float)
    if a.size and a.shape[-1] != b.shape[1]:
        raise DomainError(f"rows of width {a.shape[-1]} measured against width {b.shape[1]}")
    a = a.reshape(-1, b.shape[1])
    return np.arccos(np.clip(np.max(a @ b.T, axis=1), -1.0, 1.0))


def blocks4(points: np.ndarray) -> tuple:
    """The (x, y, xi, eta) column blocks of an (N, 4d) array of kernel points."""
    d = points.shape[1] // 4
    return (points[:, :d], points[:, d:2 * d],
            points[:, 2 * d:3 * d], points[:, 3 * d:])


def unique_rows(a: np.ndarray) -> np.ndarray:
    """np.unique(a, axis=0) of a finite (N, k) array by one stable lexsort: rows
    equal as floats (0.0 == -0.0) are one row, the first of them in a kept."""
    rows = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]
