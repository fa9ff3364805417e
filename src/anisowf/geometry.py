"""Anisotropic phase-space geometry.

The scaling radius lambda solves lambda^(-2t)|x|^2 + lambda^(-2s)|xi|^2 = 1
for a phase-space point (x, xi).  Projection along the power curve
mu -> (mu^t x, mu^s xi) retracts any nonzero point onto the unit sphere,
and two families of anisotropically conic neighborhoods are built on top
of that projection.  The projection depends only on the ratio s/t, so the
neighborhood helpers take that ratio (sigma) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_LOG2 = math.log(2.0)
# gamma_tilde_distance scans lambda in [1e-4, 1e4], then golden-section steps
_LOG_LAMBDA_BOUND = 4.0 * math.log(10.0)
_GOLDEN_STEPS = 200


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

    @property
    def sigma(self) -> float:
        """Anisotropy ratio s/t governing the sphere projection."""
        return self.s / self.t


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

    @property
    def dim(self) -> int:
        return self.x.size

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.linalg.norm(self.as_vector()) <= tol)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.xi])

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

    @property
    def dim(self) -> int:
        return self.z.size // 2

    @property
    def x(self) -> np.ndarray:
        return self.z[: self.dim]

    @property
    def xi(self) -> np.ndarray:
        return self.z[self.dim:]

    def __repr__(self):
        return f"SphereDirection({self.z.tolist()})"


def lambda_solve_many(idx: AnisoIndex, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Scaling roots for points given as (N, d) coordinate arrays.

    Root of lambda^(-2t) a + lambda^(-2s) b = 1 for a = |x|^2, b = |xi|^2,
    solved in u = log(lambda): h(u) = logaddexp(La - 2t u, Lb - 2s u) is strictly
    decreasing, bracketed by closed-form axis roots, bisected and Newton-polished.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    t, s = idx.t, idx.s
    a = np.sum(xs * xs, axis=1)
    b = np.sum(xis * xis, axis=1)
    if np.any((a == 0.0) & (b == 0.0)):
        raise DomainError("lambda is undefined at the zero point")

    with np.errstate(divide="ignore"):
        la = np.log(a)   # -inf where a == 0
        lb = np.log(b)

    # u0: log of max(|x|^(1/t), |xi|^(1/s)); dominant term contributes exactly 1 there.
    u0 = np.maximum(la / (2.0 * t), lb / (2.0 * s))
    lo = u0.copy()
    hi = u0 + max(_LOG2 / (2.0 * t), _LOG2 / (2.0 * s))

    def h(u):
        return np.logaddexp(la - 2.0 * t * u, lb - 2.0 * s * u)

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        take_hi = h(mid) > 0.0
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    u = 0.5 * (lo + hi)

    for _ in range(2):
        ea = np.exp(la - 2.0 * t * u)
        eb = np.exp(lb - 2.0 * s * u)
        g = ea + eb - 1.0
        dg = -(2.0 * t * ea + 2.0 * s * eb)
        u = u - g / dg

    return np.exp(u)


def lambda_solve(idx: AnisoIndex, p: PhasePoint) -> float:
    """Unique positive root of lambda^(-2t)|x|^2 + lambda^(-2s)|xi|^2 = 1."""
    return float(lambda_solve_many(idx, p.x, p.xi)[0])


def project(idx: AnisoIndex, p: PhasePoint) -> SphereDirection:
    """Retract p onto S^(2d-1) along its anisotropic curve."""
    return SphereDirection(project_many(idx, p.x, p.xi)[0])


def project_many(idx: AnisoIndex, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Projection of points given as (N, d) coordinate arrays -> directions (N, 2d)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    lam = lambda_solve_many(idx, xs, xis)[:, None]
    return np.concatenate([xs / lam ** idx.t, xis / lam ** idx.s], axis=1)


def scale_point(idx: AnisoIndex, p: PhasePoint, mu: float) -> PhasePoint:
    """Move p along its curve: (mu^t x, mu^s xi)."""
    if not mu > 0.0:
        raise DomainError(f"scale factor must be positive, got {mu}")
    return PhasePoint(p.x * mu ** idx.t, p.xi * mu ** idx.s)


def in_gamma_nbhd(sigma: float, z0: SphereDirection, eps: float, p: PhasePoint) -> bool:
    """Membership in the projection-based conic neighborhood of z0.

    True iff |z0 - p_{1,sigma}(p)| < eps.  For eps > 2 this is all of
    phase space minus the origin.
    """
    if not (sigma > 0.0 and eps > 0.0):
        raise DomainError("sigma and eps must be positive")
    if p.is_zero():
        raise DomainError("neighborhood membership undefined at the zero point")
    proj = project(AnisoIndex(1.0, sigma), p)
    return bool(np.linalg.norm(z0.z - proj.z) < eps)


def gamma_tilde_distance(sigma: float, z0: SphereDirection, p: PhasePoint) -> float:
    """min over lambda in [1e-4, 1e4] of |(lambda y, lambda^sigma eta) - z0|.

    Coarse scan to bracket, then golden-section on log(lambda).  The distance
    is unimodal near its minimizer for the small eps this backs.
    """
    if p.is_zero():
        raise DomainError("distance undefined at the zero point")
    y, eta = p.x, p.xi
    zx, zxi = z0.x, z0.xi

    def dist(u):
        lam = math.exp(u)
        dv = np.concatenate([lam * y - zx, lam ** sigma * eta - zxi])
        return float(np.linalg.norm(dv))

    grid = np.linspace(-_LOG_LAMBDA_BOUND, _LOG_LAMBDA_BOUND, 65)
    vals = [dist(u) for u in grid]
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = dist(c), dist(d)
    for _ in range(_GOLDEN_STEPS):
        if hi - lo < 1e-13:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = dist(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = dist(d)
    return min(vals[k], fc, fd)


def in_gamma_tilde_nbhd(sigma: float, z0: SphereDirection, eps: float, p: PhasePoint) -> bool:
    """True iff some rescaling (lambda y, lambda^sigma eta) lands in the eps-ball at z0."""
    if not (sigma > 0.0 and eps > 0.0):
        raise DomainError("sigma and eps must be positive")
    return gamma_tilde_distance(sigma, z0, p) < eps


def dist_to_conic_set(sigma: float, directions: np.ndarray, p: PhasePoint) -> float:
    """inf over the unit rows w of an (N, 2d) direction set of |p_{1,sigma}(p) - w|.

    A chord length, not an angle: near 0 it cannot be recovered from a dot
    product to better than about 1e-8.
    """
    w = np.asarray(directions, dtype=float)
    if w.shape[0] == 0:
        raise DomainError("direction set must be nonempty")
    if p.is_zero():
        raise DomainError("distance undefined at the zero point")
    proj = project_many(AnisoIndex(1.0, sigma), p.x, p.xi)
    return float(np.min(np.linalg.norm(w - proj, axis=1)))


def nearest_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle from each unit row of a to the nearest unit row of b, shape (N,).

    a and b are (N, 2d) and (M, 2d) direction sets, M > 0 (an empty a may
    have any width): the angle is the arccos of the largest dot product,
    clipped to [-1, 1].
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] == 0:
        raise DomainError("the set to measure against must be nonempty")
    a = np.asarray(a, dtype=float).reshape(-1, b.shape[1])
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
