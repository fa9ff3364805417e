"""Finite-set relation algebra on phase-space points.

A kernel wave front set A lives in R^(4d) with points (x, y, xi, eta); a
signal set B lives in R^(2d).  The composition A' o B collects the (x, xi)
for which some (y, eta) in B puts (x, y, xi, -eta) inside A, matched with a
tolerance since the sets are finite samples.  Distances are np.hypot
reductions, which neither overflow nor underflow where |p|^2 would.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import blocks4, unique_rows


class PointSet:
    """Finite list of nonzero phase-space points with a matching tolerance."""

    def __init__(self, points, tolerance: float = 1e-9):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] or 2)
        if pts.shape[1] % 2 != 0:
            raise DomainError("phase-space points need an even number of coordinates")
        if not np.isfinite(pts).all():
            raise DomainError("phase-space points must have finite coordinates")
        if not (pts != 0.0).any(axis=1).all():   # a norm underflows near 1e-170
            raise DomainError("point sets exclude the origin")
        if not tolerance > 0.0:
            raise DomainError("tolerance must be positive")
        self.points = pts
        self.tolerance = float(tolerance)

    @property
    def ambient(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


def _nonzero_rows(points: np.ndarray) -> np.ndarray:
    return points[(points != 0.0).any(axis=1)]


def compose(a: PointSet, b: PointSet) -> PointSet:
    """A' o B = {(x, xi): exists (y, eta) in B with (x, y, xi, -eta) in A}.

    Applied literally: each candidate (x, y, xi, -eta) assembled from A's
    output block and a member of B is matched against A within tolerance.
    """
    if a.ambient != 2 * b.ambient:
        raise DomainError("A must live in twice the ambient dimension of B")
    d = b.ambient // 2
    out = []
    for i in range(len(a)):
        arow = a.points[i]
        for j in range(len(b)):
            brow = b.points[j]
            candidate = np.concatenate([
                arow[:d], brow[:d], arow[2 * d:3 * d], -brow[d:]])
            if np.hypot.reduce(candidate - arow) <= a.tolerance:
                out.append(np.concatenate([arow[:d], arow[2 * d:3 * d]]))
                break
    kept = _nonzero_rows(np.array(out).reshape(-1, b.ambient))
    return PointSet(unique_rows(kept), b.tolerance)


def compose_via_projection(a: PointSet, b: PointSet) -> PointSet:
    """p_{1,3}(A intersect p_{2,-4}^{-1} B), the projection form of A' o B."""
    if a.ambient != 2 * b.ambient:
        raise DomainError("A must live in twice the ambient dimension of B")
    x, y, xi, eta = blocks4(a.points)
    pa = np.concatenate([y, -eta], axis=1)
    dists = np.hypot.reduce(pa[:, None, :] - b.points[None, :, :], axis=2)
    hit = np.any(dists <= a.tolerance, axis=1)
    sel = _nonzero_rows(np.concatenate([x, xi], axis=1)[hit])
    return PointSet(unique_rows(sel), b.tolerance)

