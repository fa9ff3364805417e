"""Finite-set relation algebra on phase-space points.

A kernel wave front set A lives in R^(4d) with points (x, y, xi, eta); a
signal set B lives in R^(2d).  The composition A' o B collects the (x, xi)
for which some (y, eta) in B puts (x, y, xi, -eta) inside A, matched with a
tolerance since the sets are finite samples.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import AnisoIndex, blocks4, project_many

# sconic_closure_check: largest gap from a rescaled point's direction to the set's
_CLOSURE_TOL = 1e-6


class PointSet:
    """Finite list of nonzero phase-space points with a matching tolerance."""

    def __init__(self, points, tolerance: float = 1e-9):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] or 2)
        if pts.shape[1] % 2 != 0:
            raise DomainError("phase-space points need an even number of coordinates")
        if not np.all(np.isfinite(pts)):
            raise DomainError("phase-space points must have finite coordinates")
        if pts.shape[0] and np.any(np.linalg.norm(pts, axis=1) == 0.0):
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
    if points.shape[0] == 0:
        return points
    return points[np.linalg.norm(points, axis=1) > 0.0]


def proj_13(a: PointSet) -> PointSet:
    """p_{1,3}(x, y, xi, eta) = (x, xi); zero projections are dropped."""
    x, _, xi, _ = blocks4(a.points)
    return PointSet(_nonzero_rows(np.concatenate([x, xi], axis=1)), a.tolerance)


def proj_2neg4(a: PointSet) -> PointSet:
    """p_{2,-4}(x, y, xi, eta) = (y, -eta); zero projections are dropped."""
    _, y, _, eta = blocks4(a.points)
    return PointSet(_nonzero_rows(np.concatenate([y, -eta], axis=1)), a.tolerance)


def compose(a: PointSet, b: PointSet) -> PointSet:
    """A' o B = {(x, xi): exists (y, eta) in B with (x, y, xi, -eta) in A}.

    Applied literally: each candidate (x, y, xi, -eta) assembled from A's
    output block and a member of B is matched against A within tolerance.
    """
    if a.ambient != 2 * b.ambient:
        raise DomainError("A must live in twice the ambient dimension of B")
    if len(a) == 0 or len(b) == 0:
        return PointSet(np.zeros((0, b.ambient)), b.tolerance)
    d = b.ambient // 2
    out = []
    for i in range(len(a)):
        arow = a.points[i]
        for j in range(len(b)):
            brow = b.points[j]
            candidate = np.concatenate([
                arow[:d], brow[:d], arow[2 * d:3 * d], -brow[d:]])
            if np.linalg.norm(candidate - arow) <= a.tolerance:
                out.append(np.concatenate([arow[:d], arow[2 * d:3 * d]]))
                break
    kept = _nonzero_rows(np.array(out)) if out else np.zeros((0, b.ambient))
    if kept.shape[0] == 0:
        return PointSet(np.zeros((0, b.ambient)), b.tolerance)
    return PointSet(np.unique(kept, axis=0), b.tolerance)


def compose_via_projection(a: PointSet, b: PointSet) -> PointSet:
    """p_{1,3}(A intersect p_{2,-4}^{-1} B), the projection form of A' o B."""
    if a.ambient != 2 * b.ambient:
        raise DomainError("A must live in twice the ambient dimension of B")
    if len(a) == 0 or len(b) == 0:
        return PointSet(np.zeros((0, b.ambient)), b.tolerance)
    x, y, xi, eta = blocks4(a.points)
    pa = np.concatenate([y, -eta], axis=1)
    dists = np.linalg.norm(pa[:, None, :] - b.points[None, :, :], axis=2)
    hit = np.any(dists <= a.tolerance, axis=1)
    sel = _nonzero_rows(np.concatenate([x, xi], axis=1)[hit])
    if sel.shape[0] == 0:
        return PointSet(np.zeros((0, b.ambient)), b.tolerance)
    return PointSet(np.unique(sel, axis=0), b.tolerance)


def sconic_closure_check(s: PointSet, idx: AnisoIndex, scales) -> bool:
    """Scale stability of a finite set's direction field.

    True iff every point, rescaled by every factor, still projects within
    _CLOSURE_TOL of the direction of some member of the set.
    """
    if len(s) == 0:
        return True
    mus = np.asarray(scales, dtype=float)
    if not np.all(np.isfinite(mus) & (mus > 0.0)):
        raise DomainError(f"scale factors must be positive and finite, got {scales}")
    d = s.ambient // 2
    xs, xis = s.points[:, :d], s.points[:, d:]
    member_dirs = project_many(idx, xs, xis)
    for mu in mus.tolist():
        z = project_many(idx, xs * mu ** idx.t, xis * mu ** idx.s)
        gaps = np.linalg.norm(member_dirs[None, :, :] - z[:, None, :], axis=2)
        if np.any(np.min(gaps, axis=1) > _CLOSURE_TOL):
            return False
    return True
