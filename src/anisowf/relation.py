"""Finite-set relation algebra on phase-space points.

A kernel wave front set A lives in R^(4d) with points (x, y, xi, eta); a
signal set B lives in R^(2d).  The composition A' o B collects the (x, xi)
for which some (y, eta) in B puts (x, y, xi, -eta) inside A, matched with a
tolerance since the sets are finite samples.  compose and its projection form
share one core: it walks the (A row, B row) pairs in blocks of a fixed size and
takes np.hypot norms, which neither overflow nor underflow where |p|^2 does, of
the literal candidate (x, y_b, xi, -eta_b) less A's row, or (y, -eta) less B's.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import blocks4, unique_rows

_WORK_ELEMENTS = 1 << 16   # _compose's cap on the floats in one block's arrays


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


def _compose(a: PointSet, b: PointSet, differences) -> PointSet:
    """The unique nonzero (x, xi) of A's rows within A's tolerance of a row of B."""
    if a.ambient != 2 * b.ambient:
        raise DomainError("A must live in twice the ambient dimension of B")
    hit, step = np.zeros(len(a), dtype=bool), max(1, _WORK_ELEMENTS // a.ambient)
    for start in range(0, len(a) * len(b), step):   # blocks of (A row, B row) pairs
        i, j = np.divmod(np.arange(start, min(start + step, len(a) * len(b))), len(b))
        dists = np.hypot.reduce(differences(a.points[i], b.points[j]), axis=1)
        hit[i[dists <= a.tolerance]] = True
    kept = np.concatenate(blocks4(a.points[hit])[::2], axis=1)   # (x, xi)
    return PointSet(unique_rows(kept[(kept != 0.0).any(axis=1)]), b.tolerance)


def compose(a: PointSet, b: PointSet) -> PointSet:
    """A' o B = {(x, xi): exists (y, eta) in B with (x, y, xi, -eta) in A}.

    Applied literally: each candidate (x, y, xi, -eta) assembled from A's
    output block and a member of B is matched against A within tolerance.
    """
    def differences(rows, pts):
        d = pts.shape[1] // 2
        candidates = rows.copy()
        candidates[:, d:2 * d], candidates[:, 3 * d:] = pts[:, :d], -pts[:, d:]
        return candidates - rows
    return _compose(a, b, differences)


def compose_via_projection(a: PointSet, b: PointSet) -> PointSet:
    """p_{1,3}(A intersect p_{2,-4}^{-1} B), the projection form of A' o B."""
    def differences(rows, pts):
        _, y, _, eta = blocks4(rows)
        return np.concatenate([y, -eta], axis=1) - pts
    return _compose(a, b, differences)
