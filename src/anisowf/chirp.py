"""Predicted wave front sets of polynomial-phase chirps exp(i phi(x)), phi 1-d.

Three index regimes relative to the phase order m, phi_m = c x^m its
principal part:
  s = t(m-1)  -> the graph of phi_m' away from x = 0,
  s > t(m-1)  -> the punctured position axis,
  s < t(m-1)  -> the punctured frequency axis.
The frequency axis asks for an elliptic principal part, one that vanishes
only at 0, and every c x^m with c != 0 is.  Equality of the predicted set
(not just containment) holds for even or odd phases in the first two
regimes, and even phases in the third.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .estimator import REGULAR, SINGULAR
from .geometry import AnisoIndex, nearest_angles, project_many, unique_rows
from .poly import PolynomialData, eval_grad, principal_part

_REGIME_TOL = 1e-12
# _graph_directions: |x| log-spaced in [1e-2, 1e2]
_N_RADIAL = 400


@dataclass(frozen=True)
class WFPrediction:
    kind: str            # gradient-graph | x-axis | xi-axis
    idx: AnisoIndex
    directions: np.ndarray   # sampled unit directions (x, xi), shape (N, 2)
    equality: bool


def _graph_directions(phase_m: PolynomialData, idx: AnisoIndex) -> np.ndarray:
    """Projections of (x, phi_m'(x)) over a log-spaced sweep of x of either sign."""
    radii = np.geomspace(1e-2, 1e2, _N_RADIAL)
    xs = np.concatenate([radii, -radii])[:, None]
    return project_many(idx, xs, eval_grad(phase_m, xs))


def predict_chirp_wf(phase: PolynomialData, idx: AnisoIndex) -> WFPrediction:
    """Closed-form predicted singular directions for the chirp exp(i phase)."""
    m = phase.degree
    if m < 2:
        raise DomainError(f"chirp phase order must be >= 2, got {m}")
    tm1 = idx.t * (m - 1)
    parity = phase.is_even() or phase.is_odd()

    if abs(idx.s - tm1) <= _REGIME_TOL:
        if not idx.t > 1.0 / (m - 1):
            raise UnsupportedRegimeError(
                f"graph regime needs t > 1/(m-1), got t = {idx.t}")
        dirs = _graph_directions(principal_part(phase), idx)
        return WFPrediction("gradient-graph", idx, unique_rows(np.round(dirs, 12)),
                            equality=parity)
    if idx.s > tm1:
        # the regularity index itself must admit compactly supported windows;
        # t(m-1) = 1 exactly is admitted (it appears in the reference fixtures)
        if not (idx.s > 1.0 and tm1 >= 1.0 - _REGIME_TOL):
            raise UnsupportedRegimeError(
                f"position-axis regime needs s > t(m-1) >= 1, got t(m-1) = {tm1}")
        return WFPrediction("x-axis", idx, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            equality=parity)
    # s < t(m-1): the frequency axis, for the elliptic principal part c x^m
    if not idx.s > 1.0:
        raise UnsupportedRegimeError(
            f"frequency-axis regime needs t(m-1) > s > 1, got s = {idx.s}")
    return WFPrediction("xi-axis", idx, np.array([[0.0, 1.0], [0.0, -1.0]]),
                        equality=phase.is_even())


def compare_wf(estimate, prediction: WFPrediction, tol_angle: float) -> dict:
    """Estimated-versus-predicted report.

    Violations: detected singular directions farther than tol_angle from the
    predicted set.  Coverage: the fraction of predicted directions with a
    singular or regular row within tol_angle.  Misses (only when the
    prediction claims equality): covered predicted directions with no detected
    match within tol_angle.  A predicted direction whose rows within tol_angle
    are all below-floor or unreachable is uncovered, neither a miss nor a
    confirmation; one with no row at all within tol_angle is a miss.
    """
    detected = estimate.singular_directions()
    pred = prediction.directions
    err = nearest_angles(detected, pred)
    violations = [{"direction": z.tolist(), "angle": float(a)}
                  for z, a in zip(detected, err) if a > tol_angle]
    decided = np.isin(estimate.status, (SINGULAR, REGULAR))
    covered = _near(pred, estimate.dirs[decided], tol_angle)
    counted = covered | ~_near(pred, estimate.dirs, tol_angle)
    misses = []
    if prediction.equality and not len(detected):
        misses = [{"direction": g.tolist()} for g in pred[counted]]
    elif prediction.equality:
        misses = [{"direction": g.tolist(), "angle": float(a)}
                  for g, a, c in zip(pred, nearest_angles(pred, detected), counted)
                  if c and a > tol_angle]
    return {
        "violations": violations,
        "misses": misses,
        "max_angle_error": float(np.max(err, initial=0.0)),
        "n_detected": len(detected),
        "coverage": float(np.mean(covered)),
        "pass": not violations and not misses,
    }


def _near(a: np.ndarray, b: np.ndarray, tol_angle: float) -> np.ndarray:
    """Whether each row of a lies within tol_angle of some row of b."""
    return nearest_angles(a, b) <= tol_angle if len(b) else np.zeros(len(a), dtype=bool)
