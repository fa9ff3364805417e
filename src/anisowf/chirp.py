"""Predicted wave front sets of polynomial-phase chirps exp(i phi(x)).

Three index regimes relative to the phase order m:
  s = t(m-1)  -> the graph of grad(phi_m) away from x = 0,
  s > t(m-1)  -> the punctured position axis,
  s < t(m-1)  -> the punctured frequency axis (elliptic phases only).
Equality of the predicted set (not just containment) holds for d = 1 with
even or odd phases in the first two regimes, and even phases in the third.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, UnsupportedRegimeError
from .geometry import AnisoIndex, nearest_angles, project_many, unique_rows
from .poly import PolynomialData, coeff_array, eval_grad, eval_poly, principal_part

_REGIME_TOL = 1e-12
# _graph_directions: |x| log-spaced in [1e-2, 1e2], and unit x directions for d = 2
_N_RADIAL = 400
_N_ANGULAR = 64


@dataclass(frozen=True)
class WFPrediction:
    kind: str            # gradient-graph | x-axis | xi-axis
    idx: AnisoIndex
    directions: np.ndarray   # sampled unit directions, shape (N, 2d)
    equality: bool


def is_elliptic(phase_principal: PolynomialData) -> bool:
    """No zero of a homogeneous polynomial p on the unit sphere (within 1e-9), for d <= 2.

    In d = 2, p of degree m has a zero on the x2 axis iff its x2^m coefficient
    is 0, and one elsewhere iff q(u) = p(1, u) has a real root: iff |q| at some
    root's real part is at most 1e-9 times the sum of its terms' sizes.  In
    d >= 3, which sampling cannot decide, it raises UnsupportedRegimeError.
    """
    if not phase_principal.is_homogeneous():
        raise DomainError("ellipticity is defined for homogeneous polynomials")
    d = phase_principal.dim
    if d == 1:
        return bool(np.min(np.abs(eval_poly(phase_principal, [[1.0], [-1.0]]))) > 1e-9)
    if d > 2:
        raise UnsupportedRegimeError(f"ellipticity is decided for d <= 2, got d = {d}")
    q = np.flipud(coeff_array(phase_principal)).diagonal()   # q[k] multiplies u^k
    if q[-1] == 0.0:
        return False
    r = np.roots(q[::-1]).real
    return bool(np.all(np.abs(npoly.polyval(r, q)) > 1e-9 * npoly.polyval(np.abs(r), np.abs(q))))


def _graph_directions(phase_m: PolynomialData, idx: AnisoIndex) -> np.ndarray:
    """Projections of (x, grad phi_m(x)) over a log-spaced sweep of x, for d <= 2."""
    d = phase_m.dim
    if d > 2:
        raise UnsupportedRegimeError(f"the gradient graph is sampled for d <= 2, got d = {d}")
    radii = np.geomspace(1e-2, 1e2, _N_RADIAL)
    if d == 1:
        xs = np.concatenate([radii, -radii])[:, None]
    else:
        th = 2.0 * math.pi * np.arange(_N_ANGULAR) / _N_ANGULAR
        units = np.stack([np.cos(th), np.sin(th)], axis=1)
        xs = (radii[:, None, None] * units[None, :, :]).reshape(-1, 2)
    return project_many(idx, xs, eval_grad(phase_m, xs))


def _axis_directions(d: int, axis: str) -> np.ndarray:
    dirs = []
    for j in range(d):
        e = np.zeros(2 * d)
        pos = j if axis == "x" else d + j
        for sign in (1.0, -1.0):
            e2 = e.copy()
            e2[pos] = sign
            dirs.append(e2)
    return np.array(dirs)


def predict_chirp_wf(phase: PolynomialData, idx: AnisoIndex) -> WFPrediction:
    """Closed-form predicted singular directions for the chirp exp(i phase)."""
    m = phase.degree
    if m < 2:
        raise DomainError(f"chirp phase order must be >= 2, got {m}")
    d = phase.dim
    pm = principal_part(phase)
    tm1 = idx.t * (m - 1)
    one_d_parity = d == 1 and (phase.is_even() or phase.is_odd())

    if abs(idx.s - tm1) <= _REGIME_TOL:
        if not idx.t > 1.0 / (m - 1):
            raise UnsupportedRegimeError(
                f"graph regime needs t > 1/(m-1), got t = {idx.t}")
        dirs = _graph_directions(pm, idx)
        return WFPrediction("gradient-graph", idx, unique_rows(np.round(dirs, 12)),
                            equality=one_d_parity)
    if idx.s > tm1:
        # the regularity index itself must admit compactly supported windows;
        # t(m-1) = 1 exactly is admitted (it appears in the reference fixtures)
        if not (idx.s > 1.0 and tm1 >= 1.0 - _REGIME_TOL):
            raise UnsupportedRegimeError(
                f"position-axis regime needs s > t(m-1) >= 1, got t(m-1) = {tm1}")
        return WFPrediction("x-axis", idx, _axis_directions(d, "x"),
                            equality=one_d_parity)
    # s < t(m-1): frequency axis, elliptic principal part required
    if not idx.s > 1.0:
        raise UnsupportedRegimeError(
            f"frequency-axis regime needs t(m-1) > s > 1, got s = {idx.s}")
    if not is_elliptic(pm):
        raise DomainError("frequency-axis prediction requires an elliptic principal part")
    return WFPrediction("xi-axis", idx, _axis_directions(d, "xi"),
                        equality=(d == 1 and phase.is_even()))


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
    decided = estimate.status <= 1   # singular (0) or regular (1)
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
