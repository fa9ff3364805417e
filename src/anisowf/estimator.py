"""Wave-front-set estimation from STFT decay along anisotropic curves.

A sweep samples |V u| at the curve points (lambda^t x0, lambda^s xi0) of
every sphere direction into one (directions x lambdas) table, the decay
profiles.  Classification follows the conic neighborhood criterion: the
profile fitted for a direction is the maximum over profiles of directions
within a small cone (cone_steps grid steps), and a direction is singular
when the fitted exponential rate stays at or below the threshold while the
profile tail is still above the numeric floor.  Pure per-curve
classification is cone_steps = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GraphConditionError
from .geometry import AnisoIndex, SphereDirection, blocks4, curve_scales, unique_rows
from .signals import AnalyticSignal, ConvolutionKernel, SampledSignal
from .stft import REACH_FRAC, WindowSpec, stft_points

DEFAULT_FLOOR = 1e-14
DEFAULT_THRESHOLD = 1.0
DEFAULT_SPHERE_SAMPLES = 720
DEFAULT_N_LAMBDA = 24
DEFAULT_CONE_STEPS = 1
DEFAULT_SWEEP = (8, 24, 24, 64)
LAMBDA_MIN = 2.0
LAMBDA_MAX = 50.0
MAX_DIRECTIONS = 8000
_MIN_REACHABLE = 8
# Row verdicts, in report order: WFEstimate.status holds their indices, named below
STATUSES = ("singular", "regular", "below-floor", "unreachable")
SINGULAR, REGULAR, BELOW_FLOOR, UNREACHABLE = range(len(STATUSES))
# Curve-table points per stft_points call, bounding the closed forms' (points,) temporaries
_TABLE_CHUNK = 2048
# cone_constant: a block norm below this counts as vanishing
_BLOCK_TOL = 1e-9


# A row of WFEstimate.entries: its fit (rhat inf: not fitted, or under three
# samples above the floor) and its verdict, named as in STATUSES
RateFit = namedtuple("RateFit", "rhat intercept residual n_valid")


class WFEntry(namedtuple("WFEntry", "direction fit status")):
    __slots__ = ()
    singular = property(lambda self: self.status == "singular")


@dataclass(frozen=True, eq=False)
class WFEstimate:
    """Classified directions as columns, with the sweep's raw |V| table (see curve_table).

    Row i of each column belongs to the unit (x, xi) row dirs[i]: its fit_rate_arrays
    fit and its verdict, status[i], an index into STATUSES.  Row i of magnitudes is its
    decay profile; a kernel sweep stacks its refinement rows under the coarse ones.
    """

    idx: AnisoIndex
    r_threshold: float
    dirs: np.ndarray
    status: np.ndarray
    rhat: np.ndarray
    intercept: np.ndarray
    residual: np.ndarray
    n_valid: np.ndarray
    lambdas: np.ndarray = field(default=None, repr=False)
    magnitudes: np.ndarray = field(default=None, repr=False)

    @property
    def singular(self) -> np.ndarray:
        """Row mask of the singular rows."""
        return self.status == SINGULAR

    @cached_property
    def entries(self) -> list:
        """One WFEntry per row, built from the columns on first use."""
        return [WFEntry(SphereDirection(z), RateFit(r, c, e, k), STATUSES[f])
                for z, r, c, e, k, f in zip(self.dirs, self.rhat.tolist(),
                                            self.intercept.tolist(), self.residual.tolist(),
                                            self.n_valid.tolist(), self.status.tolist())]

    def singular_directions(self) -> np.ndarray:
        """The singular rows of dirs, in row order, as (K, 2d) rows."""
        return self.dirs[self.singular]

    def status_counts(self, rows=slice(None)) -> dict:
        """Rows per status, for every status _classify can give; given a row
        mask or slice, only the rows it selects."""
        counts = np.bincount(self.status[rows], minlength=len(STATUSES))
        return dict(zip(STATUSES, counts.tolist()))


def geometric_lambdas(lo: float, hi: float, n: int) -> np.ndarray:
    if not (hi > lo > 0.0 and n >= _MIN_REACHABLE):
        raise DomainError(f"bad lambda range ({lo}, {hi}) x {n}")
    return np.geomspace(lo, hi, n)


def fit_rate_arrays(lambdas: np.ndarray, table: np.ndarray, floor: float) -> tuple:
    """Least-squares rate r in |V| ~ C exp(-r lambda) for every row of a table.

    Each row of the (N, L) table is fitted over its finite samples at or
    above the floor, in one closed-form fit with centred sums.  Returns the
    arrays (rhat, intercept, residual, n_valid); a row with fewer than three
    valid samples gets rhat = +inf (the super-exponential sentinel) and a
    zero intercept and residual.
    """
    valid = np.isfinite(table) & (table >= floor) & (table > 0.0)
    n_valid = np.count_nonzero(valid, axis=1)
    n = np.maximum(n_valid, 1)
    log_c = np.log(np.where(valid, table, 1.0))
    log_mean = np.sum(log_c, axis=1) / n
    lam_mean = valid @ lambdas / n
    log_c -= log_mean[:, None]
    log_c *= valid
    lam_c = (lambdas - lam_mean[:, None]) * valid
    fitted = n_valid >= 3
    slope = (np.einsum("ij,ij->i", lam_c, log_c)
             / np.where(fitted, np.einsum("ij,ij->i", lam_c, lam_c), 1.0))
    log_c -= slope[:, None] * lam_c  # now the residuals
    residual = np.sqrt(np.einsum("ij,ij->i", log_c, log_c) / n)
    return (np.where(fitted, -slope, math.inf),
            np.where(fitted, log_mean - slope * lam_mean, 0.0),
            np.where(fitted, residual, 0.0), n_valid)


def curve_reach(u, idx: AnisoIndex, z0: np.ndarray) -> float:
    """_curve_reaches of the one unit (x, xi) row z0."""
    return float(_curve_reaches(u, idx, np.reshape(z0, (1, -1)))[0])


def _curve_reaches(u, idx: AnisoIndex, dirs: np.ndarray) -> np.ndarray:
    """Largest lambda keeping the curve of each unit (x, xi) row of dirs
    inside the usable region.

    Analytic signals have unbounded reach, and a kernel's curves stop only at
    its passband in frequency.  A sampled signal's curves stay within
    REACH_FRAC of the position extent and of the Nyquist frequency.
    """
    if isinstance(u, AnalyticSignal):
        return np.full(len(dirs), math.inf)
    if isinstance(u, ConvolutionKernel):
        x_lim, xi_lim = math.inf, u.passband
    else:
        x_lim, xi_lim = REACH_FRAC * u.extent, REACH_FRAC * math.pi / u.dx
    d = dirs.shape[1] // 2
    with np.errstate(divide="ignore"):   # a zero block leaves its bound at inf
        return np.minimum((x_lim / np.max(np.abs(dirs[:, :d]), axis=1)) ** (1.0 / idx.t),
                          (xi_lim / np.max(np.abs(dirs[:, d:]), axis=1)) ** (1.0 / idx.s))


def curve_table(u, w: WindowSpec, idx: AnisoIndex, dirs: np.ndarray,
                lambdas: np.ndarray) -> np.ndarray:
    """|V u| at (lambda^t x, lambda^s xi) for each unit (x, xi) row of dirs.

    Returns a (directions x lambdas) table with NaN beyond each curve's grid
    reach, at every lambda whose lambda^t or lambda^s leaves the double
    range, and inside the window's own cell about the origin, where
    max(lambda^t |x| / W, lambda^s |xi| W) < 1 and |V u| has no decay to
    show; a row with fewer than _MIN_REACHABLE samples left is all NaN.
    The scale factors are curve_scales' Python float powers, so the written
    profiles do not move in the last bit.  Reachable points go to stft_points
    _TABLE_CHUNK at a time, for every signal.
    """
    scales = curve_scales(idx, lambdas)
    table = np.full((dirs.shape[0], lambdas.size), np.nan)
    d = dirs.shape[1] // 2
    x_norm = np.linalg.norm(dirs[:, :d], axis=1)[:, None] / w.width
    xi_norm = np.linalg.norm(dirs[:, d:], axis=1)[:, None] * w.width
    with np.errstate(over="ignore", invalid="ignore"):   # a scale past the double range
        counted = np.maximum(x_norm * scales[:, 0], xi_norm * scales[:, 1]) >= 1.0
    counted &= np.all(np.isfinite(scales), axis=1)
    counted &= lambdas <= _curve_reaches(u, idx, dirs)[:, None]
    counted[np.count_nonzero(counted, axis=1) < _MIN_REACHABLE] = False
    points = np.flatnonzero(counted)
    for start in range(0, points.size, _TABLE_CHUNK):
        r, c = np.divmod(points[start:start + _TABLE_CHUNK], lambdas.size)
        table[r, c] = np.abs(stft_points(u, w, scales[c, :1] * dirs[r, :d],
                                         scales[c, 1:] * dirs[r, d:]))
    return table


def circle_directions(n: int) -> np.ndarray:
    """n uniform directions on the circle S^1 (d = 1 phase space), as (n, 2) rows."""
    return np.column_stack(_cos_sin(2.0 * math.pi * np.arange(n) / n))


def _cos_sin(angles: np.ndarray) -> tuple:
    """math.cos and math.sin of each angle, as two arrays: numpy's vectorized
    ones can differ from them in the last bit, which would move the sweeps."""
    vals = angles.tolist()
    return np.array([math.cos(v) for v in vals]), np.array([math.sin(v) for v in vals])


def _classify(dirs, lambdas, table, floor, threshold) -> dict:
    """The WFEstimate columns of a (directions x lambdas) magnitude table.

    NaN marks unreachable curve samples.  A row with fewer than
    _MIN_REACHABLE of them is "unreachable" (not fitted: rhat inf, intercept,
    residual and n_valid 0); else "singular" when the fitted rate is at or
    below the threshold (ties singular, conservative) and the last reachable
    magnitude sits above the floor, "regular" when a finite rate above the
    threshold was fitted, and "below-floor" when the floor decided instead.
    """
    reach = np.isfinite(table)
    reachable = np.count_nonzero(reach, axis=1) >= _MIN_REACHABLE
    table = np.where(reachable[:, None], table, np.nan)
    rhat, intercept, residual, n_valid = fit_rate_arrays(lambdas, table, floor)
    last = table[np.arange(len(table)), lambdas.size - 1 - np.argmax(reach[:, ::-1], axis=1)]
    status = np.select([~reachable, (rhat <= threshold) & (last >= floor),
                        np.isfinite(rhat) & (rhat > threshold)],
                       [UNREACHABLE, SINGULAR, REGULAR], BELOW_FLOOR)
    return {"dirs": dirs, "status": status, "rhat": rhat, "intercept": intercept,
            "residual": residual, "n_valid": n_valid}


def estimate_wf(u, w: WindowSpec, idx: AnisoIndex,
                sphere_samples: int = DEFAULT_SPHERE_SAMPLES,
                lambda_range=(LAMBDA_MIN, LAMBDA_MAX), n_lambda: int = DEFAULT_N_LAMBDA,
                r_threshold: float = DEFAULT_THRESHOLD, floor: float = DEFAULT_FLOOR,
                cone_steps: int = DEFAULT_CONE_STEPS) -> WFEstimate:
    """Sweep the circle of directions and classify each one (d = 1 signals)."""
    dim = u.dim if isinstance(u, (SampledSignal, AnalyticSignal)) else None
    if dim != 1:
        raise DomainError("estimate_wf sweeps d = 1 signals; use estimate_kernel_wf in 4d")
    if not 90 <= sphere_samples <= MAX_DIRECTIONS:
        raise DomainError(f"a d = 1 sweep needs 90 to {MAX_DIRECTIONS} sphere samples, "
                          f"got {sphere_samples}")

    dirs = circle_directions(sphere_samples)
    lambdas = geometric_lambdas(lambda_range[0], lambda_range[1], n_lambda)
    mags = curve_table(u, w, idx, dirs, lambdas)
    cols = _classify(dirs, lambdas, _cone_max_circle(mags, cone_steps), floor, r_threshold)
    return WFEstimate(idx, r_threshold, **cols, lambdas=lambdas, magnitudes=mags)


def _cone_max_circle(mags: np.ndarray, cone_steps: int) -> np.ndarray:
    """Running max over +-cone_steps neighboring directions (circular).

    Past half the circle every direction is already in the cone, so larger
    cone_steps give the same table.  A sample a curve did not reach stays
    NaN: a neighbour's value would give its row a verdict it has no data for.
    """
    if cone_steps <= 0:
        return mags
    out = mags.copy()
    for k in range(1, min(cone_steps, len(mags) // 2) + 1):
        for shift in (k, -k):
            out = np.fmax(out, np.roll(mags, shift, axis=0))
    out[np.isnan(mags)] = np.nan
    return out


# ---------------------------------------------------------------------------
# 4d kernel sweeps


def product_sphere4(n_psi: int, n_a: int, n_b: int, n_circle: int) -> np.ndarray:
    """Product sweep of S^3: mixing angle psi between the paired 2-planes
    (x, xi)-block and (y, eta)-block, with dense pure-plane circles: sorted
    rows rounded to 15 decimals."""
    cos_t, sin_t = _cos_sin(2.0 * math.pi * np.arange(n_circle) / n_circle)
    zero = np.zeros(n_circle)
    circles = np.stack([cos_t, zero, sin_t, zero, zero, cos_t, zero, sin_t], axis=1)
    c, s = (v[:, None, None] for v in _cos_sin(np.arange(1, n_psi + 1) * (math.pi / 2.0)
                                               / (n_psi + 1)))
    cos_a, sin_a = (v[:, None] for v in _cos_sin(2.0 * math.pi * np.arange(n_a) / n_a))
    cos_b, sin_b = _cos_sin(2.0 * math.pi * np.arange(n_b) / n_b)
    mixed = np.stack(np.broadcast_arrays(c * cos_a, s * cos_b, c * sin_a, s * sin_b), axis=-1)
    return unique_rows(np.round(np.concatenate([circles.reshape(-1, 4),
                                                mixed.reshape(-1, 4)]), 15))


def fibonacci_cap(center: np.ndarray, radius: float, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Low-discrepancy points in a spherical cap around a unit 4-vector.

    Tangent offsets follow a Fibonacci-style lattice in the 3-ball (radius
    shells times a 2-sphere spiral) with a small seeded jitter, pushed onto
    the sphere by the exponential map.
    """
    k = np.arange(count)
    r = radius * ((k + 0.5) / count) ** (1.0 / 3.0)
    z = 1.0 - 2.0 * ((k + 0.5) % count) / count
    cos_phi, sin_phi = _cos_sin(2.0 * math.pi * ((k / ((1.0 + math.sqrt(5.0)) / 2.0)) % 1.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    v3 = np.column_stack([rho * cos_phi, rho * sin_phi, z])
    v3 += 1e-3 * rng.standard_normal((count, 3))
    v3 *= (r / np.linalg.norm(v3, axis=1))[:, None]
    # columns 1-3 of the QR of [center | I]: an orthonormal basis of the tangent space
    basis = np.linalg.qr(np.concatenate([center[:, None], np.eye(4)], axis=1))[0][:, 1:]
    tangent = v3 @ basis.T
    norm_t = np.linalg.norm(tangent, axis=1)[:, None]
    pts = np.cos(norm_t) * center + np.sin(norm_t) * tangent / norm_t
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def estimate_kernel_wf(K, w: WindowSpec, idx: AnisoIndex,
                       sweep=DEFAULT_SWEEP,
                       lambda_range=(LAMBDA_MIN, LAMBDA_MAX), n_lambda: int = DEFAULT_N_LAMBDA,
                       r_threshold: float = DEFAULT_THRESHOLD, floor: float = DEFAULT_FLOOR,
                       refine: int = 24, seed: int = 0) -> WFEstimate:
    """Estimate the wave front set of a kernel (a d = 2 signal, phase space R^4).

    Coarse product sweep of S^3, then Fibonacci-cap refinement around the
    lowest-rate directions.  Classification is per curve (no cone maximum:
    the sweep is too coarse for neighbor aggregation to mean anything).
    """
    if K.dim != 2:
        raise DomainError(f"estimate_kernel_wf expects a signal of dimension 2, got {K.dim}")
    n_psi, n_a, n_b, n_circle = sweep
    size = 2 * n_circle + n_psi * n_a * n_b   # product_sphere4 builds this many
    if size == 0:
        raise DomainError(f"sweep {list(sweep)} yields no direction")
    if size > MAX_DIRECTIONS:
        raise DomainError(f"sweep of {size} directions exceeds budget {MAX_DIRECTIONS}")
    dirs = product_sphere4(*sweep)

    lambdas = geometric_lambdas(lambda_range[0], lambda_range[1], n_lambda)
    rng = np.random.default_rng(seed)
    mags = curve_table(K, w, idx, dirs, lambdas)
    cols = _classify(dirs, lambdas, mags, floor, r_threshold)

    # refinement caps around detected directions and the best near-misses
    seed_ids = _refinement_seeds(cols["rhat"], cols["status"] == SINGULAR)
    spacing = math.pi / (min(sweep[1], sweep[2]) or 1)
    budget = MAX_DIRECTIONS - dirs.shape[0]
    per = min(refine, budget // len(seed_ids)) if len(seed_ids) else 0
    if per > 0:
        extra = np.concatenate([fibonacci_cap(dirs[i], spacing, per, rng) for i in seed_ids])
        extra_mags = curve_table(K, w, idx, extra, lambdas)
        more = _classify(extra, lambdas, extra_mags, floor, r_threshold)
        cols = {k: np.concatenate([v, more[k]]) for k, v in cols.items()}
        mags = np.concatenate([mags, extra_mags])
    return WFEstimate(idx, r_threshold, **cols, lambdas=lambdas, magnitudes=mags)


def _refinement_seeds(rates: np.ndarray, singular: np.ndarray) -> np.ndarray:
    """Rows to refine around: every singular one, then the lowest finite rates
    up to 48 in all.

    Rates are sorted stably at 9 decimals, so last-bit noise in the fit
    cannot reorder near-ties: they keep sweep order.
    """
    order = np.argsort(np.round(rates, 9), kind="stable")
    near = order[~singular[order] & np.isfinite(rates[order])]
    hits = np.flatnonzero(singular)
    return np.concatenate([hits, near[:max(0, 48 - hits.size)]])


# ---------------------------------------------------------------------------
# kernel graph condition and cone constant


def check_graph_condition(wf: WFEstimate, eps_angle: float) -> dict:
    """Empty-ness of the two axis traces of a kernel wave front set.

    Offenders are singular directions within eps_angle of plane 1,
    {(x, 0, xi, 0)}, or of plane 2, {(0, y, 0, -eta)} (as a set the sign of
    eta is immaterial); they are listed in row order, plane 1 first.
    wf1_rows and wf2_rows count the rows of every status within eps_angle of
    each plane: a trace is empty of singular rows, but only the regular
    ones near it confirm that, so wf1_confirmed and wf2_confirmed say the
    trace is empty and at least one regular row lies within eps_angle.
    """
    z = wf.dirs
    x2, y2, xi2, eta2 = (np.sum(b * b, axis=1) for b in blocks4(z))
    angles = np.arcsin(np.minimum(1.0, np.sqrt(np.column_stack([y2 + eta2, x2 + xi2]))))
    near = angles < eps_angle
    hit = near & wf.singular[:, None]
    empty = ~hit.any(axis=0)
    confirmed = empty & (near & (wf.status == REGULAR)[:, None]).any(axis=0)
    offenders = [{"direction": z[i].tolist(), "plane": int(j) + 1, "angle": float(angles[i, j])}
                 for i, j in zip(*np.nonzero(hit))]
    rows = [wf.status_counts(near[:, j]) for j in (0, 1)]
    return {"wf1_empty": bool(empty[0]), "wf2_empty": bool(empty[1]),
            "wf1_confirmed": bool(confirmed[0]), "wf2_confirmed": bool(confirmed[1]),
            "offenders": offenders, "wf1_rows": rows[0], "wf2_rows": rows[1]}


def cone_constant(wf: WFEstimate, idx: AnisoIndex) -> float:
    """Smallest sampled c >= 1 bounding |y|^(1/t)+|eta|^(1/s) against |x|^(1/t)+|xi|^(1/s).

    Empty singular sets give the vacuous c = 1; a singular direction with a
    vanishing block violates the graph condition.
    """
    z = wf.singular_directions()
    x, y, xi, eta = blocks4(z)

    def rho(a, b):
        return (np.linalg.norm(a, axis=1) ** (1.0 / idx.t)
                + np.linalg.norm(b, axis=1) ** (1.0 / idx.s))

    rho_in, rho_out = rho(x, xi), rho(y, eta)
    vanishing = (rho_in < _BLOCK_TOL) | (rho_out < _BLOCK_TOL)
    if vanishing.any():
        raise GraphConditionError(
            f"singular direction {z[np.argmax(vanishing)].tolist()} has a vanishing block")
    ratio = rho_out / rho_in
    return float(np.max(np.maximum(ratio, 1.0 / ratio), initial=1.0))
