"""Short-time Fourier transform against a Gaussian window.

V_phi u(x, xi) = (2 pi)^(-d/2) (u, M_xi T_x phi) = F(u T_x conj(phi))(xi).

Pointwise values, computed a batch of points at a time, come from direct
quadrature on the signal grid (x and xi need not lie on any lattice: each
point's stencil weighs its nodes by one Gaussian row shared by all points
times two short per-point exponentials, _sampled), for
convolution kernels from one 1-d STFT of their line, sampled or analytic,
and for analytic signals from closed forms: analytic Gaussians, the
constant 1 and chirps of degree <= 2 are all amp exp(i c0 + i c1 y - alpha y^2),
whose STFT is one complex Gaussian integral (_gaussian_integral); the
Dirac delta gives the reflected window.  Chirps of degree >= 3 are
integrated along steepest-descent paths from the saddles of the windowed
phase, and from discs around saddles too near each other for that, at a
fixed number of nodes per path and segment whatever the point
(_steepest_descent).  A fourier-chirp (a chirp on the Fourier side, windowed
by a Gaussian or not, the analytic line of an evolution kernel) reduces by
Parseval to the chirp STFT at a swapped point (_fourier_chirp).  Full grids
are swept with an FFT per translate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, ResolutionError, TruncationError
from .geometry import AnisoIndex, PhasePoint
from .poly import PolynomialData, coeff_array, iter_multi_indices
from .signals import (AnalyticSignal, ConvolutionKernel, SampledSignal, chirp_signal,
                      fourier)

_TWO_PI = 2.0 * math.pi
# Window centres stay within this fraction of a grid's extent.  Estimator
# curves stop at it, and at the same fraction of the Nyquist rate.
REACH_FRAC = 0.8

# Window support radius in widths; the Gaussian tail beyond is ~1e-22.
_SUPPORT_RADIUS = 10.0
# Elements per work array: _sampled's (points, stencil) signal windows in d = 1
# and (points, d, stencil) factors above, the chirp paths' (points, saddles,
# 2 halves, m + 1 coefficients) and a cluster's rim of as many samples, and
# stft_grid's (rows, n) are built this many at a time.
_WORK_ELEMENTS = 1 << 14
# Gauss-Hermite nodes per path from a saddle (32 reach round-off under the gap
# rule); a path from an exit point takes half as many Gauss-Laguerre nodes.
_NSD_ORDER = 32
# Gap rule: a neighbour at distance gap in g costs Gauss-Hermite exp(Re g(s) -
# 2 gap) (measured on x^3); where that may pass 4e-18 and discs meet, saddles cluster.
_SADDLE_GAP = 20.0
# A disc reaches where a Taylor term of g at its centre first grows to 40, so
# exits on its rim lie ~e^-40 below it: the Gauss-Laguerre tails add 4e-18.
_DISC_DEPTH = 40.0
# A cluster's disc reaches 1.5 times past its farthest saddle, and takes in
# every saddle within 1.5 radii.
_DISC_MARGIN = 1.5
# Gauss-Legendre nodes per segment in a disc: 3e-11 relative against a
# long-double oracle on x^3, x^5 and random quartics and quintics.
_SEGMENT_ORDER = 64
# exp(g(s)) below the smallest normal double: the saddle adds nothing.
_UNDERFLOW = math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class WindowSpec:
    """Gaussian window of the given width; unit L2 norm unless disabled."""

    width: float = 1.0
    unit_norm: bool = True

    def __post_init__(self):
        # 1 / width^2 scales every window exponent: below 2^-511 it overflows
        if not self.width >= 2.0 ** -511:
            raise DomainError(f"window width must be at least 2^-511, got {self.width}")

    def amplitude(self, d: int) -> float:
        if self.unit_norm:
            return math.pi ** (-d / 4.0) * self.width ** (-d / 2.0)
        return 1.0

    def values_1d(self, offsets: np.ndarray, d: int = 1) -> np.ndarray:
        """Per-axis window factor for separable products (amplitude split evenly)."""
        offsets = np.asarray(offsets, dtype=float)
        amp = self.amplitude(d) ** (1.0 / d)
        return amp * np.exp(-offsets * offsets / (2.0 * self.width ** 2))


@dataclass
class StftGrid:
    """STFT sampled on the position lattice x dual frequency lattice (1-d signals)."""

    dx: float
    dxi: float
    values: np.ndarray  # shape (n_x, n_xi)

    @property
    def n_x(self) -> int:
        return self.values.shape[0]

    @property
    def n_xi(self) -> int:
        return self.values.shape[1]

    def positions(self) -> np.ndarray:
        return (np.arange(self.n_x) - self.n_x // 2) * self.dx

    def frequencies(self) -> np.ndarray:
        return (np.arange(self.n_xi) - self.n_xi // 2) * self.dxi

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx * self.dxi))


# ---------------------------------------------------------------------------
# pointwise STFT


def _check_reach(u, xs: np.ndarray, xis: np.ndarray):
    """Reject window centres outside REACH_FRAC of the grid extent and frequencies past Nyquist."""
    far = np.abs(xs) > REACH_FRAC * u.extent
    if far.any():
        raise TruncationError(f"window center {xs[far.any(axis=1)][0]} outside {REACH_FRAC:.0%} "
                              f"of the grid extent {u.extent}")
    nyq = math.pi / u.dx
    fast = np.abs(xis) > nyq
    if fast.any():
        raise TruncationError(f"frequency {xis[fast.any(axis=1)][0]} beyond the grid "
                              f"Nyquist rate {nyq}")


def _blocks(total: int, width: int):
    """Slices of range(total) whose rows of width elements fill at most _WORK_ELEMENTS."""
    step = max(1, _WORK_ELEMENTS // width)
    return [slice(start, start + step) for start in range(0, total, step)]


def _sampled(u: SampledSignal, w: WindowSpec, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Direct quadrature on the signal grid over each window's support, factored per stencil.

    Every window takes one stencil of L = 2 J + 1 nodes centred on the node
    nearest x, so a value does not depend on its batch.  About that node c,
    with delta = y_c - x (|delta| <= dx/2), stencil node l weighs

        w(y_l - x) e^(-i y_l xi) = G[l] exp(A + (l - c) B),
        G[l] = amp exp(-((l - c) dx)^2 / (2 W^2)),
        A = -delta^2 / (2 W^2) - i y_c xi,   B = -dx (delta / W^2 + i xi),

    where G is one real row shared by every point.  With l = q b + r and
    b = isqrt(L), exp(A + (l - c) B) = exp(A + (q b - c) B) exp(r B): 2 sqrt(L)
    complex exps per point and axis.  In d = 1 the windows of signal times G
    contract with exp(r B) over r, then with the coarse factor over q; in
    d >= 2 the same three build each axis's factor.  The stencil spans at
    most the support and one node, and |delta| <= dx/2, so every factor
    stays within the double range whatever dx/W.
    """
    _check_reach(u, xs, xis)
    d, n, dx = u.dim, u.n, u.dx
    radius = _SUPPORT_RADIUS * w.width
    # A support holds at most J = half nodes either side of the nearest one,
    # past which a rounding tie weighs below e^-50; J = n covers the grid.
    half = min(n, int(radius / dx + 0.5))
    length = 2 * half + 1
    b = math.isqrt(length)
    nq = -(-length // b)
    # Only the stencil's end nodes may lie outside the support.
    ends = np.array([-half, half]) * dx
    row = w.values_1d((np.arange(nq * b) - half) * dx, d)
    row[length:] = 0.0
    if d == 1:
        # the stencil of the point nearest node m is windows[m]
        padded = np.zeros(n + nq * b, dtype=complex)
        padded[half:half + n] = u.values
        windows = np.lib.stride_tricks.sliding_window_view(padded, nq * b)
    inv_w2 = 1.0 / w.width ** 2
    out = np.empty(len(xs), dtype=complex)
    for block in _blocks(len(xs), d * length):
        x, xi = xs[block], xis[block]
        nearest = np.rint(x / dx).astype(np.int64) + n // 2
        y_c = (nearest - n // 2) * dx
        delta = y_c - x
        slope = (-dx * delta * inv_w2 - 1j * dx * xi)[..., None]
        coarse = np.exp((-0.5 * inv_w2 * delta * delta - 1j * y_c * xi)[..., None]
                        + (np.arange(nq) * b - half) * slope)
        fine = np.exp(np.arange(b) * slope)
        outside = np.abs(delta[..., None] + ends) > radius
        if d == 1:
            win = windows[nearest[:, 0]]
            win *= row
            win[:, 0] *= ~outside[:, 0, 0]
            win[:, length - 1] *= ~outside[:, 0, 1]
            part = win.reshape(-1, nq, b) @ fine[:, 0, :, None]
            out[block] = np.einsum("pq,pq->p", part[..., 0], coarse[:, 0])
            continue
        f = (coarse[..., :, None] * fine[..., None, :]).reshape(len(x), d, -1)[..., :length]
        f *= row[:length]
        f[..., [0, length - 1]] *= ~outside
        # A gathered (P, L, ..., L) window costs more than the strided slice
        # view, and a padded copy would hold (n + L)^d values: the slices stop
        # at the grid edge, and each factor contracts the leading axis left.
        first = nearest - half
        lo, hi = np.maximum(first, 0), np.minimum(first + length, n)
        acc = np.empty(len(x), dtype=complex)
        for k, (a, e, s) in enumerate(zip(lo.tolist(), hi.tolist(), (lo - first).tolist())):
            sub = u.values[tuple(map(slice, a, e))]
            for j in range(d):
                sub = f[k, j, s[j]:s[j] + e[j] - a[j]] @ sub.reshape(e[j] - a[j], -1)
            acc[k] = sub[0]
        out[block] = acc
    return out * dx ** d * _TWO_PI ** (-d / 2.0)


def _convolution(u: ConvolutionKernel, w: WindowSpec, xs: np.ndarray,
                 xis: np.ndarray) -> np.ndarray:
    """4-d STFT of K(x, y) = k(x - y) as one 1-d STFT of the line k.

    Substituting r = y0 - y1 and integrating the Gaussian in y1 in closed
    form gives

        V_K(x0, x1, xi0, xi1) = c_w (2 pi)^(-1/2)
            exp(-sigma^2 w^2 / 4 - i (x0 + x1) sigma / 2) V_k(x0 - x1, f)

    with sigma = xi0 + xi1, f = (xi0 - xi1)/2, V_k taken with an amplitude-1
    Gaussian window of width sqrt(2) w, and c_w = w.amplitude(2) sqrt(pi) w
    (1 for a unit-norm window).  An analytic line takes the formula as it
    is.  A sampled line is a sum over its grid, where the y1 integral is a
    Poisson sum (the aliases weigh exp(-(pi w/dx)^2 / 4)) and xi0 is seen
    only modulo the period 2 pi/dx: with k = round(sigma dx / 2 pi), sigma
    becomes sigma - 2 pi k/dx, f becomes f - pi k/dx wrapped into
    [-pi/dx, pi/dx], and points past the grid's reach are rejected.  Unlike
    the n x n sum, the y1 sum runs past the grid edge, which differs only
    where a window reaches it.
    """
    sigma = xis[:, 0] + xis[:, 1]
    f = (xis[:, 0] - xis[:, 1]) / 2.0
    if isinstance(u.line, SampledSignal):
        _check_reach(u, xs, xis)
        period = _TWO_PI / u.dx
        k = np.round(sigma / period)
        sigma -= k * period
        f -= k * period / 2.0
        f -= period * np.round(f / period)
    line_w = WindowSpec(math.sqrt(2.0) * w.width, unit_norm=False)
    v = stft_points(u.line, line_w, xs[:, :1] - xs[:, 1:], f[:, None])
    c_w = w.amplitude(2) * math.sqrt(math.pi) * w.width
    return c_w * _TWO_PI ** -0.5 * v * np.exp(
        -(sigma * w.width) ** 2 / 4.0 - 0.5j * (xs[:, 0] + xs[:, 1]) * sigma)


def _fourier_chirp(u: AnalyticSignal, w: WindowSpec, xs: np.ndarray,
                   xis: np.ndarray) -> np.ndarray:
    """STFT of the fourier-chirp k = (2 pi)^(-1/2) F^(-1)[exp(i q) exp(-xi^2 / (2 s^2))].

    By Parseval the window integral moves to the Fourier side, where the
    mollifier and the window's transform W exp(-W^2 (xi - f)^2 / 2) combine
    into one Gaussian centred at c:

        V_k(x, f) = (2 pi)^(-1/2) W exp(-i x f + C) V_chirp(c, -x)

    with alpha = 1/s^2 + W^2, c = W^2 f / alpha, C = -W^2 f^2 / (2 s^2 alpha)
    (that is -W^2 f^2/2 + (W^2 f)^2/(2 alpha)), W the window width, and
    V_chirp the STFT of exp(i q) against the amplitude-1 window of width
    alpha^(-1/2): closed form for degree <= 2, steepest descent above.  With
    no mollifier (s = inf), alpha = W^2, c = f and C = 0.
    """
    width = w.width
    alpha = 1.0 / u.width ** 2 + width ** 2
    v = stft_points(chirp_signal(u.phase), WindowSpec(alpha ** -0.5, unit_norm=False),
                    (width ** 2 / alpha) * xis, -xs)
    x, f = xs[:, 0], xis[:, 0]
    return (w.amplitude(1) * width * _TWO_PI ** -0.5 * v
            * np.exp(-1j * x * f - (width * f) ** 2 / (2.0 * u.width ** 2 * alpha)))


def _gaussian_integral(w: WindowSpec, xs: np.ndarray, xis: np.ndarray, alpha: complex,
                       amp: float = 1.0, c0: float = 0.0, c1: float = 0.0) -> np.ndarray:
    """Closed-form STFT of u(y) = amp exp(i c0 + sum_j (i c1 y_j - alpha y_j^2)), Re alpha >= 0.

    Per axis the window integral is the complex Gaussian integral
    int exp(-a y^2 + q y) dy = sqrt(pi / a) exp(q^2 / (4 a)) with a = alpha + b,
    b = 1/(2 W^2) for the window width W and q = 2 b x + i (c1 - xi).
    """
    d = xs.shape[1]
    b = 1.0 / (2.0 * w.width ** 2)
    a = b + alpha
    q = 2.0 * b * xs + 1j * (c1 - xis)
    # single combined exponent; the separated factors would underflow/overflow
    expo = 1j * c0 + np.sum(q * q / (4.0 * a) - b * xs * xs, axis=1)
    integral = amp * w.amplitude(d) * np.sqrt(math.pi / a) ** d * np.exp(expo)
    return _TWO_PI ** (-d / 2.0) * integral


@functools.cache
def _rules() -> tuple[np.ndarray, ...]:
    """Gauss-Hermite (positive half), Gauss-Laguerre (in u = t^(1/2), weights
    over 2 u, as dz/dt = (dz/du) / (2 u)) and Gauss-Legendre (on [0, 1]) nodes
    and weights, built on first use: runs that never integrate a chirp do not
    load LAPACK."""
    gh_nodes, gh_weights = np.polynomial.hermite.hermgauss(_NSD_ORDER)
    lag_nodes, lag_weights = np.polynomial.laguerre.laggauss(_NSD_ORDER // 2)
    leg_nodes, leg_weights = np.polynomial.legendre.leggauss(_SEGMENT_ORDER)
    lag_u = np.sqrt(lag_nodes)
    return (gh_nodes[_NSD_ORDER // 2:], gh_weights[_NSD_ORDER // 2:], lag_u,
            lag_weights / (2.0 * lag_u), (leg_nodes + 1.0) / 2.0, leg_weights / 2.0)


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c[..., k] z^k, coefficients ascending on the last axis of c."""
    out = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * z + c[..., k]
    return out


def _taylor_shift(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ascending coefficients of f(s + d) in d from those of f, for every s."""
    c = np.broadcast_to(c, s.shape + c.shape[-1:]).copy()
    n = c.shape[-1] - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[..., j] += s * c[..., j + 1]
    return c


def _newton(c: np.ndarray, d: np.ndarray, u2: np.ndarray):
    """Three Newton corrections for G(d) = sum_k c[..., k] d^(k+1) = -u2, from d.

    Returns the result, G' there, the first correction and the residual
    relative to the size of G's terms.
    """
    dc = c * np.arange(1, c.shape[-1] + 1)
    first = None
    for _ in range(3):
        step = (_horner(c, d) * d + u2) / _horner(dc, d)
        d = d - step
        first = np.abs(step) if first is None else first
    size = _horner(np.abs(c), np.abs(d)) * np.abs(d) + u2
    return d, _horner(dc, d), first, np.abs(_horner(c, d) * d + u2) / size


def _trace(c, d, slope, u, bad, target, step):
    """Advance descent paths d(u), G(d) = -u^2, from u to target, in place; one row per path.

    Each step predicts d from the local power law d ~ u^(u d'/d) (exact at a
    saddle, where d ~ u, and far out, where d ~ u^(2/m)) and corrects it by
    Newton.  A step is taken when the residual is below 1e-10 of G's terms
    and the first correction below 0.3 of the predicted move (plus 1e-10 |d|,
    for a last step of a few ulps), so that it cannot land on another branch
    of the level set; the next step is then twice as long.  Otherwise the
    step is quartered, and a path whose step falls below 1e-6 u is marked
    bad.
    """
    active = np.flatnonzero((u < target) & ~bad)
    while active.size:
        u0, d0 = u[active], d[active]
        u1 = np.minimum(u0 + step[active], target[active])
        guess = d0 * np.exp(np.log(u1 / u0) * u0 * slope[active] / d0)
        root, deriv, first, residual = _newton(c[active], guess, u1 * u1)
        good = (first <= 0.3 * np.abs(guess - d0) + 1e-10 * np.abs(d0)) & (residual < 1e-10)
        took, failed = active[good], active[~good]
        d[took], u[took] = root[good], u1[good]
        slope[took] = -2.0 * u1[good] / deriv[good]
        step[took] *= 2.0
        step[failed] /= 4.0
        bad[failed] |= step[failed] < 1e-6 * u[failed]
        active = active[(u[active] < target[active]) & ~bad[active]]


def _saddles(b: np.ndarray) -> np.ndarray:
    """Roots of g' for g = sum_j b[:, j] h^j: companion eigenvalues, two Newton steps."""
    P, m = b.shape[0], b.shape[1] - 1
    dg = b[:, 1:] * np.arange(1, m + 1)
    companion = np.tile(np.eye(m - 1, k=-1, dtype=complex), (P, 1, 1))
    companion[:, 0] = -dg[:, -2::-1] / dg[:, -1:]
    s = np.linalg.eigvals(companion)
    d2g = dg[:, None, 1:] * np.arange(1, m)
    for _ in range(2):
        s = s - _horner(dg[:, None], s) / _horner(d2g, s)
    return s


def _clusters(b, s, c, live, silent, gap_rule):
    """Clusters: saddles within gap_rule of each other (the gap rule) whose
    discs meet, and every saddle near a cluster's disc.  c holds g's Taylor
    coefficients at the saddles s.  Returns link (link[p, i, j]: j is in i's
    cluster) and, per cluster, its point, its saddles, its disc's centre, g's
    Taylor coefficients there and its radius."""
    k, m = s.shape[1], s.shape[1] + 1
    gs = c[..., 0]
    gap = np.abs(gs[:, :, None] - gs[:, None, :]) + np.where(np.eye(k) > 0, np.inf, 0.0)
    with np.errstate(divide="ignore"):
        ball = np.min((_DISC_DEPTH / np.abs(c[..., 2:])) ** (1.0 / np.arange(2, m + 1)), axis=2)
    link = (live[..., None] & (gs.real[..., None] - 2.0 * gap > -2.0 * gap_rule)
            & (np.abs(s[:, :, None] - s[:, None, :]) < ball[:, :, None] + ball[:, None, :]))
    link |= link.transpose(0, 2, 1) | np.eye(k, dtype=bool)
    while True:
        for _ in range(k.bit_length()):
            link = link @ link
        pp, ii = np.nonzero((np.argmax(link, axis=2) == np.arange(k))
                            & (link.sum(axis=2) > 1) & ~silent[:, None])
        members = link[pp, ii]
        centre = np.sum(s[pp] * members, axis=1) / np.sum(members, axis=1)
        cc = _taylor_shift(b[pp], centre)                  # g(c + d) = sum_k cc_k d^k
        with np.errstate(divide="ignore"):
            radius = np.maximum(
                _DISC_MARGIN * np.max(np.abs(s[pp] - centre[:, None]) * members, axis=1,
                                      initial=0.0),
                np.min((_DISC_DEPTH / np.abs(cc[:, 1:])) ** (1.0 / np.arange(1, m + 1)),
                       axis=1, initial=np.inf))
        inside = np.abs(s[pp] - centre[:, None]) < _DISC_MARGIN * radius[:, None]
        if not np.any(inside & ~members):
            return link, pp, members, centre, cc, radius
        link[pp, ii] |= inside
        link |= link.transpose(0, 2, 1)


def _exits(cc, centre, radius, members, rows, coef):
    """Exit points, the minima of Re g on each disc's rim (sampled at as many
    angles as a point's paths have coefficients), at most one per path row of
    the cluster's saddles, from the first of which rows counts.  coef takes
    g's Taylor coefficients at each exit.  Returns the exits' rows, positions,
    values of g and straight segments' integrals from the disc's centre."""
    k = members.shape[1]
    if not len(cc):
        none = np.zeros(0, dtype=complex)
        return np.zeros(0, dtype=int), none, none, none
    rim = radius[:, None] * np.exp(1j * np.linspace(0.0, _TWO_PI, 2 * k * (k + 2),
                                                    endpoint=False))
    level = _horner(cc[:, None], rim).real
    low = (level < np.roll(level, 1, axis=1)) & (level <= np.roll(level, -1, axis=1))
    q, a = np.nonzero(low)
    order = np.cumsum(low, axis=1)[q, a] - 1
    keep = order < 2 * np.sum(members, axis=1)[q]
    slots = np.argsort(~np.repeat(members, 2, axis=1), axis=1, kind="stable")
    q, a, order = q[keep], a[keep], order[keep]
    exits, delta = rows[q] + slots[q, order], rim[q, a]
    ce = _taylor_shift(cc[q], delta)                       # g(e + d) = sum_k ce_k d^k
    coef[exits] = ce[:, 1:]
    _, _, _, _, leg_t, leg_w = _rules()
    straight = delta * sum(wt * np.exp(_horner(cc[q], t * delta)) for t, wt in zip(leg_t, leg_w))
    return exits, centre[q] + delta, ce[:, 0].copy(), straight


def _steepest_descent(taylor: np.ndarray, width: float, gap_rule: float) -> np.ndarray:
    """int exp(g(h)) dh over the real line by numerical steepest descent.

    g(h) = i sum_{j>=1} taylor[:, j] h^j - h^2 / (2 width^2), one row per
    point.  The line is deformed into paths from hubs to the m valleys of g's
    leading term b_m h^m.  A hub is a saddle s (a root of g'), whose paths
    g(s + d) = g(s) - p^2 give exp(g(s)) times the integral of
    h'(p) = -2p / g'(s + d) against exp(-p^2), a Gauss-Hermite sum; or the
    centre of a disc around saddles too near each other for that rule, with
    straight segments (Gauss-Legendre) to exit points e, the minima of Re g on
    its rim, and paths g(e + d) = g(e) - t on, which give exp(g(e)) times the
    integral of -1/g'(e + d) against exp(-t), a Gauss-Laguerre sum in
    u = t^(1/2) (Gibbs, Hewett and Huybrechs, J. Comput. Phys. 2024).  Nodes
    come from Newton continuation in u on the Taylor expansion of g at each
    path's start (no round-off from the size of g far from the origin).  A
    path is followed until it stays in one valley: with
    R = 3 max_j |b_j/b_m|^(1/(m-j)) the lower terms are below half the leading
    one outside |h| = R, and Re g < -3/2 |b_m| R^m there keeps the path out of
    that disk and off the hills between valleys.  Hubs and valleys form a
    tree, so the real line, from the valley at angle pi to the one at angle 0,
    is the one signed chain of paths that a least-squares solve on their
    incidence matrix finds.  Lost paths are left out; a point whose chain
    needs one is NaN.  Saddles cluster by the gap rule with gap_rule for
    _SADDLE_GAP.
    """
    P, m = taylor.shape[0], taylor.shape[1] - 1
    k = m - 1
    gh_u, gh_w, lag_u, lag_w, _, _ = _rules()
    b = 1j * taylor
    b[:, 0] = 0.0
    b[:, 2] -= 0.5 / width ** 2
    s = _saddles(b)                                        # (P, k) saddles
    c = _taylor_shift(b[:, None], s)                       # g(s + d) = sum_k c_k d^k
    gs = c[..., 0]
    # Only a saddle with Re g(s) <= 0, up to its round-off, can be on the chain:
    # its ascent path reaches the real line, where Re g = -h^2 / (2 width^2).
    # Of those, one whose exp(g(s)) underflows adds nothing to the sum.  A
    # point with no saddle left that adds anything is 0.
    noise = 4.0 * np.finfo(float).eps * _horner(np.abs(b[:, None]), np.abs(s))
    below = gs.real <= noise
    live = below & (gs.real + noise > _UNDERFLOW)
    if np.any(live & (noise > 1.0)):
        raise DomainError(f"chirp phase beyond double precision: its round-off at a "
                          f"saddle is {np.max(noise[live]):.3g} rad")
    silent = ~live.any(axis=1)
    link, pp, members, centre, cc, radius = _clusters(b, s, c, live, silent, gap_rule)
    hub = np.repeat(np.argmax(link, axis=2), 2, axis=1)    # each path's hub, by first member
    clustered = link.sum(axis=2) > 1
    skip = ~below | clustered | silent[:, None] | (c[..., 2] == 0.0)
    # one row per path: p > 0, then p < 0, for every isolated saddle; a
    # cluster's exit paths take its saddles' rows, in order
    coef = np.repeat(c[..., 1:].reshape(-1, m), 2, axis=0)
    bad = np.repeat(skip.ravel(), 2)
    exits, exit_at, exit_g, straight = _exits(cc, centre, radius, members, pp * 2 * k, coef)
    u = np.full(len(coef), gh_u[0])
    u[exits] = lag_u[0]
    d = np.zeros(len(coef), dtype=complex)
    d[~bad] = np.sqrt(-1.0 / coef[~bad, 1]) * u[~bad]
    d[1::2] *= -1.0
    d[exits] = -u[exits] ** 2 / coef[exits, 0]
    bad[exits] = False
    slope = np.zeros(len(coef), dtype=complex)
    start = np.flatnonzero(~bad)
    guess = d[start]
    d[start], deriv, first, residual = _newton(coef[start], guess, u[start] ** 2)
    slope[start] = -2.0 * u[start] / deriv
    # the leading-order start must hold at the first node, as _trace demands of a step
    bad[start] |= (first > 0.3 * np.abs(guess)) | ~(residual < 1e-10)
    # each path's integral outward from its start, less exp(g) there: h'(p) is
    # +-slope at p = +-uk, so a saddle's two paths give its p-line as their difference
    total = np.zeros(len(coef), dtype=complex)
    for uk, wk, lu, lw in zip(gh_u, gh_w, lag_u, lag_w):
        target = np.full(len(u), uk)
        target[exits] = lu
        _trace(coef, d, slope, u, bad, target, target - u)
        total += wk * slope
        total[exits] += (lw - wk) * slope[exits]
    g0 = np.repeat(gs.ravel(), 2)                          # g where each path starts
    g0[exits] = exit_g
    bm = b[:, m:]
    j = np.arange(1, m)
    reach = 3.0 * np.max(np.abs(b[:, 1:m] / bm) ** (1.0 / (m - j)), axis=1, keepdims=True)
    deep = g0.real + np.repeat(1.5 * np.abs(bm) * reach ** m, 2 * k)
    target = np.sqrt(np.maximum(deep, 0.0) + 1.0)
    _trace(coef, d, slope, u, bad, np.maximum(target, u), u.copy())

    def valley(theta):
        return np.round((m * theta + np.angle(bm) - np.pi) / _TWO_PI).astype(int) % m

    # (P, 2 k): where each path starts and the valley it ends in
    tip = np.repeat(s.ravel(), 2)
    tip[exits] = exit_at
    tip = tip.reshape(P, 2 * k)
    end = valley(np.angle(tip + d.reshape(P, 2 * k)))
    n, chain = _chain(end, hub, ~bad.reshape(P, 2 * k), valley(np.full((P, 1), np.pi)),
                      valley(np.zeros((P, 1))))
    value = np.zeros(2 * P * k, dtype=complex)
    value[exits] = straight
    used = np.flatnonzero(n)
    value[used] += np.exp(g0[used]) * total[used]
    terms = np.where(n != 0, n * value.reshape(P, 2 * k), 0.0)
    return np.where(chain | silent, terms.sum(axis=1), np.nan)


def _chain(end: np.ndarray, hub: np.ndarray, valid: np.ndarray, left: np.ndarray,
           right: np.ndarray):
    """The signed chain of paths from the valley left to the valley right, and
    whether it holds.  Paths join their hub to their end valley; with their
    incidence matrix E (+1 at a valley, -1 at a hub) the chain solves
    E E^T n = E line, line = +1 at right, -1 at left and 0 at hubs."""
    P, paths = end.shape
    k = paths // 2
    m = k + 1
    # a second path from one hub into one valley would close a loop; a path
    # left alone at its hub is a leaf, off the chain
    same_end, same_hub = end[:, :, None] == end[:, None, :], hub[:, :, None] == hub[:, None, :]
    valid = valid & ~np.any(same_end & same_hub & valid[:, None, :]
                            & np.tri(paths, k=-1, dtype=bool), axis=2)
    gram = ((same_end.astype(float) + same_hub) * (valid[:, :, None] & valid[:, None, :])
            + (~valid)[..., None] * np.eye(paths))
    forest = np.linalg.det(gram) > 0.5
    n = np.zeros((P, paths))
    rhs = ((end == right).astype(float) - (end == left)) * valid
    n[forest] = np.linalg.solve(gram[forest], rhs[forest, :, None])[..., 0]
    n = np.round(n)
    flow = np.zeros((P, m + k))
    np.add.at(flow, (np.arange(P)[:, None], end), n)
    np.add.at(flow, (np.arange(P)[:, None], m + hub), -n)
    line = (right == np.arange(m)).astype(float) - (left == np.arange(m))
    return n, forest & np.all(flow == np.concatenate([line, np.zeros((P, k))], axis=1), axis=1)


def _chirp_quadrature(phase: PolynomialData, w: WindowSpec, xs: np.ndarray,
                      xis: np.ndarray) -> np.ndarray:
    """STFT of exp(i phase) for 1-d polynomial phases of degree >= 2, by steepest descent."""
    c = coeff_array(phase)
    m = len(c) - 1
    # Phase centred on each window, so its size at large x adds no round-off:
    # taylor[k, j] = p^(j)(x_k) / j!, less xi in the linear term, so that
    # p(x + h) - (x + h) xi = taylor[k, 0] - x xi + sum_{j >= 1} taylor[k, j] h^j.
    taylor = np.stack([npoly.polyval(xs, npoly.polyder(c, j)) / math.factorial(j)
                       for j in range(m + 1)], axis=1)
    taylor[:, 1] -= xis
    if not np.all(np.isfinite(taylor)):
        raise DomainError(f"chirp phase overflows float64 at window centre "
                          f"{xs[~np.all(np.isfinite(taylor), axis=1)][0]}")
    out = np.empty(len(xs), dtype=complex)
    width = 2 * (m - 1) * (m + 1)
    for block in _blocks(len(xs), width):
        out[block] = w.amplitude(1) * _steepest_descent(taylor[block], w.width, _SADDLE_GAP)
    # A point whose chain needs a lost path, as one that runs into a lower saddle
    # near a Stokes line, is integrated again with saddles clustered wherever
    # their discs meet, whatever their gap.
    again = np.flatnonzero(np.isnan(out))
    for block in _blocks(len(again), width):
        rows = again[block]
        out[rows] = w.amplitude(1) * _steepest_descent(taylor[rows], w.width, math.inf)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"no chain of steepest-descent paths at window centre "
                          f"{xs[~np.isfinite(out)][0]}")
    return _TWO_PI ** (-0.5) * np.exp(1j * (taylor[:, 0] - xs * xis)) * out


def stft_points(u, w: WindowSpec, xs, xis) -> np.ndarray:
    """STFT values at the P phase-space points (xs[k], xis[k]); u sampled, a kernel or analytic.

    xs and xis are (P, d) coordinate arrays; the result is a (P,) complex array.
    """
    if not isinstance(u, (SampledSignal, ConvolutionKernel, AnalyticSignal)):
        raise DomainError(f"unsupported signal type {type(u).__name__}")
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    if xs.ndim != 2 or xs.shape != xis.shape:
        raise DomainError(f"xs and xis must be (P, d) arrays of one shape, "
                          f"got {xs.shape} vs {xis.shape}")
    if xs.shape[1] != u.dim:
        raise DomainError(f"point dimension {xs.shape[1]} != signal dimension {u.dim}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(xis))):
        raise DomainError("phase-space points have non-finite coordinates")

    if isinstance(u, SampledSignal):
        return _sampled(u, w, xs, xis)
    if isinstance(u, ConvolutionKernel):
        return _convolution(u, w, xs, xis)
    d = u.dim
    if u.kind == "gaussian":
        # the unit-L2 signal Gaussian has the unit-norm window's amplitude
        return _gaussian_integral(w, xs, xis, 1.0 / (2.0 * u.width ** 2),
                                  amp=WindowSpec(u.width).amplitude(d))
    if u.kind == "constant-one":
        return _gaussian_integral(w, xs, xis, 0.0)
    if u.kind == "dirac-delta":
        return _TWO_PI ** (-d / 2.0) * np.prod(w.values_1d(-xs, d), axis=1)
    if u.kind == "fourier-chirp":
        return _fourier_chirp(u, w, xs, xis)
    if u.kind == "poly-chirp":
        if d != 1:
            raise DomainError("analytic chirp STFT implemented for d = 1 only")
        if u.phase.degree >= 3:
            return _chirp_quadrature(u.phase, w, xs[:, 0], xis[:, 0])
        c0, c1, c2 = (u.phase.coeffs.get((k,), 0.0) for k in range(3))
        return _gaussian_integral(w, xs, xis, -1j * c2, c0=c0, c1=c1)
    # tensor: the product of its factors' values on their column slices
    val = np.ones(len(xs), dtype=complex)
    off = 0
    for f in u.factors:
        val *= stft_points(f, w, xs[:, off:off + f.dim], xis[:, off:off + f.dim])
        off += f.dim
    return val


def stft_point(u, w: WindowSpec, p: PhasePoint) -> complex:
    """STFT value at one phase-space point: stft_points on a batch of one."""
    return complex(stft_points(u, w, p.x[None, :], p.xi[None, :])[0])


# ---------------------------------------------------------------------------
# full grids, inversion, Moyal


def stft_grid(u: SampledSignal, w: WindowSpec) -> StftGrid:
    """STFT on the position x frequency lattice via one FFT per translate (d = 1)."""
    if u.dim != 1:
        raise DomainError("stft_grid supports 1-d signals")
    coords = u.axis_coords()
    n = u.n
    out = np.empty((n, n), dtype=complex)
    scale = u.dx * _TWO_PI ** (-0.5)
    for block in _blocks(n, n):
        # rows: signal times the conjugated window translated to x_j
        rows = u.values[None, :] * w.values_1d(coords[None, :] - coords[block, None])
        out[block] = np.fft.fftshift(
            np.fft.fft(np.fft.ifftshift(rows, axes=1), axis=1), axes=1) * scale
    return StftGrid(u.dx, u.dxi, out)


def istft(grid: StftGrid, w: WindowSpec) -> SampledSignal:
    """Inverse transform (2 pi)^(-1/2) iint V(x, xi) M_xi T_x phi dx dxi (d = 1).

    Requires the unit-norm window used for analysis.
    """
    if not w.unit_norm:
        raise DomainError("inversion requires a unit L2 norm window")
    n = grid.n_x
    coords = grid.positions()
    # inner integral over xi: centered inverse DFT of each row, times n dxi
    inner = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(grid.values, axes=1), axis=1),
                            axes=1) * n * grid.dxi
    offs = coords[None, :] - coords[:, None]   # y_l - x_j, indexed [j, l]
    vals = np.sum(inner * w.values_1d(offs), axis=0) * grid.dx * _TWO_PI ** (-0.5)
    return SampledSignal(grid.dx, vals)


def moyal_error(u: SampledSignal, grid: StftGrid) -> float:
    """Relative defect of ||V||_{L2}^2 = ||u||^2 for a unit window."""
    nu = u.norm() ** 2
    nv = grid.l2_norm() ** 2
    return abs(nv - nu) / nu


# ---------------------------------------------------------------------------
# seminorms


def _anisotropic_weight(idx: AnisoIndex, r: float, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return r * (np.abs(x[:, None]) ** (1.0 / idx.t) + np.abs(xi[None, :]) ** (1.0 / idx.s))


def stft_seminorm(u: SampledSignal, w: WindowSpec, idx: AnisoIndex, r: float) -> float:
    """sup over the STFT lattice of exp(r(|x|^(1/t)+|xi|^(1/s))) |V u|.

    Finite grids cannot certify an unbounded supremum, so a supremum attained
    within two cells of the lattice boundary, or growing across three nested
    extents, is reported as the +inf sentinel.
    """
    if not r > 0.0:
        raise DomainError(f"seminorm parameter r must be positive, got {r}")
    grid = stft_grid(u, w)
    mags = np.abs(grid.values)
    if not np.any(mags > 0.0):
        return 0.0
    with np.errstate(divide="ignore"):
        log_weighted = np.log(mags) + _anisotropic_weight(
            idx, r, grid.positions(), grid.frequencies())

    n = grid.n_x
    sups = []
    for frac in (0.5, 0.75, 1.0):
        k = int(n * frac / 2)
        sl = slice(n // 2 - k, n // 2 + k)
        sups.append(float(np.max(log_weighted[sl, sl])))
    if sups[0] < sups[1] - 1e-9 and sups[1] < sups[2] - 1e-9:
        return math.inf
    flat = int(np.argmax(log_weighted))
    i, j = np.unravel_index(flat, log_weighted.shape)
    if min(i, n - 1 - i, j, n - 1 - j) < 2:
        return math.inf
    val = sups[2]
    return math.exp(val) if val < 700.0 else math.inf


def classical_seminorm(u: SampledSignal, idx: AnisoIndex, h: float, max_order: int) -> float:
    """Truncated sup of |x^alpha D^beta u| / (h^(|a|+|b|) a!^t b!^s), orders <= max_order.

    Derivatives are spectral; energy within two bins of the Nyquist edge above
    1e-8 of the peak trips a resolution error.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h}")
    if max_order > 8:
        raise DomainError("max_order capped at 8 by spectral differentiation accuracy")
    d = u.dim
    uhat = fourier(u)
    freqs = [uhat.axis_coords()] * d
    mesh = np.meshgrid(*freqs, indexing="ij")
    coords_mesh = np.meshgrid(*([u.axis_coords()] * d), indexing="ij")

    best = 0.0
    for beta in iter_multi_indices(d, max_order):
        g = uhat.values
        for j, bj in enumerate(beta):
            if bj:
                g = g * mesh[j] ** bj
        peak = float(np.max(np.abs(g)))
        if peak > 0.0:
            edge = 0.0
            for j in range(d):
                sl_lo = [slice(None)] * d
                sl_hi = [slice(None)] * d
                sl_lo[j] = slice(0, 2)
                sl_hi[j] = slice(-2, None)
                edge = max(edge, float(np.max(np.abs(g[tuple(sl_lo)]))),
                           float(np.max(np.abs(g[tuple(sl_hi)]))))
            if edge > 1e-8 * peak:
                raise ResolutionError(
                    f"spectral derivative of order {beta} carries {edge / peak:.2e} "
                    "of its peak at the Nyquist edge")
        abs_deriv = np.abs(fourier(SampledSignal(uhat.dx, g), inverse=True).values)
        b_fact = math.prod(math.factorial(bj) for bj in beta)
        for alpha in iter_multi_indices(d, max_order):
            weighted = abs_deriv
            for j, aj in enumerate(alpha):
                if aj:
                    weighted = weighted * np.abs(coords_mesh[j]) ** aj
            a_fact = math.prod(math.factorial(aj) for aj in alpha)
            denom = h ** (sum(alpha) + sum(beta)) * a_fact ** idx.t * b_fact ** idx.s
            best = max(best, float(np.max(weighted)) / denom)
    return best
