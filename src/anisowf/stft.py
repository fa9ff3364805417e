"""Short-time Fourier transform against a Gaussian window.

V_phi u(x, xi) = (2 pi)^(-d/2) (u, M_xi T_x phi) = F(u T_x conj(phi))(xi).

Pointwise values, computed a batch of points at a time, come from direct
quadrature on the signal grid (window evaluated analytically at the
shifted sample points, so x and xi need not lie on any lattice), for
convolution kernels from one 1-d STFT of their line, sampled or analytic,
and for analytic signals from closed forms: analytic Gaussians, the
constant 1 and chirps of degree <= 2 are all amp exp(i c0 + i c1 y - alpha y^2),
whose STFT is one complex Gaussian integral (_gaussian_integral); the
Dirac delta gives the reflected window, and chirps of degree >= 3 an
oscillatory quadrature.  A fourier-chirp (a chirp windowed by a Gaussian
on the Fourier side, the analytic line of an evolution kernel) reduces by
Parseval to the chirp STFT at a swapped point (_fourier_chirp).  Full
grids are swept with an FFT per translate.
"""

from __future__ import annotations

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
# Trapezoid nodes per period of the fastest local frequency.  The error is the
# entire, Gaussian-decaying integrand's Fourier transform at the multiples of
# 2 pi / step, negligible past OSR 1; 2, the Nyquist rate, doubles that margin.
_OSR = 2.0
_MAX_QUAD_POINTS = 1 << 23
# Elements per work array: _sampled's (points, d, stencil) factors, the chirp
# probe's (points, 1025) and stft_grid's (rows, n) are built this many at a time.
_WORK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class WindowSpec:
    """Gaussian window of the given width; unit L2 norm unless disabled."""

    width: float = 1.0
    unit_norm: bool = True

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError(f"window width must be positive, got {self.width}")

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


def _modulation(y0: np.ndarray, dx: float, xis: np.ndarray, length: int) -> np.ndarray:
    """exp(-i (y0 + l dx) xi) for l < length, on a trailing axis.

    With l = q b + r, b ~ sqrt(length), each entry is a coarse exponential per
    block q times a fine one per offset r: 2 sqrt(length) complex exps and
    one product per entry instead of length exps, for one extra rounding.
    """
    b = max(1, math.isqrt(length))
    nq = -(-length // b)
    xis = xis[..., None]
    coarse = np.exp(-1j * (y0[..., None] + np.arange(nq) * (b * dx)) * xis)
    fine = np.exp(-1j * (np.arange(b) * dx) * xis)
    out = coarse[..., :, None] * fine[..., None, :]
    return out.reshape(y0.shape + (nq * b,))[..., :length]


def _sampled(u: SampledSignal, w: WindowSpec, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Direct quadrature on the signal grid over each window's support."""
    _check_reach(u, xs, xis)
    coords = u.axis_coords()
    radius = _SUPPORT_RADIUS * w.width
    d = u.dim
    # One stencil for every window, so a value does not depend on its batch: a
    # support holds at most 2 radius / dx + 1 nodes, one more covers rounding.
    length = min(u.n, int(2.0 * radius / u.dx) + 2)
    blocks = _blocks(len(xs), d * length)
    if len(blocks) > 1:
        return np.concatenate([_sampled(u, w, xs[b], xis[b]) for b in blocks])
    lo = np.searchsorted(coords, xs - radius, side="left")
    hi = np.searchsorted(coords, xs + radius, side="right")
    # Separable 1-d factors, window shift times modulation, for every point
    # and axis; padded to one length and zero past each support.
    span = lo[..., None] + np.arange(length)
    inside = span < hi[..., None]
    span = np.minimum(span, u.n - 1)
    f = _modulation(coords[np.minimum(lo, u.n - 1)], u.dx, xis, length)
    f *= w.values_1d(coords[span] - xs[..., None], d)
    f[~inside] = 0.0
    if d == 1:
        acc = np.einsum("pl,pl->p", u.values[span[:, 0]], f[:, 0])
    else:
        # A gathered (P, L, ..., L) window costs more than the strided slice
        # view; each factor contracts the leading axis of what is left.
        acc = np.empty(len(xs), dtype=complex)
        for k, (a, b) in enumerate(zip(lo, hi)):
            sub = u.values[tuple(map(slice, a, b))]
            for j in range(d):
                sub = f[k, j, :b[j] - a[j]] @ sub.reshape(b[j] - a[j], -1)
            acc[k] = sub[0]
    return acc * u.dx ** d * _TWO_PI ** (-d / 2.0)


def _convolution(u: ConvolutionKernel, w: WindowSpec, xs: np.ndarray,
                 xis: np.ndarray) -> np.ndarray:
    """4-d STFT of K(x, y) = k(x - y) as one 1-d STFT of the line k.

    Substituting r = y0 - y1 and summing the Gaussian in y1 in closed form
    (Poisson summation; the aliases weigh exp(-(pi w/dx)^2 / 4)) gives

        V_K(x0, x1, xi0, xi1) = c_w (2 pi)^(-1/2)
            exp(-sigma'^2 w^2 / 4 - i (x0 + x1) sigma' / 2) V_k(x0 - x1, f)

    with sigma = xi0 + xi1, k = round(sigma dx / 2 pi), sigma' = sigma - 2 pi k/dx,
    f = (xi0 - xi1)/2 - pi k/dx wrapped into [-pi/dx, pi/dx], V_k taken with
    an amplitude-1 Gaussian window of width sqrt(2) w, and
    c_w = w.amplitude(2) sqrt(pi) w (1 for a unit-norm window).  Shifting xi0
    by the period 2 pi/dx, invisible on the grid, is what brings sigma into
    one period; f carries half of that shift.  Unlike the n x n sum, the
    y1 sum runs past the grid edge, which differs only where a window
    reaches it.  The line is sampled or analytic (a fourier-chirp); the
    formula is the same.
    """
    _check_reach(u, xs, xis)
    period = _TWO_PI / u.dx
    sigma = xis[:, 0] + xis[:, 1]
    k = np.round(sigma / period)
    sigma -= k * period
    f = (xis[:, 0] - xis[:, 1]) / 2.0 - k * period / 2.0
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
    alpha^(-1/2): closed form for degree <= 2, quadrature above.
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


def _chirp_quadrature(phase: PolynomialData, w: WindowSpec, xs: np.ndarray,
                      xis: np.ndarray) -> np.ndarray:
    """Oscillatory quadrature for 1-d polynomial phases of degree >= 3."""
    radius = _SUPPORT_RADIUS * w.width
    c = coeff_array(phase)
    m = len(c) - 1
    # Phase centred on each window, so its size at large x adds no round-off:
    # taylor[k, j] = p^(j)(x_k) / j!, less xi in the linear term, so that
    # p(x + h) - (x + h) xi = taylor[k, 0] - x xi + sum_{j >= 1} taylor[k, j] h^j.
    taylor = np.stack([npoly.polyval(xs, npoly.polyder(c, j)) / math.factorial(j)
                       for j in range(m + 1)], axis=1)
    taylor[:, 1] -= xis
    dcoef = taylor[:, 1:] * np.arange(1, m + 1)  # phase' - xi in ascending powers of h
    # Nonstationary short-circuit: no real stationary point near the support and
    # |phase' - xi| * w >= 12 skip the point.  Its bound exp(-(f w)^2/2) ignores
    # complex stationary points: near x = 0 a skipped |V| can reach ~3e-8.
    keep, need = np.empty(len(xs), dtype=bool), np.empty(len(xs))
    for block in _blocks(len(xs), 1025):
        companion = np.tile(np.eye(m - 1, k=-1), (len(dcoef[block]), 1, 1))
        companion[:, 0] = -dcoef[block, -2::-1] / dcoef[block, -1:]
        # a row past float64 (|x| astronomically large) is left to the probe
        finite = np.all(np.isfinite(companion), axis=(1, 2))
        roots = np.linalg.eigvals(np.where(finite[:, None, None], companion, 0.0))
        near = finite & np.any((np.abs(roots.imag) < 1e-9) &
                               (np.abs(roots.real) < radius + 2.0 * w.width), axis=1)
        fprobe = np.abs(npoly.polyval(np.linspace(-radius, radius, 1025), dcoef[block].T))
        keep[block] = near | (np.min(fprobe, axis=1) * w.width < 12.0)
        fmax = np.max(fprobe, axis=1) * 1.2 + 1.0
        need[block] = np.maximum(2049.0, 2.0 * radius * fmax * _OSR / _TWO_PI)
    if not np.all(need[keep] <= _MAX_QUAD_POINTS):
        raise ResolutionError(f"chirp quadrature would need {np.max(need[keep]):.3g} points")
    out = np.zeros(len(xs), dtype=complex)
    for k in np.flatnonzero(keep):
        h = np.linspace(-radius, radius, int(need[k]))
        integrand = np.exp(1j * h * npoly.polyval(h, taylor[k, 1:])) * w.values_1d(h, 1)
        shift = np.exp(1j * (taylor[k, 0] - xs[k] * xis[k]))
        out[k] = _TWO_PI ** (-0.5) * shift * np.trapezoid(integrand, dx=h[1] - h[0])
        # up to _MAX_QUAD_POINTS nodes: free them before the next point allocates its own
        del h, integrand
    return out


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
