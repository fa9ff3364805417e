"""Short-time Fourier transform against a Gaussian window.

V_phi u(x, xi) = (2 pi)^(-d/2) (u, M_xi T_x phi) = F(u T_x conj(phi))(xi).

Pointwise values come from direct quadrature on the signal grid (window
evaluated analytically at the shifted sample points, so x and xi need not
lie on any lattice) or from closed forms / oscillatory quadrature for
analytic signals.  Full grids are swept with an FFT per translate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, ResolutionError, TruncationError
from .geometry import AnisoIndex, PhasePoint
from .poly import PolynomialData, coeff_array, eval_poly, iter_multi_indices
from .signals import AnalyticSignal, SampledSignal, fourier

_TWO_PI = 2.0 * math.pi

# Window support radius in widths; the Gaussian tail beyond is ~1e-22.
_SUPPORT_RADIUS = 10.0
# Oscillatory quadrature: samples per period of the fastest local frequency.
_OSR = 8.0
_MAX_QUAD_POINTS = 1 << 23


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

    def values(self, offsets: np.ndarray, d_axis: int = -1) -> np.ndarray:
        """Window evaluated at y - x offsets of shape (..., d)."""
        offsets = np.asarray(offsets, dtype=float)
        d = offsets.shape[d_axis]
        r2 = np.sum(offsets * offsets, axis=d_axis)
        return self.amplitude(d) * np.exp(-r2 / (2.0 * self.width ** 2))

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


def _sampled_axis_slice(coords: np.ndarray, center: float, radius: float) -> slice:
    lo = int(np.searchsorted(coords, center - radius, side="left"))
    hi = int(np.searchsorted(coords, center + radius, side="right"))
    return slice(max(lo, 0), min(hi, coords.size))


def _stft_point_sampled(u: SampledSignal, w: WindowSpec, p: PhasePoint) -> complex:
    if p.dim != u.dim:
        raise DomainError(f"point dimension {p.dim} != signal dimension {u.dim}")
    ext = u.extent
    if np.any(np.abs(p.x) > 0.8 * ext):
        raise TruncationError(
            f"window center {p.x} outside 80% of the grid extent {ext}")
    nyq = math.pi / u.dx
    if np.any(np.abs(p.xi) > nyq):
        raise TruncationError(
            f"frequency {p.xi} beyond the grid Nyquist rate {nyq}")

    coords = u.axis_coords()
    radius = _SUPPORT_RADIUS * w.width
    d = u.dim
    slices = [_sampled_axis_slice(coords, float(p.x[j]), radius) for j in range(d)]
    sub = u.values[tuple(slices)]
    # Separable 1-d factors: window shift and modulation per axis.
    factors = []
    for j in range(d):
        y = coords[slices[j]]
        f = w.values_1d(y - p.x[j], d) * np.exp(-1j * y * p.xi[j])
        factors.append(f)
    if d == 1:
        acc = np.dot(sub, factors[0])
    elif d == 2:
        acc = factors[0] @ sub @ factors[1]
    else:
        acc = sub
        for j in range(d - 1, -1, -1):
            acc = np.tensordot(acc, factors[j], axes=([j], [0]))
    return complex(acc * u.dx ** d * _TWO_PI ** (-d / 2.0))


def _stft_point_gaussian(width_u: float, w: WindowSpec, p: PhasePoint) -> complex:
    d = p.dim
    a = 1.0 / (2.0 * width_u ** 2)
    b = 1.0 / (2.0 * w.width ** 2)
    amp_u = math.pi ** (-d / 4.0) * width_u ** (-d / 2.0)
    amp_w = w.amplitude(d)
    expo = 0.0 + 0.0j
    for j in range(d):
        q = 2.0 * b * p.x[j] - 1j * p.xi[j]
        expo += q * q / (4.0 * (a + b)) - b * p.x[j] ** 2
    pref = (math.pi / (a + b)) ** (d / 2.0)
    return complex(_TWO_PI ** (-d / 2.0) * amp_u * amp_w * pref * np.exp(expo))


def _stft_point_one(w: WindowSpec, p: PhasePoint) -> complex:
    # F(T_x conj phi)(xi) = exp(-i<x,xi>) conj(hat phi) for the real even window.
    d = p.dim
    what = w.amplitude(d) * w.width ** d * np.exp(
        -w.width ** 2 * float(np.dot(p.xi, p.xi)) / 2.0)
    return complex(np.exp(-1j * float(np.dot(p.x, p.xi))) * what)


def _stft_point_delta(w: WindowSpec, p: PhasePoint) -> complex:
    d = p.dim
    return complex(_TWO_PI ** (-d / 2.0) * w.values(-p.x[None, :])[0])


def _stft_point_quadratic_chirp(phase: PolynomialData, w: WindowSpec, p: PhasePoint) -> complex:
    """Exact complex Gaussian integral for a 1-d phase of degree <= 2."""
    c0 = phase.coeffs.get((0,), 0.0)
    c1 = phase.coeffs.get((1,), 0.0)
    c2 = phase.coeffs.get((2,), 0.0)
    b = 1.0 / (2.0 * w.width ** 2)
    x = float(p.x[0])
    xi = float(p.xi[0])
    a = b - 1j * c2
    q = 2.0 * b * x + 1j * (c1 - xi)
    # single combined exponent; the separated factors would underflow/overflow
    expo = 1j * c0 - b * x * x + q * q / (4.0 * a)
    integral = w.amplitude(1) * np.sqrt(math.pi / a) * np.exp(expo)
    return complex(_TWO_PI ** (-0.5) * integral)


def _stft_point_chirp_quadrature(phase: PolynomialData, w: WindowSpec, p: PhasePoint) -> complex:
    """Oscillatory quadrature for 1-d polynomial phases of degree >= 3."""
    x = float(p.x[0])
    xi = float(p.xi[0])
    radius = _SUPPORT_RADIUS * w.width
    lo, hi = x - radius, x + radius

    # Nonstationary short-circuit: with no stationary point near the support
    # and |phase' - xi| uniformly large, |V| sits below exp(-(f w)^2/2) which
    # is far under any working floor; skip the (possibly huge) quadrature.
    # dcoef holds phase' - xi in ascending powers.
    dcoef = npoly.polyder(coeff_array(phase))
    dcoef[0] -= xi
    roots = np.roots(dcoef[::-1])
    real_roots = roots[np.abs(roots.imag) < 1e-9].real
    stationary_near = bool(np.any((real_roots > lo - 2.0 * w.width) &
                                  (real_roots < hi + 2.0 * w.width)))
    fprobe = np.abs(npoly.polyval(np.linspace(lo, hi, 1025), dcoef))
    if not stationary_near and float(np.min(fprobe)) * w.width >= 12.0:
        return 0.0 + 0.0j

    fmax = float(np.max(fprobe)) * 1.2 + 1.0
    npts = int(max(2049, (hi - lo) * fmax * _OSR / _TWO_PI))
    if npts > _MAX_QUAD_POINTS:
        raise ResolutionError(f"chirp quadrature would need {npts} points")
    y = np.linspace(lo, hi, npts)
    theta = eval_poly(phase, y[:, None]) - y * xi
    integrand = np.exp(1j * theta) * w.values_1d(y - x, 1)
    val = np.trapezoid(integrand, dx=(hi - lo) / (npts - 1))
    return complex(_TWO_PI ** (-0.5) * val)


def _stft_point_analytic(u: AnalyticSignal, w: WindowSpec, p: PhasePoint) -> complex:
    if u.kind == "gaussian":
        return _stft_point_gaussian(u.width, w, p)
    if u.kind == "constant-one":
        return _stft_point_one(w, p)
    if u.kind == "dirac-delta":
        return _stft_point_delta(w, p)
    if u.kind == "poly-chirp":
        if u.dim != 1:
            raise DomainError("analytic chirp STFT implemented for d = 1 only")
        if u.phase.degree <= 2:
            return _stft_point_quadratic_chirp(u.phase, w, p)
        return _stft_point_chirp_quadrature(u.phase, w, p)
    if u.kind == "tensor":
        val = 1.0 + 0.0j
        off = 0
        for f in u.factors:
            sub = PhasePoint(p.x[off:off + f.dim], p.xi[off:off + f.dim])
            val *= _stft_point_analytic(f, w, sub)
            off += f.dim
        return complex(val)
    raise DomainError(f"unsupported analytic kind {u.kind!r}")


def stft_point(u, w: WindowSpec, p: PhasePoint) -> complex:
    """STFT value at one phase-space point; u sampled or analytic."""
    if isinstance(u, SampledSignal):
        return _stft_point_sampled(u, w, p)
    if isinstance(u, AnalyticSignal):
        if p.dim != u.dim:
            raise DomainError(f"point dimension {p.dim} != signal dimension {u.dim}")
        return _stft_point_analytic(u, w, p)
    raise DomainError(f"unsupported signal type {type(u).__name__}")


# ---------------------------------------------------------------------------
# full grids, inversion, Moyal


def stft_grid(u: SampledSignal, w: WindowSpec, row_block: int = 512) -> StftGrid:
    """STFT on the position x frequency lattice via one FFT per translate (d = 1)."""
    if u.dim != 1:
        raise DomainError("stft_grid supports 1-d signals")
    coords = u.axis_coords()
    n = u.n
    out = np.empty((n, n), dtype=complex)
    scale = u.dx * _TWO_PI ** (-0.5)
    for start in range(0, n, row_block):
        stop = min(start + row_block, n)
        # rows: signal times the conjugated window translated to x_j
        offs = coords[None, :] - coords[start:stop, None]
        rows = u.values[None, :] * w.values_1d(offs)
        out[start:stop] = np.fft.fftshift(
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
