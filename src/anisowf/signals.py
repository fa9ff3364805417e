"""Test-signal construction and the symmetrically normalized Fourier transform.

Sampled signals are 1-d, on a uniform centered grid x_j = (j - n/2) dx; the
matching frequency grid is xi_k = (k - n/2) dxi with dxi = 2 pi / (n dx).
WindowSpec, the unit Gaussian, is the STFT window and the sampled and analytic
Gaussians.  Analytic signals, tensor products of 1-d closed forms, are never
sampled; nor is a convolution kernel, kept as the phase of its line on the
Fourier side and the width of a mollifier there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DomainError, ResolutionError
from .poly import PolynomialData, eval_grad, eval_poly

_TWO_PI = 2.0 * math.pi
# Gaussian widths W whose W^2 and 1 / W^2 are both normal doubles.
MIN_WIDTH, MAX_WIDTH = 2.0 ** -511, 2.0 ** 511


class SampledSignal:
    """Complex samples of a function of one real variable on a centered grid."""

    __slots__ = ("dx", "values")
    dim = 1

    def __init__(self, dx: float, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1:
            raise DomainError(f"sampled signals are 1-d, got values of shape {values.shape}")
        n = len(values)
        if n < 16 or n & (n - 1) != 0:
            raise DomainError(f"samples must number a power of two >= 16, got {n}")
        if not dx > 0.0:
            raise DomainError(f"grid spacing must be positive, got {dx}")
        if not np.all(np.isfinite(values)):
            raise DomainError("signal values must be finite")
        self.dx = float(dx)
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def extent(self) -> float:
        """Half-width of the grid."""
        return self.n * self.dx / 2.0

    @property
    def dxi(self) -> float:
        return _TWO_PI / (self.n * self.dx)

    def axis_coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    def freq_coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dxi

    def norm(self) -> float:
        """Discrete L2 norm with the dx quadrature weight."""
        return l2_norm(self.values, self.dx)


def l2_norm(values, weight: float) -> float:
    """sqrt(weight * sum |values|^2).  Where that sum is not a positive, normal,
    finite number (it over- or underflowed, or every value is 0), the moduli
    are divided by the largest before squaring, so a norm in the double range
    is found and one whose sum is in range keeps the plain formula's bytes."""
    with np.errstate(over="ignore"):
        total = np.sum(np.abs(values) ** 2)
    if not 2.0 ** -1022 <= total < math.inf:   # the smallest normal double
        mod = np.abs(values)
        top = mod.max(initial=0.0)
        if 0.0 < top < math.inf:
            return float(top * np.sqrt(np.sum((mod / top) ** 2) * weight))
    return float(np.sqrt(total * weight))


@dataclass(frozen=True)
class WindowSpec:
    """The unit Gaussian pi^(-1/4) W^(-1/2) exp(-y^2 / (2 W^2)) of width W: unit L2
    norm in 1-d; in d dimensions the window is the product of d of them."""

    width: float = 1.0

    def __post_init__(self):
        # 1 / width^2 scales every window exponent: below 2^-511 it overflows,
        # and above 2^511 width^2 does
        if not MIN_WIDTH <= self.width <= MAX_WIDTH:
            raise DomainError(f"Gaussian width must lie in [2^-511, 2^511], got {self.width}")

    @property
    def amplitude(self) -> float:
        return math.pi ** -0.25 * self.width ** -0.5

    def values_1d(self, offsets: np.ndarray) -> np.ndarray:
        """The 1-d window at the offsets; 0 where its square overflows."""
        offsets = np.asarray(offsets, dtype=float)
        with np.errstate(over="ignore"):
            return self.amplitude * np.exp(-offsets * offsets / (2.0 * self.width ** 2))


@dataclass(frozen=True)
class AnalyticSignal:
    """Tensor product of 1-d factors, one per axis: ("delta",), ("gauss", amp,
    alpha, c0, c1) for amp exp(i c0 + i c1 y - alpha y^2) with Re alpha >= 0, or
    ("chirp", phase) for exp(i phase(y)), phase of degree >= 3."""

    factors: tuple

    @property
    def dim(self) -> int:
        return len(self.factors)


class ConvolutionKernel:
    """Convolution kernel K(x, y) = k(x - y) with the analytic line
    k = (2 pi)^(-1/2) F^(-1)[exp(i phase) exp(-xi^2 / (2 passband^2))].

    phase is a 1-d polynomial; the kernel stands for the unmollified one
    (passband inf) only inside its passband.
    """

    __slots__ = ("phase", "passband")

    def __init__(self, phase: PolynomialData, passband: float = math.inf):
        if not passband > 0.0:
            raise DomainError(f"passband must be positive, got {passband}")
        self.phase = phase
        self.passband = float(passband)

    @property
    def dim(self) -> int:
        return 2


def delta_signal(dim: int = 1) -> AnalyticSignal:
    return AnalyticSignal((("delta",),) * dim)


def one_signal(dim: int = 1) -> AnalyticSignal:
    return AnalyticSignal((("gauss", 1.0, 0.0, 0.0, 0.0),) * dim)


def gaussian_signal(width: float = 1.0, dim: int = 1) -> AnalyticSignal:
    w = WindowSpec(width)
    return AnalyticSignal((("gauss", w.amplitude, 1.0 / (2.0 * w.width ** 2), 0.0, 0.0),) * dim)


def chirp_signal(phase: PolynomialData) -> AnalyticSignal:
    if phase.degree >= 3:
        return AnalyticSignal((("chirp", phase),))
    c0, c1, c2 = (phase.coeffs.tolist() + [0.0, 0.0])[:3]
    return AnalyticSignal((("gauss", 1.0, -1j * c2, c0, c1),))


def tensor_signal(u: AnalyticSignal, v: AnalyticSignal) -> AnalyticSignal:
    return AnalyticSignal(u.factors + v.factors)


def _grid(n: int, dx: float) -> np.ndarray:
    """Node coordinates of the centred n-point grid, once n and dx pass as a signal's."""
    return SampledSignal(dx, np.zeros(n, dtype=complex)).axis_coords()


def make_gaussian(d: int, n: int, dx: float, width: float = 1.0) -> SampledSignal:
    """The window of the given width sampled on the centered grid of dimension d = 1."""
    if d != 1:
        raise DomainError(f"sampled signals are 1-d, got d = {d}")
    w = WindowSpec(width)
    half = n * dx / 2.0
    # L2 mass outside the grid; erf(X/w) for the squared modulus.
    inside = math.erf(half / width)
    if 1.0 - inside > 1e-10:
        raise ResolutionError(
            f"grid half-width {half} truncates {1.0 - inside:.2e} of the Gaussian mass"
        )
    return SampledSignal(dx, w.values_1d(_grid(n, dx)).astype(complex))


def make_chirp(phase: PolynomialData, n: int, dx: float, envelope_width: float = math.inf,
               guard_level: float = 1e-14) -> SampledSignal:
    """Chirp exp(i phase(x) - x^2/(2 W^2)) sampled on the grid, W = envelope_width.

    The aliasing guard applies where the envelope exceeds guard_level, which
    is every sample of the unimodular chirp (W = inf); samples outside carry
    at most that amplitude, so any unresolved phase there stays below a
    classification floor set above guard_level.  W must be at least 2^-511,
    as a window's width; past 2^511 its square overflows to inf and the
    chirp is the unimodular one, which it equals to double precision.
    """
    if not envelope_width >= MIN_WIDTH:
        raise DomainError(f"envelope width must be at least 2^-511, got {envelope_width}")
    if not 0.0 < guard_level < 1.0:
        raise DomainError("guard level must sit in (0, 1)")
    x = _grid(n, dx)
    r2 = x * x
    with np.errstate(over="ignore"):
        two_w2 = 2.0 * np.float64(envelope_width) ** 2
        live = r2 <= two_w2 * math.log(1.0 / guard_level)
    grads = eval_grad(phase, x)
    worst = float(np.max(np.abs(grads)[live])) * dx if np.any(live) else 0.0
    if worst > 0.9 * math.pi:
        raise AliasingError(
            f"max |grad phase| * dx = {worst:.3f} on the envelope support exceeds "
            "the 0.9*pi aliasing guard; refine dx, shrink the grid or narrow the envelope")
    with np.errstate(over="ignore"):
        vals = np.exp(1j * eval_poly(phase, x) - r2 / two_w2)
    return SampledSignal(dx, vals)


def fourier(sig: SampledSignal, inverse: bool = False) -> SampledSignal:
    """Fourier transform with the (2 pi)^(-1/2) symmetric normalization.

    The output lives on the dual centered grid with spacing 2 pi/(n dx);
    fourier(fourier(f), inverse=True) recovers f.
    """
    vals = np.fft.ifftshift(sig.values)
    vals = np.fft.ifft(vals) * sig.n if inverse else np.fft.fft(vals)
    return SampledSignal(sig.dxi, np.fft.fftshift(vals) * sig.dx * _TWO_PI ** -0.5)
