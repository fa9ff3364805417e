"""Spectral solver for d_t u + i p(D) u = 0 and its Schwartz kernel.

The solution is the Fourier multiplier exp(-i t p(xi)); the kernel is the
convolution kernel k_t = (2 pi)^(-d/2) F^(-1)(exp(-i t p)) arranged as
K_t(x, y) = k_t(x - y).  The kernel is kept as the phase -t p of its line on
the Fourier side and the width of a Gaussian mollifier there (a
ConvolutionKernel: kernel_signal, or propagator_kernel with none), never as
a matrix or a grid: its 4-d STFT is one chirp STFT (stft._convolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DomainError, UnsupportedRegimeError
from .geometry import AnisoIndex, project_many
from .poly import PolynomialData, eval_grad, eval_poly, principal_part
from .signals import ConvolutionKernel, SampledSignal, fourier

_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionSpec:
    """Real polynomial symbol of order >= 2 and an evolution time."""

    symbol: PolynomialData
    time: float

    def __post_init__(self):
        if self.symbol.degree < 2:
            raise DomainError(f"symbol order must be >= 2, got {self.symbol.degree}")
        if not math.isfinite(self.time):
            raise DomainError(f"evolution time must be finite, got {self.time}")

    @property
    def order(self) -> int:
        return self.symbol.degree


def _phase_guard(spec: EvolutionSpec, pvals: np.ndarray, n: int):
    """Reject when t * p jumps more than 0.9 pi between adjacent bins."""
    worst = float(np.max(np.abs(np.diff(pvals)))) * abs(spec.time)
    if worst > 0.9 * math.pi:
        # halving the bin spacing scales the jump roughly linearly
        factor = worst / (0.9 * math.pi)
        suggestion = n * 2 ** max(1, math.ceil(math.log2(factor)))
        raise AliasingError(
            f"t * (p jump per frequency bin) = {worst:.3f} exceeds 0.9*pi; "
            f"suggest n = {suggestion} at the same dx")


def propagate(u0: SampledSignal, spec: EvolutionSpec) -> SampledSignal:
    """Apply exp(-i t p(D)): forward transform, unimodular multiplier, inverse."""
    uhat = fourier(u0)
    pvals = eval_poly(spec.symbol, u0.freq_coords())
    _phase_guard(spec, pvals, u0.n)
    evolved = SampledSignal(uhat.dx, uhat.values * np.exp(-1j * spec.time * pvals))
    return fourier(evolved, inverse=True)


def kernel_signal(spec: EvolutionSpec, moll_width: float) -> ConvolutionKernel:
    """Schwartz kernel K_t(x, y) = k_t(x - y) under a Gaussian frequency mollifier.

    Its line is (2 pi)^(-1/2) F^(-1)[exp(-i t p) exp(-xi^2 / (2 moll_width^2))],
    kept as the phase -t p and the passband moll_width: nothing is sampled.
    The kernel stands for the unmollified one only inside its passband, where a
    sweep's curves stop.
    """
    return ConvolutionKernel(PolynomialData(-spec.time * spec.symbol.coeffs), passband=moll_width)


def propagator_kernel(spec: EvolutionSpec) -> ConvolutionKernel:
    """The Schwartz kernel of exp(-i t p(D)) itself: kernel_signal with no mollifier."""
    return kernel_signal(spec, math.inf)


def _flow_positions(spec: EvolutionSpec, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """x + t grad p_m(xi) for (N, d) coordinate arrays, p_m the principal part: the
    x block of the Hamiltonian flow chi_t(x, xi) = (x + t grad p_m(xi), xi)."""
    return xs + spec.time * eval_grad(principal_part(spec.symbol), xis)


def predict_transport(directions: np.ndarray, spec: EvolutionSpec,
                      idx: AnisoIndex) -> np.ndarray:
    """Image of an (N, 2d) set of unit directions under the propagation theorem.

    For t = s(m-1) each direction moves along the Hamiltonian flow of the
    principal symbol (representative-independent by conic invariance) and
    is projected back to the sphere; for t > s(m-1) the set is unchanged.
    Other index pairs are not covered.
    """
    dirs = np.asarray(directions, dtype=float)
    m = spec.order
    sm1 = idx.s * (m - 1)
    if not sm1 > 1.0:
        raise UnsupportedRegimeError(f"need s(m-1) > 1, got {sm1}")
    if abs(idx.t - sm1) <= _REGIME_TOL:
        d = dirs.shape[1] // 2
        xs, xis = dirs[:, :d], dirs[:, d:]
        return project_many(idx, _flow_positions(spec, xs, xis), xis)
    if idx.t > sm1:
        return dirs.copy()
    raise UnsupportedRegimeError(
        f"transport is stated for t >= s(m-1) > 1, got t = {idx.t}, s(m-1) = {sm1}")
