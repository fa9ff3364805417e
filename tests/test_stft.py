import math

import numpy as np
import pytest

from anisowf import stft as stft_module
from anisowf.errors import DomainError, ResolutionError, TruncationError
from anisowf.evolution import EvolutionSpec, kernel_signal
from anisowf.geometry import AnisoIndex, PhasePoint
from anisowf.poly import poly_1d
from anisowf.signals import (SampledSignal, chirp_signal, delta_signal,
                             gaussian_signal, make_chirp, make_gaussian,
                             one_signal, tensor_signal)
from anisowf.stft import (_WORK_ELEMENTS, WindowSpec, _chirp_quadrature, classical_seminorm,
                          istft, moyal_error, stft_grid, stft_point, stft_points, stft_seminorm)

TWO_PI = 2.0 * math.pi


def oracle_stft_1d(u_func, width, x, xi, half=30.0, npts=200001):
    """Independent oracle: brute-force quadrature of the defining integral."""
    y = np.linspace(x - half, x + half, npts)
    win = math.pi ** -0.25 * width ** -0.5 * np.exp(-(y - x) ** 2 / (2 * width ** 2))
    vals = u_func(y) * win * np.exp(-1j * y * xi)
    return np.trapezoid(vals, y) / math.sqrt(TWO_PI)


class TestPointClosedForms:
    def test_constant_one_matches_quadrature(self):
        # |V 1(x, xi)| is x-independent and equals |hat phi(xi)| = pi^(-1/4) e^(-xi^2/2)
        w = WindowSpec(1.0)
        sig = one_signal(1)
        for x, xi in [(0.0, 0.0), (3.2, 0.0), (-1.0, 1.3), (5.0, -2.1)]:
            got = stft_point(sig, w, PhasePoint(x, xi))
            want = oracle_stft_1d(lambda y: np.ones_like(y), 1.0, x, xi)
            assert got == pytest.approx(want, abs=1e-10)
            assert abs(got) == pytest.approx(math.pi ** -0.25 * math.exp(-xi * xi / 2),
                                             abs=1e-12)

    def test_window_against_itself_at_origin(self):
        # (2 pi)^(-1/2) ||phi||^2 = (2 pi)^(-1/2) for the unit window
        w = WindowSpec(1.0)
        got = stft_point(gaussian_signal(1.0), w, PhasePoint(0.0, 0.0))
        assert got == pytest.approx(TWO_PI ** -0.5, abs=1e-13)

    def test_delta_xi_independent(self):
        w = WindowSpec(1.0)
        sig = delta_signal(1)
        mags = [abs(stft_point(sig, w, PhasePoint(0.7, xi))) for xi in (-3.0, 0.0, 4.0)]
        assert max(mags) - min(mags) == pytest.approx(0.0, abs=1e-15)
        # V delta(x, xi) = (2 pi)^(-1/2) conj(phi)(-x)
        want = TWO_PI ** -0.5 * math.pi ** -0.25 * math.exp(-0.49 / 2)
        assert mags[0] == pytest.approx(want, abs=1e-13)

    def test_gaussian_pair_matches_quadrature(self):
        w = WindowSpec(1.3)
        sig = gaussian_signal(0.8)
        for x, xi in [(0.0, 0.0), (1.1, -0.9), (-2.0, 2.5)]:
            got = stft_point(sig, w, PhasePoint(x, xi))
            want = oracle_stft_1d(
                lambda y: math.pi ** -0.25 * 0.8 ** -0.5 * np.exp(-y * y / (2 * 0.64)),
                1.3, x, xi)
            assert got == pytest.approx(want, abs=1e-10)

    def test_quadratic_chirp_matches_quadrature(self):
        w = WindowSpec(1.0)
        sig = chirp_signal(poly_1d(0.3, -0.5, 1.0))
        for x, xi in [(0.0, 0.0), (2.0, 4.0), (-1.5, 2.0), (4.0, -3.0)]:
            got = stft_point(sig, w, PhasePoint(x, xi))
            want = oracle_stft_1d(
                lambda y: np.exp(1j * (0.3 - 0.5 * y + y * y)), 1.0, x, xi)
            assert got == pytest.approx(want, abs=1e-9)

    def test_cubic_chirp_quadrature_path(self):
        w = WindowSpec(1.0)
        sig = chirp_signal(poly_1d(0.0, 0.0, 0.0, 1.0))
        for x, xi in [(1.0, 3.0), (2.0, 12.0), (0.0, -2.0)]:
            got = stft_point(sig, w, PhasePoint(x, xi))
            want = oracle_stft_1d(lambda y: np.exp(1j * y ** 3), 1.0, x, xi)
            assert got == pytest.approx(want, abs=1e-8)

    def test_tensor_product_factorizes(self):
        w = WindowSpec(1.0)
        pair = tensor_signal(one_signal(1), delta_signal(1))
        p = PhasePoint([1.2, 0.4], [0.3, -2.0])
        got = stft_point(pair, w, p)
        v1 = stft_point(one_signal(1), w, PhasePoint(1.2, 0.3))
        v2 = stft_point(delta_signal(1), w, PhasePoint(0.4, -2.0))
        assert got == pytest.approx(v1 * v2, abs=1e-14)


class TestPointSampled:
    def test_sampled_gaussian_matches_closed_form(self):
        u = make_gaussian(1, 512, 0.05)
        w = WindowSpec(1.0)
        ana = gaussian_signal(1.0)
        for x, xi in [(0.0, 0.0), (1.0, 2.0), (-3.3, -7.0), (2.7, 20.0)]:
            got = stft_point(u, w, PhasePoint(x, xi))
            want = stft_point(ana, w, PhasePoint(x, xi))
            assert got == pytest.approx(want, abs=1e-9)

    def test_off_lattice_center(self):
        u = make_gaussian(1, 512, 0.05)
        w = WindowSpec(1.0)
        p = PhasePoint(0.5 * 0.05 + 1.0, 0.77)  # x between grid nodes
        got = stft_point(u, w, p)
        want = stft_point(gaussian_signal(1.0), w, p)
        assert got == pytest.approx(want, abs=1e-9)

    def test_truncation_flag(self):
        u = make_gaussian(1, 512, 0.05)  # extent 12.8
        with pytest.raises(TruncationError):
            stft_point(u, WindowSpec(1.0), PhasePoint(11.0, 0.0))
        with pytest.raises(TruncationError):
            stft_point(u, WindowSpec(1.0), PhasePoint(0.0, 100.0))  # beyond Nyquist

    def test_window_width_floor(self):
        # below 2^-511 the window's 1 / width^2 leaves the double range
        with pytest.raises(DomainError):
            WindowSpec(1e-160)
        u = make_gaussian(1, 64, 1.0)
        got = stft_points(u, WindowSpec(2.0 ** -511), np.array([[0.0], [0.3]]),
                          np.array([[1.0], [1.0]]))
        assert np.all(np.isfinite(got)) and got[1] == 0.0

    def test_sampled_2d_matches_tensor_closed_form(self):
        g = make_gaussian(2, 64, 0.25)
        w = WindowSpec(1.0)
        ana = gaussian_signal(1.0, dim=2)
        p = PhasePoint([0.7, -0.3], [1.1, 0.6])
        got = stft_point(g, w, p)
        want = stft_point(ana, w, p)
        assert got == pytest.approx(want, abs=1e-9)


def full_grid_oracle(u, width, xs, xis):
    """sum_y u(y) phi(y - x) e^(-i y.xi) dx^d (2 pi)^(-d/2) over the whole grid, no support cut."""
    d = u.dim
    y = u.grid().reshape(-1, d)
    vals = u.values.reshape(-1)
    out = []
    for x, xi in zip(xs, xis):
        r2 = np.sum((y - x) ** 2, axis=1)
        phi = math.pi ** (-d / 4) * width ** (-d / 2) * np.exp(-r2 / (2 * width ** 2))
        out.append(np.sum(vals * phi * np.exp(-1j * (y @ xi))) * u.dx ** d * TWO_PI ** (-d / 2))
    return np.array(out)


def rough_signal(rng, dim, n, dx):
    """Random complex samples under a Gaussian envelope: no closed form to lean on."""
    shape = (n,) * dim
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r2 = np.sum(SampledSignal(dx, vals).grid() ** 2, axis=-1)
    return SampledSignal(dx, vals * np.exp(-r2 / 8.0))


class TestPointsBatch:
    # A 0.3-wide window reaches 3 units; the grids below end at 6.4, so a
    # centre at |x| = 5 has its support clipped by the grid edge.
    WINDOW = WindowSpec(0.3)

    def check_batch(self, u, xs, xis):
        got = stft_points(u, self.WINDOW, xs, xis)
        alone = [stft_point(u, self.WINDOW, PhasePoint(x, xi)) for x, xi in zip(xs, xis)]
        np.testing.assert_allclose(got, alone, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(got, full_grid_oracle(u, self.WINDOW.width, xs, xis),
                                   rtol=0.0, atol=1e-12)

    def test_d1_mixed_batch_matches_single_points_and_full_sum(self):
        u = rough_signal(np.random.default_rng(5), 1, 256, 0.05)
        xs = np.array([[0.0], [1.05], [0.013], [-2.2071], [5.0], [-5.09]])
        xis = np.array([[0.0], [3.0], [-7.5], [12.0], [-1.1], [40.0]])
        self.check_batch(u, xs, xis)

    def test_d2_mixed_batch_matches_single_points_and_full_sum(self):
        u = rough_signal(np.random.default_rng(6), 2, 64, 0.2)
        xs = np.array([[0.0, 0.0], [0.4, -1.2], [0.11, 0.537], [5.0, 0.3], [-4.93, 4.9]])
        xis = np.array([[0.0, 0.0], [2.0, -3.0], [-1.4, 7.7], [0.5, 0.5], [-9.0, 1.0]])
        self.check_batch(u, xs, xis)

    def test_one_bad_point_truncates_the_batch(self):
        u = make_gaussian(1, 512, 0.05)  # extent 12.8, Nyquist 62.8
        ok = np.array([[0.0], [1.0], [-3.0]])
        for xs, xis in ((np.array([[0.0], [10.3], [1.0]]), ok),
                        (ok, np.array([[0.0], [1.0], [-63.0]]))):
            with pytest.raises(TruncationError):
                stft_points(u, WindowSpec(1.0), xs, xis)

    def test_bad_shapes_and_coordinates(self):
        w = WindowSpec(1.0)
        for u in (make_gaussian(1, 128, 0.1), gaussian_signal(1.0)):
            for xs, xis in ((np.zeros((3, 1)), np.zeros((2, 1))),
                            (np.zeros(3), np.zeros(3)),
                            (np.zeros((3, 2)), np.zeros((3, 2))),
                            (np.array([[0.0], [np.nan]]), np.zeros((2, 1))),
                            (np.zeros((2, 1)), np.array([[np.inf], [0.0]]))):
                with pytest.raises(DomainError):
                    stft_points(u, w, xs, xis)

    def test_tensor_batch_is_product_of_factor_batches(self):
        w = WindowSpec(1.1)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 3.0, (9, 2))
        xis = rng.uniform(-4.0, 4.0, (9, 2))
        for f, g in ((one_signal(1), delta_signal(1)),
                     (gaussian_signal(0.7), chirp_signal(poly_1d(0.2, 0.0, -0.8)))):
            got = stft_points(tensor_signal(f, g), w, xs, xis)
            want = stft_points(f, w, xs[:, :1], xis[:, :1]) * stft_points(g, w, xs[:, 1:],
                                                                          xis[:, 1:])
            np.testing.assert_array_equal(got, want)


def fsum_oracle(u, width, x, xi):
    """Scalar reference for one point: math.fsum over the nodes within 10 widths of x
    on every axis of u_j w(y_j - x) e^(-i y_j.xi), and of |u_j| w(y_j - x), both
    times dx^d (2 pi)^(-d/2)."""
    d = u.dim
    y = u.grid().reshape(-1, d)
    near = np.all(np.abs(y - x) <= 10.0 * width, axis=1)
    y, vals = y[near], u.values.reshape(-1)[near]
    w = math.pi ** (-d / 4) * width ** (-d / 2) * np.exp(-np.sum((y - x) ** 2, axis=1)
                                                         / (2.0 * width ** 2))
    phase = y @ xi
    re = vals.real * np.cos(phase) + vals.imag * np.sin(phase)
    im = vals.imag * np.cos(phase) - vals.real * np.sin(phase)
    scale = u.dx ** d * TWO_PI ** (-d / 2)
    return (complex(math.fsum(re * w), math.fsum(im * w)) * scale,
            math.fsum(np.abs(vals) * w) * scale)


class TestSampledOracle:
    """The sampled quadrature against a per-node fsum, to 1e-12 of the point's
    windowed mass sum |u_j| w_j dx^d (2 pi)^(-d/2)."""

    @staticmethod
    def check(u, width, xs, xis):
        got = stft_points(u, WindowSpec(width), xs, xis)
        for k in range(len(xs)):
            want, mass = fsum_oracle(u, width, xs[k], xis[k])
            assert abs(got[k] - want) <= 1e-12 * mass, (xs[k], xis[k], got[k], want)

    @staticmethod
    def signal(seed, d, n, dx):
        rng = np.random.default_rng(seed)
        shape = (n,) * d
        return SampledSignal(dx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @staticmethod
    def points(seed, count, u, x_frac=(0.0, 0.8)):
        """Centres with |x| in x_frac of the extent, frequencies up to Nyquist."""
        rng = np.random.default_rng(seed)
        shape = (count, u.dim)
        xs = rng.choice([-1.0, 1.0], shape) * rng.uniform(*x_frac, shape) * u.extent
        return xs, rng.uniform(-1.0, 1.0, shape) * math.pi / u.dx

    # dx / W from a fine grid to one coarser than any support
    @pytest.mark.parametrize("ratio, n", [(0.05, 1024), (0.5, 256), (2.0, 64), (4.0, 64),
                                          (8.0, 64), (40.0, 64)])
    def test_d1_grid_to_window_ratios(self, ratio, n):
        u = self.signal(1, 1, n, 0.1)
        width = 0.1 / ratio
        self.check(u, width, *self.points(2, 40, u))

    def test_d1_windows_clipped_at_the_grid_edge(self):
        u = self.signal(3, 1, 256, 0.1)   # extent 12.8; windows reach 5
        xs, xis = self.points(4, 40, u, x_frac=(0.65, 0.8))
        assert np.all(np.abs(xs) + 5.0 > u.extent)
        self.check(u, 0.5, xs, xis)

    def test_d1_window_wider_than_the_grid(self):
        u = self.signal(5, 1, 16, 0.25)   # extent 2; windows reach 10
        self.check(u, 1.0, *self.points(6, 40, u))

    def test_d2(self):
        u = self.signal(7, 2, 32, 0.25)   # extent 4; windows reach 3
        xs, xis = self.points(8, 30, u)
        assert np.any(np.abs(xs) + 3.0 > u.extent)
        self.check(u, 0.3, xs, xis)


def dense_chirp_oracle(coeffs, x, xi, width=1.0, unit_norm=True, half=12.0,
                       npts=(1 << 20) + 1, shift=0.0):
    """Independent oracle: a dense trapezoid over [x - half width, x + half width]
    with the phase sum c_j y^j - y xi left un-centred; x and xi may be arrays.

    The phase is summed in long double and reduced mod 2 pi before the
    exponential, and the terms are added in long double: in double, the
    phase's round-off at |y|^m ~ 1e4, or the sum's, reaches ~1e-9 of a |V| of
    1e-8.  With shift > 0 the line runs at Im y = shift, which Cauchy's
    theorem allows where the phase's leading term c y^m has c > 0 and m odd:
    it damps the oscillation of the tails, so few nodes resolve any window.
    """
    ld = np.longdouble
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float)).astype(ld)[:, None]
    xi = np.atleast_1d(np.asarray(xi, dtype=float)).astype(ld)[:, None]
    two_pi = 2 * np.arccos(ld(-1.0))
    step = ld(2.0 * half * width) / (npts - 1)
    total = np.zeros(len(x), dtype=np.clongdouble)
    chunk = max(1, (1 << 18) // len(x))
    for lo in range(0, npts, chunk):
        k = np.arange(lo, min(lo + chunk, npts))
        h = (k - (npts - 1) // 2) * step + (1j * ld(shift) if shift else 0)
        y = x + h
        theta = np.zeros_like(y)
        for c in coeffs[:0:-1]:
            theta = (theta + ld(c)) * y
        theta += ld(coeffs[0]) - y * xi
        window = h * h / (2 * ld(width) ** 2)
        phase = np.real(theta) - np.imag(window)
        phase -= two_pi * np.round(phase / two_pi)
        size = -np.imag(theta) - np.real(window)
        terms = np.exp(size.astype(float) + 1j * phase.astype(float))
        terms[:, (k == 0) | (k == npts - 1)] /= 2.0
        total += np.sum(terms, axis=1, dtype=np.clongdouble)
    amp = math.pi ** -0.25 * width ** -0.5 if unit_norm else 1.0
    out = (total * step).astype(complex) * (amp / math.sqrt(TWO_PI))
    return out[0] if scalar else out


class TestBatchInvariance:
    """A point's value does not depend on the batch it comes in: one call on
    many points equals one call per point, bit for bit."""

    @staticmethod
    def check(u, w, xs, xis):
        got = stft_points(u, w, xs, xis)
        alone = np.concatenate([stft_points(u, w, xs[k:k + 1], xis[k:k + 1])
                                for k in range(len(xs))])
        np.testing.assert_array_equal(got, alone)

    @staticmethod
    def points(rng, count, x_max, xi_max, d):
        return rng.uniform(-x_max, x_max, (count, d)), rng.uniform(-xi_max, xi_max, (count, d))

    @pytest.mark.parametrize("d, n, dx", [(1, 256, 0.05), (2, 64, 0.2)])
    def test_sampled(self, d, n, dx):
        u = rough_signal(np.random.default_rng(11 + d), d, n, dx)
        w = WindowSpec(0.3)
        # |x| up to the 80% reach, 5.12: windows of radius 3 there are clipped
        xs, xis = self.points(np.random.default_rng(d), 600, 5.1, 0.8 * math.pi / dx, d)
        assert len(xs) * d * (20.0 * w.width / dx) > 2 * _WORK_ELEMENTS   # several chunks
        assert np.any(np.abs(xs) + 10.0 * w.width > u.extent)
        self.check(u, w, xs, xis)

    def test_sampled_coarse_grid(self):
        # dx = 4 W: a stencil of 7 nodes, a few of them inside each support;
        # no envelope, so no window sees only zeros
        rng = np.random.default_rng(21)
        u = SampledSignal(1.2, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        w = WindowSpec(0.3)
        xs, xis = self.points(np.random.default_rng(22), 5000, 0.8 * u.extent,
                              math.pi / u.dx, 1)
        assert len(xs) * 7 > 2 * _WORK_ELEMENTS
        self.check(u, w, xs, xis)

    def test_sampled_window_wider_than_the_grid(self):
        u = rough_signal(np.random.default_rng(23), 1, 16, 0.25)
        w = WindowSpec(1.0)   # reaches 10, past the whole grid of extent 2
        xs, xis = self.points(np.random.default_rng(24), 2500, 0.8 * u.extent,
                              math.pi / u.dx, 1)
        assert len(xs) * 16 > 2 * _WORK_ELEMENTS
        self.check(u, w, xs, xis)

    def test_kernel_with_sampled_line(self):
        K = kernel_signal(EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3), 128, 0.2,
                          moll_width=0.6 * math.pi / 0.2)
        # the line's window is sqrt(2) wide, 141 nodes of spacing 0.2 each side
        xs, xis = self.points(np.random.default_rng(4), 400, 10.0, 7.0, 2)
        assert len(xs) * 20.0 * math.sqrt(2.0) / 0.2 > 2 * _WORK_ELEMENTS
        assert np.any(np.abs(xs[:, 0] - xs[:, 1]) + 10.0 * math.sqrt(2.0) > K.line.extent)
        self.check(K, WindowSpec(1.0), xs, xis)

    def test_cubic_chirp(self):
        xs, xis = self.points(np.random.default_rng(9), 40, 3.0, 20.0, 1)
        self.check(chirp_signal(poly_1d(0.0, 0.0, 0.0, 1.0)), WindowSpec(1.0), xs, xis)

    def test_cubic_chirp_mixes_clusters_and_isolated_saddles(self, monkeypatch):
        # near the origin saddles of x^3 - xi x coalesce and points integrate
        # through a cluster's disc; far out they do not
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-3.0, 3.0, 40), rng.uniform(30.0, 60.0, 20)])
        xi = np.concatenate([rng.uniform(-20.0, 20.0, 40),
                             3.0 * x[40:] ** 2 + rng.uniform(-50.0, 50.0, 20)])
        centres = []
        taylor_shift = stft_module._taylor_shift

        def recording(c, s):
            if s.ndim == 1:   # a shift to cluster centres or exit points
                centres.append(len(s))
            return taylor_shift(c, s)

        monkeypatch.setattr(stft_module, "_taylor_shift", recording)
        self.check(chirp_signal(poly_1d(0.0, 0.0, 0.0, 1.0)), WindowSpec(1.0),
                   x[:, None], xi[:, None])
        # the batch call comes first: some of its points, not all, have a cluster
        assert 0 < centres[0] < len(x)


class TestChirpQuadrature:
    CUBE = (0.0, 0.0, 0.0, 1.0)

    def test_high_frequency_cubic_matches_dense_oracle(self):
        # window centres far out on x^3, on the ridge 3 x^2 and off it
        xs, xis = [], []
        for x in (-40.0, 40.0, 55.0):
            for off in (0.0, 4.0, -25.0, 300.0, -600.0):
                xs.append(x)
                xis.append(3.0 * x * x + off)
        got = stft_points(chirp_signal(poly_1d(*self.CUBE)), WindowSpec(1.0),
                          np.array(xs)[:, None], np.array(xis)[:, None])
        want = np.array([dense_chirp_oracle(self.CUBE, x, xi) for x, xi in zip(xs, xis)])
        big = np.abs(want) > 1e-8
        assert big.sum() >= 10
        np.testing.assert_allclose(got[big], want[big], rtol=1e-9, atol=0.0)

    def test_quadratic_phase_matches_closed_form(self):
        w = WindowSpec(1.0)
        phase = poly_1d(0.3, -0.5, 0.7)
        x = np.repeat([-100.0, -37.5, 0.0, 12.0, 100.0], 4)
        xi = 1.4 * x - 0.5 + np.tile([0.0, 1.5, -3.0, 9.0], 5)
        got = _chirp_quadrature(phase, w, x, xi)
        # a degree-2 phase takes the closed form in stft_points
        want = stft_points(chirp_signal(phase), w, x[:, None], xi[:, None])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_no_point_is_skipped(self):
        # all but the last point have no stationary point within 12 units of the
        # centre and |3 y^2 - xi| >= 12: their values are tiny but computed, and
        # agree with the oracle to its round-off floor
        x = np.array([-40.0, -40.0, 0.0, 3.0, 10.0, 20.0, 20.0, 40.0, 40.0, 55.0, 55.0, 1.0])
        xi = np.array([-50.0, 3.0 * 55.0 ** 2, -30.0, 3.0 * 16.0 ** 2, -20.0, 3.0 * 33.0 ** 2,
                       -400.0, 3.0 * 25.0 ** 2, 3.0 * 55.0 ** 2, -100.0, 3.0 * 70.0 ** 2, 3.0])
        got = _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), x, xi)
        want = np.array([dense_chirp_oracle(self.CUBE, a, b) for a, b in zip(x, xi)])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(got[-1], want[-1], rtol=1e-9)

    def test_short_circuit_near_origin(self):
        # |3 y^2 + 13| >= 13 on the support, yet the saddles at
        # y = +-i (13/3)^(1/2) leave |V| ~ 2e-8
        got = _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), np.array([0.0]),
                                np.array([-13.0]))
        want = dense_chirp_oracle(self.CUBE, 0.0, -13.0)
        assert abs(want) > 1e-8
        assert abs(got[0] - want) < 1e-9 * abs(want)

    @staticmethod
    def recording_sizes(monkeypatch):
        """Record the size of every array np.linspace builds or np.exp receives."""
        sizes = []
        linspace, exp = np.linspace, np.exp

        def recording_linspace(start, stop, num=50, **kw):
            sizes.append(num)
            return linspace(start, stop, num, **kw)

        def recording_exp(a, *args, **kw):
            sizes.append(np.size(a))
            return exp(a, *args, **kw)

        monkeypatch.setattr(np, "linspace", recording_linspace)
        monkeypatch.setattr(np, "exp", recording_exp)
        return sizes

    def test_far_quintic_point_allocates_no_node_array(self, monkeypatch):
        # x^5 at x = 300 would need ~1e10 trapezoid nodes; on the ridge xi = 5 x^4
        # and off it the paths cost a few numbers per saddle
        sizes = self.recording_sizes(monkeypatch)
        x = np.array([300.0, 300.0])
        # off it the stationary point lies 1e10 / p''(x) ~ 19 widths away
        xi = 5.0 * x ** 4 + np.array([0.0, -1e10])
        got = _chirp_quadrature(poly_1d(0.0, 0.0, 0.0, 0.0, 0.0, 1.0), WindowSpec(1.0), x, xi)
        monkeypatch.undo()
        assert np.all(np.isfinite(got))
        assert max(sizes) <= 2 * 4 * len(x)
        # on the ridge the window sees the phase 10 x^3 h^2 plus a cubic term
        # below 1e-7 over its effective width: the quadratic chirp's closed form
        quad = stft_points(chirp_signal(poly_1d(0.0, 0.0, 10.0 * 300.0 ** 3)), WindowSpec(1.0),
                           np.zeros((1, 1)), np.zeros((1, 1)))
        assert abs(got[0]) == pytest.approx(abs(quad[0]), rel=1e-9)
        assert abs(got[1]) < 1e-60

    def test_quintic_cluster_matches_dense_oracle(self, monkeypatch):
        # 100 x^5 at x = 0, xi = 0 sits on its cluster of four coalescing
        # saddles, where a trapezoid over the window would need 3e7 nodes; the
        # cluster's disc costs a fixed number per point, like the far point
        quintic = (0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
        sizes = self.recording_sizes(monkeypatch)
        x = np.array([300.0, 0.0])
        xi = np.array([500.0 * 300.0 ** 4, 0.0])
        got = _chirp_quadrature(poly_1d(*quintic), WindowSpec(1.0), x, xi)
        monkeypatch.undo()
        # no array beyond the work width of a point: 2 (m - 1) half paths of
        # m + 1 coefficients, or a rim of as many samples
        assert max(sizes) <= 2 * 4 * 6 * len(x)
        # five widths each side: the oscillating tail beyond adds ~1e-11, and
        # 2^21 nodes resolve the phase's 3e5 rad per unit at the ends
        want = dense_chirp_oracle(quintic, 0.0, 0.0, half=5.0, npts=(1 << 21) + 1)
        assert abs(want) > 0.1
        assert got[1] == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_quintic_grid_matches_dense_oracle(self):
        # x^5 has a cluster of four saddles at the origin; windows from x = -36
        # to 36 see it, or the phase's far ridge, or neither
        x, xi = np.meshgrid(np.arange(-36.0, 37.0), [0.0, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0],
                            indexing="ij")
        x, xi = x.ravel(), xi.ravel()
        quintic = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        got = _chirp_quadrature(poly_1d(*quintic), WindowSpec(1.0), x, xi)
        # at Im y = 0.1 the tails are damped: 8193 nodes over nine widths each
        # side resolve every window, and agree with the real line
        want = dense_chirp_oracle(quintic, x, xi, half=9.0, npts=(1 << 13) + 1, shift=0.1)
        for k in (36 * 7 + 1, 37 * 7 + 6):   # (0, 1) and (1, -20)
            line = dense_chirp_oracle(quintic, x[k], xi[k], half=9.0, npts=(1 << 19) + 1)
            assert want[k] == pytest.approx(line, rel=1e-10, abs=0.0)
        big = np.abs(want) > 1e-8
        assert big.sum() >= 80
        np.testing.assert_allclose(got[big], want[big], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[~big], want[~big], rtol=0.0, atol=1e-17)

    def test_former_trapezoid_points_match_dense_oracle(self):
        # criterion 4's curve points near the origin, where saddles of x^3 - xi x
        # coalesce: the box holds every point that once fell back to a trapezoid
        lam = np.geomspace(2.0, 2000.0, 24)
        theta = 2.0 * math.pi * np.arange(720) / 720
        x = np.outer(np.cos(theta), lam ** 0.6).ravel()
        xi = np.outer(np.sin(theta), lam ** 1.2).ravel()
        box = (np.abs(x) < 5.4) & (np.abs(xi) < 8.8)
        x, xi = x[box], xi[box]
        assert len(x) > 4000
        got = _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), x, xi)
        # nine widths each side; the phase there moves at most 631 rad per unit
        want = dense_chirp_oracle(self.CUBE, x, xi, half=9.0, npts=(1 << 12) + 1)
        big = np.abs(want) > 1e-8
        assert big.sum() > 3000
        np.testing.assert_allclose(got[big], want[big], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[~big], want[~big], rtol=0.0, atol=1e-16)

    # the lines of propagator kernels for x^3 and x^4 (t = 0.3) and x^5 (t = 1):
    # a path from the top saddle runs into a lower one near a Stokes line, and
    # the point is integrated again with saddles clustered by their discs alone
    @pytest.mark.parametrize("coeffs, x, xi, npts", [
        ((0.0, 0.0, 0.0, -0.3), -3.9467210993624895, -5.925358285060389, 1 << 16),
        ((0.0, 0.0, 0.0, 0.0, -0.3), 4.147532141497684, 2.110750811476862, 1 << 17),
        ((0.0, 0.0, 0.0, 0.0, -0.3), 5.605134301902045, -10.96770839965626, 1 << 17),
        ((0.0, 0.0, 0.0, 0.0, 0.0, -1.0), -5.202187741146262, -12.760999324570548, 1 << 21),
    ])
    def test_paths_lost_near_a_stokes_line(self, monkeypatch, coeffs, x, xi, npts):
        gap_rules = []
        steepest_descent = stft_module._steepest_descent

        def recording(taylor, width, gap_rule):
            gap_rules.append(gap_rule)
            return steepest_descent(taylor, width, gap_rule)

        monkeypatch.setattr(stft_module, "_steepest_descent", recording)
        # (2 + 1/sigma^2)^(-1/2), sigma = 0.6 pi / 0.1108, as _fourier_chirp computes it
        w = WindowSpec(0.7064967668949592, unit_norm=False)
        got = _chirp_quadrature(poly_1d(*coeffs), w, np.array([x]), np.array([xi]))
        assert math.inf in gap_rules
        want = dense_chirp_oracle(coeffs, x, xi, w.width, unit_norm=False, npts=npts + 1)
        assert abs(want) > 1e-8
        assert got[0] == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_a_point_without_a_chain_is_a_domain_error(self, monkeypatch):
        # a path lost on the way leaves the chain short: no value is made up
        def lose_every_path(c, d, slope, u, bad, target, step):
            bad[:] = True

        monkeypatch.setattr(stft_module, "_trace", lose_every_path)
        with pytest.raises(DomainError, match="no chain"):
            _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), np.array([1.0]),
                              np.array([3.0]))

    def test_phase_beyond_double_precision_is_a_domain_error(self):
        # at x = 1e50 g(s) carries a round-off of ~1e135 at the saddles: no
        # path, and no trapezoid, resolves that phase
        with pytest.raises(DomainError, match="double precision"):
            _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), np.array([1.0, 1e50]),
                              np.array([3.0, 0.0]))

    def test_node_count_does_not_grow_with_lambda(self, monkeypatch):
        # criterion 4's index (0.6, 1.2) keeps the curve through (1, 3) on the
        # ridge xi = 3 x^2; a trapezoid over the window needs 53,679 nodes at
        # lambda = 2000
        lam = np.array([20.0, 200.0, 2000.0])
        x, xi = lam ** 0.6, 3.0 * lam ** 1.2
        want = [dense_chirp_oracle(self.CUBE, a, b) for a, b in zip(x, xi)]
        for k in range(len(lam)):
            sizes = self.recording_sizes(monkeypatch)
            got = _chirp_quadrature(poly_1d(*self.CUBE), WindowSpec(1.0), x[k:k + 1],
                                    xi[k:k + 1])
            monkeypatch.undo()
            # no node array: nothing larger than the 2 (m - 1) half paths of one point
            assert max(sizes) <= 4
            assert got[0] == pytest.approx(want[k], rel=1e-9)

    # degree 4 and 5, negative leading coefficients, and the amplitude-1 window
    # of width (1 + 1)^(-1/2) that _fourier_chirp passes for sigma_m = W = 1
    @pytest.mark.parametrize("coeffs, width, unit_norm", [
        ((0.0, 0.5, -2.0, 0.0, 1.0), 1.0, True),
        ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 1.0, True),
        ((0.0, 0.0, 0.0, -1.0), 1.0, True),
        ((0.0, 0.0, 0.0, 0.0, -0.5), 1.0, True),
        ((0.0, 0.0, 0.0, 1.0), 2.0 ** -0.5, False),
    ])
    def test_matches_dense_oracle(self, coeffs, width, unit_norm):
        dphase = np.polynomial.polynomial.polyder(coeffs)
        x = np.repeat([-2.0, -1.0, 0.0, 0.5, 1.5, 2.0], 4)
        xi = np.polynomial.polynomial.polyval(x, dphase) + np.tile([0.0, 3.0, -8.0, 20.0], 6)
        got = stft_points(chirp_signal(poly_1d(*coeffs)), WindowSpec(width, unit_norm),
                          x[:, None], xi[:, None])
        # ten widths each side: there the oracle's nodes still resolve x^5
        want = np.array([dense_chirp_oracle(coeffs, a, b, width, unit_norm, half=10.0,
                                            npts=(1 << 18) + 1) for a, b in zip(x, xi)])
        big = np.abs(want) > 1e-8
        assert big.sum() >= 12
        np.testing.assert_allclose(got[big], want[big], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[~big], want[~big], rtol=0.0, atol=1e-13)


class TestGridAndInversion:
    def test_grid_agrees_with_point(self):
        u = make_gaussian(1, 256, 0.1)
        w = WindowSpec(1.0)
        grid = stft_grid(u, w)
        rng = np.random.default_rng(3)
        xs = grid.positions()
        xis = grid.frequencies()
        for _ in range(100):
            i = int(rng.integers(40, 216))
            j = int(rng.integers(0, 256))
            want = stft_point(u, w, PhasePoint(xs[i], xis[j]))
            assert grid.values[i, j] == pytest.approx(want, abs=1e-8)

    def test_gaussian_bump_centered(self):
        u = make_gaussian(1, 256, 0.1)
        grid = stft_grid(u, WindowSpec(1.0))
        mags = np.abs(grid.values)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        assert (i, j) == (128, 128)
        # |V|(x, xi) = (2 pi)^(-1/2) exp(-(x^2 + xi^2)/4) for equal unit widths
        want = TWO_PI ** -0.5 * np.exp(
            -(grid.positions()[:, None] ** 2 + grid.frequencies()[None, :] ** 2) / 4)
        np.testing.assert_allclose(mags, want, atol=1e-8)

    def test_moyal(self):
        u = make_gaussian(1, 512, 0.05)
        grid = stft_grid(u, WindowSpec(1.0))
        assert moyal_error(u, grid) <= 1e-6

    def test_moyal_random_signal(self):
        rng = np.random.default_rng(9)
        from anisowf.signals import SampledSignal
        x = (np.arange(512) - 256) * 0.05
        vals = (rng.standard_normal(512) + 1j * rng.standard_normal(512))
        vals *= np.exp(-x * x / 8)  # confine to the grid
        u = SampledSignal(0.05, vals)
        grid = stft_grid(u, WindowSpec(1.0))
        assert moyal_error(u, grid) <= 1e-6

    def test_inversion_round_trip(self):
        u = make_gaussian(1, 256, 0.1)
        w = WindowSpec(1.0)
        back = istft(stft_grid(u, w), w)
        err = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2) * u.dx)
        assert err <= 1e-6

    def test_inversion_linearity_and_zero(self):
        u = make_gaussian(1, 256, 0.1)
        w = WindowSpec(1.0)
        g1 = stft_grid(u, w)
        zero = istft(type(g1)(g1.dx, g1.dxi, np.zeros_like(g1.values)), w)
        assert zero.norm() == pytest.approx(0.0, abs=1e-15)
        half1 = type(g1)(g1.dx, g1.dxi, 0.25 * g1.values)
        half2 = type(g1)(g1.dx, g1.dxi, 0.75 * g1.values)
        s = istft(half1, w).values + istft(half2, w).values
        np.testing.assert_allclose(s, istft(g1, w).values, atol=1e-10)

    def test_inversion_requires_unit_window(self):
        u = make_gaussian(1, 256, 0.1)
        grid = stft_grid(u, WindowSpec(1.0))
        with pytest.raises(DomainError):
            istft(grid, WindowSpec(1.0, unit_norm=False))


class TestSymmetries:
    def test_reflection_identity(self):
        # |V u (x, xi)| = |V u(-x, -xi)| for even real signals
        u = make_gaussian(1, 256, 0.1, width=1.7)
        grid = stft_grid(u, WindowSpec(1.0))
        mags = np.abs(grid.values)
        flipped = mags[1:, 1:][::-1, ::-1]
        np.testing.assert_allclose(mags[1:, 1:], flipped, atol=1e-8)

    def test_conjugation_identity(self):
        # |V conj(u)(x, xi)| = |V u(x, -xi)| for a real window
        from anisowf.signals import SampledSignal
        rng = np.random.default_rng(11)
        x = (np.arange(256) - 128) * 0.1
        vals = (rng.standard_normal(256) + 1j * rng.standard_normal(256)) * np.exp(-x * x / 6)
        u = SampledSignal(0.1, vals)
        ubar = SampledSignal(0.1, np.conj(vals))
        w = WindowSpec(1.0)
        m1 = np.abs(stft_grid(ubar, w).values)
        m2 = np.abs(stft_grid(u, w).values)[:, 1:][:, ::-1]
        np.testing.assert_allclose(m1[:, 1:], m2, atol=1e-8)


class TestSeminorms:
    def test_gaussian_finite(self):
        u = make_gaussian(1, 256, 0.1)
        val = stft_seminorm(u, WindowSpec(1.0), AnisoIndex(1.0, 1.0), 0.1)
        assert math.isfinite(val) and val > 0.0

    def test_zero_signal(self):
        from anisowf.signals import SampledSignal
        u = SampledSignal(0.1, np.zeros(256, dtype=complex))
        assert stft_seminorm(u, WindowSpec(1.0), AnisoIndex(1.0, 1.0), 1.0) == 0.0

    def test_chirp_divergent(self):
        u = make_chirp(poly_1d(0.0, 0.0, 1.0), 512, 0.05)
        val = stft_seminorm(u, WindowSpec(1.0), AnisoIndex(1.2, 1.2), 2.0)
        assert math.isinf(val)

    def test_window_equivalence_bounded_ratios(self):
        # dx = 0.2 keeps the weighted FFT noise floor below the true supremum at r = 2
        u = make_gaussian(1, 256, 0.2)
        idx = AnisoIndex(1.0, 1.0)
        for r in (0.5, 1.0, 2.0):
            v1 = stft_seminorm(u, WindowSpec(1.0), idx, r)
            v2 = stft_seminorm(u, WindowSpec(1.4), idx, r)
            assert math.isfinite(v1) and math.isfinite(v2)
            assert 1e-3 <= v1 / v2 <= 1e3

    def test_classical_order_zero(self):
        u = make_gaussian(1, 256, 0.1)
        val = classical_seminorm(u, AnisoIndex(1.0, 1.0), h=1e9, max_order=0)
        assert val == pytest.approx(math.pi ** -0.25, abs=1e-10)

    def test_classical_monotone_in_h(self):
        u = make_gaussian(1, 256, 0.1)
        idx = AnisoIndex(1.0, 1.0)
        v_small = classical_seminorm(u, idx, h=0.5, max_order=4)
        v_large = classical_seminorm(u, idx, h=1.0, max_order=4)
        assert v_small >= v_large

    def test_classical_max_order_cap(self):
        u = make_gaussian(1, 256, 0.1)
        with pytest.raises(DomainError):
            classical_seminorm(u, AnisoIndex(1.0, 1.0), 1.0, 9)

    def test_classical_nyquist_guard(self):
        # white noise has spectral mass at the Nyquist edge
        from anisowf.signals import SampledSignal
        rng = np.random.default_rng(13)
        u = SampledSignal(0.1, rng.standard_normal(256) * (1 + 0j))
        with pytest.raises(ResolutionError):
            classical_seminorm(u, AnisoIndex(1.0, 1.0), 1.0, 2)
