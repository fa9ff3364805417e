import math

import numpy as np
import pytest

from anisowf.errors import AliasingError, DomainError, TruncationError, UnsupportedRegimeError
from anisowf.evolution import (EvolutionSpec, _flow_positions, kernel_signal,
                               predict_transport, propagate, propagator_kernel)
from anisowf.geometry import AnisoIndex, PhasePoint, project_many, scale_point
from anisowf.poly import PolynomialData, poly_1d
from anisowf.signals import (ConvolutionKernel, SampledSignal, fourier_chirp_signal,
                             make_gaussian)
from anisowf.stft import WindowSpec, stft_points

XSQ = poly_1d(0.0, 0.0, 1.0)


def kernel_phase(spec):
    """-t p, the phase of the evolution kernel's line on the Fourier side."""
    return PolynomialData(1, {a: -spec.time * c for a, c in spec.symbol.coeffs.items()})


def windowed_chirp(n, dx, chirp_rate=1.0, env_width=7.0):
    x = (np.arange(n) - n // 2) * dx
    gamma = 1.0 / (2.0 * env_width ** 2) - 1j * chirp_rate
    return SampledSignal(dx, np.exp(-gamma * x * x))


def evolved_complex_gaussian(gamma, t, x):
    """Exact free evolution of exp(-gamma x^2) under the symbol xi^2."""
    a = 1.0 / (4.0 * gamma) + 1j * t
    return (2.0 * gamma) ** -0.5 * (2.0 * a) ** -0.5 * np.exp(-x * x / (4.0 * a))


class TestPropagate:
    def test_time_zero_identity(self):
        u = make_gaussian(1, 256, 0.1)
        out = propagate(u, EvolutionSpec(XSQ, 0.0))
        np.testing.assert_allclose(out.values, u.values, atol=1e-12)

    def test_unitary(self):
        u = make_gaussian(1, 512, 0.1)
        out = propagate(u, EvolutionSpec(XSQ, 0.2))
        assert abs(out.norm() / u.norm() - 1.0) <= 1e-10

    def test_round_trip_inverse(self):
        u = windowed_chirp(1024, 0.1, env_width=5.0)
        fwd = propagate(u, EvolutionSpec(XSQ, 0.2))
        back = propagate(fwd, EvolutionSpec(XSQ, -0.2))
        err = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2) * u.dx)
        assert err <= 1e-9

    def test_group_law(self):
        u = make_gaussian(1, 512, 0.1)
        one = propagate(u, EvolutionSpec(XSQ, 0.3))
        two = propagate(propagate(u, EvolutionSpec(XSQ, 0.1)), EvolutionSpec(XSQ, 0.2))
        err = np.sqrt(np.sum(np.abs(one.values - two.values) ** 2) * u.dx)
        assert err <= 1e-9

    def test_matches_closed_form_complex_gaussian(self):
        # Fresnel/Gaussian oracle for the evolved windowed chirp
        n, dx, W, t = 8192, 0.035, 7.0, 0.25
        u0 = windowed_chirp(n, dx, env_width=W)
        out = propagate(u0, EvolutionSpec(XSQ, t))
        x = u0.axis_coords()
        gamma = 1.0 / (2.0 * W ** 2) - 1j
        want = evolved_complex_gaussian(gamma, t, x)
        interior = np.abs(x) <= 0.5 * u0.extent
        err = np.sqrt(np.sum(np.abs(out.values - want)[interior] ** 2)
                      / np.sum(np.abs(want)[interior] ** 2))
        assert err <= 1e-3

    def test_closed_form_slope_is_one_over_one_plus_four_t(self):
        t = 0.25
        gamma = 1.0 / (2.0 * 7.0 ** 2) - 1j
        a = 1.0 / (4.0 * gamma) + 1j * t
        slope = -np.imag(1.0 / (4.0 * a))
        assert slope == pytest.approx(1.0 / (1.0 + 4.0 * t), abs=1e-3)

    def test_aliasing_guard_at_reference_resolution(self):
        u = make_gaussian(1, 1024, 0.04)
        with pytest.raises(AliasingError) as exc:
            propagate(u, EvolutionSpec(XSQ, 0.25))
        assert "suggest n" in str(exc.value)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            EvolutionSpec(poly_1d(0.0, 1.0), 0.1)

    @pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_is_a_domain_error(self, time):
        with pytest.raises(DomainError, match="finite"):
            propagate(make_gaussian(1, 256, 0.1), EvolutionSpec(XSQ, time))
        with pytest.raises(DomainError, match="finite"):
            kernel_signal(EvolutionSpec(XSQ, time), 64, 0.2)


class TestKernelSignal:
    def test_time_zero_concentrates_on_diagonal(self):
        K = kernel_signal(EvolutionSpec(XSQ, 0.0), 64, 0.2).dense()
        mags = np.abs(K.values)
        # row maxima sit on the diagonal
        assert np.all(np.argmax(mags, axis=1) == np.arange(64))

    def test_translation_structure(self):
        K = kernel_signal(EvolutionSpec(XSQ, 0.3), 64, 0.2).dense()
        v = K.values
        np.testing.assert_allclose(v[1:, 1:], v[:-1, :-1], atol=1e-14)

    def test_mollifier_width_controls_diagonal_spread(self):
        # both mollifiers well inside the spectral grid (no edge ringing)
        wide = kernel_signal(EvolutionSpec(XSQ, 0.0), 64, 0.2, moll_width=4.0).dense()
        narrow = kernel_signal(EvolutionSpec(XSQ, 0.0), 64, 0.2, moll_width=2.0).dense()
        row_w = np.abs(wide.values[32])
        row_n = np.abs(narrow.values[32])
        spread = lambda r: np.sum(r > np.max(r) * 1e-3)
        assert spread(row_w) < spread(row_n)

    @pytest.mark.parametrize("n, dx", [(0, 0.2), (8, 0.2), (1000, 0.2), (64, 0.0), (64, -0.2)])
    def test_rejects_bad_grids(self, n, dx):
        # n must be a power of two >= 16 and dx positive, checked before any division
        with pytest.raises(DomainError):
            kernel_signal(EvolutionSpec(XSQ, 0.3), n, dx)


class TestKernelStftOracle:
    """The line-based kernel STFT against the sampled d = 2 path on dense()."""

    N, DX = 512, 0.1108
    NYQ = math.pi / DX

    @pytest.fixture(scope="class")
    def kernel(self):
        return kernel_signal(EvolutionSpec(XSQ, 0.3), self.N, self.DX,
                             moll_width=0.6 * self.NYQ)

    @pytest.fixture(scope="class")
    def dense(self, kernel):
        return kernel.dense()

    def test_grid_description_matches_dense(self, kernel, dense):
        assert (kernel.dim, kernel.n, kernel.dx, kernel.extent) == \
            (dense.dim, dense.n, dense.dx, dense.extent)

    @pytest.mark.parametrize("w", [WindowSpec(1.0), WindowSpec(0.7, unit_norm=False)])
    def test_interior_points_match_to_round_off(self, kernel, dense, w):
        # every window support (10 widths) inside the grid, where both sums agree
        rng = np.random.default_rng(3)
        lim = kernel.extent - 10.0 * w.width - self.DX
        xs = rng.uniform(-lim, lim, (400, 2))
        xis = rng.uniform(-self.NYQ, self.NYQ, (400, 2))
        assert np.count_nonzero(np.abs(xis.sum(axis=1)) > self.NYQ) >= 50
        got = stft_points(kernel, w, xs, xis)
        want = stft_points(dense, w, xs, xis)
        assert np.max(np.abs(want)) > 0.05
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_edge_points_within_documented_bound(self, kernel, dense):
        # At 0.8 of the extent the n x n sum cuts the window off at the grid
        # edge and the line's closed-form sum does not; a probe measured 5.7e-10.
        rng = np.random.default_rng(4)
        edge = 0.8 * kernel.extent
        xs = rng.uniform(-edge, edge, (300, 2))
        xs[:, 0] = edge * np.sign(xs[:, 0])
        xs[::2] = xs[::2, ::-1]
        xis = rng.uniform(-self.NYQ, self.NYQ, (300, 2))
        got = stft_points(kernel, WindowSpec(1.0), xs, xis)
        want = stft_points(dense, WindowSpec(1.0), xs, xis)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)

    def test_same_truncation_errors(self, kernel, dense):
        edge, nyq = 0.8 * kernel.extent, self.NYQ
        points = [([edge, -edge], [nyq, -nyq]),
                  ([edge * 1.001, 0.0], [0.0, 0.0]),
                  ([0.0, -edge * 1.001], [1.0, 0.0]),
                  ([1.0, 2.0], [nyq * 1.001, 0.0]),
                  ([1.0, 2.0], [0.0, -nyq * 1.001])]
        raised = 0
        for x, xi in points:
            outcomes = []
            for u in (kernel, dense):
                try:
                    stft_points(u, WindowSpec(1.0), [x], [xi])
                    outcomes.append(None)
                except TruncationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            raised += outcomes[0] is not None
        assert raised == 4


class TestPropagatorKernel:
    """The kernel of exp(-i t p(D)) itself: an analytic line, unmollified, with no grid."""

    N, DX = 512, 0.1108
    MOLL = 0.6 * math.pi / DX

    @pytest.mark.parametrize("symbol, time", [(XSQ, 0.3), (poly_1d(0.0, 0.0, 0.0, 1.0), 0.004),
                                              (poly_1d(0.0, 0.0, 0.0, 0.0, 1.0), 0.0003)])
    def test_matches_sampled_line_in_reach(self, symbol, time):
        # the analytic line under the sampled line's mollifier; the sampled
        # kernel's period wrap of xi0 + xi1 does not matter here: wherever
        # |xi0 + xi1| > pi/dx, both sides' Gaussian factor is below e^-120
        spec = EvolutionSpec(symbol, time)
        sampled = kernel_signal(spec, self.N, self.DX, moll_width=self.MOLL)
        analytic = ConvolutionKernel(fourier_chirp_signal(kernel_phase(spec), self.MOLL))
        # criterion 8's reach: 80% of the extent, frequencies inside the mollifier width
        rng = np.random.default_rng(8)
        xs = rng.uniform(-0.8, 0.8, (2000, 2)) * sampled.extent
        xis = rng.uniform(-self.MOLL, self.MOLL, (2000, 2))
        xis[:200] *= 1e-3   # |xi| near 0
        xis[200:300, 1] = -xis[200:300, 0]   # xi0 + xi1 = 0: the mollifier's centre
        w = WindowSpec(1.0)
        got = stft_points(analytic, w, xs, xis)
        want = stft_points(sampled, w, xs, xis)
        assert np.max(np.abs(want)) > 0.1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        # the lines themselves, against a unit-norm window
        x, f = xs[:, :1] - xs[:, 1:], xis[:, :1]
        w = WindowSpec(0.8)
        want = stft_points(sampled.line, w, x, f)
        assert np.max(np.abs(want)) > 0.1
        np.testing.assert_allclose(stft_points(analytic.line, w, x, f), want,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("symbol", [XSQ, poly_1d(0.0, 0.0, 0.0, 1.0)])
    def test_is_the_limit_of_wide_mollifiers(self, symbol):
        # a mollifier of width 1e8 changes the exponent by about f^2 / 2e16
        spec = EvolutionSpec(symbol, 0.3)
        kernel = propagator_kernel(spec)
        wide = ConvolutionKernel(fourier_chirp_signal(kernel_phase(spec), 1e8))
        rng = np.random.default_rng(5)
        xs = rng.uniform(-20.0, 20.0, (2000, 2))
        xis = rng.uniform(-20.0, 20.0, (2000, 2))
        xis[:500, 1] = rng.uniform(-1.0, 1.0, 500) - xis[:500, 0]   # near the diagonal
        w = WindowSpec(1.0)
        want = stft_points(wide, w, xs, xis)
        assert np.max(np.abs(want)) > 0.1
        np.testing.assert_allclose(stft_points(kernel, w, xs, xis), want, rtol=1e-12, atol=1e-20)

    def test_curves_reach_lambda_100_on_and_off_the_graph(self):
        # x - y = 2 t xi on the graph of the flow: |V| keeps its size along
        # (0.6, 0, 1, -1) and vanishes along (0.6, 0.3, 1, -1)
        kernel = propagator_kernel(EvolutionSpec(XSQ, 0.3))
        scale = np.geomspace(2.0, 100.0, 24)[:, None] ** 1.2

        def curve(z):
            return np.abs(stft_points(kernel, WindowSpec(1.0), scale * z[:2], scale * z[2:]))

        on = curve(np.array([0.6, 0.0, 1.0, -1.0]))
        np.testing.assert_allclose(on, 0.156, rtol=0.01)
        off = curve(np.array([0.6, 0.3, 1.0, -1.0]))
        assert off[0] > 0.1 and off[-1] < 1e-200

    def test_no_aliasing_guard_and_no_dense_matrix(self):
        # the sampled line aliases here (suggests n = 4096); the analytic one has no samples
        spec = EvolutionSpec(poly_1d(0.0, 0.0, 0.0, 1.0), 0.05)
        with pytest.raises(AliasingError, match="suggest n = 4096"):
            kernel_signal(spec, self.N, self.DX, moll_width=self.MOLL)
        kernel = propagator_kernel(spec)
        assert kernel.passband == math.inf
        with pytest.raises(DomainError, match="sampled kernel line"):
            kernel.dense()


class TestRegularDataStayRegular:
    def test_gaussian_empty_before_and_after(self):
        from anisowf.estimator import estimate_wf
        from anisowf.geometry import AnisoIndex
        from anisowf.stft import WindowSpec
        u0 = make_gaussian(1, 512, 0.1)
        u1 = propagate(u0, EvolutionSpec(XSQ, 0.25))
        kw = dict(sphere_samples=90, lambda_range=(2.0, 10.0), floor=1e-11,
                  cone_steps=1)
        w = WindowSpec(1.0)
        idx = AnisoIndex(1.2, 1.2)
        assert estimate_wf(u0, w, idx, **kw).singular_directions().shape == (0, 2)
        assert estimate_wf(u1, w, idx, **kw).singular_directions().shape == (0, 2)


class TestHamiltonianFlow:
    """chi_t(x, xi) = (x + t grad p_m(xi), xi): _flow_positions is its x block."""

    def test_quadratic_example(self):
        out = _flow_positions(EvolutionSpec(XSQ, 0.5), np.array([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out, [[1.0]])

    def test_time_zero_identity(self):
        xs, xis = np.array([[0.3, -1.0]]), np.array([[2.0, 0.5]])
        sym = PolynomialData(2, {(2, 0): 1.0, (0, 2): 1.0})
        np.testing.assert_allclose(_flow_positions(EvolutionSpec(sym, 0.0), xs, xis), xs)

    def test_group_law(self):
        xs, xis = np.array([[0.4]]), np.array([[-1.3]])
        s1 = EvolutionSpec(XSQ, 0.3)
        s2 = EvolutionSpec(XSQ, 0.45)
        s3 = EvolutionSpec(XSQ, 0.75)
        # the flow keeps xi, so the second step starts from the first one's positions
        via = _flow_positions(s2, _flow_positions(s1, xs, xis), xis)
        np.testing.assert_allclose(via, _flow_positions(s3, xs, xis), atol=1e-14)

    def test_only_principal_part_drives_the_flow(self):
        full = poly_1d(5.0, 3.0, 1.0)  # lower-order terms ignored
        out = _flow_positions(EvolutionSpec(full, 0.5), np.array([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out, [[1.0]])


class TestPredictTransport:
    def test_quadratic_flow_regime(self):
        idx = AnisoIndex(1.2, 1.2)
        spec = EvolutionSpec(XSQ, 0.25)
        z = project_many(idx, [[1.0]], [[2.0]])
        out = predict_transport(z, spec, idx)[0]
        want = project_many(idx, [[1.0 + 4.0 * 0.25]], [[2.0]])[0]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_time_zero_identity(self):
        idx = AnisoIndex(1.2, 1.2)
        z = project_many(idx, [[0.3]], [[1.1]])
        out = predict_transport(z, EvolutionSpec(XSQ, 0.0), idx)
        np.testing.assert_allclose(out, z, atol=1e-14)

    def test_representative_independent(self):
        idx = AnisoIndex(1.2, 1.2)
        spec = EvolutionSpec(XSQ, 0.4)
        z = project_many(idx, [[0.8]], [[-0.5]])[0]
        p = scale_point(idx, PhasePoint(z[:1], z[1:]), 7.0)
        lifted = project_many(idx, p.x, p.xi)[0]
        a, b = predict_transport(np.stack([z, lifted]), spec, idx)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_invariant_regime(self):
        idx = AnisoIndex(3.0, 1.2)
        z = np.array([[0.6, 0.8]])
        out = predict_transport(z, EvolutionSpec(XSQ, 0.25), idx)
        np.testing.assert_array_equal(out, z)

    @pytest.mark.parametrize("symbol", [XSQ, poly_1d(0.0, 1.0, 0.0, 2.0),
                                        PolynomialData(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0})])
    def test_batched_equals_per_direction_flow(self, symbol):
        # flow regime t = s(m-1): project(chi_t(z)); invariant regime t > s(m-1): z
        m, d = symbol.degree, symbol.dim
        rng = np.random.default_rng(5)
        z = rng.standard_normal((40, 2 * d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        spec = EvolutionSpec(symbol, 0.3)
        flow_idx = AnisoIndex(1.2 * (m - 1), 1.2)
        want = [project_many(flow_idx, _flow_positions(spec, r[None, :d], r[None, d:]),
                             r[None, d:])[0] for r in z]
        np.testing.assert_allclose(predict_transport(z, spec, flow_idx), want,
                                   rtol=0, atol=1e-14)
        still = predict_transport(z, spec, AnisoIndex(1.2 * (m - 1) + 1.0, 1.2))
        np.testing.assert_array_equal(still, z)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            predict_transport(np.array([[1.0, 0.0]]), EvolutionSpec(XSQ, 0.25),
                              AnisoIndex(1.0, 1.4))
        with pytest.raises(UnsupportedRegimeError):
            # s(m-1) <= 1
            predict_transport(np.array([[1.0, 0.0]]), EvolutionSpec(XSQ, 0.25),
                              AnisoIndex(1.0, 0.9))
