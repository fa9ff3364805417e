import math

import numpy as np
import pytest

from anisowf.errors import AliasingError, DomainError, UnsupportedRegimeError
from anisowf.evolution import (EvolutionSpec, _flow_positions, kernel_signal,
                               predict_transport, propagate, propagator_kernel)
from anisowf.geometry import AnisoIndex, PhasePoint, project_many, scale_point
from anisowf.poly import eval_poly, poly_1d
from anisowf.signals import SampledSignal, fourier, make_gaussian
from anisowf.stft import WindowSpec, stft_points

XSQ = poly_1d(0.0, 0.0, 1.0)


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
            kernel_signal(EvolutionSpec(XSQ, time), 1.0)


class TestKernelSignal:
    """The mollified kernel: the analytic line under a Gaussian passband."""

    def test_time_zero_concentrates_on_diagonal(self):
        K = kernel_signal(EvolutionSpec(XSQ, 0.0), 8.0)
        x = np.linspace(-3.0, 3.0, 25)
        xs = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        mags = np.abs(stft_points(K, WindowSpec(0.2), xs, np.zeros_like(xs))).reshape(25, 25)
        # row maxima sit on the diagonal
        assert np.all(np.argmax(mags, axis=1) == np.arange(25))

    def test_translation_structure(self):
        # K(x + a, y + a) = K(x, y): a shift of both centres by a only turns
        # the phase, by -a (xi0 + xi1)
        K = kernel_signal(EvolutionSpec(XSQ, 0.3), 6.0)
        rng = np.random.default_rng(1)
        xs, xis = rng.uniform(-5.0, 5.0, (300, 2)), rng.uniform(-5.0, 5.0, (300, 2))
        w = WindowSpec(1.0)
        want = np.exp(-1.7j * xis.sum(axis=1)) * stft_points(K, w, xs, xis)
        assert np.max(np.abs(want)) > 0.05
        np.testing.assert_allclose(stft_points(K, w, xs + 1.7, xis), want, rtol=0.0, atol=1e-14)

    def test_mollifier_width_controls_diagonal_spread(self):
        # at t = 0 the line is sigma (2 pi)^(-1/2) exp(-sigma^2 r^2 / 2): in the
        # coordinates u = (y0 - y1)/sqrt(2), v = (y0 + y1)/sqrt(2) the kernel is
        # a Gaussian of width a = 1/(sqrt(2) sigma) in u times 1 in v, and the
        # window, rotation invariant, factors the same way.  Per axis the window
        # integral of exp(-y^2 / (2 a^2)) is sqrt(2 pi / p) exp(-x^2 / (2 (a^2 + W^2))
        # - xi^2 / (2 p) - i x xi a^2 / (a^2 + W^2)), p = 1/a^2 + 1/W^2 (a = inf
        # in v); the phases add up to -i (x . xi - u xi_u W^2 / (a^2 + W^2)).  A
        # wider mollifier gives a narrower diagonal
        rng = np.random.default_rng(2)
        xs, xis = rng.uniform(-3.0, 3.0, (200, 2)), rng.uniform(-6.0, 6.0, (200, 2))
        xis[:100, 1] = -xis[:100, 0]   # xi0 + xi1 = 0, where |V| is largest
        u2, xi_u2 = (xs[:, 0] - xs[:, 1]) ** 2 / 2.0, (xis[:, 0] - xis[:, 1]) ** 2 / 2.0
        u_xi_u = (xs[:, 0] - xs[:, 1]) * (xis[:, 0] - xis[:, 1]) / 2.0
        xi_v2 = (xis[:, 0] + xis[:, 1]) ** 2 / 2.0
        on_diagonal = np.column_stack([np.linspace(-3.0, 3.0, 121), np.zeros(121)])
        w = WindowSpec(0.1)
        width = w.width
        spread = {}
        for sigma in (4.0, 2.0):
            K = kernel_signal(EvolutionSpec(XSQ, 0.0), sigma)
            a2 = 1.0 / (2.0 * sigma ** 2)
            p = 1.0 / a2 + 1.0 / width ** 2
            const = (w.amplitude ** 2 * sigma * (2.0 * math.pi) ** -1.5
                     * math.sqrt(2.0 * math.pi / p) * math.sqrt(2.0 * math.pi) * width)
            want = const * np.exp(-u2 / (2.0 * (a2 + width ** 2)) - xi_u2 / (2.0 * p)
                                  - width ** 2 * xi_v2 / 2.0
                                  - 1j * (np.sum(xs * xis, axis=1)
                                          - u_xi_u * width ** 2 / (a2 + width ** 2)))
            assert np.max(np.abs(want)) > 0.03
            np.testing.assert_allclose(stft_points(K, w, xs, xis), want, rtol=0.0, atol=1e-15)
            row = np.abs(stft_points(K, w, on_diagonal, np.zeros_like(on_diagonal)))
            spread[sigma] = np.count_nonzero(row > 1e-3 * row.max())
        assert spread[4.0] < spread[2.0]

    @pytest.mark.parametrize("moll_width", [0.0, -1.0, math.nan])
    def test_rejects_bad_mollifiers(self, moll_width):
        with pytest.raises(DomainError, match="positive"):
            kernel_signal(EvolutionSpec(XSQ, 0.3), moll_width)


def sampled_kernel_line(spec, n, dx, moll_width):
    """The oracle line: k_t under the mollifier, sampled by FFT at the 2n offsets
    (m - n) dx that cover every difference x_i - y_j of an n x n grid."""
    line = SampledSignal(dx, np.zeros(2 * n))
    xi = line.freq_coords()
    tp = spec.time * eval_poly(spec.symbol, xi)
    assert np.max(np.abs(np.diff(tp))) < 0.9 * math.pi   # the phase is resolved
    mult = np.exp(-1j * tp - xi * xi / (2.0 * moll_width ** 2))
    k = fourier(SampledSignal(line.dxi, mult), inverse=True).values * (2.0 * math.pi) ** -0.5
    return SampledSignal(dx, k)


def dense_kernel(line):
    """The n x n matrix K[i, j] = k(x_i - y_j) of a 2n-sample line."""
    n = line.n // 2
    i = np.arange(n)
    return line.values[i[:, None] - i[None, :] + n]


def separable_sum(K, dx, width, xs, xis):
    """The direct sum dx^2 (2 pi)^-1 a^T K b over the whole n x n grid at each
    point, a_i = w(x_i - x0) e^(-i x_i xi0) and b_j the same in (x1, xi1), w the
    unit Gaussian of the given width: an STFT of the matrix that shares no STFT code."""
    y = (np.arange(len(K)) - len(K) // 2) * dx

    def factor(x, xi):   # w(y - x) e^(-i y xi) at every node, one row per point
        return (math.pi ** -0.25 * width ** -0.5
                * np.exp(-(y - x[:, None]) ** 2 / (2.0 * width ** 2) - 1j * y * xi[:, None]))

    a, b = factor(xs[:, 0], xis[:, 0]), factor(xs[:, 1], xis[:, 1])
    return np.einsum("pi,pi->p", a @ K, b) * dx ** 2 / (2.0 * math.pi)


N_ORACLE, DX_ORACLE = 512, 0.1108
NYQ_ORACLE = math.pi / DX_ORACLE
# criterion 8's mollifiers, and symbols of degree 2 to 4 at times their lines resolve
MOLLIFIERS = (0.6 * NYQ_ORACLE, 0.3 * NYQ_ORACLE)
KERNEL_CASES = [(XSQ, 0.3), (poly_1d(0.0, 0.0, 0.0, 1.0), 0.004),
                (poly_1d(0.0, 0.0, 0.0, 0.0, 1.0), 0.0003)]


class TestKernelStftOracle:
    """The analytic kernel against the separable direct sum over a dense matrix of
    the line sampled by FFT: two representations that share no STFT code."""

    @pytest.fixture(scope="class")
    def pairs(self):
        out = []
        for symbol, time in KERNEL_CASES:
            spec = EvolutionSpec(symbol, time)
            for moll in MOLLIFIERS:
                line = sampled_kernel_line(spec, N_ORACLE, DX_ORACLE, moll)
                out.append((kernel_signal(spec, moll), dense_kernel(line)))
        return out

    @pytest.mark.parametrize("w", [WindowSpec(1.0), WindowSpec(0.7)])
    def test_interior_points_match_to_round_off(self, pairs, w):
        # every window support (10 widths) inside the grid, where both sums
        # agree, and frequencies inside the passband
        rng = np.random.default_rng(3)
        lim = N_ORACLE * DX_ORACLE / 2.0 - 10.0 * w.width - DX_ORACLE
        for kernel, dense in pairs:
            xs = rng.uniform(-lim, lim, (150, 2))
            xis = rng.uniform(-kernel.passband, kernel.passband, (150, 2))
            xis[:20] *= 1e-3   # |xi| near 0
            xis[20:40, 1] = -xis[20:40, 0]   # xi0 + xi1 = 0: the mollifier's centre
            got = stft_points(kernel, w, xs, xis)
            want = separable_sum(dense, DX_ORACLE, w.width, xs, xis)
            assert np.max(np.abs(want)) > 0.05
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_edge_points_within_documented_bound(self, pairs):
        # At 0.8 of the extent the n x n sum cuts the window off at the grid
        # edge and the analytic line does not; a probe measured 5.3e-10.
        kernel, dense = pairs[0]
        rng = np.random.default_rng(4)
        edge = 0.8 * N_ORACLE * DX_ORACLE / 2.0
        xs = rng.uniform(-edge, edge, (300, 2))
        xs[:, 0] = edge * np.sign(xs[:, 0])
        xs[::2] = xs[::2, ::-1]
        xis = rng.uniform(-kernel.passband, kernel.passband, (300, 2))
        got = stft_points(kernel, WindowSpec(1.0), xs, xis)
        want = separable_sum(dense, DX_ORACLE, 1.0, xs, xis)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)


class TestPropagatorKernel:
    """The kernel of exp(-i t p(D)) itself: an analytic line, unmollified, with no grid."""

    @pytest.mark.parametrize("symbol, time", KERNEL_CASES)
    def test_matches_sampled_line_in_reach(self, symbol, time):
        # under each mollifier the kernel at (x, 0, f, -f) is the STFT of its line
        # at (x, f) against a window sqrt(2) times as wide, taken with amplitude 1:
        # it matches the line sampled by FFT, at offsets within 80% of the
        # sampled line's extent.  The kernel's values are 0.475 times the line's,
        # so 5e-13 here is 1e-12 on the line
        spec = EvolutionSpec(symbol, time)
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.8, 0.8, (2000, 1)) * N_ORACLE * DX_ORACLE
        line_w = WindowSpec(0.8)
        w = WindowSpec(line_w.width / math.sqrt(2.0))
        scale = (2.0 * math.pi) ** -0.5 / line_w.amplitude
        for moll in MOLLIFIERS:
            f = rng.uniform(-moll, moll, (2000, 1))
            f[:200] *= 1e-3   # |f| near 0
            line = sampled_kernel_line(spec, N_ORACLE, DX_ORACLE, moll)
            want = scale * stft_points(line, line_w, x, f)
            assert np.max(np.abs(want)) > 0.05
            got = stft_points(kernel_signal(spec, moll), w, np.column_stack([x, 0.0 * x]),
                              np.column_stack([f, -f]))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-13)

    @pytest.mark.parametrize("symbol", [XSQ, poly_1d(0.0, 0.0, 0.0, 1.0)])
    def test_is_the_limit_of_wide_mollifiers(self, symbol):
        # a mollifier of width 1e8 changes the exponent by about f^2 / 2e16
        spec = EvolutionSpec(symbol, 0.3)
        kernel = propagator_kernel(spec)
        wide = kernel_signal(spec, 1e8)
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
        # x^3 at t = 0.05 aliases on the oracle's 1024-sample line; the analytic
        # line has no samples: a kernel is its 1-d phase and passband alone
        spec = EvolutionSpec(poly_1d(0.0, 0.0, 0.0, 1.0), 0.05)
        with pytest.raises(AssertionError):
            sampled_kernel_line(spec, N_ORACLE, DX_ORACLE, MOLLIFIERS[0])
        kernel = propagator_kernel(spec)
        assert kernel.passband == math.inf and not hasattr(kernel, "dense")
        np.testing.assert_array_equal(kernel.phase.coeffs, [0.0, 0.0, 0.0, -0.05])
        assert np.all(np.isfinite(stft_points(kernel, WindowSpec(1.0), [[1.0, -2.0]], [[3.0, 4.0]])))


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
        xs, xis = np.array([[0.3], [-1.0]]), np.array([[2.0], [0.5]])
        sym = poly_1d(1.0, -2.0, 0.0, 3.0)
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
                                        poly_1d(1.0, 0.0, 0.5, 0.0, -2.0)])
    def test_batched_equals_per_direction_flow(self, symbol):
        # flow regime t = s(m-1): project(chi_t(z)); invariant regime t > s(m-1): z
        m = symbol.degree
        rng = np.random.default_rng(5)
        z = rng.standard_normal((40, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        spec = EvolutionSpec(symbol, 0.3)
        flow_idx = AnisoIndex(1.2 * (m - 1), 1.2)
        want = [project_many(flow_idx, _flow_positions(spec, r[None, :1], r[None, 1:]),
                             r[None, 1:])[0] for r in z]
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
