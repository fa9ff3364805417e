import math

import numpy as np
import pytest

from anisowf.errors import DomainError, GraphConditionError
from anisowf.geometry import AnisoIndex, PhasePoint, nearest_angles, project_many, scale_point
from anisowf.poly import poly_1d
from anisowf.evolution import EvolutionSpec, kernel_signal, propagator_kernel
from anisowf.signals import (AnalyticSignal, ConvolutionKernel, chirp_signal,
                             delta_signal, gaussian_signal, make_gaussian, one_signal,
                             tensor_signal)
from anisowf.stft import REACH_FRAC, WindowSpec, stft_points
from anisowf.estimator import (MAX_DIRECTIONS, STATUSES, RateFit, WFEstimate, _MIN_REACHABLE,
                               _refinement_seeds, check_graph_condition, circle_directions,
                               cone_constant, curve_reach, curve_table, estimate_wf,
                               fibonacci_cap, fit_rate_arrays,
                               geometric_lambdas, product_sphere4)

STEP_720 = 2.0 * math.pi / 720


def fit_one(fn, floor=1e-14, lo=2.0, hi=20.0, n=24) -> RateFit:
    """The batched fit of a single synthetic decay profile fn(lambda)."""
    lambdas = geometric_lambdas(lo, hi, n)
    return RateFit(*(float(v[0]) for v in fit_rate_arrays(lambdas, fn(lambdas)[None], floor)))


def profile(u, idx, z, lambda_range, w=WindowSpec(1.0), n=24):
    """lambdas and the curve_table row of one direction, NaN beyond reach."""
    lambdas = geometric_lambdas(lambda_range[0], lambda_range[1], n)
    return lambdas, curve_table(u, w, idx, np.reshape(z, (1, -1)), lambdas)[0]


def outside_window_cell(z, lam, idx, w) -> bool:
    """Whether the curve point of the unit row z at lambda lies outside the
    window's cell: lambda^t |x| >= W or lambda^s |xi| >= 1 / W."""
    d = len(z) // 2
    return (lam ** idx.t * math.hypot(*z[:d]) >= w.width
            or lam ** idx.s * math.hypot(*z[d:]) >= 1.0 / w.width)


def polyfit_oracle(lambdas, row, floor):
    """Per-row np.polyfit reference for fit_rate_arrays."""
    valid = np.isfinite(row) & (row >= floor) & (row > 0.0)
    if np.count_nonzero(valid) < 3:
        return math.inf, 0.0, 0.0, int(np.count_nonzero(valid))
    lam, logm = lambdas[valid], np.log(row[valid])
    slope, intercept = np.polyfit(lam, logm, 1)
    resid = logm - (slope * lam + intercept)
    return -slope, intercept, math.sqrt(np.mean(resid ** 2)), int(np.count_nonzero(valid))


class TestFitRate:
    def test_exact_exponential(self):
        fit = fit_one(lambda lam: np.exp(-3.0 * lam))
        assert fit.rhat == pytest.approx(3.0, abs=1e-6)
        assert fit.residual < 1e-10

    def test_constant(self):
        fit = fit_one(lambda lam: np.full_like(lam, 0.25))
        assert fit.rhat == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_decay_grows_with_window(self):
        rates = [fit_one(lambda lam: np.exp(-lam ** 2), floor=1e-300, hi=hi).rhat
                 for hi in (6.0, 12.0, 24.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_sentinel_below_floor(self):
        fit = fit_one(lambda lam: np.full_like(lam, 1e-20))
        assert math.isinf(fit.rhat)
        assert fit.n_valid == 0

    def test_batched_fit_matches_per_row_polyfit(self):
        rng = np.random.default_rng(7)
        lambdas = geometric_lambdas(2.0, 50.0, 24)
        rates = rng.uniform(-0.5, 2.0, size=400)
        table = np.exp(rng.normal(0.0, 2.0, 400)[:, None] - rates[:, None] * lambdas
                       + 0.3 * rng.standard_normal((400, 24)))
        reach = rng.integers(0, 25, size=400)
        table[np.arange(24) >= reach[:, None]] = np.nan      # NaN tails
        table[rng.random((400, 24)) < 0.1] = 0.0             # exact zeros
        floor = 1e-6                                          # plus sub-floor entries
        rhat, intercept, residual, n_valid = fit_rate_arrays(lambdas, table, floor)
        oracle = np.array([polyfit_oracle(lambdas, row, floor) for row in table])
        assert np.array_equal(n_valid, oracle[:, 3])
        assert np.array_equal(np.isinf(rhat), np.isinf(oracle[:, 0]))
        assert 0 < np.count_nonzero(np.isinf(rhat)) < 400
        fin = np.isfinite(rhat)
        np.testing.assert_allclose(rhat[fin], oracle[fin, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(intercept, oracle[:, 1], rtol=0, atol=1e-10)
        np.testing.assert_allclose(residual, oracle[:, 2], rtol=0, atol=1e-12)


class TestDecayProfile:
    """Decay profiles are the rows of curve_table."""

    def test_gaussian_super_exponential(self):
        # e^{r lambda} |V| collapses along the curve for every tested r <= 4
        from anisowf.signals import gaussian_signal
        idx = AnisoIndex(1.0, 1.0)
        z = project_many(idx, [[1.0]], [[1.0]])
        lambdas, mags = profile(gaussian_signal(1.0), idx, z, (2.0, 25.0))
        logs = np.log(np.maximum(mags, 1e-300))
        for r in (1.0, 2.0, 4.0):
            weighted = r * lambdas + logs
            assert weighted[-1] < weighted[0] - 5.0

    def test_sampled_gaussian_super_exponential_modest_rates(self):
        # sampled variant: quadrature resolves the decay down to its edge plateau
        u = make_gaussian(1, 512, 0.1)
        idx = AnisoIndex(1.0, 1.0)
        z = project_many(idx, [[1.0]], [[1.0]])
        lambdas, mags = profile(u, idx, z, (2.0, 12.0))
        assert np.all(np.isfinite(mags))
        logs = np.log(np.maximum(mags, 1e-300))
        for r in (1.0, 2.0):
            weighted = r * lambdas + logs
            assert weighted[-1] < weighted[0] - 5.0

    def test_chirp_ridge_bounded_below(self):
        # stationary-phase oracle: |V| along the ridge of exp(i x^2) stays level
        u = chirp_signal(poly_1d(0.0, 0.0, 1.0))
        idx = AnisoIndex(1.2, 1.2)
        z = project_many(idx, [[1.0]], [[2.0]])
        _, mags = profile(u, idx, z, (2.0, 40.0))
        assert np.min(mags) > 0.5 * mags[0]

    def test_profile_starts_at_lambda_two(self):
        u = make_gaussian(1, 512, 0.05)
        idx = AnisoIndex(1.0, 1.0)
        z = project_many(idx, [[0.5]], [[0.5]])
        lambdas, mags = profile(u, idx, z, (2.0, 8.0))
        assert lambdas[0] == pytest.approx(2.0)
        assert np.isfinite(mags[0])

    def test_clipped_curve_nan_tail_and_short_reach_nan_row(self):
        idx = AnisoIndex(1.0, 1.0)
        z = np.array([1.0, 0.0])
        u = make_gaussian(1, 64, 0.1, width=0.5)  # extent 3.2: under 8 samples reach
        _, mags = profile(u, idx, z, (2.0, 50.0))
        assert np.all(np.isnan(mags))
        u2 = make_gaussian(1, 256, 0.1)  # extent 12.8, reach 10.24
        lambdas, mags = profile(u2, idx, z, (2.0, 50.0))
        reach = np.isfinite(mags)
        assert 8 <= np.count_nonzero(reach) < lambdas.size
        assert np.array_equal(reach, lambdas <= 10.24)

    def test_scaling_invariance_of_curve_profile(self):
        u = make_gaussian(1, 512, 0.1)
        idx = AnisoIndex(1.2, 1.8)
        z = project_many(idx, [[0.7]], [[-0.4]])[0]
        p = scale_point(idx, PhasePoint(z[:1], z[1:]), 5.0)
        z_alt = project_many(idx, p.x, p.xi)[0]
        _, p1 = profile(u, idx, z, (2.0, 8.0))
        _, p2 = profile(u, idx, z_alt, (2.0, 8.0))
        # agreement is meaningful above the numeric floor; below it the
        # quadrature is pure cancellation noise
        keep = p1 >= 1e-14
        np.testing.assert_allclose(p1[keep], p2[keep], rtol=1e-6)


class TestCurveTable:
    @pytest.mark.parametrize("make", [
        lambda: chirp_signal(poly_1d(0.0, 0.0, 0.0, 1.0)),
        lambda: make_gaussian(1, 256, 0.1),
        lambda: tensor_signal(one_signal(1), delta_signal(1)),
        lambda: propagator_kernel(EvolutionSpec(poly_1d(0.0, 0.0, 0.0, 1.0), 0.05)),
        lambda: kernel_signal(EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3), 0.6 * math.pi / 0.2)])
    def test_equals_row_by_row_evaluation(self, make):
        # the reference loop: one stft_points call per reachable row
        u = make()
        d = u.dim
        rng = np.random.default_rng(6)
        dirs = rng.standard_normal((150, 2 * d))   # more rows than one batch
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, w = AnisoIndex(1.2, 1.2), WindowSpec(1.0)
        lambdas = geometric_lambdas(1.0, 30.0, 12)
        want = np.full((len(dirs), lambdas.size), np.nan)
        for i, z in enumerate(dirs):
            cols = [j for j, v in enumerate(lambdas.tolist())
                    if v <= curve_reach(u, idx, z) and outside_window_cell(z, v, idx, w)]
            if len(cols) >= _MIN_REACHABLE:
                lam = lambdas[cols]
                want[i, cols] = np.abs(stft_points(
                    u, w, np.array([float(v) ** idx.t for v in lam])[:, None] * z[:d],
                    np.array([float(v) ** idx.s for v in lam])[:, None] * z[d:]))
        got = curve_table(u, w, idx, dirs, lambdas)
        np.testing.assert_array_equal(got, want)
        reached = np.count_nonzero(np.isfinite(got), axis=1)
        # lambda = 1 lies inside the window's cell for every direction but the pure ones
        assert not np.isfinite(got[:, 0]).any()
        if isinstance(u, AnalyticSignal) or getattr(u, "passband", 0.0) == math.inf:
            assert reached.min() == lambdas.size - 1   # unbounded reach
        else:   # clipped rows and all-NaN rows are mixed in
            assert reached.min() == 0 and np.any((reached > 0) & (reached < lambdas.size - 1))

    @pytest.mark.parametrize("build", [kernel_signal, propagator_kernel])
    def test_kernel_curves_stay_inside_the_passband(self, build):
        # a mollified line's passband; the unmollified line has none
        passband = 0.25 * math.pi / 0.2
        spec = EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3)
        if build is kernel_signal:
            K = kernel_signal(spec, passband)
        else:
            K, passband = propagator_kernel(spec), math.inf
        assert K.passband == passband
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((60, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, lambdas = AnisoIndex(1.2, 1.2), geometric_lambdas(1.0, 10.0, 12)
        got = curve_table(K, WindowSpec(1.0), idx, dirs, lambdas)
        r, c = np.nonzero(np.isfinite(got))
        assert r.size
        xi = np.abs(lambdas[c, None] ** idx.s * dirs[r, 2:])
        if math.isfinite(passband):
            assert 0.9 * passband < xi.max() <= passband
        else:   # every sample outside the window's cell
            outside = [[outside_window_cell(z, v, idx, WindowSpec(1.0)) for v in lambdas.tolist()]
                       for z in dirs]
            assert np.array_equal(np.isfinite(got), outside)
            assert r.size < got.size


    @pytest.mark.parametrize("make", [
        lambda: make_gaussian(1, 256, 0.1),
        # a passband narrow enough that some curves are all-NaN
        lambda: kernel_signal(EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3), 0.3 * math.pi / 0.2),
        lambda: propagator_kernel(EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3))])
    def test_reach_from_the_grid_bounds(self, make):
        # an oracle that shares no code with curve_reach: each curve point is
        # checked against the extent, Nyquist and passband bounds themselves;
        # a kernel has no grid, so only its passband bounds it
        u = make()
        d = u.dim
        rng = np.random.default_rng(8)
        dirs = rng.standard_normal((200, 2 * d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        idx, lambdas = AnisoIndex(1.2, 0.9), geometric_lambdas(2.0, 40.0, 16)
        if isinstance(u, AnalyticSignal) or getattr(u, "passband", 0.0) == math.inf:
            finite = np.isfinite(curve_table(u, WindowSpec(1.0), idx, dirs, lambdas))
            assert finite.all()
            return
        if isinstance(u, ConvolutionKernel):
            x_lim, xi_lim = math.inf, u.passband
        else:
            x_lim, xi_lim = REACH_FRAC * u.extent, REACH_FRAC * math.pi / u.dx

        def inside(z, lam):
            return (np.all(np.abs(float(lam) ** idx.t * z[:d]) <= x_lim)
                    and np.all(np.abs(float(lam) ** idx.s * z[d:]) <= xi_lim))

        finite = np.isfinite(curve_table(u, WindowSpec(1.0), idx, dirs, lambdas))
        reached = np.count_nonzero(finite, axis=1)
        for z, row, n in zip(dirs, finite, reached):
            assert np.array_equal(row, np.arange(lambdas.size) < n)   # a prefix of lambdas
            assert n == 0 or n >= _MIN_REACHABLE
            assert all(inside(z, lam) for lam in lambdas[:n])
            if n < lambdas.size:   # clipped, or unreachable before _MIN_REACHABLE samples
                assert not inside(z, lambdas[n or _MIN_REACHABLE - 1])
        assert reached.min() == 0 and np.any((reached > 0) & (reached < lambdas.size))


class TestEstimateWF:
    def test_needs_enough_directions(self):
        u = one_signal(1)
        for samples in (45, MAX_DIRECTIONS + 1):
            with pytest.raises(DomainError):
                estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.0, 1.0), sphere_samples=samples)

    def test_constant_one_singular_on_x_axis(self):
        est = estimate_wf(one_signal(1), WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=180, lambda_range=(2.0, 200.0),
                          r_threshold=1.0, floor=1e-8, cone_steps=1)
        step = 2.0 * math.pi / 180
        sing = est.singular_directions()
        axes = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert len(sing)
        assert np.max(nearest_angles(sing, axes)) <= step * (1 + 1e-9)
        assert np.max(nearest_angles(axes, sing)) <= step * (1 + 1e-9)

    def test_delta_singular_on_xi_axis(self):
        est = estimate_wf(delta_signal(1), WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=180, lambda_range=(2.0, 200.0),
                          r_threshold=1.0, floor=1e-8, cone_steps=1)
        step = 2.0 * math.pi / 180
        sing = est.singular_directions()
        assert len(sing)
        axes = np.array([[0.0, 1.0], [0.0, -1.0]])
        assert np.max(nearest_angles(sing, axes)) <= step * (1 + 1e-9)

    def test_gaussian_empty(self):
        u = make_gaussian(1, 512, 0.05)
        est = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=180, lambda_range=(2.0, 8.0),
                          floor=1e-11, cone_steps=1)
        assert est.singular_directions().shape == (0, 2)

    def test_window_robustness(self):
        # detected sets for two window widths agree within one angular step
        u = chirp_signal(poly_1d(0.0, 0.0, 1.0))
        idx = AnisoIndex(1.2, 1.2)
        sets = []
        for width in (1.0, 1.4):
            est = estimate_wf(u, WindowSpec(width), idx, sphere_samples=360,
                              lambda_range=(2.0, 60.0), floor=1e-8, cone_steps=1)
            sets.append(est.singular_directions())
        step = 2.0 * math.pi / 360
        assert len(sets[0]) and len(sets[1])
        assert np.max(nearest_angles(sets[0], sets[1])) <= 3 * step
        assert np.max(nearest_angles(sets[1], sets[0])) <= 3 * step

    def test_even_signal_symmetric_set(self):
        u = chirp_signal(poly_1d(0.0, 0.0, 1.0))  # even phase
        est = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.2, 1.2),
                          sphere_samples=360, lambda_range=(2.0, 60.0),
                          floor=1e-8, cone_steps=1)
        sing = {tuple(np.round(z, 10)) for z in est.singular_directions()}
        for z in list(sing):
            neg = tuple(np.round(-np.array(z), 10))
            assert neg in sing

    def test_index_nesting(self):
        # singular set at (tp, sp) contained in the set at (t, s), p > 1
        u = chirp_signal(poly_1d(0.0, 0.0, 1.0))
        kw = dict(sphere_samples=360, lambda_range=(2.0, 60.0), floor=1e-8, cone_steps=1)
        small = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.2, 1.2), **kw)
        big = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.5, 1.5), **kw)
        step = 2.0 * math.pi / 360
        sing_big = big.singular_directions()
        assert np.all(nearest_angles(sing_big, small.singular_directions()) <= step * (1 + 1e-9))

    def test_profiles_match_decay_profile(self):
        # the grid clips every curve before lambda = 50, by a different amount
        # per direction; the estimate's rows and the single-direction decay
        # profile must read the same samples, NaN beyond reach
        u = make_gaussian(1, 256, 0.1)
        w, idx = WindowSpec(1.0), AnisoIndex(1.0, 1.0)
        est = estimate_wf(u, w, idx, sphere_samples=90, lambda_range=(2.0, 50.0),
                          cone_steps=0)
        sizes = set()
        for i in (0, 7, 22, 40, 67):
            lambdas, mags = profile(u, idx, est.dirs[i], (2.0, 50.0), w=w)
            assert np.array_equal(lambdas, est.lambdas)
            np.testing.assert_array_equal(mags, est.magnitudes[i])
            sizes.add(int(np.count_nonzero(np.isfinite(mags))))
        assert len(sizes) > 1 and max(sizes) < 24

    def test_keep_profiles(self):
        # every estimate keeps its decay profiles: one table row per direction
        u = make_gaussian(1, 256, 0.1)
        est = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=90, lambda_range=(2.0, 8.0))
        assert est.magnitudes.shape == (90, 24) and len(est.entries) == 90
        assert np.array_equal(est.lambdas, geometric_lambdas(2.0, 8.0, 24))
        assert np.all(np.isfinite(est.magnitudes))

    def test_entries_fit_the_raw_table_at_cone_steps_0(self):
        # cone_steps = 0 classifies each raw row on its own
        u = chirp_signal(poly_1d(0.0, 0.0, 1.0))
        est = estimate_wf(u, WindowSpec(1.0), AnisoIndex(1.2, 1.2), sphere_samples=90,
                          lambda_range=(2.0, 30.0), floor=1e-8, cone_steps=0)
        rhat, _, _, n_valid = fit_rate_arrays(est.lambdas, est.magnitudes, 1e-8)
        assert est.n_valid.tolist() == n_valid.tolist()
        assert est.rhat.tolist() == rhat.tolist()

    def test_entries_view_matches_the_columns(self):
        # entries is the per-row view bench/ reads; it is built once, from the columns
        est = estimate_wf(make_gaussian(1, 256, 0.1), WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=360, lambda_range=(8.0, 60.0))
        assert est.entries is est.entries and len(est.entries) == len(est.dirs) == 360
        assert np.array_equal([e.direction.z for e in est.entries], est.dirs)
        assert [e.status for e in est.entries] == [STATUSES[k] for k in est.status]
        assert [e.singular for e in est.entries] == est.singular.tolist()
        assert [e.fit for e in est.entries] == [
            RateFit(*row) for row in zip(est.rhat.tolist(), est.intercept.tolist(),
                                         est.residual.tolist(), est.n_valid.tolist())]
        assert est.status_counts() == {s: [e.status for e in est.entries].count(s)
                                       for s in STATUSES}

    @pytest.mark.parametrize("cone_steps, unreachable", [(0, 186), (1, 186)])
    def test_unreachable_rows_are_not_regular(self, cone_steps, unreachable):
        # from lambda = 8 on most curves of a 25.6-wide grid leave it too early;
        # the cone maximum lends no row a sample its own curve did not reach
        est = estimate_wf(make_gaussian(1, 256, 0.1), WindowSpec(1.0), AnisoIndex(1.0, 1.0),
                          sphere_samples=360, lambda_range=(8.0, 60.0), cone_steps=cone_steps)
        status = np.array([e.status for e in est.entries])
        assert np.count_nonzero(status == "unreachable") == unreachable
        assert set(status) <= {"singular", "regular", "below-floor", "unreachable"}
        assert all(e.singular == (e.status == "singular") for e in est.entries)
        for e in est.entries:
            if e.status == "unreachable":
                assert e.fit == RateFit(math.inf, 0.0, 0.0, 0)
            elif e.status == "regular":
                assert 1.0 < e.fit.rhat < math.inf
            elif e.status == "below-floor":
                assert e.fit.rhat == math.inf or e.fit.rhat <= 1.0


class TestRefinementSeeds:
    def test_last_bit_noise_keeps_the_seeds(self):
        rng = np.random.default_rng(3)
        rates = rng.choice([0.05, 0.2, 0.3, 0.7, math.inf], size=200,
                           p=[0.05, 0.35, 0.3, 0.2, 0.1])
        singular = rates <= 0.05
        noisy = rates + 1e-15 * rng.choice([-1.0, 1.0], size=200)
        seeds = _refinement_seeds(rates, singular)
        assert np.array_equal(seeds, _refinement_seeds(noisy, singular))
        # singular rows first, then the lowest finite rates in sweep order
        hits = np.flatnonzero(singular)
        near = np.flatnonzero(rates == 0.2)[:48 - hits.size]
        assert 0 < hits.size and near.size == 48 - hits.size
        assert np.array_equal(seeds, np.concatenate([hits, near]))
        # an exact sort of the noisy rates would pick other near-ties
        order = np.argsort(noisy)
        assert not np.array_equal(order[~singular[order]][:near.size], near)

    def test_all_singular_beyond_the_count(self):
        rates = np.zeros(60)
        assert _refinement_seeds(rates, np.ones(60, dtype=bool)).tolist() == list(range(60))


class TestKernelEstimate:
    def test_gaussian_tensor_kernel_empty(self):
        # a separable Gaussian kernel is regular: nothing across the sphere
        from anisowf.estimator import estimate_kernel_wf
        K = tensor_signal(gaussian_signal(1.0), gaussian_signal(1.0))
        est = estimate_kernel_wf(K, WindowSpec(1.0), AnisoIndex(1.2, 1.2),
                                 sweep=(4, 12, 12, 24), lambda_range=(2.0, 6.0),
                                 floor=1e-11, refine=8, seed=0)
        assert est.singular_directions().shape == (0, 4)

    def test_sweep_is_counted_before_it_is_built(self):
        from anisowf.estimator import estimate_kernel_wf
        for sweep in ((8, 24, 24, 64), (3, 5, 7, 0), (0, 4, 4, 9)):
            assert len(product_sphere4(*sweep)) == 2 * sweep[3] + sweep[0] * sweep[1] * sweep[2]
        # 2^93 directions: rejected before any of them is made
        with pytest.raises(DomainError, match="exceeds budget"):
            estimate_kernel_wf(propagator_kernel(EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3)),
                               WindowSpec(1.0), AnisoIndex(1.2, 1.2), sweep=(2 ** 31 - 1,) * 4)

    def test_kernel_dimension_guard(self):
        from anisowf.estimator import estimate_kernel_wf
        g = make_gaussian(1, 128, 0.2)
        with pytest.raises(DomainError):
            estimate_kernel_wf(g, WindowSpec(1.0), AnisoIndex(1.2, 1.2))


def product_sphere4_loop(n_psi, n_a, n_b, n_circle):
    """The direction-by-direction loop product_sphere4 replaced: its reference."""
    dirs = []
    for t in 2.0 * math.pi * np.arange(n_circle) / n_circle:
        dirs.append([math.cos(t), 0.0, math.sin(t), 0.0])
        dirs.append([0.0, math.cos(t), 0.0, math.sin(t)])
    psis = (np.arange(1, n_psi + 1)) * (math.pi / 2.0) / (n_psi + 1)
    for psi in psis:
        c, s = math.cos(psi), math.sin(psi)
        for a in 2.0 * math.pi * np.arange(n_a) / n_a:
            for b in 2.0 * math.pi * np.arange(n_b) / n_b:
                dirs.append([c * math.cos(a), s * math.cos(b),
                             c * math.sin(a), s * math.sin(b)])
    return np.unique(np.round(np.array(dirs).reshape(-1, 4), 15), axis=0)


def fibonacci_cap_loop(center, radius, count, rng):
    """The point-by-point loop fibonacci_cap replaced: its reference."""
    basis = np.linalg.qr(np.concatenate([center[:, None], np.eye(4)], axis=1))[0][:, 1:4]
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for k in range(count):
        r = radius * ((k + 0.5) / count) ** (1.0 / 3.0)
        z = 1.0 - 2.0 * ((k + 0.5) % count) / count
        phi = 2.0 * math.pi * ((k / golden) % 1.0)
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        v3 = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
        v3 = v3 + 1e-3 * rng.standard_normal(3)
        v3 *= r / np.linalg.norm(v3)
        tangent = basis @ v3
        norm_t = np.linalg.norm(tangent)
        pt = math.cos(norm_t) * center + math.sin(norm_t) * tangent / norm_t
        pts.append(pt / np.linalg.norm(pt))
    return np.array(pts).reshape(-1, 4)


class TestSphereSampling:
    @pytest.mark.parametrize("sweep", [(8, 24, 24, 64), (6, 20, 20, 48), (4, 12, 12, 24),
                                       (3, 5, 7, 0), (0, 4, 4, 9), (1, 1, 1, 1), (0, 0, 0, 0)])
    def test_product_sphere4_is_the_loop_bit_for_bit(self, sweep):
        # the same products of the same math.cos and math.sin values
        want, got = product_sphere4_loop(*sweep), product_sphere4(*sweep)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_circle_directions_are_the_loop_bit_for_bit(self):
        thetas = 2.0 * math.pi * np.arange(720) / 720
        want = np.array([[math.cos(t), math.sin(t)] for t in thetas.tolist()])
        assert np.array_equal(circle_directions(720).view(np.int64), want.view(np.int64))

    def test_fibonacci_cap_is_the_loop_to_round_off(self):
        # same jitter stream; norms, products and cosines may round in another
        # order, by a few ulps of the unit coordinates (2.2e-16 each)
        centers = np.random.default_rng(5).standard_normal((20, 4))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for center in centers:
            for count in (1, 8, 24):
                np.testing.assert_allclose(fibonacci_cap(center, 0.13, count, rng_b),
                                           fibonacci_cap_loop(center, 0.13, count, rng_a),
                                           rtol=0, atol=1e-15)
        assert rng_a.random() == rng_b.random()

    def test_product_sphere4_unit(self):
        dirs = product_sphere4(4, 12, 12, 32)
        norms = np.linalg.norm(dirs, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_fibonacci_cap_stays_near_center(self):
        rng = np.random.default_rng(0)
        center = np.array([0.5, 0.5, 0.5, 0.5])
        pts = fibonacci_cap(center, 0.2, 50, rng)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        angles = np.arccos(np.clip(pts @ center, -1, 1))
        assert np.max(angles) <= 0.25


def make_wf4(directions, idx=AnisoIndex(1.2, 1.2), statuses=None):
    """Kernel rows along the directions, normalised, each with rate 0 and the
    given status (singular by default)."""
    z = np.array(directions, dtype=float).reshape(-1, 4)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    n = len(z)
    status = np.array([STATUSES.index(s) for s in statuses or ["singular"] * n], dtype=int)
    return WFEstimate(idx, 1.0, z, status, np.zeros(n), np.zeros(n), np.zeros(n), np.full(n, 10))


class TestGraphCondition:
    def test_empty_set_passes(self):
        wf = make_wf4([])
        res = check_graph_condition(wf, 0.05)
        assert res["wf1_empty"] and res["wf2_empty"] and not res["offenders"]
        # no regular row near either plane: the empty traces are not confirmed
        assert not res["wf1_confirmed"] and not res["wf2_confirmed"]

    def test_point_on_plane_one(self):
        wf = make_wf4([[1.0, 0.0, 1.0, 0.0]])
        res = check_graph_condition(wf, 0.05)
        assert not res["wf1_empty"]
        assert res["wf2_empty"]

    def test_point_on_plane_two(self):
        wf = make_wf4([[0.0, 1.0, 0.0, -1.0]])
        res = check_graph_condition(wf, 0.05)
        assert res["wf1_empty"]
        assert not res["wf2_empty"]

    def test_rows_near_each_plane_are_counted_by_status(self):
        # a below-floor row inside plane 1 is counted there but is no offender:
        # the empty trace over it is not confirmed by any regular row
        wf = make_wf4([[1.0, 0.01, 1.0, 0.0], [1.0, 0.0, 0.99, 0.01], [0.0, 1.0, 0.0, -1.0],
                       [1.0, 1.0, 1.0, -1.0]],
                      statuses=["below-floor", "regular", "singular", "unreachable"])
        res = check_graph_condition(wf, 0.05)
        assert res["wf1_empty"] and not res["wf2_empty"]
        assert res["wf1_confirmed"] and not res["wf2_confirmed"]
        assert [o["plane"] for o in res["offenders"]] == [2]
        assert res["wf1_rows"] == {"singular": 0, "regular": 1, "below-floor": 1,
                                   "unreachable": 0}
        assert res["wf2_rows"] == {"singular": 1, "regular": 0, "below-floor": 0,
                                   "unreachable": 0}

    def test_generic_direction_clears_both(self):
        wf = make_wf4([[1.0, 1.0, 1.0, -1.0]])
        res = check_graph_condition(wf, 0.05)
        assert res["wf1_empty"] and res["wf2_empty"]

    def test_offenders_in_entry_order_plane_one_first(self):
        dirs = [[0.01, 1.0, 0.0, -1.0], [1.0, 0.0, 1.0, 0.02], [1.0, 1.0, 1.0, -1.0],
                [0.0, 1.0, 0.0, 1.0], [1.0, 0.01, 0.5, 0.0]]
        wf = make_wf4(dirs, statuses=["singular", "singular", "regular", "singular", "singular"])

        def reference(eps):
            # per entry: plane 1 {(x, 0, xi, 0)}, then plane 2 {(0, y, 0, -eta)}
            out = []
            for e in (e for e in wf.entries if e.singular):
                z = e.direction.z
                for plane, off in ((1, math.hypot(z[1], z[3])), (2, math.hypot(z[0], z[2]))):
                    if math.asin(min(1.0, off)) < eps:
                        out.append((z.tolist(), plane, math.asin(min(1.0, off))))
            return out

        for eps in (0.05, 3.0):
            got = [(o["direction"], o["plane"], o["angle"])
                   for o in check_graph_condition(wf, eps)["offenders"]]
            want = reference(eps)
            assert [g[:2] for g in got] == [w[:2] for w in want]
            np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want], atol=1e-12)
        # at eps > pi/2 every singular entry offends twice, plane 1 first
        assert [w[1] for w in want] == [1, 2] * 4


class TestConeConstant:
    def test_symmetric_graph_near_one(self):
        dirs = [[1.0, 1.0, 0.5, -0.5], [0.3, 0.3, 1.0, -1.0]]
        c = cone_constant(make_wf4(dirs), AnisoIndex(1.2, 1.2))
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_empty_gives_one(self):
        assert cone_constant(make_wf4([]), AnisoIndex(1.2, 1.2)) == 1.0

    def test_vanishing_block_fails(self):
        wf = make_wf4([[1.0, 0.0, 1.0, 0.0]])
        with pytest.raises(GraphConditionError):
            cone_constant(wf, AnisoIndex(1.2, 1.2))

    def test_asymmetric_direction(self):
        idx = AnisoIndex(1.0, 1.0)
        z = np.array([2.0, 1.0, 0.0, 0.0])
        c = cone_constant(make_wf4([z], idx=idx), idx)
        assert c == pytest.approx(2.0, rel=1e-9)


def test_circle_directions_cover_axes():
    mat = circle_directions(360)
    assert mat.shape == (360, 2)
    for axis in ([1, 0], [0, 1], [-1, 0], [0, -1]):
        dots = mat @ np.array(axis, dtype=float)
        assert np.max(dots) == pytest.approx(1.0, abs=1e-12)
