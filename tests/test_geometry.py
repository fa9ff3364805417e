import math
import warnings

import numpy as np
import pytest

from anisowf.errors import DomainError
from anisowf.geometry import (AnisoIndex, PhasePoint, curve_scales, log_lambda_many,
                              nearest_angles, project_many, scale_point, unique_rows)


def random_points(rng, count, d=1, log_scale=3.0):
    """(count, d) coordinate arrays xs, xis of random points with |(x, xi)| log-uniform
    in [e^-log_scale, e^log_scale]."""
    z = np.empty((count, 2 * d))
    for k in range(count):
        v = rng.standard_normal(2 * d)
        z[k] = v * math.exp(rng.uniform(-log_scale, log_scale)) / np.linalg.norm(v)
    return z[:, :d], z[:, d:]


def lambda_residual(idx, xs, xis, lam):
    """Defect of lambda^(-2t)|x|^2 + lambda^(-2s)|xi|^2 = 1 at lam, per row (target 0, scale 1)."""
    return np.abs(lam ** (-2.0 * idx.t) * np.sum(xs * xs, axis=1)
                  + lam ** (-2.0 * idx.s) * np.sum(xis * xis, axis=1) - 1.0)


def random_indices(rng, count):
    out = []
    while len(out) < count:
        t = rng.uniform(0.55, 3.0)
        s = rng.uniform(0.55, 3.0)
        if t + s > 1.0:
            out.append(AnisoIndex(t, s))
    return out


# Coordinate scales at which |x|^2 or |xi|^2 underflows to 0 or overflows to inf.
EXTREME_SCALES = [1e-300, 1e-170, 1e200, 1e300]


def extreme_points(c):
    """Points (c, 0), (0, c) and (0.6 sqrt(c), -0.8 c) with their scaling roots c,
    sqrt(c), sqrt(c) and projections (1, 0), (0, 1), (0.6, -0.8) at (t, s) = (1, 2)."""
    r = math.sqrt(c)
    xs, xis = np.array([[c], [0.0], [0.6 * r]]), np.array([[0.0], [c], [-0.8 * c]])
    return xs, xis, np.array([c, r, r]), np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]])


class TestAnisoIndex:
    def test_invariants(self):
        AnisoIndex(1.2, 2.4)
        with pytest.raises(DomainError):
            AnisoIndex(-1.0, 2.0)
        with pytest.raises(DomainError):
            AnisoIndex(0.4, 0.5)  # t + s <= 1


class TestLambdaSolve:
    def test_axis_closed_forms(self):
        idx = AnisoIndex(1.0, 2.0)
        lam = np.exp(log_lambda_many(idx, [[0.0], [3.0]], [[4.0], [0.0]]))
        np.testing.assert_allclose(lam, [2.0, 3.0], rtol=0, atol=1e-12)

    def test_unit_sphere_is_lambda_one(self):
        rng = np.random.default_rng(7)
        for idx in random_indices(rng, 10):
            z = rng.standard_normal(4)
            z /= np.linalg.norm(z)
            assert np.exp(log_lambda_many(idx, z[:2], z[2:])[0]) == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for idx in random_indices(rng, 5):
            xs, xis = random_points(rng, 50, d=2)
            lam = np.exp(log_lambda_many(idx, xs, xis))
            assert np.all(lambda_residual(idx, xs, xis, lam) <= 1e-12)

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            log_lambda_many(AnisoIndex(1.0, 1.0), [[0.0]], [[0.0]])
        with pytest.raises(DomainError):
            log_lambda_many(AnisoIndex(1.0, 1.0), [[1.0], [-0.0]], [[0.0], [0.0]])

    def test_quasi_homogeneity(self):
        # lambda(mu^t x, mu^s xi) = mu * lambda(x, xi)
        rng = np.random.default_rng(3)
        for idx in random_indices(rng, 4):
            xs, xis = random_points(rng, 25)
            mu = np.exp(rng.uniform(-2, 2, size=25))[:, None]
            lhs = np.exp(log_lambda_many(idx, xs * mu ** idx.t, xis * mu ** idx.s))
            rhs = mu[:, 0] * np.exp(log_lambda_many(idx, xs, xis))
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * rhs)

    def test_monotone_along_rays(self):
        idx = AnisoIndex(0.8, 1.7)
        mus = np.linspace(0.2, 5.0, 40)[:, None]
        logs = log_lambda_many(idx, 0.3 * mus ** idx.t, -1.1 * mus ** idx.s)
        assert np.all(np.diff(logs) > 0)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    @pytest.mark.parametrize("t", [1.0, 0.6])
    def test_extreme_coordinates(self, c, t):
        # lambda at (t, 2t) is lambda at (1, 2) to the power 1/t; at t = 0.6 it leaves
        # the double range near 1e200 and 1e-170, its log does not
        xs, xis, lam, _ = extreme_points(c)
        np.testing.assert_allclose(t * log_lambda_many(AnisoIndex(t, 2.0 * t), xs, xis),
                                   np.log(lam), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    @pytest.mark.parametrize("t", [1.0, 0.6])
    def test_extreme_coordinates_solve_the_log_equation(self, c, t):
        # h(u) = logaddexp(La - 2t u, Lb - 2s u) vanishes at the root up to the
        # rounding of its terms: a few eps of the larger of |La|, |Lb| and 1
        xs, xis, _, _ = extreme_points(c)
        s = 2.0 * t
        u = log_lambda_many(AnisoIndex(t, s), xs, xis)
        with np.errstate(divide="ignore"):
            la, lb = 2.0 * np.log(np.abs(xs[:, 0])), 2.0 * np.log(np.abs(xis[:, 0]))
        h = np.logaddexp(la - 2.0 * t * u, lb - 2.0 * s * u)
        size = np.max(np.abs(np.nan_to_num(np.stack([la, lb, np.ones_like(la)]), neginf=0.0)),
                      axis=0)
        assert np.all(np.abs(h) <= 4.0 * np.finfo(float).eps * size)


class TestProject:
    def test_axis_example(self):
        # lambda = 2 for (0, 4) at (t, s) = (1, 2), so the projection is (0, 1)
        d = project_many(AnisoIndex(1.0, 2.0), [[0.0]], [[4.0]])
        np.testing.assert_allclose(d, [[0.0, 1.0]], atol=1e-14)

    def test_sphere_fixed_point(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4)
        z /= np.linalg.norm(z)
        d = project_many(AnisoIndex(1.3, 0.7), z[:2], z[2:])
        np.testing.assert_allclose(d[0], z, atol=1e-13)

    def test_scale_invariance(self):
        # (0, 4) and (0, 4 mu^2) project identically at (t, s) = (1, 2)
        d = project_many(AnisoIndex(1.0, 2.0), [[0.0], [0.0]], [[4.0], [4.0 * 9.0]])
        np.testing.assert_allclose(d[0], d[1], atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for idx in random_indices(rng, 4):
            xs, xis = random_points(rng, 10, d=2)
            d1 = project_many(idx, xs, xis)
            d2 = project_many(idx, d1[:, :2], d1[:, 2:])
            np.testing.assert_allclose(d1, d2, atol=1e-10)

    def test_image_lies_on_the_curve(self):
        # independent of the solver: the image is (x lam^-t, xi lam^-s) on the
        # unit circle, with lam read off the x block
        rng = np.random.default_rng(17)
        idx = AnisoIndex(0.6, 1.2)
        xs, xis = random_points(rng, 20, d=1)
        batch = project_many(idx, xs, xis)
        lam = (np.abs(xs[:, 0]) / np.abs(batch[:, 0])) ** (1.0 / idx.t)
        assert np.all(lambda_residual(idx, xs, xis, lam) <= 1e-12)
        np.testing.assert_allclose(batch, np.column_stack([xs[:, 0] / lam ** idx.t,
                                                           xis[:, 0] / lam ** idx.s]),
                                   atol=1e-12)

    def test_depends_only_on_ratio(self):
        rng = np.random.default_rng(19)
        xs, xis = random_points(rng, 10)
        d1 = project_many(AnisoIndex(1.0, 2.0), xs, xis)
        d2 = project_many(AnisoIndex(1.5, 3.0), xs, xis)
        np.testing.assert_allclose(d1, d2, atol=1e-12)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    @pytest.mark.parametrize("t", [1.0, 0.6])
    def test_extreme_coordinates(self, c, t):
        # at t = 0.6 lambda itself overflows near 1e200 and underflows near 1e-170
        xs, xis, _, dirs = extreme_points(c)
        np.testing.assert_allclose(project_many(AnisoIndex(t, 2.0 * t), xs, xis), dirs,
                                   rtol=0, atol=1e-13)


class TestScalePoint:
    def test_direct_powers(self):
        q = scale_point(AnisoIndex(1.0, 2.0), PhasePoint(1.0, 1.0), 4.0)
        np.testing.assert_allclose(q.x, [4.0])
        np.testing.assert_allclose(q.xi, [16.0])

    def test_identity(self):
        p = PhasePoint([1.0, -2.0], [0.5, 3.0])
        q = scale_point(AnisoIndex(0.9, 1.1), p, 1.0)
        np.testing.assert_allclose(q.x, p.x)
        np.testing.assert_allclose(q.xi, p.xi)

    def test_bad_mu(self):
        with pytest.raises(DomainError):
            scale_point(AnisoIndex(1.0, 1.0), PhasePoint(1.0, 0.0), 0.0)


def test_curve_scales_with_numpy_exponents_overflow_to_inf():
    # 2.1^1000 is no double: a numpy exponent used to reach numpy's scalar power,
    # which warns on overflow where a Python float's raises and gives inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = curve_scales(AnisoIndex(np.float64(1000.0), 1.0), [2.1])
    assert got.tolist() == [[math.inf, 2.1]]


# The paper's two families of anisotropically conic neighbourhoods of a unit
# direction z0, for the anisotropy ratio sigma = s/t.  Gamma_eps(z0) holds the
# points whose projection lies within eps of z0; Gamma-tilde_eps(z0) holds the
# points (y, eta) of which some rescaling (lambda y, lambda^sigma eta) does.

def in_gamma_nbhd(sigma, z0, eps, xs, xis):
    """Membership of each point (xs[k], xis[k]) in Gamma_eps(z0): |z0 - p_{1,sigma}| < eps."""
    return np.linalg.norm(project_many(AnisoIndex(1.0, sigma), xs, xis) - z0, axis=1) < eps


def gamma_tilde_distance(sigma, z0, y, eta):
    """min over lambda in [1e-4, 1e4] of |(lambda y, lambda^sigma eta) - z0|.

    A scan of log(lambda) brackets the minimum, golden-section steps refine it.
    The distance is unimodal near its minimizer for the small eps this backs.
    """
    def dist(u):
        lam = math.exp(u)
        return float(np.linalg.norm(np.concatenate([lam * y, lam ** sigma * eta]) - z0))

    grid = np.linspace(-4.0 * math.log(10.0), 4.0 * math.log(10.0), 65)
    vals = [dist(u) for u in grid]
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = dist(c), dist(d)
    for _ in range(200):
        if hi - lo < 1e-13:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = dist(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = dist(d)
    return min(vals[k], fc, fd)


def in_gamma_tilde_nbhd(sigma, z0, eps, y, eta):
    """Membership of one point (y, eta) in Gamma-tilde_eps(z0)."""
    return gamma_tilde_distance(sigma, z0, y, eta) < eps


class TestGammaNeighborhoods:
    def test_projection_center_always_inside(self):
        rng = np.random.default_rng(23)
        xs, xis = random_points(rng, 10)
        z0 = project_many(AnisoIndex(1.0, 2.0), xs, xis)
        assert np.all(in_gamma_nbhd(2.0, z0, 1e-9, xs, xis))

    def test_eps_above_two_is_everything(self):
        rng = np.random.default_rng(29)
        assert np.all(in_gamma_nbhd(1.5, np.array([0.0, 1.0]), 2.001, *random_points(rng, 25)))

    def test_orthogonal_direction_outside(self):
        # |(0,1) - (1,0)| = sqrt(2) > 0.1
        z0 = project_many(AnisoIndex(1.0, 2.0), [[0.0]], [[1.0]])[0]
        assert not in_gamma_nbhd(2.0, z0, 0.1, [[1.0]], [[0.0]])[0]

    def test_tilde_contains_curve_points(self):
        idx = AnisoIndex(1.0, 2.0)
        z0 = project_many(idx, [[0.6]], [[1.7]])[0]
        for mu in (0.03, 0.7, 42.0):
            p = scale_point(idx, PhasePoint(z0[:1], z0[1:]), mu)
            assert in_gamma_tilde_nbhd(2.0, z0, 1e-6, p.x, p.xi)

    def test_tilde_orthogonal_direction_outside(self):
        # min over lambda of |(lambda, 0) - (0, 1)| = 1 > 0.1
        z0 = np.array([0.0, 1.0])
        y, eta = np.array([1.0]), np.array([0.0])
        assert gamma_tilde_distance(2.0, z0, y, eta) >= 1.0 - 1e-9
        assert not in_gamma_tilde_nbhd(2.0, z0, 0.1, y, eta)

    def test_neighborhood_families_equivalent_on_samples(self):
        # for each eps there is delta with Gamma_delta inside Gamma-tilde_eps
        rng = np.random.default_rng(31)
        sigma = 2.0
        z0 = project_many(AnisoIndex(1.0, sigma), [[0.8]], [[-0.4]])[0]
        eps = 0.2
        delta = 0.05
        xs, xis = random_points(rng, 400)
        hits = np.flatnonzero(in_gamma_nbhd(sigma, z0, delta, xs, xis))
        assert hits.size > 0
        for k in hits:
            assert in_gamma_tilde_nbhd(sigma, z0, eps, xs[k], xis[k])


class TestConicSetDistance:
    """The distance from a point to a conic set of directions is the angle from
    its projection to the nearest member (nearest_angles)."""

    def test_member_distance_zero(self):
        # (0.9, 2.2) rescaled by mu = 4 projects onto the member: chord 0 to 1e-12
        # (arccos cannot resolve an angle that small, so the angle bound is looser)
        w = project_many(AnisoIndex(1.0, 2.0), [[0.9]], [[2.2]])
        z = project_many(AnisoIndex(1.0, 2.0), [[0.9 * 4.0]], [[2.2 * 16.0]])
        assert np.linalg.norm(z - w, axis=1)[0] <= 1e-12
        assert nearest_angles(z, w)[0] == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pair(self):
        z = project_many(AnisoIndex(1.0, 2.0), [[1.0]], [[0.0]])
        assert nearest_angles(z, [[0.0, 1.0]])[0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            nearest_angles(project_many(AnisoIndex(1.0, 1.0), [[1.0]], [[0.0]]), np.zeros((0, 2)))

    def test_membership_equals_threshold(self):
        # a point lies in the union of the Gamma_eps(w) exactly when its nearest
        # angle is under the angle 2 arcsin(eps / 2) of an eps chord
        rng = np.random.default_rng(37)
        sigma = 1.5
        g = project_many(AnisoIndex(1.0, sigma), *random_points(rng, 5))
        eps = 0.3
        xs, xis = random_points(rng, 50)
        inside = np.any([in_gamma_nbhd(sigma, w, eps, xs, xis) for w in g], axis=0)
        angles = nearest_angles(project_many(AnisoIndex(1.0, sigma), xs, xis), g)
        np.testing.assert_array_equal(inside, angles < 2.0 * math.asin(eps / 2.0))
        assert 0 < np.count_nonzero(inside) < len(inside)


class TestGrowthBounds:
    def test_two_sided_bounds(self):
        # Each term of the defining equation is at most 1, so lambda >= max(|x|^(1/t),
        # |xi|^(1/s)) >= rho / 2; one of them is at least 1/2, so lambda <= c2 rho
        # with c2 = 2^(1 / (2 min(t, s))).
        rng = np.random.default_rng(41)
        for idx in random_indices(rng, 3):
            xs, xis = random_points(rng, 200, d=2)
            rho = (np.linalg.norm(xs, axis=1) ** (1 / idx.t)
                   + np.linalg.norm(xis, axis=1) ** (1 / idx.s))
            lam = np.exp(log_lambda_many(idx, xs, xis))
            c2 = 2.0 ** (1.0 / (2.0 * min(idx.t, idx.s)))
            assert np.all(0.5 * rho <= lam * (1 + 1e-12))
            assert np.all(lam <= c2 * rho * (1 + 1e-12))


def test_nearest_angles():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(nearest_angles(a, b), [0.0, 0.0, math.pi / 2])
    np.testing.assert_allclose(nearest_angles(a[:1], b[:1]), [math.pi / 2])
    assert nearest_angles(np.zeros((0, 2)), b).shape == (0,)
    # a unit row whose dot product with itself rounds to just above 1
    z = np.array([[-0.8288355951220819, 0.5594922307401815]])
    assert (z @ z.T)[0, 0] > 1.0
    assert nearest_angles(z, z).tolist() == [0.0]
    assert nearest_angles(z, -z).tolist() == [math.pi]
    with pytest.raises(DomainError):
        nearest_angles(a, np.zeros((0, 2)))
    # a nonempty a is never reshaped to b's width; an empty a may have any width
    for wrong in (np.full((1, 4), 0.5), np.full(4, 0.5), np.zeros((3, 1))):
        with pytest.raises(DomainError, match="width"):
            nearest_angles(wrong, b)
    assert nearest_angles(np.zeros((0, 4)), b).shape == (0,)
    assert nearest_angles(np.array([0.0, 1.0]), b).tolist() == [0.0]


def test_nearest_angles_matches_per_pair_acos():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def direction_sets(draw):
        k = draw(st.sampled_from([2, 4]))
        coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        raw = draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=1, max_size=6))
        rows = [np.asarray(v) / np.linalg.norm(v) for v in raw if np.linalg.norm(v) > 1e-3]
        hyp.assume(rows)
        b = np.array(rows)
        # rows of a: fresh, identical to a row of b, or antipodal to one
        picks = draw(st.lists(st.tuples(st.sampled_from(["fresh", "same", "antipodal"]),
                                        st.integers(0, len(b) - 1)), min_size=1, max_size=6))
        fresh = draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                              min_size=len(picks), max_size=len(picks)))
        a = []
        for (kind, j), v in zip(picks, fresh):
            v = np.asarray(v)
            if kind == "same" or np.linalg.norm(v) <= 1e-3:
                a.append(b[j])
            elif kind == "antipodal":
                a.append(-b[j])
            else:
                a.append(v / np.linalg.norm(v))
        return np.array(a), b

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(direction_sets())
    def check(sets):
        a, b = sets
        want = [min(math.acos(min(1.0, max(-1.0, float(np.dot(z, y))))) for y in b) for z in a]
        # the batched and per-pair dot products may differ by a few ulps, which
        # arccos magnifies to at most sqrt(2 * 4 * 2.2e-16) ~ 3e-8 next to +-1
        np.testing.assert_allclose(nearest_angles(a, b), want, rtol=0, atol=3e-8)

    check()


def _row_sequences(hyp, max_rows):
    """Strategy: (N, k) float arrays, N from 0 to max_rows, whose rows repeat a
    pool of at most five rows rich in zeros, each copy with the signs of its
    zeros kept or flipped, so rows equal as floats may differ in their bits."""
    st = hyp.strategies

    @st.composite
    def rows(draw):
        k = draw(st.integers(1, 4))
        coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(allow_nan=False, allow_infinity=False))
        pool = np.array(draw(st.lists(st.lists(coord, min_size=k, max_size=k),
                                      min_size=1, max_size=5)))
        picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                              max_size=max_rows))
        out = [np.where(pool[i] == 0.0, -pool[i], pool[i]) if flip else pool[i]
               for i, flip in picks]
        return np.array(out).reshape(len(out), k)

    return rows()


def test_unique_rows_is_np_unique_bit_for_bit():
    # up to 16 rows np.unique sorts by insertion, which keeps the first of
    # rows equal as floats, as unique_rows does: the bits agree, signed zeros too
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(_row_sequences(hyp, 16))
    def check(a):
        want, got = np.unique(a, axis=0), unique_rows(a)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    check()
    assert unique_rows(np.zeros((0, 4))).shape == (0, 4)
    assert unique_rows(np.array([[-0.0, 1.0]])).view(np.int64).tolist() == \
        np.array([[-0.0, 1.0]]).view(np.int64).tolist()


def test_unique_rows_is_np_unique_up_to_the_sign_of_zero():
    # above 16 rows np.unique's introsort keeps an arbitrary member of a group
    # of rows equal as floats; only the sign of their zeros can then differ
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(_row_sequences(hyp, 200))
    def check(a):
        want, got = np.unique(a, axis=0), unique_rows(a)
        assert got.shape == want.shape
        assert np.array_equal((got + 0.0).view(np.int64), (want + 0.0).view(np.int64))

    check()
