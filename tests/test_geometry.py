import math

import numpy as np
import pytest

from anisowf.errors import DomainError
from anisowf.geometry import (AnisoIndex, PhasePoint, SphereDirection,
                              dist_to_conic_set, gamma_tilde_distance,
                              in_gamma_nbhd, in_gamma_tilde_nbhd, lambda_solve,
                              lambda_solve_many, nearest_angles, project,
                              project_many, scale_point, unique_rows)


def random_points(rng, count, d=1, log_scale=3.0):
    pts = []
    for _ in range(count):
        z = rng.standard_normal(2 * d)
        z *= math.exp(rng.uniform(-log_scale, log_scale)) / np.linalg.norm(z)
        pts.append(PhasePoint(z[:d], z[d:]))
    return pts


def lambda_residual(idx, p, lam):
    """Defect of lambda^(-2t)|x|^2 + lambda^(-2s)|xi|^2 = 1 at lam (target 0, scale 1)."""
    a = float(np.dot(p.x, p.x))
    b = float(np.dot(p.xi, p.xi))
    return abs(lam ** (-2.0 * idx.t) * a + lam ** (-2.0 * idx.s) * b - 1.0)


def random_indices(rng, count):
    out = []
    while len(out) < count:
        t = rng.uniform(0.55, 3.0)
        s = rng.uniform(0.55, 3.0)
        if t + s > 1.0:
            out.append(AnisoIndex(t, s))
    return out


class TestAnisoIndex:
    def test_invariants(self):
        idx = AnisoIndex(1.2, 2.4)
        assert idx.sigma == pytest.approx(2.0)
        with pytest.raises(DomainError):
            AnisoIndex(-1.0, 2.0)
        with pytest.raises(DomainError):
            AnisoIndex(0.4, 0.5)  # t + s <= 1


class TestLambdaSolve:
    def test_axis_closed_forms(self):
        idx = AnisoIndex(1.0, 2.0)
        assert lambda_solve(idx, PhasePoint(0.0, 4.0)) == pytest.approx(2.0, abs=1e-12)
        assert lambda_solve(idx, PhasePoint(3.0, 0.0)) == pytest.approx(3.0, abs=1e-12)

    def test_unit_sphere_is_lambda_one(self):
        rng = np.random.default_rng(7)
        for idx in random_indices(rng, 10):
            z = rng.standard_normal(4)
            z /= np.linalg.norm(z)
            p = PhasePoint(z[:2], z[2:])
            assert lambda_solve(idx, p) == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for idx in random_indices(rng, 5):
            for p in random_points(rng, 50, d=2):
                lam = lambda_solve(idx, p)
                assert lambda_residual(idx, p, lam) <= 1e-12

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            lambda_solve(AnisoIndex(1.0, 1.0), PhasePoint(0.0, 0.0))

    def test_quasi_homogeneity(self):
        # lambda(mu^t x, mu^s xi) = mu * lambda(x, xi)
        rng = np.random.default_rng(3)
        for idx in random_indices(rng, 4):
            for p in random_points(rng, 25):
                mu = math.exp(rng.uniform(-2, 2))
                lhs = lambda_solve(idx, scale_point(idx, p, mu))
                rhs = mu * lambda_solve(idx, p)
                assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_monotone_along_rays(self):
        idx = AnisoIndex(0.8, 1.7)
        p = PhasePoint(0.3, -1.1)
        mus = np.linspace(0.2, 5.0, 40)
        lams = [lambda_solve(idx, scale_point(idx, p, m)) for m in mus]
        assert np.all(np.diff(lams) > 0)


class TestProject:
    def test_axis_example(self):
        # lambda = 2 for (0, 4) at (t, s) = (1, 2), so the projection is (0, 1)
        d = project(AnisoIndex(1.0, 2.0), PhasePoint(0.0, 4.0))
        np.testing.assert_allclose(d.z, [0.0, 1.0], atol=1e-14)

    def test_sphere_fixed_point(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4)
        z /= np.linalg.norm(z)
        p = PhasePoint(z[:2], z[2:])
        d = project(AnisoIndex(1.3, 0.7), p)
        np.testing.assert_allclose(d.z, z, atol=1e-13)

    def test_scale_invariance(self):
        # (0, 4) and (0, 4 mu^2) project identically at (t, s) = (1, 2)
        idx = AnisoIndex(1.0, 2.0)
        d1 = project(idx, PhasePoint(0.0, 4.0))
        d2 = project(idx, PhasePoint(0.0, 4.0 * 9.0))
        np.testing.assert_allclose(d1.z, d2.z, atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for idx in random_indices(rng, 4):
            for p in random_points(rng, 10, d=2):
                d1 = project(idx, p)
                d2 = project(idx, PhasePoint(d1.x, d1.xi))
                np.testing.assert_allclose(d1.z, d2.z, atol=1e-10)

    def test_project_many_matches_scalar(self):
        rng = np.random.default_rng(17)
        idx = AnisoIndex(0.6, 1.2)
        pts = random_points(rng, 20, d=1)
        xs = np.stack([p.x for p in pts])
        xis = np.stack([p.xi for p in pts])
        batch = project_many(idx, xs, xis)
        for k, p in enumerate(pts):
            np.testing.assert_allclose(batch[k], project(idx, p).z, atol=1e-12)
            # independent of the solver: the image is (x lam^-t, xi lam^-s) on
            # the unit circle, with lam read off the x block
            lam = (abs(p.x[0]) / abs(batch[k][0])) ** (1.0 / idx.t)
            assert lambda_residual(idx, p, lam) <= 1e-12
            np.testing.assert_allclose(batch[k], [p.x[0] / lam ** idx.t, p.xi[0] / lam ** idx.s],
                                       atol=1e-12)

    def test_depends_only_on_ratio(self):
        rng = np.random.default_rng(19)
        for p in random_points(rng, 10):
            d1 = project(AnisoIndex(1.0, 2.0), p)
            d2 = project(AnisoIndex(1.5, 3.0), p)
            np.testing.assert_allclose(d1.z, d2.z, atol=1e-12)


class TestScalePoint:
    def test_direct_powers(self):
        q = scale_point(AnisoIndex(1.0, 2.0), PhasePoint(1.0, 1.0), 4.0)
        np.testing.assert_allclose(q.x, [4.0])
        np.testing.assert_allclose(q.xi, [16.0])

    def test_identity(self):
        p = PhasePoint([1.0, -2.0], [0.5, 3.0])
        q = scale_point(AnisoIndex(0.9, 1.1), p, 1.0)
        np.testing.assert_allclose(q.as_vector(), p.as_vector())

    def test_bad_mu(self):
        with pytest.raises(DomainError):
            scale_point(AnisoIndex(1.0, 1.0), PhasePoint(1.0, 0.0), 0.0)


class TestGammaNeighborhoods:
    def test_projection_center_always_inside(self):
        rng = np.random.default_rng(23)
        for p in random_points(rng, 10):
            z0 = project(AnisoIndex(1.0, 2.0), p)
            assert in_gamma_nbhd(2.0, z0, 1e-9, p)

    def test_eps_above_two_is_everything(self):
        rng = np.random.default_rng(29)
        z0 = SphereDirection([0.0, 1.0])
        for p in random_points(rng, 25):
            assert in_gamma_nbhd(1.5, z0, 2.001, p)

    def test_orthogonal_direction_outside(self):
        # |(0,1) - (1,0)| = sqrt(2) > 0.1
        z0 = project(AnisoIndex(1.0, 2.0), PhasePoint(0.0, 1.0))
        assert not in_gamma_nbhd(2.0, z0, 0.1, PhasePoint(1.0, 0.0))

    def test_tilde_contains_curve_points(self):
        idx = AnisoIndex(1.0, 2.0)
        z0 = project(idx, PhasePoint(0.6, 1.7))
        for mu in (0.03, 0.7, 42.0):
            p = scale_point(idx, PhasePoint(z0.x, z0.xi), mu)
            assert in_gamma_tilde_nbhd(2.0, z0, 1e-6, p)

    def test_tilde_orthogonal_direction_outside(self):
        # min over lambda of |(lambda, 0) - (0, 1)| = 1 > 0.1
        z0 = SphereDirection([0.0, 1.0])
        p = PhasePoint(1.0, 0.0)
        assert gamma_tilde_distance(2.0, z0, p) >= 1.0 - 1e-9
        assert not in_gamma_tilde_nbhd(2.0, z0, 0.1, p)

    def test_neighborhood_families_equivalent_on_samples(self):
        # for each eps there is delta with Gamma_delta inside Gamma-tilde_eps
        rng = np.random.default_rng(31)
        sigma = 2.0
        z0 = project(AnisoIndex(1.0, sigma), PhasePoint(0.8, -0.4))
        eps = 0.2
        delta = 0.05
        hits = 0
        for p in random_points(rng, 400):
            if in_gamma_nbhd(sigma, z0, delta, p):
                hits += 1
                assert in_gamma_tilde_nbhd(sigma, z0, eps, p)
        assert hits > 0


class TestConicSetDistance:
    def test_member_distance_zero(self):
        idx = AnisoIndex(1.0, 2.0)
        p = PhasePoint(0.9, 2.2)
        w = project(idx, p)
        assert dist_to_conic_set(2.0, w.z[None, :], p) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        g = np.array([[0.0, 1.0]])
        p = PhasePoint(1.0, 0.0)
        assert dist_to_conic_set(2.0, g, p) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            dist_to_conic_set(1.0, np.zeros((0, 2)), PhasePoint(1.0, 0.0))

    def test_membership_equals_threshold(self):
        rng = np.random.default_rng(37)
        sigma = 1.5
        g = [project(AnisoIndex(1.0, sigma), p) for p in random_points(rng, 5)]
        eps = 0.3
        for p in random_points(rng, 50):
            dist = dist_to_conic_set(sigma, np.stack([w.z for w in g]), p)
            inside = any(in_gamma_nbhd(sigma, w, eps, p) for w in g)
            assert inside == (dist < eps)


class TestGrowthBounds:
    def test_two_sided_bounds(self):
        # Each term of the defining equation is at most 1, so lambda >= max(|x|^(1/t),
        # |xi|^(1/s)) >= rho / 2; one of them is at least 1/2, so lambda <= c2 rho
        # with c2 = 2^(1 / (2 min(t, s))).
        rng = np.random.default_rng(41)
        for idx in random_indices(rng, 3):
            pts = random_points(rng, 200, d=2)
            xs = np.array([p.x for p in pts])
            xis = np.array([p.xi for p in pts])
            rho = (np.linalg.norm(xs, axis=1) ** (1 / idx.t)
                   + np.linalg.norm(xis, axis=1) ** (1 / idx.s))
            lam = lambda_solve_many(idx, xs, xis)
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
