import numpy as np
import pytest

from anisowf.errors import DomainError
from anisowf.evolution import EvolutionSpec, hamiltonian_flow
from anisowf.geometry import AnisoIndex, PhasePoint, project
from anisowf.poly import poly_1d
from anisowf.relation import (PointSet, compose, compose_via_projection,
                              proj_13, proj_2neg4, sconic_closure_check)


class TestProjections:
    def test_proj_13(self):
        a = PointSet([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_allclose(proj_13(a).points, [[1.0, 3.0]])

    def test_proj_2neg4(self):
        a = PointSet([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_allclose(proj_2neg4(a).points, [[2.0, -4.0]])


class TestCompose:
    def test_single_match(self):
        a = PointSet([[1.0, 2.0, 3.0, -4.0]])
        b = PointSet([[2.0, 4.0]])
        out = compose(a, b)
        np.testing.assert_allclose(out.points, [[1.0, 3.0]])

    def test_empty_b(self):
        a = PointSet([[1.0, 2.0, 3.0, -4.0]])
        out = compose(a, PointSet(np.zeros((0, 2))))
        assert len(out) == 0

    def test_eta_mismatch(self):
        a = PointSet([[1.0, 2.0, 3.0, -4.0]])
        b = PointSet([[2.0, 5.0]])
        assert len(compose(a, b)) == 0

    def test_matches_projection_formula_randomized(self):
        # exact agreement of the two formulations on random finite instances
        rng = np.random.default_rng(42)
        for _ in range(1000):
            na, nb = rng.integers(1, 6, size=2)
            a_pts = rng.integers(-2, 3, size=(na, 4)).astype(float)
            b_pts = rng.integers(-2, 3, size=(nb, 2)).astype(float)
            a_pts[np.linalg.norm(a_pts, axis=1) == 0, 0] = 1.0
            b_pts[np.linalg.norm(b_pts, axis=1) == 0, 0] = 1.0
            a = PointSet(a_pts, tolerance=0.5)
            b = PointSet(b_pts, tolerance=0.5)
            left = compose(a, b).points
            right = compose_via_projection(a, b).points
            assert left.shape == right.shape
            np.testing.assert_array_equal(left, right)

    def test_monotone_in_b(self):
        rng = np.random.default_rng(7)
        a = PointSet(rng.integers(-2, 3, size=(8, 4)).astype(float) + 0.5)
        b_small = PointSet(rng.integers(-2, 3, size=(3, 2)).astype(float) + 0.5)
        b_big = PointSet(np.concatenate([
            b_small.points, rng.integers(-2, 3, size=(3, 2)).astype(float) + 0.25]))
        small = {tuple(r) for r in compose(a, b_small).points}
        big = {tuple(r) for r in compose(a, b_big).points}
        assert small <= big

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            compose(PointSet([[1.0, 0.0]]), PointSet([[1.0, 0.0]]))

    @pytest.mark.parametrize("op", [compose, compose_via_projection])
    def test_empty_result_keeps_the_width(self, op):
        # an 8-column A and a 4-column B with no match compose to a (0, 4) set
        a = PointSet([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
        b = PointSet([[9.0, 9.0, 9.0, 9.0]])
        assert op(a, b).points.shape == (0, 4)
        assert op(a, PointSet(np.zeros((0, 4)))).points.shape == (0, 4)
        assert PointSet(np.zeros((0, 4))).ambient == 4
        assert PointSet([]).points.shape == (0, 2)

    def test_propagation_containment_from_kernel_oracle(self):
        # A sampled from the flow graph {(x1 + t grad p_m(x2), x1, x2, -x2)}
        # composed with B recovers the flow image of B directionwise
        idx = AnisoIndex(1.2, 1.2)
        spec = EvolutionSpec(poly_1d(0.0, 0.0, 1.0), 0.3)
        rng = np.random.default_rng(3)
        b_pts = []
        a_pts = []
        for _ in range(40):
            x1, x2 = rng.uniform(-2, 2), rng.uniform(0.1, 2)
            b_pts.append([x1, x2])
            a_pts.append([x1 + 2.0 * spec.time * x2, x1, x2, -x2])
        a = PointSet(a_pts, tolerance=1e-9)
        b = PointSet(b_pts, tolerance=1e-9)
        out = compose(a, b)
        assert len(out) == len(b)
        for row in out.points:
            x, xi = row[0], row[1]
            # the output is the Hamiltonian image of some b-point
            src = hamiltonian_flow(spec, PhasePoint(x - 2.0 * spec.time * xi, xi))
            d = project(idx, src).z - project(idx, PhasePoint(x, xi)).z
            assert np.linalg.norm(d) < 1e-9


class TestSconicClosure:
    def test_single_orbit(self):
        idx = AnisoIndex(1.0, 2.0)
        assert sconic_closure_check(PointSet([[1.0, 1.0]]), idx, [2.0, 5.0])

    def test_orbit_family(self):
        idx = AnisoIndex(1.0, 2.0)
        base = PhasePoint(0.6, 1.2)
        from anisowf.geometry import scale_point
        pts = [np.concatenate([scale_point(idx, base, mu).x,
                               scale_point(idx, base, mu).xi]) for mu in (0.5, 1.0, 2.0)]
        assert sconic_closure_check(PointSet(pts), idx, [0.3, 3.0])

    def test_composition_directions_scale_invariant(self):
        # compose(scaled A, scaled B) projects onto the directions of compose(A, B)
        idx = AnisoIndex(1.0, 1.0)
        rng = np.random.default_rng(11)
        a_pts = rng.uniform(0.5, 2.0, size=(6, 4))
        b_pts = a_pts[:, [1, 3]] * [1.0, -1.0]   # guarantee matches
        a = PointSet(a_pts, 1e-9)
        b = PointSet(b_pts, 1e-9)
        out = compose(a, b)
        mu = 3.0
        a2 = PointSet(a_pts * mu, 1e-6)
        b2 = PointSet(b_pts * mu, 1e-6)
        out2 = compose(a2, b2)
        assert len(out) == len(out2)
        dirs1 = sorted(tuple(np.round(project(idx, PhasePoint(r[:1], r[1:])).z, 9))
                       for r in out.points)
        dirs2 = sorted(tuple(np.round(project(idx, PhasePoint(r[:1], r[1:])).z, 9))
                       for r in out2.points)
        assert dirs1 == dirs2

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            PointSet([[0.0, 0.0]])
