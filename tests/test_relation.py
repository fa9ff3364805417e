import numpy as np
import pytest

from anisowf.errors import DomainError
from anisowf.evolution import EvolutionSpec, _flow_positions
from anisowf.geometry import AnisoIndex, project_many
from anisowf.poly import poly_1d
from anisowf.relation import PointSet, compose, compose_via_projection


def test_tiny_coordinates_are_not_the_origin():
    # |p|^2 underflows to 0 for coordinates near 1e-170; the point is still nonzero
    tiny = 1e-170
    assert PointSet([[tiny, 0.0]]).points.tolist() == [[tiny, 0.0]]
    a = PointSet([[tiny, tiny, 0.0, 0.0]])
    b = PointSet([[tiny, 0.0]])
    for fn in (compose, compose_via_projection):
        assert fn(a, b).points.tolist() == [[tiny, 0.0]], fn.__name__
    # (y, -eta) = (tiny, 0) matches B, and the output (x, xi) = (0, tiny) is kept
    a = PointSet([[0.0, tiny, tiny, 0.0]])
    for fn in (compose, compose_via_projection):
        assert fn(a, b).points.tolist() == [[0.0, tiny]], fn.__name__
    with pytest.raises(DomainError, match="origin"):
        PointSet([[tiny, 0.0], [0.0, -0.0]])
    # |x|^2 underflows or overflows; the composed point is kept as it is
    for scale in (tiny, 1e200):
        out = compose(PointSet([[scale, 1.0, 0.0, -1.0]]), PointSet([[1.0, 1.0]]))
        assert out.points.tolist() == [[scale, 0.0]]


def test_huge_coordinates_do_not_overflow_the_distance():
    # |p|^2 overflows for coordinates near 1e200; the RuntimeWarning filter
    # turns an overflowing norm into an error
    b = PointSet([[3e200, 1.0]])
    for fn in (compose, compose_via_projection):
        assert fn(PointSet([[1e200, 1.0, 0.0, -1.0]]), b).points.tolist() == [], fn.__name__
        assert fn(PointSet([[1e200, 3e200, 0.0, -1.0]]), b).points.tolist() == [[1e200, 0.0]]


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
            src = _flow_positions(spec, [[x - 2.0 * spec.time * xi]], [[xi]])
            d = project_many(idx, src, [[xi]]) - project_many(idx, [[x]], [[xi]])
            assert np.linalg.norm(d) < 1e-9


class TestSconicClosure:
    """Composition commutes with scaling both sets along their curves."""

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
        dirs1 = sorted(map(tuple, np.round(project_many(idx, out.points[:, :1],
                                                        out.points[:, 1:]), 9)))
        dirs2 = sorted(map(tuple, np.round(project_many(idx, out2.points[:, :1],
                                                        out2.points[:, 1:]), 9)))
        assert dirs1 == dirs2

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            PointSet([[0.0, 0.0]])
