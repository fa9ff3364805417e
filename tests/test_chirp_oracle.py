import math

import numpy as np
import pytest

from anisowf.chirp import compare_wf, predict_chirp_wf
from anisowf.errors import UnsupportedRegimeError
from anisowf.estimator import STATUSES, WFEstimate
from anisowf.geometry import AnisoIndex, project_many
from anisowf.poly import eval_grad, poly_1d, principal_part


def make_estimate(dirs, idx, statuses=None):
    """d = 1 rows along dirs, normalised, each with rate 0 and the given
    status (singular by default)."""
    z = np.array(dirs, dtype=float).reshape(-1, 2)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    n = len(z)
    status = np.array([STATUSES.index(s) for s in statuses or ["singular"] * n], dtype=int)
    return WFEstimate(idx, 1.0, z, status, np.zeros(n), np.zeros(n), np.zeros(n), np.full(n, 10))


class TestRegimes:
    def test_quadratic_graph_regime(self):
        # m = 2, s = t: graph {(x, 2x)}; sigma = 1 projection is normalization
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), AnisoIndex(1.2, 1.2))
        assert pred.kind == "gradient-graph"
        assert pred.equality  # even 1-d phase
        want = np.array([1.0, 2.0]) / math.sqrt(5.0)
        best = min(np.linalg.norm(d - want) for d in pred.directions)
        assert best < 1e-9
        best_neg = min(np.linalg.norm(d + want) for d in pred.directions)
        assert best_neg < 1e-9

    def test_cubic_graph_regime_sigma_two(self):
        # m = 3, s = 2t: directions are the sigma = 2 projections of (x, 3x^2)
        idx = AnisoIndex(0.6, 1.2)
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 0.0, 1.0), idx)
        assert pred.kind == "gradient-graph"
        assert pred.equality  # odd 1-d phase
        want = project_many(idx, [[1.0]], [[3.0]])[0]
        assert min(np.linalg.norm(d - want) for d in pred.directions) < 1e-9

    def test_graph_generator_consistency(self):
        # every emitted direction lies on the projected graph orbit
        idx = AnisoIndex(0.6, 1.2)
        pm = principal_part(poly_1d(0.0, 1.0, 0.0, 1.0))
        pred = predict_chirp_wf(poly_1d(0.0, 1.0, 0.0, 1.0), idx)
        dirs = pred.directions[:16]
        # reconstruct a graph point from each direction's x component sign
        xs = np.where(dirs[:, :1] > 0, 1.0, -1.0)
        graph = project_many(idx, xs, eval_grad(pm, xs))
        assert np.all(np.linalg.norm(graph - dirs, axis=1) < 1e-9)

    def test_x_axis_regime(self):
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), AnisoIndex(1.0, 2.5))
        assert pred.kind == "x-axis"
        assert pred.equality
        np.testing.assert_allclose(sorted(pred.directions[:, 0].tolist()), [-1.0, 1.0])
        np.testing.assert_allclose(pred.directions[:, 1], 0.0)

    def test_xi_axis_regime(self):
        # every c x^m with c != 0 vanishes only at 0, so it is elliptic however
        # small c is: an absolute cut once refused 1e-10 x^3
        for c in (1.0, 1e-10):
            pred = predict_chirp_wf(poly_1d(0.0, 0.0, 0.0, c), AnisoIndex(1.5, 1.2))
            assert pred.kind == "xi-axis"
            assert not pred.equality  # odd phase: equality only stated for even
            np.testing.assert_array_equal(pred.directions, [[0.0, 1.0], [0.0, -1.0]])

    def test_unsupported_regimes(self):
        with pytest.raises(UnsupportedRegimeError):
            # s = t(m-1) but t <= 1/(m-1)
            predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), AnisoIndex(0.9, 0.9))
        with pytest.raises(UnsupportedRegimeError):
            # s > t(m-1) but t(m-1) <= 1
            predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), AnisoIndex(0.8, 1.5))
        with pytest.raises(UnsupportedRegimeError):
            # t(m-1) > s but s <= 1
            predict_chirp_wf(poly_1d(0.0, 0.0, 0.0, 1.0), AnisoIndex(2.0, 0.9))

    def test_regimes_exclusive(self):
        phase = poly_1d(0.0, 0.0, 1.0)
        kinds = set()
        for idx in (AnisoIndex(1.2, 1.2), AnisoIndex(1.0, 2.5), AnisoIndex(2.5, 1.2)):
            kinds.add(predict_chirp_wf(phase, idx).kind)
        assert kinds == {"gradient-graph", "x-axis", "xi-axis"}

    def test_parity_flag_for_mixed_phase(self):
        # x^2 + 3x + 1 is neither even nor odd: containment only
        pred = predict_chirp_wf(poly_1d(1.0, 3.0, 1.0), AnisoIndex(1.2, 1.2))
        assert not pred.equality


class TestCompareWF:
    def test_exact_match(self):
        idx = AnisoIndex(1.2, 1.2)
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), idx)
        est = make_estimate(list(pred.directions), idx)
        report = compare_wf(est, pred, tol_angle=0.05)
        assert report["pass"]
        assert report["max_angle_error"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_estimate_vs_equality_prediction(self):
        idx = AnisoIndex(1.2, 1.2)
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), idx)
        est = make_estimate([], idx)
        report = compare_wf(est, pred, tol_angle=0.05)
        assert not report["pass"]
        assert len(report["misses"]) == len(pred.directions)

    @pytest.mark.parametrize("status, misses, coverage", [
        ("below-floor", 0, 0.5),   # counted as a miss before coverage
        ("unreachable", 0, 0.5),
        ("regular", 1, 1.0),
        (None, 1, 0.5),            # no row within tol_angle at all
    ])
    def test_uncovered_direction_is_no_miss(self, status, misses, coverage):
        # x^2 at (1.2, 1.2) predicts exactly +-(1, 2)/sqrt5, with equality
        idx = AnisoIndex(1.2, 1.2)
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), idx)
        assert pred.equality and len(pred.directions) == 2
        rows = [([1.0, 2.0], "singular"), ([0.0, 1.0], "regular")]
        if status is not None:
            rows.append(([-1.0, -2.0], status))
        est = make_estimate([z for z, _ in rows], idx, [s for _, s in rows])
        report = compare_wf(est, pred, tol_angle=0.05)
        assert not report["violations"]
        assert len(report["misses"]) == misses
        assert report["coverage"] == coverage
        assert report["pass"] == (misses == 0)

    def test_off_prediction_direction_is_violation(self):
        idx = AnisoIndex(1.2, 1.2)
        pred = predict_chirp_wf(poly_1d(0.0, 0.0, 1.0), idx)
        est = make_estimate([[0.0, 1.0]], idx)
        report = compare_wf(est, pred, tol_angle=0.05)
        assert report["violations"]
        assert not report["pass"]
