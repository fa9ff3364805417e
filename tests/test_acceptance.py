"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Fixture parameters were
calibrated once and are frozen here; thresholds and floors are recorded in
each config dict.  The reference 1-d grid is n = 1024, dx = 0.04; the
propagation fixtures run at n = 8192, dx = 0.035 because the reference grid
trips the propagator's phase-resolution guard at t = 0.25 (the evolved
signal also outgrows the reference extent).
"""

import math
import time

import numpy as np

from anisowf.chirp import compare_wf, predict_chirp_wf
from anisowf.estimator import (check_graph_condition, cone_constant,
                               estimate_kernel_wf, estimate_wf)
from anisowf.evolution import EvolutionSpec, kernel_signal, predict_transport, propagate
from anisowf.geometry import AnisoIndex, PhasePoint, log_lambda_many, nearest_angles
from anisowf.poly import poly_1d
from anisowf.relation import PointSet, compose, compose_via_projection
from anisowf.signals import (chirp_signal, delta_signal, make_chirp, make_gaussian,
                             one_signal, tensor_signal)
from anisowf.stft import WindowSpec, istft, moyal_error, stft_grid, stft_point

XSQ = poly_1d(0.0, 0.0, 1.0)
XCUBE = poly_1d(0.0, 0.0, 0.0, 1.0)
WINDOW = WindowSpec(1.0)
REF_N, REF_DX = 1024, 0.04


def report(num, ok, budget, t0, detail):
    dt = time.time() - t0
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({dt:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"


def gap(a, b):
    """Largest angle from a row of a to the nearest row of b; inf when either is empty."""
    return float(np.max(nearest_angles(a, b))) if len(a) and len(b) else math.inf


def test_criterion_1_geometry():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    worst_res = 0.0
    for _ in range(10):
        t = rng.uniform(0.55, 3.0)
        s = rng.uniform(max(0.55, 1.05 - t), 3.0)
        idx = AnisoIndex(t, s)
        z = rng.standard_normal((1000, 4))
        z *= np.exp(rng.uniform(-3, 3, size=1000))[:, None] \
            / np.linalg.norm(z, axis=1)[:, None]
        mu = np.exp(rng.uniform(-2, 2, size=1000))
        xs, xis = z[:, :2], z[:, 2:]
        lam = np.exp(log_lambda_many(idx, xs, xis))
        res = np.abs(lam ** (-2 * t) * np.sum(xs * xs, axis=1)
                     + lam ** (-2 * s) * np.sum(xis * xis, axis=1) - 1.0)
        worst_res = max(worst_res, float(np.max(res)))
        lhs = np.exp(log_lambda_many(idx, xs * mu[:, None] ** t, xis * mu[:, None] ** s))
        worst_rel = max(worst_rel, float(np.max(np.abs(lhs - mu * lam) / (mu * lam))))
    ok = worst_rel <= 1e-10 and worst_res <= 1e-12
    report(1, ok, 5.0, t0,
           f"quasi-homogeneity rel err {worst_rel:.2e} <= 1e-10, "
           f"lambda residual {worst_res:.2e} <= 1e-12 over 10^4 samples")


def test_criterion_2_stft_suite():
    t0 = time.time()
    u = make_gaussian(1, REF_N, REF_DX)
    grid = stft_grid(u, WINDOW)
    moyal = moyal_error(u, grid)
    back = istft(grid, WINDOW)
    rt = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2) * u.dx)
    rng = np.random.default_rng(1)
    xs, xis = grid.positions(), grid.frequencies()
    agree = 0.0
    for _ in range(100):
        i = int(rng.integers(REF_N // 8, 7 * REF_N // 8))
        j = int(rng.integers(0, REF_N))
        v = stft_point(u, WINDOW, PhasePoint(xs[i], xis[j]))
        agree = max(agree, abs(grid.values[i, j] - v))
    ok = moyal <= 1e-6 and rt <= 1e-6 and agree <= 1e-8
    report(2, ok, 30.0, t0,
           f"Moyal {moyal:.2e} <= 1e-6, inversion L2 {rt:.2e} <= 1e-6, "
           f"point/grid {agree:.2e} <= 1e-8")


def test_criterion_3_quadratic_chirp():
    t0 = time.time()
    idx = AnisoIndex(1.2, 1.2)
    est = estimate_wf(chirp_signal(XSQ), WINDOW, idx, sphere_samples=720,
                      lambda_range=(2.0, 60.0), r_threshold=1.0, floor=1e-8,
                      cone_steps=1)
    sing = est.singular_directions()
    ridge = np.array([[1.0, 2.0], [-1.0, -2.0]]) / math.sqrt(5.0)
    spread = gap(sing, ridge)
    covered = gap(ridge, sing)
    control = estimate_wf(make_gaussian(1, REF_N, REF_DX), WINDOW, idx,
                          sphere_samples=720, lambda_range=(2.0, 60.0),
                          r_threshold=1.0, floor=1e-11, cone_steps=1)
    n_control = len(control.singular_directions())
    ok = spread <= 0.09 and covered <= 0.09 and n_control == 0
    report(3, ok, 120.0, t0,
           f"detected within {spread:.3f} rad of +-(1,2)/sqrt5 (tol 0.09), "
           f"ridge pair hit within {covered:.3f}, gaussian control {n_control} singular")


def test_criterion_4_cubic_chirp_anisotropic():
    t0 = time.time()
    idx = AnisoIndex(0.6, 1.2)
    pred = predict_chirp_wf(XCUBE, idx)
    est = estimate_wf(chirp_signal(XCUBE), WINDOW, idx, sphere_samples=720,
                      lambda_range=(2.0, 2000.0), r_threshold=1.0, floor=1e-8,
                      cone_steps=1)
    rep = compare_wf(est, pred, tol_angle=0.1)
    sing = est.singular_directions()
    coverage = float(np.mean(nearest_angles(pred.directions, sing) <= 0.1)) if len(sing) else 0.0
    ok = not rep["violations"] and coverage >= 0.9
    report(4, ok, 180.0, t0,
           f"graph containment max err {rep['max_angle_error']:.3f} <= 0.1, "
           f"oracle coverage {coverage:.0%} >= 90%")


def test_criterion_5_regime_propositions():
    t0 = time.time()
    # position-axis regime: x^2 at (1.0, 2.5); window end at the one-step
    # ridge crossing (2/step)^(2/3)
    idx_a = AnisoIndex(1.0, 2.5)
    est_a = estimate_wf(chirp_signal(XSQ), WINDOW, idx_a, sphere_samples=720,
                        lambda_range=(2.0, 38.0), r_threshold=1.0, floor=1e-8,
                        cone_steps=0)
    sing_a = est_a.singular_directions()
    step = 2.0 * math.pi / 720
    axes = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ok_a = max(gap(sing_a, axes), gap(axes, sing_a)) <= step * (1 + 1e-9)

    # frequency-axis regime: elliptic x^3 at (1.5, 1.2)
    idx_b = AnisoIndex(1.5, 1.2)
    est_b = estimate_wf(chirp_signal(XCUBE), WINDOW, idx_b, sphere_samples=720,
                        lambda_range=(2.0, 100.0), r_threshold=1.0, floor=1e-8,
                        cone_steps=1)
    spread_b = gap(est_b.singular_directions(), np.array([[0.0, 1.0], [0.0, -1.0]]))
    ok = ok_a and spread_b <= 0.1
    report(5, ok, 180.0, t0,
           f"x-axis regime within one step: {ok_a}; frequency-axis regime "
           f"detections within {spread_b:.3f} rad of +-(0,1) (tol 0.1)")


def test_criterion_6_propagation_flow():
    t0 = time.time()
    idx = AnisoIndex(1.2, 1.2)
    spec = EvolutionSpec(XSQ, 0.25)
    u0 = make_chirp(XSQ, 8192, 0.035, envelope_width=7.0, guard_level=2e-7)
    u1 = propagate(u0, spec)

    # closed-form oracle: evolved complex Gaussian, slope 1/(1+4t) = 1/2
    x = u0.axis_coords()
    gamma = 1.0 / (2.0 * 7.0 ** 2) - 1j
    a = 1.0 / (4.0 * gamma) + 1j * spec.time
    want = (2.0 * gamma) ** -0.5 * (2.0 * a) ** -0.5 * np.exp(-x * x / (4.0 * a))
    interior = np.abs(x) <= 0.5 * u0.extent
    l2_err = np.sqrt(np.sum(np.abs(u1.values - want)[interior] ** 2)
                     / np.sum(np.abs(want)[interior] ** 2))
    slope = -np.imag(1.0 / (4.0 * a))
    slope_err = abs(slope - 0.5)

    kw = dict(sphere_samples=720, lambda_range=(2.0, 30.0), r_threshold=0.26,
              floor=1e-6, cone_steps=1)
    before = estimate_wf(u0, WINDOW, idx, **kw)
    after = estimate_wf(u1, WINDOW, idx, **kw)
    trans = predict_transport(before.singular_directions(), spec, idx)
    after_dirs = after.singular_directions()
    gap1 = gap(after_dirs, trans)
    gap2 = gap(trans, after_dirs)
    ok = l2_err <= 1e-3 and slope_err <= 1e-3 and gap1 <= 0.09 and gap2 <= 0.09
    report(6, ok, 240.0, t0,
           f"transport containments {gap1:.3f}/{gap2:.3f} <= 0.09, "
           f"closed-form interior L2 {l2_err:.1e} <= 1e-3, slope err {slope_err:.1e}")


def test_criterion_7_invariant_regime():
    t0 = time.time()
    idx = AnisoIndex(3.0, 1.2)
    spec = EvolutionSpec(XSQ, 0.25)
    u0 = make_chirp(XSQ, 8192, 0.035, envelope_width=7.0, guard_level=2e-7)
    u1 = propagate(u0, spec)
    kw = dict(sphere_samples=720, lambda_range=(2.0, 9.6), r_threshold=0.26,
              floor=1e-6, cone_steps=1)
    before = estimate_wf(u0, WINDOW, idx, **kw).singular_directions()
    after = estimate_wf(u1, WINDOW, idx, **kw).singular_directions()
    step = 2.0 * math.pi / 720
    h = max(gap(before, after), gap(after, before))
    ok = h <= step * (1 + 1e-9)
    report(7, ok, 240.0, t0,
           f"before/after sets agree within {h / step:.2f} angular steps (tol 1)")


def test_criterion_8_kernel_graph_condition():
    t0 = time.time()
    dx = 0.1108
    idx = AnisoIndex(1.2, 1.2)
    spec = EvolutionSpec(XSQ, 0.3)
    xmax = math.pi / dx
    circle = []
    for t in np.linspace(0, 2 * math.pi, 721)[:-1]:
        v = np.array([math.cos(t) + 0.6 * math.sin(t), math.cos(t),
                      math.sin(t), -math.sin(t)])
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            circle.append(v / nv)

    def run(moll_frac):
        wm = moll_frac * xmax
        kernel = kernel_signal(spec, wm)
        est = estimate_kernel_wf(kernel, WINDOW, idx, sweep=(8, 24, 24, 64),
                                 lambda_range=(2.0, 13.0), r_threshold=0.13,
                                 floor=1e-11, refine=24, seed=0)
        return est

    est = run(0.6)
    graph = check_graph_condition(est, eps_angle=0.05)
    c_full = cone_constant(est, idx)
    sing = est.singular_directions()
    # angle from each singular direction, or its antipode, to the nearest circle point
    tube = gap(sing, np.vstack([circle, np.negative(circle)]))
    est_half = run(0.3)
    c_half = cone_constant(est_half, idx)
    stable = f"{c_full:.2g}" == f"{c_half:.2g}"
    # an empty trace counts only where regular rows near its plane confirm it
    ok = graph["wf1_confirmed"] and graph["wf2_confirmed"] and stable and tube <= 0.1 \
        and math.isfinite(c_full)
    report(8, ok, 600.0, t0,
           f"wf1/wf2 empty at 0.05: {graph['wf1_empty']}/{graph['wf2_empty']}, confirmed by "
           f"{graph['wf1_rows']['regular']}/{graph['wf2_rows']['regular']} regular rows, "
           f"cone constant {c_full:.3f} vs halved {c_half:.3f} (2-digit stable: {stable}), "
           f"oracle tube {tube:.3f} <= 0.1")


def test_criterion_9_relation_and_tensor():
    t0 = time.time()
    rng = np.random.default_rng(42)
    agree = True
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
        if left.shape != right.shape or not np.array_equal(left, right):
            agree = False
            break

    # closed-form STFTs; a lighter sweep keeps the 10 s budget comfortable
    pair = tensor_signal(one_signal(1), delta_signal(1))
    est = estimate_kernel_wf(pair, WINDOW, AnisoIndex(1.0, 1.0),
                             sweep=(6, 20, 20, 48), lambda_range=(2.0, 100.0),
                             r_threshold=1.0, floor=1e-8, refine=24, seed=0)
    sing = est.singular_directions()
    # product set of the pair: plane {(a, 0, 0, b)} in (x1, x2, xi1, xi2)
    off = max((math.asin(min(1.0, math.hypot(z[1], z[2]))) for z in sing), default=math.inf)
    ok = agree and off <= 0.1
    report(9, ok, 10.0, t0,
           f"compose == projection formula on 10^3 instances: {agree}, "
           f"tensor bound off-plane angle {off:.3f} <= 0.1")


def test_criterion_10_unitarity_invertibility():
    t0 = time.time()
    u = make_chirp(XSQ, 1024, 0.04, envelope_width=3.0)
    spec = EvolutionSpec(XSQ, 0.1)
    fwd = propagate(u, spec)
    norm_defect = abs(fwd.norm() / u.norm() - 1.0)
    back = propagate(fwd, EvolutionSpec(XSQ, -0.1))
    inv_err = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2) * u.dx)
    ok = norm_defect <= 1e-10 and inv_err <= 1e-9
    report(10, ok, 10.0, t0,
           f"norm defect {norm_defect:.1e} <= 1e-10, inversion {inv_err:.1e} <= 1e-9")
