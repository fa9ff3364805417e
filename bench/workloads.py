"""The benchmark's workloads: inputs made from a seed, and verdict checks.

Each workload is a list of steps taken from the frozen acceptance fixtures.
A ``cli`` step is the argv a user would type after ``anisowf``; the library
steps (``relation-pairs``, ``tensor-sweep``) are acceptance criterion 9,
which has no CLI command.  :func:`prepare` writes a run directory holding
every config and input, so the program receives only generated inputs.
:func:`check` reads a step's outputs after the timed region and applies the
acceptance criterion's own check and tolerance.  Verdicts are compared, not
bytes: magnitudes may legitimately move in the last digits.

The seed drives the randomness the fixtures have: ``kernel-check --seed``
and the tensor sweep (refinement jitter), the relation instances
(generator seed 42 + seed) and the ``grid-io`` spot-check rows.  Seed 0
reproduces the fixtures.  ``sweep-1d`` and ``chirp-quadrature`` have no
random input; their seed only reaches the reports.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

XSQ = {"dim": 1, "coeffs": [{"alpha": [2], "c": 1.0}]}
XCUBE = {"dim": 1, "coeffs": [{"alpha": [3], "c": 1.0}]}
WINDOW = {"width": 1.0}

# criteria 6 and 7: estimator options of the propagation fixture
SWEEP_OPTS = {
    "index": {"t": 1.2, "s": 1.2}, "window": WINDOW, "sphere_samples": 720,
    "lambda": {"min": 2.0, "max": 30.0, "n": 24}, "r_threshold": 0.26,
    "floor": 1e-6, "cone_steps": 1,
}

CONFIGS = {
    # criterion 6: windowed x^2 chirp, n = 8192, evolved to t = 0.25
    "propagate.json": {
        "symbol": XSQ, "time": 0.25,
        "signal": {"kind": "chirp", "n": 8192, "dx": 0.035, "phase": XSQ,
                   "envelope_width": 7.0, "alias_guard_level": 2e-7},
        **SWEEP_OPTS, "tol_angle": 0.09,
    },
    "wf.json": {"signal": {"kind": "file", "path": "propagate/evolved.csv"}, **SWEEP_OPTS},
    # criterion 4: x^3 at index (0.6, 1.2)
    "chirp.json": {
        "phase": XCUBE, "index": {"t": 0.6, "s": 1.2}, "window": WINDOW,
        "sphere_samples": 720, "lambda": {"min": 2.0, "max": 2000.0, "n": 24},
        "r_threshold": 1.0, "floor": 1e-8, "cone_steps": 1, "tol_angle": 0.1,
    },
    # criterion 8 without the halving run
    "kernel.json": {
        "symbol": XSQ, "time": 0.3, "index": {"t": 1.2, "s": 1.2}, "window": WINDOW,
        "n": 512, "dx": 0.1108, "eps_angle": 0.05, "sweep": [8, 24, 24, 64],
        "lambda": {"min": 2.0, "max": 13.0, "n": 24}, "r_threshold": 0.13,
        "floor": 1e-11, "moll_width_frac": 0.6, "xi_reach_moll_frac": 1.0,
        "halve_check": False,
    },
    # criterion 2's reference grid
    "stft.json": {"signal": {"kind": "gaussian", "n": 1024, "dx": 0.04}, "window": WINDOW},
}

WORKLOADS = {
    "sweep-1d": [("propagate-verify", "propagate.json", "propagate"),
                 ("wf", "wf.json", "wf")],
    "chirp-quadrature": [("chirp-verify", "chirp.json", "chirp")],
    "kernel-4d": [("kernel-check", "kernel.json", "kernel"),
                  ("relation-pairs", None, None),
                  ("tensor-sweep", None, None)],
    "grid-io": [("stft", "stft.json", "stft")],
}

N_RELATION = 1000


def relation_instances(seed: int) -> list:
    """Criterion 9's random relation pairs; seed 0 reproduces the fixture."""
    rng = np.random.default_rng(42 + seed)
    out = []
    for _ in range(N_RELATION):
        na, nb = rng.integers(1, 6, size=2)
        a_pts = rng.integers(-2, 3, size=(na, 4)).astype(float)
        b_pts = rng.integers(-2, 3, size=(nb, 2)).astype(float)
        a_pts[np.linalg.norm(a_pts, axis=1) == 0, 0] = 1.0
        b_pts[np.linalg.norm(b_pts, axis=1) == 0, 0] = 1.0
        out.append([a_pts.tolist(), b_pts.tolist()])
    return out


def prepare(workload: str, seed: int, rundir: str) -> dict:
    """Write configs and inputs for one repetition; return the step plan."""
    steps = []
    for name, config, out in WORKLOADS[workload]:
        if name == "relation-pairs":
            with open(os.path.join(rundir, "relation_in.json"), "w") as fh:
                json.dump(relation_instances(seed), fh)
            steps.append({"name": name, "kind": name, "floor": 0.0,
                          "input": "relation_in.json", "output": "relation_out.json"})
        elif name == "tensor-sweep":
            # criterion 9's closed-form sweep of the pair 1 (x) delta
            steps.append({"name": name, "kind": name, "floor": 1e-8,
                          "output": "tensor_wf.json",
                          "kwargs": {"sweep": [6, 20, 20, 48], "lambda_range": [2.0, 100.0],
                                     "r_threshold": 1.0, "floor": 1e-8, "refine": 24,
                                     "seed": seed}})
        else:
            with open(os.path.join(rundir, config), "w") as fh:
                json.dump(CONFIGS[config], fh)
            steps.append({"name": name, "kind": "cli",
                          "floor": CONFIGS[config].get("floor", 0.0),
                          "argv": [name, "--config", config, "--out", out,
                                   "--seed", str(seed)]})
    plan = {"workload": workload, "seed": seed, "steps": steps}
    with open(os.path.join(rundir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    return plan


# ---------------------------------------------------------------------------
# verdict checks, one per step


def _load(rundir, *parts):
    with open(os.path.join(rundir, *parts)) as fh:
        return json.load(fh)


def _singular(estimate: dict) -> np.ndarray:
    dirs = [e["dir"] for e in estimate["entries"] if e["singular"]]
    return np.array(dirs, dtype=float).reshape(len(dirs), -1)


def _angle_to_set(z, dirs: np.ndarray) -> float:
    return float(np.min(np.arccos(np.clip(dirs @ np.asarray(z, dtype=float), -1.0, 1.0))))


def check_propagate_verify(rundir, step, seed):
    rep = _load(rundir, "propagate", "report.json")
    gaps = (rep["containment_after_in_transported"], rep["containment_transported_in_after"])
    ok = rep["pass"] is True and all(g is not None and g <= 0.09 for g in gaps)
    return ok, f"pass={rep['pass']} gaps={gaps} <= 0.09"


def check_wf(rundir, step, seed):
    after = _load(rundir, "propagate", "after.json")["entries"]
    wf = _load(rundir, "wf", "wf_estimate.json")["entries"]
    same_dirs = [e["dir"] for e in after] == [e["dir"] for e in wf]
    flags_after = [e["singular"] for e in after]
    n_sing = sum(flags_after)
    ok = same_dirs and n_sing > 0 and flags_after == [e["singular"] for e in wf]
    return ok, f"wf singular set from evolved.csv equals after.json ({n_sing} directions): {ok}"


def check_chirp_verify(rundir, step, seed):
    rep = _load(rundir, "chirp", "report.json")
    sing = _singular(_load(rundir, "chirp", "estimate.json"))
    pred = _load(rundir, "chirp", "prediction.json")["directions"]
    matched = sum(1 for g in pred if len(sing) and _angle_to_set(g, sing) <= 0.1)
    coverage = matched / len(pred) if pred else 0.0
    ok = not rep["violations"] and len(sing) > 0 and coverage >= 0.9
    return ok, f"violations {len(rep['violations'])}, oracle coverage {coverage:.0%} >= 90%"


def kernel_oracle_circle() -> np.ndarray:
    """Criterion 8's predicted kernel wave front directions (a circle in S^3)."""
    circle = []
    for t in np.linspace(0, 2 * math.pi, 721)[:-1]:
        v = np.array([math.cos(t) + 0.6 * math.sin(t), math.cos(t),
                      math.sin(t), -math.sin(t)])
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            circle.append(v / nv)
    return np.array(circle)


def check_kernel_check(rundir, step, seed):
    rep = _load(rundir, "kernel", "report.json")
    sing = _singular(_load(rundir, "kernel", "kernel_wf.json"))
    circle = kernel_oracle_circle()
    tube = max((min(_angle_to_set(z, circle), _angle_to_set(-z, circle)) for z in sing),
               default=math.inf)
    c = rep["cone_constant"]
    ok = (rep["wf1_empty"] is True and rep["wf2_empty"] is True
          and c is not None and math.isfinite(c) and tube <= 0.1)
    return ok, (f"wf1/wf2 empty at 0.05: {rep['wf1_empty']}/{rep['wf2_empty']}, "
                f"cone constant {c}, oracle tube {tube:.3f} <= 0.1")


def check_relation_pairs(rundir, step, seed):
    pairs = _load(rundir, step["output"])
    agree = sum(1 for left, right in pairs
                if np.array_equal(np.array(left, dtype=float), np.array(right, dtype=float)))
    ok = len(pairs) == N_RELATION and agree == N_RELATION
    return ok, f"compose == compose_via_projection on {agree} of {N_RELATION} instances"


def check_tensor_sweep(rundir, step, seed):
    sing = np.array(_load(rundir, step["output"]), dtype=float)
    off = max((math.asin(min(1.0, math.hypot(z[1], z[2]))) for z in sing), default=math.inf)
    return off <= 0.1, f"tensor off-plane angle {off:.3f} <= 0.1"


def check_stft(rundir, step, seed):
    from anisowf.geometry import PhasePoint
    from anisowf.signals import make_gaussian
    from anisowf.stft import WindowSpec, stft_point

    cfg = CONFIGS["stft.json"]["signal"]
    n = cfg["n"]
    moyal = _load(rundir, "stft", "moyal.json")["moyal_error"]
    rng = np.random.default_rng(seed)
    # criterion 2's spot check: rows whose window stays inside the grid
    wanted = {1 + int(rng.integers(n // 8, 7 * n // 8)) * n + int(rng.integers(0, n))
              for _ in range(100)}
    picked = {}
    lines = 0
    with open(os.path.join(rundir, "stft", "stft_grid.csv"), "rb") as fh:
        for lines, line in enumerate(fh, start=1):
            if lines - 1 in wanted:
                picked[lines - 1] = line
    u = make_gaussian(1, n, cfg["dx"])
    w = WindowSpec(1.0)
    worst = 0.0
    for line in picked.values():
        x, xi, re, im, _ = (float(v) for v in line.split(b","))
        worst = max(worst, abs(complex(re, im) - stft_point(u, w, PhasePoint(x, xi))))
    rows = lines - 1
    ok = moyal <= 1e-6 and rows == n * n and len(picked) == len(wanted) and worst <= 1e-8
    return ok, f"Moyal {moyal:.2e} <= 1e-6, {rows} rows, point/grid {worst:.2e} <= 1e-8"


CHECKS = {
    "propagate-verify": check_propagate_verify,
    "wf": check_wf,
    "chirp-verify": check_chirp_verify,
    "kernel-check": check_kernel_check,
    "relation-pairs": check_relation_pairs,
    "tensor-sweep": check_tensor_sweep,
    "stft": check_stft,
}


def check(rundir: str, step: dict, seed: int) -> tuple[bool, str]:
    """Verdict of one step whose program part succeeded; never raises."""
    try:
        return CHECKS[step["name"]](rundir, step, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable output: {exc!r}"
