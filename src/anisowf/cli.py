"""Command-line entry point: JSON experiment configs in, report files out.

Subcommands: stft, wf, chirp-verify, propagate-verify, kernel-check,
relation, seminorm.  Exit codes: 0 success, 1 any other toolkit error
(e.g. a domain check of the estimator), 2 configuration error, 3
resolution/aliasing/reach error.  Reports embed the resolved config and
toolkit version; floats are written with a fixed 17-digit format so equal
configs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import __version__, estimator
from .chirp import compare_wf, predict_chirp_wf
from .errors import (AliasingError, ConfigError, ResolutionError, ToolkitError,
                     TruncationError)
from .estimator import (check_graph_condition, cone_constant, estimate_kernel_wf,
                        estimate_wf)
from .evolution import EvolutionSpec, kernel_signal, predict_transport, propagate
from .geometry import AnisoIndex, angle_to_nearest
from .io import (dump_json, poly_from_dict, prediction_to_dict,
                 point_set_to_list, read_signal_csv, wf_estimate_to_dict,
                 write_profile_csv, write_signal_csv, write_stft_csv)
from .relation import PointSet, compose, sconic_closure_check
from .signals import (chirp_signal, delta_signal, gaussian_signal, make_chirp,
                      make_gaussian, make_windowed_chirp, one_signal)
from .stft import WindowSpec, classical_seminorm, moyal_error, stft_grid, stft_seminorm


def cfg_get(cfg, path, convert=None, required=True, default=None):
    """Value at a dotted config path, passed through convert when given.

    A missing required field, or a value that convert rejects with a
    TypeError, ValueError, OverflowError, OSError or ConfigError, raises
    ConfigError naming the path; a missing optional field gives default as is.
    """
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing field: {path}")
            return default
        node = node[part]
    if convert is None:
        return node
    try:
        return convert(node)
    except (TypeError, ValueError, OverflowError, OSError, ConfigError) as exc:
        raise ConfigError(f"{path}: invalid value {node!r} ({exc})") from None


def _float_list(values) -> list:
    return [float(v) for v in values]


def _sweep_counts(values) -> tuple:
    """The four product-sweep counts (n_psi, n_a, n_b, n_circle)."""
    if not (isinstance(values, list) and len(values) == 4
            and all(isinstance(v, int) and v >= 0 for v in values)):
        raise ValueError("expected a list of four non-negative integers")
    return tuple(values)


def parse_index(cfg, path="index") -> AnisoIndex:
    t = cfg_get(cfg, f"{path}.t", float)
    s = cfg_get(cfg, f"{path}.s", float)
    if not (t > 0.5 and s > 0.5):
        raise ConfigError(f"{path}: need t, s > 1/2 for a Gaussian window, got ({t}, {s})")
    if not t + s > 1.0:
        raise ConfigError(f"{path}: need t + s > 1, got ({t}, {s})")
    return AnisoIndex(t, s)


def parse_window(cfg) -> WindowSpec:
    width = cfg_get(cfg, "window.width", float, required=False, default=1.0)
    if not width > 0.0:
        raise ConfigError("window.width: must be positive")
    return WindowSpec(width)


def parse_signal(cfg, path="signal"):
    cfg_get(cfg, path)

    def field(name, convert=None, required=True, default=None):
        return cfg_get(cfg, f"{path}.{name}", convert, required, default)

    kind = field("kind")
    if kind == "gaussian":
        return make_gaussian(field("d", int, required=False, default=1),
                             field("n", int), field("dx", float),
                             field("width", float, required=False, default=1.0))
    if kind == "chirp":
        phase = field("phase", poly_from_dict)
        n = field("n", int)
        dx = field("dx", float)
        env = field("envelope_width", float, required=False)
        if env is not None:
            level = field("alias_guard_level", float, required=False, default=1e-14)
            return make_windowed_chirp(phase, n, dx, env, guard_level=level)
        return make_chirp(phase, n, dx)
    if kind == "file":
        return field("path", read_signal_csv)
    if kind == "analytic-gaussian":
        return gaussian_signal(field("width", float, required=False, default=1.0),
                               field("d", int, required=False, default=1))
    if kind == "analytic-one":
        return one_signal(field("d", int, required=False, default=1))
    if kind == "analytic-delta":
        return delta_signal(field("d", int, required=False, default=1))
    if kind == "analytic-chirp":
        return chirp_signal(field("phase", poly_from_dict))
    raise ConfigError(f"{path}.kind: unknown signal kind {kind!r}")


def parse_estimator_opts(cfg, circle: bool = True) -> dict:
    """Estimator keyword arguments; circle adds the d = 1 sweep's own two."""
    def opt(path, convert, default):
        return cfg_get(cfg, path, convert, required=False, default=default)

    opts = {
        "lambda_range": (opt("lambda.min", float, estimator.LAMBDA_MIN),
                         opt("lambda.max", float, estimator.LAMBDA_MAX)),
        "n_lambda": opt("lambda.n", int, estimator.DEFAULT_N_LAMBDA),
        "r_threshold": opt("r_threshold", float, estimator.DEFAULT_THRESHOLD),
        "floor": opt("floor", float, estimator.DEFAULT_FLOOR),
    }
    if not opts["r_threshold"] > 0.0:
        raise ConfigError("r_threshold: must be positive")
    if not opts["floor"] > 0.0:
        raise ConfigError("floor: must be positive")
    if circle:
        opts["sphere_samples"] = opt("sphere_samples", int, estimator.DEFAULT_SPHERE_SAMPLES)
        opts["cone_steps"] = opt("cone_steps", int, estimator.DEFAULT_CONE_STEPS)
    return opts


class OutputTracker:
    """Collects written paths so partial outputs can be removed on failure."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.paths = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name):
        p = os.path.join(self.outdir, name)
        self.paths.append(p)
        return p

    def write_json(self, name, payload):
        with open(self.path(name), "w") as fh:
            fh.write(dump_json(payload))
            fh.write("\n")

    def cleanup(self):
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)


def report_envelope(config, seed, body):
    return {"toolkit_version": __version__, "seed": seed, "config": config, **body}


def cmd_stft(config, out, seed):
    sig = parse_signal(config)
    if sig.dim != 1:
        raise ConfigError("signal: the stft command sweeps 1-d signals")
    w = parse_window(config)
    grid = stft_grid(sig, w)
    write_stft_csv(out.path("stft_grid.csv"), grid)
    out.write_json("moyal.json", report_envelope(config, seed, {
        "moyal_error": moyal_error(sig, grid),
        "signal_norm": sig.norm(),
        "stft_norm": grid.l2_norm(),
    }))


def cmd_wf(config, out, seed):
    sig = parse_signal(config)
    w = parse_window(config)
    idx = parse_index(config)
    opts = parse_estimator_opts(config)
    est = estimate_wf(sig, w, idx, **opts)
    out.write_json("wf_estimate.json",
                   report_envelope(config, seed, wf_estimate_to_dict(est)))
    write_profile_csv(out.path("profiles.csv"), est)


def cmd_chirp_verify(config, out, seed):
    phase = cfg_get(config, "phase", poly_from_dict)
    idx = parse_index(config)
    w = parse_window(config)
    opts = parse_estimator_opts(config)
    tol = cfg_get(config, "tol_angle", float, required=False, default=0.09)
    pred = predict_chirp_wf(phase, idx)
    est = estimate_wf(chirp_signal(phase), w, idx, **opts)
    report = compare_wf(est, pred, tol)
    out.write_json("estimate.json", wf_estimate_to_dict(est))
    out.write_json("prediction.json", prediction_to_dict(pred))
    out.write_json("report.json", report_envelope(config, seed, report))


def cmd_propagate_verify(config, out, seed):
    symbol = cfg_get(config, "symbol", poly_from_dict)
    time = cfg_get(config, "time", float)
    spec = EvolutionSpec(symbol, time)
    sig = parse_signal(config)
    idx = parse_index(config)
    w = parse_window(config)
    opts = parse_estimator_opts(config)
    tol = cfg_get(config, "tol_angle", float, required=False, default=0.09)

    evolved = propagate(sig, spec)
    write_signal_csv(out.path("evolved.csv"), evolved)
    before = estimate_wf(sig, w, idx, **opts)
    after = estimate_wf(evolved, w, idx, **opts)
    transported = predict_transport(
        [e.direction for e in before.entries if e.singular], spec, idx)

    after_dirs = [e.direction.z for e in after.entries if e.singular]
    trans_dirs = [d.z for d in transported]
    gap_fwd = _directed_gap(after_dirs, trans_dirs)
    gap_back = _directed_gap(trans_dirs, after_dirs)
    ok = (gap_fwd is not None and gap_back is not None
          and gap_fwd <= tol and gap_back <= tol)
    out.write_json("before.json", wf_estimate_to_dict(before))
    out.write_json("after.json", wf_estimate_to_dict(after))
    out.write_json("transported.json", {"directions": [list(map(float, z)) for z in trans_dirs]})
    out.write_json("report.json", report_envelope(config, seed, {
        "containment_after_in_transported": gap_fwd,
        "containment_transported_in_after": gap_back,
        "pass": bool(ok),
    }))


def _directed_gap(a, b):
    """max over a of the angle to the nearest member of b; None when either is empty."""
    if not a or not b:
        return None
    return max(angle_to_nearest(z, b) for z in a)


def cmd_kernel_check(config, out, seed):
    symbol = cfg_get(config, "symbol", poly_from_dict)
    time = cfg_get(config, "time", float)
    spec = EvolutionSpec(symbol, time)
    idx = parse_index(config)
    w = parse_window(config)
    n = cfg_get(config, "n", int)
    dx = cfg_get(config, "dx", float)
    eps_angle = cfg_get(config, "eps_angle", float, required=False, default=0.05)
    opts = parse_estimator_opts(config, circle=False)
    sweep = cfg_get(config, "sweep", _sweep_counts, required=False,
                    default=estimator.DEFAULT_SWEEP)
    moll_frac = cfg_get(config, "moll_width_frac", float, required=False, default=0.25)
    halve = cfg_get(config, "halve_check", bool, required=False, default=False)
    xi_cap_frac = cfg_get(config, "xi_reach_moll_frac", float, required=False)

    def run(frac):
        wm = frac * math.pi / dx
        kernel = kernel_signal(spec, n, dx, moll_width=wm)
        cap = None if xi_cap_frac is None else xi_cap_frac * wm
        est = estimate_kernel_wf(kernel, w, idx, sweep=sweep, seed=seed,
                                 xi_reach_abs=cap, **opts)
        graph = check_graph_condition(est, eps_angle)
        return est, graph, cone_constant(est, idx)

    est, graph, c_val = run(moll_frac)
    body = {
        "wf1_empty": graph["wf1_empty"],
        "wf2_empty": graph["wf2_empty"],
        "offenders": graph["offenders"],
        "cone_constant": c_val,
        "moll_width_frac": moll_frac,
    }
    if halve:
        _, graph2, c2 = run(moll_frac / 2.0)
        body["cone_constant_halved"] = c2
        body["cone_constant_stable_2digits"] = f"{c_val:.2g}" == f"{c2:.2g}"
    out.write_json("kernel_wf.json", wf_estimate_to_dict(est))
    out.write_json("report.json", report_envelope(config, seed, body))


def cmd_relation(config, out, seed):
    tol = cfg_get(config, "tolerance", float, required=False, default=1e-9)
    if not tol > 0.0:
        raise ConfigError("tolerance: must be positive")
    a = cfg_get(config, "A", lambda pts: PointSet(pts, tol))
    b = cfg_get(config, "B", lambda pts: PointSet(pts, tol))
    composed = compose(a, b)
    body = {"composition": point_set_to_list(composed)}
    scales = cfg_get(config, "scales", required=False)
    if scales:
        idx = parse_index(config)
        body["sconic_closed"] = sconic_closure_check(composed, idx, scales) \
            if len(composed) else True
    out.write_json("composition.json", report_envelope(config, seed, body))


def cmd_seminorm(config, out, seed):
    sig = parse_signal(config)
    idx = parse_index(config)
    kind = cfg_get(config, "kind", required=False, default="stft")
    rows = []
    if kind == "stft":
        w = parse_window(config)
        for r in cfg_get(config, "r_values", _float_list):
            val = stft_seminorm(sig, w, idx, r)
            rows.append({"r": r,
                         "value": None if math.isinf(val) else val,
                         "divergent": math.isinf(val)})
    elif kind == "classical":
        order = cfg_get(config, "max_order", int, required=False, default=4)
        for h in cfg_get(config, "h_values", _float_list):
            val = classical_seminorm(sig, idx, h, order)
            rows.append({"h": h, "value": val, "divergent": False})
    else:
        raise ConfigError(f"kind: unknown seminorm kind {kind!r}")
    out.write_json("seminorm.json", report_envelope(config, seed, {"values": rows}))


COMMANDS = {
    "stft": cmd_stft,
    "wf": cmd_wf,
    "chirp-verify": cmd_chirp_verify,
    "propagate-verify": cmd_propagate_verify,
    "kernel-check": cmd_kernel_check,
    "relation": cmd_relation,
    "seminorm": cmd_seminorm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisowf",
        description="Anisotropic wave front set experiments from JSON configs.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = OutputTracker(args.out)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            COMMANDS[args.command](config, out, args.seed)
    except ConfigError as exc:
        out.cleanup()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, AliasingError, TruncationError) as exc:
        out.cleanup()
        print(f"resolution error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
