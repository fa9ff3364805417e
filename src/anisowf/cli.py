"""Command-line entry point: JSON experiment configs in, report files out.

Subcommands: stft, wf, chirp-verify, propagate-verify, kernel-check,
relation, seminorm.  Exit codes: 0 success, 1 an output that cannot be
written or any other toolkit error (e.g. a domain check of the estimator),
2 configuration error, 3 resolution/aliasing/reach error.  Reports embed
the resolved config and toolkit version; floats are written with a fixed
17-digit format so equal configs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, estimator
from .chirp import compare_wf, predict_chirp_wf
from .errors import ConfigError, ResolutionError, ToolkitError, TruncationError
from .estimator import (check_graph_condition, cone_constant, estimate_kernel_wf,
                        estimate_wf)
from .evolution import EvolutionSpec, predict_transport, propagate, propagator_kernel
from .geometry import AnisoIndex, nearest_angles
from .io import (cfg_get, count, dimension, dump_json, list_of, number, polynomial,
                 positive, positive_count, read_signal_csv, text, wf_estimate_to_dict,
                 whole, write_profile_csv, write_signal_csv, write_stft_csv)
from .relation import PointSet, compose
from .signals import (MIN_WIDTH, SampledSignal, chirp_signal, delta_signal, gaussian_signal,
                      make_chirp, make_gaussian, one_signal)
from .stft import WindowSpec, moyal_error, stft_grid, stft_seminorm


def parse_index(cfg, path="index") -> AnisoIndex:
    t = cfg_get(cfg, f"{path}.t", number)
    s = cfg_get(cfg, f"{path}.s", number)
    if not (t > 0.5 and s > 0.5):
        raise ConfigError(f"{path}: need t, s > 1/2 for a Gaussian window, got ({t}, {s})")
    return AnisoIndex(t, s)


def width(v) -> float:
    """A Gaussian width, in [2^-511, 2^511] as a window's."""
    return WindowSpec(positive(v)).width


def envelope_width(v) -> float:
    """An envelope width: at least 2^-511; a larger one of any size runs."""
    x = positive(v)
    if not x >= MIN_WIDTH:
        raise ConfigError("expected a width of at least 2^-511")
    return x


def parse_window(cfg) -> WindowSpec:
    return cfg_get(cfg, "window.width", lambda v: WindowSpec(positive(v)), default=WindowSpec())


def parse_signal(cfg, path="signal"):
    def field(name, *args, **kwargs):
        return cfg_get(cfg, f"{path}.{name}", *args, **kwargs)

    kind = field("kind", text)
    field("d", dimension, default=1)   # read only to refuse a d other than 1
    if kind == "gaussian":
        return make_gaussian(1, field("n", positive_count), field("dx", positive),
                             field("width", width, default=1.0))
    if kind == "chirp":
        args = [field("phase", polynomial), field("n", positive_count),
                field("dx", positive)]
        env = field("envelope_width", envelope_width, default=None)
        if env is not None:  # the guard level is read only with an envelope
            args += [env, field("alias_guard_level", positive, default=1e-14)]
        return make_chirp(*args)
    if kind == "file":
        return field("path", lambda v: read_signal_csv(text(v)))
    if kind == "analytic-gaussian":
        return gaussian_signal(field("width", width, default=1.0))
    if kind == "analytic-one":
        return one_signal()
    if kind == "analytic-delta":
        return delta_signal()
    if kind == "analytic-chirp":
        return chirp_signal(field("phase", polynomial))
    raise ConfigError(f"{path}.kind: unknown signal kind {kind!r}")


def parse_sampled_signal(cfg) -> SampledSignal:
    """parse_signal for the commands that work on the grid samples themselves."""
    sig = parse_signal(cfg)
    if not isinstance(sig, SampledSignal):
        raise ConfigError("signal.kind: this command needs a sampled signal "
                          "(gaussian, chirp or file)")
    return sig


def parse_estimator_opts(cfg, circle: bool = True) -> dict:
    """Estimator keyword arguments; circle adds the d = 1 sweep's own two."""
    opts = {
        "lambda_range": (cfg_get(cfg, "lambda.min", positive, default=estimator.LAMBDA_MIN),
                         cfg_get(cfg, "lambda.max", positive, default=estimator.LAMBDA_MAX)),
        "n_lambda": cfg_get(cfg, "lambda.n", positive_count,
                            default=estimator.DEFAULT_N_LAMBDA),
        "r_threshold": cfg_get(cfg, "r_threshold", positive,
                               default=estimator.DEFAULT_THRESHOLD),
        "floor": cfg_get(cfg, "floor", positive, default=estimator.DEFAULT_FLOOR),
    }
    if circle:
        opts["sphere_samples"] = cfg_get(cfg, "sphere_samples", count,
                                         default=estimator.DEFAULT_SPHERE_SAMPLES)
        opts["cone_steps"] = cfg_get(cfg, "cone_steps", whole, default=estimator.DEFAULT_CONE_STEPS)
    return opts


class OutputTracker:
    """Collects written paths so partial outputs can be removed on failure."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.paths = []
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {outdir}: {exc.strerror}") from None

    def path(self, name):
        p = os.path.join(self.outdir, name)
        self.paths.append(p)
        return p

    def write_json(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(dump_json(payload))
            fh.write("\n")

    def cleanup(self):
        """Remove the regular files among the paths; a path that is a
        directory (the cause of a failed write, say) is left as it is."""
        for p in self.paths:
            if os.path.isfile(p):
                os.remove(p)


def read_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def report_envelope(config, seed, body):
    return {"toolkit_version": __version__, "seed": seed, "config": config, **body}


def cmd_stft(config, out, seed):
    sig = parse_sampled_signal(config)
    w = parse_window(config)
    grid = stft_grid(sig, w)
    report = report_envelope(config, seed, {
        "moyal_error": moyal_error(sig, grid),
        "signal_norm": sig.norm(),
        "stft_norm": grid.l2_norm(),
    })
    write_stft_csv(out.path("stft_grid.csv"), grid)
    out.write_json("moyal.json", report)


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
    phase = cfg_get(config, "phase", polynomial)
    idx = parse_index(config)
    w = parse_window(config)
    opts = parse_estimator_opts(config)
    tol = cfg_get(config, "tol_angle", positive, default=0.09)
    pred = predict_chirp_wf(phase, idx)
    est = estimate_wf(chirp_signal(phase), w, idx, **opts)
    report = {**compare_wf(est, pred, tol), "status_counts": est.status_counts()}
    out.write_json("estimate.json", wf_estimate_to_dict(est))
    out.write_json("prediction.json", {"regime": pred.kind, "equality": pred.equality,
                                       "directions": pred.directions})
    out.write_json("report.json", report_envelope(config, seed, report))


def cmd_propagate_verify(config, out, seed):
    symbol = cfg_get(config, "symbol", polynomial)
    time = cfg_get(config, "time", number)
    spec = EvolutionSpec(symbol, time)
    sig = parse_sampled_signal(config)
    idx = parse_index(config)
    w = parse_window(config)
    opts = parse_estimator_opts(config)
    tol = cfg_get(config, "tol_angle", positive, default=0.09)

    evolved = propagate(sig, spec)
    write_signal_csv(out.path("evolved.csv"), evolved)
    before = estimate_wf(sig, w, idx, **opts)
    after = estimate_wf(evolved, w, idx, **opts)
    transported = predict_transport(before.singular_directions(), spec, idx)
    after_dirs = after.singular_directions()
    # each gap: max over one set of the angle to the nearest member of the other
    gaps = [None, None]
    if len(after_dirs) and len(transported):
        gaps = [float(np.max(nearest_angles(a, b)))
                for a, b in ((after_dirs, transported), (transported, after_dirs))]
    out.write_json("before.json", wf_estimate_to_dict(before))
    out.write_json("after.json", wf_estimate_to_dict(after))
    out.write_json("transported.json", {"directions": transported})
    out.write_json("report.json", report_envelope(config, seed, {
        "containment_after_in_transported": gaps[0],
        "containment_transported_in_after": gaps[1],
        "pass": None not in gaps and max(gaps) <= tol,
        "status_counts": {"before": before.status_counts(), "after": after.status_counts()},
    }))


def cmd_kernel_check(config, out, seed):
    symbol = cfg_get(config, "symbol", polynomial)
    time = cfg_get(config, "time", number)
    spec = EvolutionSpec(symbol, time)
    idx = parse_index(config)
    w = parse_window(config)
    if not (2.0 * w.width ** 2) ** -0.5 >= MIN_WIDTH:   # the kernel STFT's chirp window width
        raise ConfigError(f"window.width: at most 2^510.5 for a kernel, got {w.width}")
    eps_angle = cfg_get(config, "eps_angle", positive, default=0.05)
    opts = parse_estimator_opts(config, circle=False)
    sweep = cfg_get(config, "sweep", list_of(count, 4), default=estimator.DEFAULT_SWEEP)

    est = estimate_kernel_wf(propagator_kernel(spec), w, idx, sweep=sweep, seed=seed, **opts)
    graph = check_graph_condition(est, eps_angle)
    out.write_json("kernel_wf.json", wf_estimate_to_dict(est))
    out.write_json("report.json", report_envelope(config, seed, {
        **graph,
        "cone_constant": cone_constant(est, idx),
        "status_counts": est.status_counts(),
    }))


def cmd_relation(config, out, seed):
    tol = cfg_get(config, "tolerance", positive, default=1e-9)
    points = list_of(list_of(number))
    b = cfg_get(config, "B", lambda v: PointSet(points(v), tol))

    def kernel_set(v):   # an empty A takes twice B's width
        a = PointSet(points(v) or np.zeros((0, 2 * b.ambient)), tol)
        if a.ambient % 4 or (len(b) and a.ambient != 2 * b.ambient):
            need = f"{2 * b.ambient}, twice B's (y, eta) rows" if len(b) else "a multiple of 4"
            raise ConfigError(f"rows of {a.ambient} coordinates; (x, y, xi, eta) rows need {need}")
        return a

    a = cfg_get(config, "A", kernel_set)
    if len(b) == 0:   # an empty B takes half of A's width
        b = PointSet(np.zeros((0, a.ambient // 2)), tol)
    out.write_json("composition.json",
                   report_envelope(config, seed, {"composition": compose(a, b).points}))


def cmd_seminorm(config, out, seed):
    sig = parse_sampled_signal(config)
    idx = parse_index(config)
    kind = cfg_get(config, "kind", text, default="stft")
    if kind != "stft":
        raise ConfigError(f"kind: unknown seminorm kind {kind!r}; the only kind is 'stft'")
    w = parse_window(config)
    rows = []
    for r in cfg_get(config, "r_values", list_of(positive)):
        v = stft_seminorm(sig, w, idx, r)
        rows.append({"r": r, "value": None if math.isinf(v) else v, "divergent": math.isinf(v)})
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

    out = None
    try:
        config = read_config(args.config)
        out = OutputTracker(args.out)
        COMMANDS[args.command](config, out, args.seed)
    except (ToolkitError, OSError) as exc:
        if out is not None:
            out.cleanup()
        code, label = ((2, "config error") if isinstance(exc, ConfigError)
                       else (3, "resolution error")
                       if isinstance(exc, (ResolutionError, TruncationError))
                       else (1, "error"))
        message = (f"{exc.filename}: {exc.strerror}"
                   if isinstance(exc, OSError) and exc.filename is not None else exc)
        print(f"{label}: {message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
