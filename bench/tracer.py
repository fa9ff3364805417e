"""Outside-in tracer for the anisowf package.

The tracer wraps public functions of the package from outside: nothing under
``src/`` knows it exists.  A function imported by name (``from .stft import
stft_point``) is a separate binding in the importing module, so every
``anisowf`` module whose attribute *is* the original function gets the
wrapper, and so does ``cli.COMMANDS``.

Each call of a wrapped function is one span: name, start, end and the index
of the enclosing span.  Spans live in compact arrays and are written once,
when the run ends (:meth:`Tracer.save`); :func:`summarize` turns the file
into per-module metrics.  ``PhasePoint`` constructions are only counted.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) of each wrapped function and its span name.
SPANNED = {
    ("anisowf.stft", "stft_grid"): "stft.grid",
    ("anisowf.stft", "moyal_error"): "stft.moyal_error",
    ("anisowf.poly", "eval_grad"): "poly.eval_grad",
    ("anisowf.geometry", "scale_point"): "geometry.scale_point",
    ("anisowf.estimator", "fit_rate_arrays"): "estimator.fit_rate_arrays",
    ("anisowf.io", "write_stft_csv"): "io.write_stft_csv",
    ("anisowf.io", "write_profile_csv"): "io.write_profile_csv",
    ("anisowf.io", "read_signal_csv"): "io.read_signal_csv",
    ("anisowf.io", "write_signal_csv"): "io.write_signal_csv",
    ("anisowf.io", "dump_json"): "io.dump_json",
    ("anisowf.evolution", "propagate"): "evolution.propagate",
    ("anisowf.evolution", "kernel_signal"): "evolution.kernel_signal",
    ("anisowf.evolution", "predict_transport"): "evolution.predict_transport",
    ("anisowf.chirp", "predict_chirp_wf"): "chirp.predict_chirp_wf",
    ("anisowf.chirp", "compare_wf"): "chirp.compare_wf",
    ("anisowf.relation", "compose"): "relation.compose",
    ("anisowf.relation", "compose_via_projection"): "relation.compose_via_projection",
    ("anisowf.cli", "parse_signal"): "cli.parse_signal",
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # Magnitude at or above which an stft_point value counts as useful;
        # the workload sets it to the floor of the step being run.
        self.floor = 0.0
        self._reach_caps: list[list[float]] = []

    # -- span recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span per call; name may be a function of the args."""
        naming = callable(name)

        def traced(*args, **kwargs):
            i = self._open(name(*args) if naming else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every binding of the traced functions in the loaded package."""
        import anisowf.cli as cli
        import anisowf.estimator as estimator
        import anisowf.geometry as geometry
        import anisowf.poly as poly
        import anisowf.signals as signals
        import anisowf.stft as stft

        for (mod, attr), name in SPANNED.items():
            orig = getattr(sys.modules[mod], attr)
            _rebind(orig, self.wrap(orig, name))

        _rebind(stft.stft_point, self.wrap(
            stft.stft_point, lambda u, *rest: "stft.point." + _stft_path(u, signals),
            after=self._after_stft_point))
        _rebind(poly.eval_poly, self.wrap(
            poly.eval_poly, "poly.eval_poly", after=self._after_eval_poly))
        _rebind(estimator.curve_reach, self.wrap(
            estimator.curve_reach, "estimator.curve_reach",
            after=lambda a, k, cap: self._reach_caps and self._reach_caps[-1].append(cap)))
        for attr in ("estimate_wf", "estimate_kernel_wf"):
            orig = getattr(estimator, attr)
            _rebind(orig, self._wrap_estimate(orig, f"estimator.{attr}", estimator))
        for command, orig in list(cli.COMMANDS.items()):
            wrapped = self.wrap(orig, f"cli.{command}")
            _rebind(orig, wrapped)
            cli.COMMANDS[command] = wrapped

        init = geometry.PhasePoint.__init__
        counts = self.counts

        def counted_init(point, x, xi):
            counts["geometry.PhasePoint.count"] += 1
            init(point, x, xi)

        geometry.PhasePoint.__init__ = counted_init

    def _wrap_estimate(self, fn, name, estimator):
        """Estimator sweeps also count their directions and unreachable curves."""
        signature = inspect.signature(fn)
        traced = self.wrap(fn, name)

        def estimate(*args, **kwargs):
            self._reach_caps.append([])
            try:
                result = traced(*args, **kwargs)
            finally:
                caps = self._reach_caps.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            lo, hi = bound.arguments["lambda_range"]
            lambdas = estimator.geometric_lambdas(lo, hi, bound.arguments["n_lambda"])
            self.counts["estimator.directions"] += len(result.entries)
            self.counts["estimator.unreachable"] += sum(
                int(np.count_nonzero(lambdas <= cap)) < estimator._MIN_REACHABLE
                for cap in caps)
            return result

        return estimate

    def _after_stft_point(self, args, kwargs, value):
        if abs(value) >= self.floor:
            self.counts["stft.point.above_floor"] += 1

    def _after_eval_poly(self, args, kwargs, value):
        p, x = args[0], np.asarray(args[1])
        scalar_1d = p.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1)
        self.counts["poly.eval_poly.nodes"] += x.size if scalar_1d else x.size // p.dim

    # -- output -------------------------------------------------------------

    def save(self, path_npz: str, path_json: str):
        """Write the spans and counts; called once, after the timed region."""
        np.savez(path_npz,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32))
        with open(path_json, "w") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts)}, fh)


def _rebind(orig, replacement):
    """Replace orig wherever an anisowf module binds it by name."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "anisowf" or modname.startswith("anisowf.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def _stft_path(u, signals) -> str:
    """Evaluation path stft_point takes for signal u, read from its arguments."""
    if isinstance(u, signals.SampledSignal):
        return f"sampled_d{u.dim}"
    if u.kind == "poly-chirp":
        return "quadratic_chirp" if u.phase.degree <= 2 else "chirp_quadrature"
    if u.kind == "tensor":
        paths = {_stft_path(f, signals) for f in u.factors} - {"closed_form"}
        return paths.pop() if len(paths) == 1 else "mixed" if paths else "closed_form"
    return "closed_form"


def summarize(path_npz: str, path_json: str) -> dict:
    """Per-span-name calls, inclusive seconds and self seconds, plus the counts."""
    spans = np.load(path_npz)
    with open(path_json) as fh:
        meta = json.load(fh)
    names, counts = meta["names"], meta["counts"]
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=dur, minlength=n)
    self_s = np.bincount(name_id, weights=dur - child, minlength=n)
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.s"] = float(total[k])
        out[f"{name}.self_s"] = float(self_s[k])
    out.update(counts)

    # chirp quadrature calls that short-circuit before evaluating the phase
    if "stft.point.chirp_quadrature" in names:
        quad = name_id == names.index("stft.point.chirp_quadrature")
        evaluated = np.zeros(dur.size, dtype=bool)
        if "poly.eval_poly" in names:
            evaluated[parent[(name_id == names.index("poly.eval_poly")) & nested]] = True
        n_quad = int(np.count_nonzero(quad))
        out["stft.point.chirp_quadrature.zero_frac"] = \
            1.0 - int(np.count_nonzero(quad & evaluated)) / n_quad
    n_points = sum(int(calls[k]) for k, name in enumerate(names)
                   if name.startswith("stft.point."))
    if n_points:
        out["stft.point.above_floor_frac"] = counts.get("stft.point.above_floor", 0) / n_points
    return out
