"""File formats and deterministic serialization.

Signals travel as CSV with a leading header carrying n, dx, dim; polynomials
as JSON multi-index coefficient lists; estimates and reports as JSON written
with a fixed 17-significant-digit float format so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ConfigError, DomainError
from .poly import PolynomialData
from .signals import SampledSignal


def dump_json(obj) -> str:
    """Deterministic JSON: floats at 17 significant digits, no whitespace drift."""
    out = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            out.append("null")
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _write_json(str(k), out)
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


def write_signal_csv(path, sig: SampledSignal):
    """Header rows carry n, dx, dim; data rows are index, coordinates, re, im."""
    flat = sig.values.reshape(-1)
    coords = sig.grid().reshape(-1, sig.dim)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "dx", "dim"])
        wr.writerow([sig.n, format(sig.dx, ".17g"), sig.dim])
        wr.writerow(["index"] + [f"x{j}" for j in range(sig.dim)] + ["re", "im"])
        for i in range(flat.size):
            wr.writerow([i] + [format(c, ".17g") for c in coords[i]]
                        + [format(flat[i].real, ".17g"), format(flat[i].imag, ".17g")])


def read_signal_csv(path) -> SampledSignal:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        head = next(rd)
        if head[:3] != ["n", "dx", "dim"]:
            raise ConfigError(f"{path}: expected signal header row 'n,dx,dim'")
        n, dx, dim = next(rd)
        n, dx, dim = int(n), float(dx), int(dim)
        next(rd)  # column names
        flat = np.zeros(n ** dim, dtype=complex)
        for row in rd:
            if not row:
                continue
            i = int(row[0])
            flat[i] = float(row[1 + dim]) + 1j * float(row[2 + dim])
    return SampledSignal(dx, flat.reshape((n,) * dim))


def poly_to_dict(p: PolynomialData) -> dict:
    coeffs = [{"alpha": list(alpha), "c": c} for alpha, c in sorted(p.coeffs.items())]
    return {"dim": p.dim, "coeffs": coeffs}


def poly_from_dict(d: dict) -> PolynomialData:
    try:
        coeffs = {tuple(item["alpha"]): item["c"] for item in d["coeffs"]}
        if len(coeffs) != len(d["coeffs"]):
            raise ConfigError("bad polynomial spec: repeated multi-index")
        return PolynomialData(d["dim"], coeffs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad polynomial spec: {exc}") from exc


def write_stft_csv(path, grid):
    """Columns x, xi, re, im, abs over the full lattice."""
    xs = grid.positions()
    xis = grid.frequencies()
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "xi", "re", "im", "abs"])
        for i in range(grid.n_x):
            for j in range(grid.n_xi):
                v = grid.values[i, j]
                wr.writerow([format(xs[i], ".17g"), format(xis[j], ".17g"),
                             format(v.real, ".17g"), format(v.imag, ".17g"),
                             format(abs(v), ".17g")])


def write_profile_csv(path, profile):
    """Columns lambda, magnitude, log_magnitude."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["lambda", "magnitude", "log_magnitude"])
        for lam, mag in zip(profile.lambdas, profile.magnitudes):
            logm = math.log(mag) if mag > 0 else -math.inf
            wr.writerow([format(lam, ".17g"), format(mag, ".17g"),
                         "-inf" if math.isinf(logm) else format(logm, ".17g")])


def wf_estimate_to_dict(est) -> dict:
    entries = []
    for e in est.entries:
        rhat = None if math.isinf(e.fit.rhat) else e.fit.rhat
        entries.append({
            "dir": e.direction.z.tolist(),
            "rhat": rhat,
            "residual": e.fit.residual,
            "n_valid": e.fit.n_valid,
            "singular": bool(e.singular),
        })
    return {
        "idx": {"t": est.idx.t, "s": est.idx.s},
        "threshold": est.r_threshold,
        "entries": entries,
    }


def prediction_to_dict(pred) -> dict:
    return {
        "regime": pred.kind,
        "equality": bool(pred.equality),
        "directions": [list(map(float, d)) for d in pred.directions],
    }


def point_set_to_list(ps) -> list:
    return [list(map(float, row)) for row in ps.points]
