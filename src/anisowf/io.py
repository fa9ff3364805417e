"""File formats and deterministic serialization.

Signals travel as CSV with a leading header carrying n, dx, dim; polynomials
as JSON multi-index coefficient lists; estimates and reports as JSON written
with a fixed 17-significant-digit float format so identical runs produce
byte-identical files.  Every CSV file (signals, STFT grids, decay profiles)
goes through one writer, _write_table, which formats blocks of rows at 17
significant digits with CRLF line ends.  A large table is split at block
bounds into one contiguous range per usable CPU: forked children write the
later ranges into temp parts beside the file, and the caller writes the
first, reaps the children and appends the parts, so the bytes are those of
one process writing every block in turn.  Config fields are read by cfg_get
through one of the field kinds below, which reject what JSON would otherwise
coerce.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import signal
import sys
import tempfile

import numpy as np

from .errors import ConfigError, DomainError, ToolkitError
from .estimator import STATUSES
from .poly import PolynomialData
from .signals import SampledSignal


def dump_json(obj) -> str:
    """Deterministic JSON: floats at 17 significant digits, no whitespace drift."""
    return _encode(obj)


def _encode(obj) -> str:
    """JSON text of obj; each container is joined as soon as its members are
    encoded, so a large report never holds one string per token.  The
    common kinds are tested first, and a float vector is formatted in one
    pass rather than one call per float."""
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, str):
        return obj if isinstance(obj, _Raw) else _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(_string(str(k)) + ":" + _encode(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if all(isinstance(v, float) for v in seq):
            return "[" + ",".join(map(_float, seq)) + "]"
        return "[" + ",".join(map(_encode, seq)) + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


class _Raw(str):
    """JSON text that _encode writes as it is."""


def _float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


_BLOCK_ROWS = 1024
# Rows per writer process: a table of fewer than twice this many is written by
# the calling process alone.  Formatting them takes about 0.1 s, against a few
# ms for a fork; the profiles of a 720-direction wf sweep (17,280 rows) and
# the signals of a 1-d sweep (8,192 rows) stay serial.
_PARALLEL_ROWS = 32 * _BLOCK_ROWS


def _cuts(n_rows) -> list:
    """Bounds of the contiguous row ranges _write_table formats at once: one
    per usable CPU, at most one per _PARALLEL_ROWS rows, cut at multiples of
    _BLOCK_ROWS.  One range where os.fork or os.sched_getaffinity is missing."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    k = max(1, min(cpus, n_rows // _PARALLEL_ROWS))
    blocks = -(-n_rows // _BLOCK_ROWS)
    return [min(n_rows, blocks * i // k * _BLOCK_ROWS) for i in range(k + 1)]


def _write_table(path, head, fmt, n_rows, rows, axes=()):
    """The one CSV writer: the lines in head, then n_rows rows in CRLF lines.

    rows(lo, hi) returns rows lo .. hi - 1 as a (rows, columns) array; fmt has
    one %-format per column.  Each block of at most _BLOCK_ROWS rows is
    formatted by a single %, so no whole-table string is built.  The first
    len(axes) columns are the row-major lattice over the 1-d arrays in axes:
    each axis value is formatted once and copied into the blocks' templates,
    and rows returns only the columns after them.

    A large table is split at block bounds into the ranges of _cuts.  The
    calling process writes the head and range 0 into path; each further range
    is written by a child made with os.fork into a temp part beside path.  The
    children's blocks are the blocks a single process would write, so the
    bytes do not depend on the number of ranges.  The parts are appended in
    order; every child is reaped, and every part removed, also on failure.  A
    child's exception is raised here, so a child fails as the loop would."""
    labels = [[f % v + "," for v in a.tolist()] for f, a in zip(fmt, axes)]
    tail = ",".join(fmt[len(axes):]) + "\r\n"
    if labels:
        labels[-1] = [lab + tail for lab in labels[-1]]

    def write_rows(fh, lo, hi):
        for start in range(lo, hi, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, hi)
            if labels:
                cells = np.unravel_index(np.arange(start, stop), [len(a) for a in axes])
                line = "".join(map("".join, zip(*[[lab[i] for i in ix.tolist()]
                                                  for lab, ix in zip(labels, cells)])))
            else:
                line = tail * (stop - start)
            fh.write(line % tuple(rows(start, stop).ravel().tolist()))

    cuts = _cuts(n_rows)
    parts, pids = [], []
    try:
        with open(path, "w", newline="") as fh:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                fd, part = tempfile.mkstemp(".part", os.path.basename(path) + ".",
                                            os.path.dirname(os.path.abspath(path)))
                os.close(fd)
                parts.append(part)
                pid = os.fork()
                if pid == 0:
                    _write_part(part, write_rows, lo, hi)
                pids.append(pid)
            fh.write("".join(h + "\r\n" for h in head))
            write_rows(fh, 0, cuts[1])
        with open(path, "ab") as fh:
            for part in parts:
                _reap(pids, part)
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh, 1 << 20)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            os.remove(part)


def _write_part(part, write_rows, lo, hi):
    """A writer child's whole life: rows lo .. hi - 1 into part, or in their
    place the pickled exception that stopped it, with exit status 1 (2 if
    that too failed).  It always leaves by os._exit, never returning into its
    parent's stack, so it catches everything and re-raises nothing."""
    code = 2
    try:
        with open(part, "w", newline="") as fh:
            write_rows(fh, lo, hi)
        code = 0
    except BaseException as exc:
        with open(part, "wb") as fh:
            pickle.dump(exc, fh)
        code = 1
    finally:
        os._exit(code)


def _reap(pids, part):
    """Wait for the writer child pids[0] and drop it from pids; raise the
    exception it pickled into part, if it failed."""
    code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
    del pids[0]
    if code == 1:
        with open(part, "rb") as fh:
            raise pickle.load(fh)
    if code:
        raise ToolkitError(f"{part}: writer process ended with status {code}")


def write_signal_csv(path, sig: SampledSignal):
    """Header rows carry n, dx, dim; data rows are index, coordinates, re, im."""
    flat = sig.values.reshape(-1)

    def rows(lo, hi):
        k = np.arange(lo, hi)
        coords = sig.axis_coords()[np.array(np.unravel_index(k, sig.values.shape))]
        return np.column_stack([k, *coords, flat[lo:hi].real, flat[lo:hi].imag])

    names = ",".join(["index"] + [f"x{j}" for j in range(sig.dim)] + ["re", "im"])
    _write_table(path, ["n,dx,dim", f"{sig.n},{sig.dx:.17g},{sig.dim}", names],
                 ["%d"] + ["%.17g"] * (sig.dim + 2), flat.size, rows)


def read_signal_csv(path) -> SampledSignal:
    """Signal from write_signal_csv's format; the body must hold exactly n^dim
    rows of dim + 3 columns, indexed 0 .. n^dim - 1, or ConfigError is raised."""
    with open(path) as fh:
        if fh.readline().rstrip("\n").split(",")[:3] != ["n", "dx", "dim"]:
            raise ConfigError(f"{path}: expected signal header row 'n,dx,dim'")
        try:
            n, dx, dim = fh.readline().split(",")
            n, dx, dim = int(n), float(dx), int(dim)
            fh.readline()  # column names
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed signal CSV ({exc})") from None
    # the column count bounds dim, so n ** dim below stays a small computation
    if body.shape[1] != dim + 3:
        raise ConfigError(f"{path}: dim {dim} needs {dim + 3} columns, found {body.shape[1]}")
    size = n ** dim
    if len(body) != size or not np.array_equal(body[:, 0], np.arange(size)):
        raise ConfigError(f"{path}: expected {size} rows indexed 0 .. {size - 1} in order, "
                          f"found {len(body)} rows")
    flat = body[:, dim + 1] + 1j * body[:, dim + 2]
    return SampledSignal(dx, flat.reshape((n,) * dim))


def poly_to_dict(p: PolynomialData) -> dict:
    coeffs = [{"alpha": list(alpha), "c": c} for alpha, c in sorted(p.coeffs.items())]
    return {"dim": p.dim, "coeffs": coeffs}


def _term(item) -> tuple:
    return tuple(cfg_get(item, "alpha", list_of(count))), cfg_get(item, "c", number)


def poly_from_dict(d) -> PolynomialData:
    """Polynomial from {"dim": d, "coeffs": [{"alpha": [..], "c": v}, ...]}."""
    terms = cfg_get(d, "coeffs", list_of(_term))
    coeffs = dict(terms)
    if len(coeffs) != len(terms):
        raise ConfigError("bad polynomial spec: repeated multi-index")
    try:
        return PolynomialData(cfg_get(d, "dim", count), coeffs)
    except DomainError as exc:
        raise ConfigError(f"bad polynomial spec: {exc}") from None


# Config field kinds: each checks one parsed JSON value and returns it
# (numbers as float, counts as int) or raises ConfigError.

MAX_COUNT = 2 ** 31 - 1


def number(v) -> float:
    """A finite JSON number; bools, strings, NaN and Infinity are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError("expected a finite number")
    return float(v)


def positive(v) -> float:
    """A number above 0."""
    x = number(v)
    if not x > 0.0:
        raise ConfigError("expected a positive number")
    return x


def whole(v) -> int:
    """A non-negative integral number of any size: 256.0 passes, 90.9 does not.
    For fields whose large values all mean the same (cone_steps)."""
    x = number(v)
    if x < 0.0 or x != int(x):
        raise ConfigError("expected a non-negative integer")
    return int(v)


def count(v) -> int:
    """A whole number up to MAX_COUNT, so that no size overflows before a check sees it."""
    k = whole(v)
    if k > MAX_COUNT:
        raise ConfigError(f"expected an integer at most {MAX_COUNT}")
    return k


def positive_count(v) -> int:
    """A count above 0."""
    k = count(v)
    if k == 0:
        raise ConfigError("expected a positive integer")
    return k


def text(v) -> str:
    """A JSON string."""
    if not isinstance(v, str):
        raise ConfigError("expected a string")
    return v


def list_of(kind, length=None):
    """Kind of a JSON list of kind items, exactly length of them when given."""
    def parse(v) -> list:
        if not isinstance(v, list):
            raise ConfigError("expected a list")
        if length is not None and len(v) != length:
            raise ConfigError(f"expected a list of {length} items")
        return [kind(item) for item in v]
    return parse


_REQUIRED = object()


def cfg_get(cfg, path, kind=None, default=_REQUIRED):
    """Value at a dotted config path, passed through kind when given.

    A field is optional exactly when a default is passed: a missing optional
    field gives default as is, a missing required one raises ConfigError.  A
    value that kind rejects with a ConfigError, TypeError, ValueError,
    OverflowError or OSError raises ConfigError naming the path.
    """
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing field: {path}")
            return default
        node = node[part]
    if kind is None:
        return node
    try:
        return kind(node)
    except (TypeError, ValueError, OverflowError, OSError, ConfigError) as exc:
        raise ConfigError(f"{path}: invalid value {node!r} ({exc})") from None


def write_stft_csv(path, grid):
    """Columns x, xi, re, im, abs over the full lattice."""
    flat = grid.values.reshape(-1)

    def rows(lo, hi):
        v = flat[lo:hi]
        # np.hypot rounds as Python's abs(complex) does; np.abs can differ in the last bit
        return np.column_stack([v.real, v.imag, np.hypot(v.real, v.imag)])

    _write_table(path, ["x,xi,re,im,abs"], ["%.17g"] * 5, flat.size, rows,
                 axes=(grid.positions(), grid.frequencies()))


def write_profile_csv(path, est):
    """Columns direction (entry index), lambda, magnitude, log_magnitude.

    One row per finite sample of the estimate's curve table.
    """
    entry, sample = np.nonzero(np.isfinite(est.magnitudes))

    def rows(lo, hi):
        mags = est.magnitudes[entry[lo:hi], sample[lo:hi]]
        # math.log per value: np.log can differ from it in the last bit
        logs = [math.log(m) if m > 0 else -math.inf for m in mags.tolist()]
        return np.column_stack([entry[lo:hi], np.asarray(est.lambdas)[sample[lo:hi]], mags, logs])

    _write_table(path, ["direction,lambda,magnitude,log_magnitude"],
                 ["%d"] + ["%.17g"] * 3, entry.size, rows)


def wf_estimate_to_dict(est) -> dict:
    """The estimate's JSON object; its entries, one {dir, rhat, residual,
    n_valid, singular, status} object per row, are formatted from the columns
    through one row template, with the bytes dump_json gives those objects."""
    width = est.dirs.shape[1]
    row = ('{"dir":[' + ",".join(["%s"] * width) + '],"rhat":%s,"residual":%s,'
           '"n_valid":%d,"singular":%s,"status":"%s"}')
    status = [STATUSES[k] for k in est.status.tolist()]
    cells = zip(*[map(_float, col) for col in est.dirs.T.tolist()],
                map(_float, est.rhat.tolist()), map(_float, est.residual.tolist()),
                est.n_valid.tolist(), ["true" if s == "singular" else "false" for s in status],
                status)
    return {
        "idx": {"t": est.idx.t, "s": est.idx.s},
        "threshold": est.r_threshold,
        "entries": _Raw("[" + ",".join(row % c for c in cells) + "]"),
    }


def prediction_to_dict(pred) -> dict:
    return {
        "regime": pred.kind,
        "equality": bool(pred.equality),
        "directions": [list(map(float, d)) for d in pred.directions],
    }


def point_set_to_list(ps) -> list:
    return [list(map(float, row)) for row in ps.points]
