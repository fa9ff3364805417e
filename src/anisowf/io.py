"""File formats and deterministic serialization.

Signals travel as CSV with a leading header carrying n, dx and dim 1; polynomials
as JSON multi-index coefficient lists; estimates and reports as JSON.  Every
float is written as the text '%.17g' gives it, so identical runs produce
byte-identical files.  dump_json writes a scalar float by '%.17g' and a
string as json.dumps escapes it.  Blocks of floats (estimate rows, CSV tables) go
through _format17, an exact decimal conversion in numpy: each value is scaled
to its 17 digits by a double-double power of ten and laid out in a 32-byte
cell.  For the few values it cannot decide (within 1e-9 of an inexact
rounding tie, or not finite) the cell holds the text % gives it, or null in
JSON.  A cell pads its text with NUL bytes, which no text holds, so one
bytes.translate compacts a block.  Every CSV file goes through one writer,
_write_table, in 1,024-row blocks.  Config fields are read by cfg_get
through one of the field kinds below, which reject what JSON would otherwise
coerce.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from .errors import ConfigError, DomainError
from .estimator import STATUSES
from .poly import PolynomialData
from .signals import SampledSignal


def dump_json(obj) -> str:
    """Deterministic JSON text of obj, with no whitespace: a float as
    '%.17g' writes it (null where not finite), a key or string as
    json.dumps escapes it (ASCII output), a _Raw string as it is, and a
    container as the joined text of its members."""
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, str):
        return obj if isinstance(obj, _Raw) else json.dumps(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + dump_json(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join([dump_json(v) for v in seq]) + "]"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


class _Raw(str):
    """JSON text that dump_json writes as it is."""


def _float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _floats(values) -> list:
    """_float of each float in the sequence values, through _format17."""
    chars = _format17(np.asarray(values, dtype=float), [b","], _float)
    return chars.tobytes().translate(None, b"\0").decode().split(",")[:-1]


# _format17 writes each float into a cell of _CELL bytes, four uint64 words,
# and a word mask zeroes every byte that is not its text:
#   0       the sign "-"
#   1 - 5   "0.000", the lead of a value in [1e-4, 1) without its zeros
#   6, 7    the first digit and a "." slot
#   8 - 23  the other 16 digits
#   24 - 28 "e", the exponent's sign and its 3 digits
#   29 - 31 the end written after the value
# A point after digit k >= 1 is put there by moving digits 1 .. k one byte down.
_CELL = 32
# the tables' exponents k: -324 <= k <= 308 for doubles, and a first guess may be one off
_K_LO, _K_HI = -330, 330
# cell layouts, one per sign and row of _tables' mask table
_LAYOUTS = 23 * 17


@functools.cache
def _tables():
    """The tables of _format17, built on first use from exact integers.

    For each k, 10^(16 - k) = (h + l) 2^q with h the double nearest the
    128-bit floor of its mantissa, l the remainder and (hh, hl) the Dekker
    halves of h; the relative error is below 2^-126, and l is 0 where the
    power is a double.  Also the cells' words ("dddd" per 4-digit group,
    "-0.000d." per first digit, "e+ddd" per k), the word masks, the digit k
    after which each mask row's point moves (0: none) and their permutations."""
    ks = np.arange(_K_LO, _K_HI + 1)
    h, l, q = [], [], []
    for p in (16 - ks).tolist():
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        e = num.bit_length() - den.bit_length() + 1   # 2^(e - 2) <= num / den < 2^e
        m = (num << max(0, 128 - e)) // (den << max(0, e - 128))
        h.append(float(m))
        l.append(float(m - int(float(m))))
        q.append(e - 128)
    h = np.array(h)
    c = h * 134217729.0
    hh = c - (c - h)
    pow10 = np.stack([h, hh, h - hh, np.array(l)])

    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    # for group j, the index among the 17 digits of its last nonzero one: below
    # 0 for "0000", except in group 0, where the first digit stands for it
    tail = np.where(g, 4 - np.argmax(digits[:, ::-1] != 0, axis=1), -16)
    tail = (tail + 4 * np.arange(4)[:, None]).astype(np.int16)
    tail[0, 0] = 0
    first = np.frombuffer(b"-0.0000." * 10, np.uint8).reshape(10, 8).copy()
    first[:, 6] += np.arange(10, dtype=np.uint8)
    ak = np.abs(ks)
    expo = np.zeros((ks.size, 8), np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(ks < 0, ord("-"), ord("+"))
    expo[:, 2:5] = np.stack([ak // 100, ak // 10 % 10, ak % 10], axis=1) + ord("0")

    # kept bytes, indexed by 17 layout + significant digits - 1 (+ _LAYOUTS for
    # a minus sign); layout 0 .. 16 is fixed notation for k = layout, 17 .. 20
    # for k = -1 .. -4, 21 exponent notation with 2 exponent digits and 22 with 3
    layout = np.where((ks >= 0) & (ks < 17), ks, np.where((ks < 0) & (ks >= -4), 16 - ks,
                                                          21 + (ak >= 100)))
    row = np.repeat(np.arange(23), 17)
    sig = np.tile(np.arange(1, 18), 23)
    k = np.where(row <= 16, row, 16 - row)
    fixed = row <= 20
    lead = fixed & (k < 0)
    shown = np.where(fixed, np.maximum(sig, k + 1), sig)
    point = np.where(fixed, np.where(sig > k + 1, k, -1), np.where(sig > 1, 0, -1))
    slot = np.arange(17)
    keep = np.zeros((2, _LAYOUTS, _CELL), bool)
    keep[1, :, 0] = keep[:, :, 6] = True
    keep[:, :, 1] = keep[:, :, 2] = lead
    keep[:, :, 3:6] = lead[:, None] & (slot[:3] < -1 - k[:, None])
    keep[:, :, 7] = point >= 0
    keep[:, :, 8:24] = slot[1:] < shown[:, None]
    keep[:, :, 24:29] = ~fixed[:, None]
    keep[:, :, 26] &= row == 22
    perms = 7 + np.where(slot < slot[:, None], slot + 1, np.where(slot == slot[:, None], 0, slot))
    return (pow10, np.array(q, np.int32), groups, tail, first.view(np.uint64)[:, 0],
            expo.view(np.uint64)[:, 0], 17 * layout,
            (keep.reshape(2 * _LAYOUTS, _CELL) * np.uint8(255)).view(np.uint64),
            np.tile(np.maximum(point, 0), 2).astype(np.uint8), perms)


def _scaled(m, e, i, pow10, scale):
    """Floor and fraction of D = a 10^(16 - k) for positive finite a with frexp
    mantissas m, which it overwrites, and exponents e, and table rows i = k -
    _K_LO: m times the double-double power of ten, by Dekker's two-product.
    The relative error is below 2^-102, the absolute error below 2e-14 where
    D < 1e17, and D is exact where 10^(16 - k) is a double."""
    e += scale.take(i)
    h, hh, hl, l = pow10.take(i, axis=1)
    mh = m * 134217729.0
    mh -= mh - m
    ml = m - mh
    h *= m
    lo = ((mh * hh - h) + mh * hl + ml * hh) + ml * hl
    l *= m
    lo += l
    np.ldexp(h, e, out=h)
    np.ldexp(lo, e, out=lo)
    n = np.floor(h)
    h -= n
    lo += h
    carry = np.floor(lo, out=h)
    lo -= carry
    n = n.astype(np.int64)
    n += carry.astype(np.int8)
    return n, lo


def _format17(values, ends, fallback):
    """Cells holding '%.17g' % v for each float v of the array values.

    Returns the uint8 cells, of shape values.shape + (_CELL,).  The nonzero
    bytes of a cell are the text of its value followed by ends[j] (at most 3
    bytes) for a value in column j of the last axis; a single end serves
    every column.  A value _decimal cannot decide (not finite, or within
    1e-9 of a tie between two 17-digit decimals that is not exact) gets the
    text fallback(v) instead, at most 24 characters: '%.17g'.__mod__ for CSV,
    _float for JSON, which differ only on values that are not finite."""
    v = np.asarray(values, dtype=float).reshape(-1)
    n, i, sure = _decimal(v)
    _, _, groups, tail, first, expo, layout, masks, moves, perms = _tables()
    cells = np.empty((v.size, 4), np.uint64)
    cells[:, 3] = expo.take(i)
    row = layout.take(i) + _LAYOUTS * np.signbit(v)
    # the digits: the leading one, then four groups of 4 from two 8-digit halves
    top = n // 10 ** 8
    n -= top * 10 ** 8
    d0 = top // 10 ** 8
    top -= d0 * 10 ** 8
    cells[:, 0] = first.take(d0, mode="clip")
    g = [top // 10000, top, n // 10000, n]
    top -= g[0] * 10000
    n -= g[2] * 10000
    for j, x in enumerate(g):
        cells.view(np.uint32)[:, 2 + j] = groups.take(x)
    # the mask row: the layout and sign, and the last nonzero digit (at least the first)
    row += np.maximum(np.maximum(tail[0].take(g[0]), tail[1].take(g[1])),
                      np.maximum(tail[2].take(g[2]), tail[3].take(g[3])))
    del i, d0, top, n, g
    cells &= masks.take(row, axis=0)
    chars = cells.view(np.uint8)
    moved = np.flatnonzero(moves.take(row))
    if moved.size:
        chars[moved, 7:24] = chars[moved[:, None], perms.take(moves.take(row.take(moved)), axis=0)]
    for j in np.flatnonzero(~sure).tolist():
        chars[j, :29] = np.frombuffer(fallback(float(v[j])).encode().ljust(29, b"\0"), np.uint8)
    end = [int.from_bytes((bytes(5) + e).ljust(8, b"\0"), sys.byteorder) for e in ends]
    cells.reshape(-1, len(ends), 4)[:, :, 3] |= np.array(end, np.uint64)
    return chars.reshape(np.shape(values) + (_CELL,))


def _decimal(v):
    """The 17-digit decimal n 10^(k - 16) nearest |v| for each float of the
    1-d array v, as n, the table rows i = k - _K_LO and the mask of the sure
    values: n is 0 for a zero and meaningless where not sure.  Where 10^(16 -
    k) is a double D is exact, so a tie is sure and rounds to even, as % does."""
    pow10, scale = _tables()[:2]
    a = np.abs(v)
    sure = np.isfinite(a)
    zero = a == 0.0
    a[zero | ~sure] = 1.0
    i = np.floor(np.log10(a)).astype(np.int64) - _K_LO
    n, frac = _scaled(*np.frexp(a, out=(a, None)), i, pow10, scale)
    # the guess is one off near a power of ten: n has 16 or 18 digits there
    fix = np.flatnonzero((n - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16)
    if fix.size:
        i[fix] += np.where(n[fix] < 10 ** 16, -1, 1)
        n[fix], frac[fix] = _scaled(*np.frexp(np.abs(v[fix])), i[fix], pow10, scale)
        sure[fix] &= (n[fix] >= 10 ** 16) & (n[fix] < 10 ** 17)
    frac -= 0.5
    n += frac > 0.0
    near = np.flatnonzero(np.abs(frac, out=frac) <= 1e-9)
    if near.size:
        exact = pow10[3].take(i.take(near)) == 0.0
        sure[near[~exact]] = False
        n[near] += (n.take(near) & 1) * (exact & (frac.take(near) == 0.0))
    decade = np.flatnonzero(n == 10 ** 17)
    n[decade] = 10 ** 16
    i[decade] += 1
    n[zero] = 0
    return n, i, sure


# Rows per block.  A 1,024-row block of the 5-column STFT grid peaks at 0.38 MB
# under tracemalloc, as a 512-row block of 48-byte cells did: its cells and
# their mask rows, a few arrays of one word per value, and its bytes.
_BLOCK_ROWS = 1024
_PERCENT17 = "%.17g".__mod__


def _write_table(path, head, n_rows, rows, axes=()):
    """The one CSV writer: the lines in head, then n_rows rows in CRLF lines,
    each value written as '%.17g' writes it.

    rows(lo, hi) returns rows lo .. hi - 1 as a (rows, columns) float array;
    an integer column below 2^31 prints as '%d' would.  Each block of at
    most _BLOCK_ROWS rows is formatted by one _format17 call and written at
    once, its NUL padding deleted.  The first len(axes) columns are the
    row-major lattice over the 1-d arrays in axes: each axis value is
    formatted once, and its text and comma, NUL-padded to the longest such
    text, are copied into the blocks; rows returns only the columns after
    them."""
    labels = [np.array([c.tobytes().translate(None, b"\0") for c in _format17(a, [b","], _PERCENT17)],
                       bytes)[:, None].view(np.uint8) for a in axes]
    with open(path, "wb") as fh:
        fh.write("".join(h + "\r\n" for h in head).encode())
        for lo in range(0, n_rows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_rows)
            block = rows(lo, hi)
            chars = _format17(block, [b","] * (block.shape[1] - 1) + [b"\r\n"], _PERCENT17)
            if axes:
                lattice = np.unravel_index(np.arange(lo, hi), [len(a) for a in axes])
                chars = np.concatenate([lab.take(ix, axis=0) for lab, ix in zip(labels, lattice)]
                                       + [chars.reshape(hi - lo, -1)], axis=1)
            chars = chars.tobytes()   # the array is freed before the NULs go
            fh.write(chars.translate(None, b"\0"))
            del chars   # and the bytes before the next block is formatted


def write_signal_csv(path, sig: SampledSignal):
    """Header rows carry n, dx and dim 1; data rows are index, x0, re, im."""
    def rows(lo, hi):
        v = sig.values[lo:hi]
        return np.column_stack([np.arange(lo, hi), sig.axis_coords()[lo:hi], v.real, v.imag])

    _write_table(path, ["n,dx,dim", f"{sig.n},{sig.dx:.17g},1", "index,x0,re,im"], sig.n, rows)


def read_signal_csv(path) -> SampledSignal:
    """Signal from write_signal_csv's format: dim 1 and exactly n rows of 4
    columns, indexed 0 .. n - 1, or ConfigError is raised."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n").split(",")[:3] != ["n", "dx", "dim"]:
            raise ConfigError(f"{path}: expected signal header row 'n,dx,dim'")
        try:
            n, dx, dim = fh.readline().split(",")
            n, dx, dim = int(n), float(dx), int(dim)
            if dim != 1:
                raise ConfigError(f"{path}: a signal CSV holds a 1-d signal, found dim {dim}")
            fh.readline()  # column names
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed signal CSV ({exc})") from None
    if body.shape[1] != 4:
        raise ConfigError(f"{path}: a 1-d signal needs 4 columns, found {body.shape[1]}")
    if len(body) != n or not np.array_equal(body[:, 0], np.arange(n)):
        raise ConfigError(f"{path}: expected {n} rows indexed 0 .. {n - 1} in order, "
                          f"found {len(body)} rows")
    return SampledSignal(dx, body[:, 2] + 1j * body[:, 3])


def _term(item) -> tuple:
    return cfg_get(item, "alpha", list_of(count, 1))[0], cfg_get(item, "c", number)


def poly_from_dict(d) -> PolynomialData:
    """Polynomial from {"dim": 1, "coeffs": [{"alpha": [k], "c": v}, ...]}, v the
    coefficient of x^k; degrees left out have coefficient 0."""
    cfg_get(d, "dim", dimension)
    terms = cfg_get(d, "coeffs", list_of(_term))
    if len(dict(terms)) != len(terms):
        raise ConfigError("bad polynomial spec: repeated multi-index")
    live = {k: c for k, c in terms if c != 0.0}
    coeffs = np.zeros(max(live, default=0) + 1)
    coeffs[list(live)] = list(live.values())
    return PolynomialData(coeffs)


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


def dimension(v) -> int:
    """A signal's or polynomial's dimension: 1, the only one a command reads."""
    if count(v) != 1:
        raise ConfigError("expected 1: a config's signals and polynomials are 1-d")
    return 1


polynomial = poly_from_dict   # a polynomial field


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

    _write_table(path, ["x,xi,re,im,abs"], flat.size, rows,
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

    _write_table(path, ["direction,lambda,magnitude,log_magnitude"], entry.size, rows)


def wf_estimate_to_dict(est) -> dict:
    """The estimate's JSON object; its entries, one {dir, rhat, residual,
    n_valid, singular, status} object per row, are formatted from the columns
    through one row template, with the bytes dump_json gives those objects."""
    width = est.dirs.shape[1]
    row = ('{"dir":[' + ",".join(["%s"] * width) + '],"rhat":%s,"residual":%s,'
           '"n_valid":%d,"singular":%s,"status":"%s"}')
    floats = np.column_stack([est.dirs, est.rhat, est.residual])
    status = [STATUSES[k] for k in est.status.tolist()]
    singular = ["true" if s == "singular" else "false" for s in status]
    n_valid = est.n_valid.tolist()
    chunks = []
    for lo in range(0, len(status), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        texts = iter(_floats(floats[lo:hi].ravel()))
        cells = zip(*[texts] * (width + 2), n_valid[lo:hi], singular[lo:hi], status[lo:hi])
        chunks.append(",".join(row % c for c in cells))
    return {
        "idx": {"t": est.idx.t, "s": est.idx.s},
        "threshold": est.r_threshold,
        "entries": _Raw("[" + ",".join(chunks) + "]"),
    }

