import csv
import decimal
import errno
import io
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from anisowf.errors import ConfigError, DomainError
from anisowf.estimator import STATUSES, WFEstimate
from anisowf.geometry import AnisoIndex
from anisowf.io import (_Raw, _decimal, _float, _floats, _format17, _write_table, dump_json,
                        poly_from_dict, read_signal_csv, wf_estimate_to_dict,
                        write_profile_csv, write_signal_csv, write_stft_csv)
from anisowf.poly import PolynomialData, poly_1d
from anisowf.signals import SampledSignal, make_gaussian
from anisowf.stft import StftGrid, WindowSpec, stft_grid


def reference_csv(rows) -> bytes:
    """Rows as a row-at-a-time csv.writer loop writes them, floats through
    format(v, ".17g"): the reference the block writer must match byte for byte."""
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    for row in rows:
        wr.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def reference_signal_rows(sig):
    yield ["n", "dx", "dim"]
    yield [sig.n, sig.dx, 1]
    yield ["index", "x0", "re", "im"]
    for i, (x, v) in enumerate(zip(sig.axis_coords().tolist(), sig.values.tolist())):
        yield [i, x, v.real, v.imag]


class TestDumpJson:
    def test_deterministic_17_digits(self):
        s = dump_json({"a": 0.1, "b": [1, 2.5], "c": None, "d": True})
        assert s == '{"a":0.10000000000000001,"b":[1,2.5],"c":null,"d":true}'

    def test_percent_signs_survive_the_template(self):
        # % in keys, strings and _Raw text is written as it is
        s = dump_json({"100%": ["%s", "%%d", 0.5], "r": _Raw('{"%":1}'), "x": 2.0})
        assert s == '{"100%":["%s","%%d",0.5],"r":{"%":1},"x":2}'

    def test_strings_escape_like_the_json_module(self):
        # control characters, quotes, backslashes and non-ASCII text in keys and
        # values: the text parses back to the document and is ASCII
        odd = "tab\there\nnew\x01\"q\"\\é\U0001d11e"
        doc = {odd: [odd, {"k" + odd: 1.5}], "note": odd}
        text = dump_json(doc)
        assert text.isascii()
        assert json.loads(text) == doc
        assert text == json.dumps(doc, separators=(",", ":"))

    def test_non_finite_maps_to_null(self):
        assert dump_json([math.inf, math.nan]) == "[null,null]"
        # 1e15 + 0.25 is an exact 17-digit tie: like the non-finite values, its text is _float's
        assert dump_json([math.inf, -math.inf, math.nan, 1e15 + 0.25]) == \
            "[null,null,null,1000000000000000.2]"

    def test_numpy_types(self):
        s = dump_json({"v": np.array([1.0, 2.0]), "n": np.int64(3)})
        assert s == '{"v":[1,2],"n":3}'

    def test_repeatable(self):
        payload = {"x": 1.0 / 3.0, "list": [math.pi] * 3}
        assert dump_json(payload) == dump_json(payload)

    def test_float_vectors_encode_like_their_elements(self):
        # a list or array of floats is formatted in one pass; mixed lists,
        # float32 members and nested arrays go element by element, to the same text
        vals = [0.1, -1.0, math.nan, np.float64(1.0 / 3.0), -math.inf, 2.5e-300]
        one_by_one = "[" + ",".join(dump_json(v) for v in vals) + "]"
        assert dump_json(vals) == one_by_one
        assert dump_json(tuple(vals)) == one_by_one
        assert dump_json(np.array(vals)) == one_by_one
        assert dump_json([0.5, 1, True, np.float32(0.25)]) == "[0.5,1,true,0.25]"
        assert dump_json(np.array([[1.0, 0.5], [math.nan, 2.0]])) == "[[1,0.5],[null,2]]"
        assert dump_json([]) == "[]"


class TestSignalCsv:
    def test_round_trip_1d(self, tmp_path):
        sig = make_gaussian(1, 32, 0.25, width=0.5)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, sig)
        back = read_signal_csv(p)
        assert back.n == 32 and back.dim == 1
        assert back.dx == sig.dx
        assert np.array_equal(back.values, sig.values)

    def test_round_trip_2d(self, tmp_path):
        # a file of a 2-d grid, as the format once held one, is refused
        p = tmp_path / "sig2.csv"
        x = np.arange(-8, 8) * 0.3
        rows = [f"{16 * i + j},{a},{b},1,0" for i, a in enumerate(x) for j, b in enumerate(x)]
        p.write_text("\n".join(["n,dx,dim", "16,0.3,2", "index,x0,x1,re,im"] + rows) + "\n")
        with pytest.raises(ConfigError, match="1-d signal, found dim 2"):
            read_signal_csv(p)

    @pytest.mark.parametrize("shape", [(2048,)])
    def test_bytes_match_reference(self, tmp_path, shape):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values.flat[5] = -0.0
        sig = SampledSignal(0.1, values)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, sig)
        assert p.read_bytes() == reference_csv(reference_signal_rows(sig))
        back = read_signal_csv(p)
        assert back.dx == sig.dx and np.array_equal(back.values, sig.values)

    def test_body_must_match_header(self, tmp_path):
        p = tmp_path / "sig.csv"
        write_signal_csv(p, make_gaussian(1, 16, 0.5, width=0.5))
        lines = p.read_text().splitlines()
        bodies = {
            "found 15 rows": lines[:-1],
            "in order, found 16 rows": lines[:3] + [lines[4], lines[3]] + lines[5:],
            "needs 4 columns, found 5": lines[:3] + [line + ",0" for line in lines[3:]],
            # a dim other than 1 is refused before the body is read
            "found dim 1000000000": [lines[0], "16,0.5,1000000000"] + lines[2:],
            "malformed": lines[:5] + ["2,x,0,0"] + lines[6:],
        }
        for match, body in bodies.items():
            p.write_text("\n".join(body) + "\n")
            with pytest.raises(ConfigError, match=match):
                read_signal_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_signal_csv(p)


class TestStftCsv:
    def test_bytes_match_reference(self, tmp_path):
        grid = stft_grid(make_gaussian(1, 64, 0.25), WindowSpec(1.0))
        vals = grid.values.tolist()
        # the abs column is Python's abs(complex); np.abs differs on some values
        assert np.abs(grid.values).tolist() != [[abs(v) for v in row] for row in vals]
        rows = [["x", "xi", "re", "im", "abs"]]
        for x, row in zip(grid.positions().tolist(), vals):
            for xi, v in zip(grid.frequencies().tolist(), row):
                rows.append([x, xi, v.real, v.imag, abs(v)])
        p = tmp_path / "grid.csv"
        write_stft_csv(p, grid)
        assert p.read_bytes() == reference_csv(rows)

    def test_axis_labels_match_per_row_formatting(self, tmp_path):
        # 700 frequencies per position: the 1024-row blocks split lattice rows
        rng = np.random.default_rng(5)
        values = rng.standard_normal((3, 700)) + 1j * rng.standard_normal((3, 700))
        values[0, :3] = [0.0, -0.0, 1e-300j]
        values[1, 5] = 2.0 ** -25   # a 17-digit tie: the row is formatted by %
        grid = StftGrid(0.1, 2.0 * math.pi / 70.0, values)
        want = "x,xi,re,im,abs\r\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % (x, xi, v.real, v.imag, abs(v))
            for x, row in zip(grid.positions().tolist(), values.tolist())
            for xi, v in zip(grid.frequencies().tolist(), row))
        p = tmp_path / "grid.csv"
        write_stft_csv(p, grid)
        assert p.read_bytes() == want.encode()


def format17_texts(values, fallback="%.17g".__mod__):
    """The texts _format17 gives the floats in values: its 32-byte cells, each
    holding its text in bytes 0 - 28 and its end in byte 29, without their NULs."""
    chars = _format17(values, [b"\n"], fallback)
    assert chars.shape == np.shape(values) + (32,)
    assert (chars[..., 29] == ord("\n")).all() and not chars[..., 30:].any()
    return chars.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def neighbours(x):
    """x and the floats on either side of each of its values, both signs."""
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


TIE = 2.0 ** -25   # 2.98023223876953125e-08: 18 digits ending in 5
# 17-digit ties where 10^(16 - k) is a double, so _decimal's D is exact and decides them:
# 16 integer digits and .25 or .75, 15 and an odd multiple of 1/8, 14 and of 1/16, and
# odd multiples of 2^-18 in [0.1, 1) and of 2^-23 in [1e-6, 1e-5), all 18 digits ending in 5
EXACT_TIES = np.array([2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 1234567890123456.25, 2.0 ** 49 + 0.125,
                       2.0 ** 49 + 0.375, 123456789012345.875, 12345678901234.0625,
                       100001 / 2.0 ** 18, 262143 / 2.0 ** 18, 9 / 2.0 ** 23, 83 / 2.0 ** 23])
SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, TIE,
                    99999999999999999.0, 1e-5, 1e-4, 1e16, 1e17])


def formatter_inputs():
    """Every power of two and every 10^k (the subnormals included), each with
    its float neighbours, and the special values."""
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([neighbours(powers_of_two), neighbours(powers_of_ten),
                           neighbours(SPECIAL[np.isfinite(SPECIAL)]), SPECIAL])


class TestFormat17:
    def check(self, x):
        """Every text is format(v, '.17g'), the undecided values' included;
        returns _decimal's mask of the decided values."""
        texts = format17_texts(x)
        assert texts == [format(v, ".17g") for v in x.tolist()]
        sure = _decimal(x)[2]
        assert not sure[~np.isfinite(x)].any()
        return sure

    def test_powers_neighbours_and_special_values(self):
        x = formatter_inputs()
        sure = self.check(x)
        # the undecided are the non-finite and the exact 17-digit ties among the powers of two
        assert not sure[x == TIE].any()
        assert 3 < (~sure).sum() < 100
        texts = format17_texts(np.array([-0.0, 0.0, 1e16, 1e17, 1e-4, 1e-5]))
        assert texts == ["-0", "0", "10000000000000000", "1e+17", "0.0001",
                         "1.0000000000000001e-05"]

    def test_decimal_literals_and_random_magnitudes(self):
        rng = np.random.default_rng(17)
        literals = [float(f"{d}e{k}") for k in range(-330, 310)
                    for d in ("1.5", "3", "9.999999999999999", "12345678901234567", "0.1")]
        x = np.concatenate([neighbours(np.array(literals)),
                            rng.standard_normal(20000) * 10.0 ** rng.integers(-40, 40, 20000),
                            rng.integers(-2 ** 53, 2 ** 53, 5000).astype(float)])
        # the undecided are the non-finite and four neighbours of +-1e20
        assert self.check(x).mean() > 0.997

    def test_exact_ties_are_decided_half_to_even(self):
        x = np.concatenate([EXACT_TIES, -EXACT_TIES])
        # each value is exactly an 18-digit decimal ending in 5
        assert all(len(d.digits) == 18 and d.digits[-1] == 5
                   for d in (decimal.Decimal(v).as_tuple() for v in x.tolist()))
        assert self.check(x).all()
        # half to even: .25 keeps its 2, .75 takes 8
        assert format17_texts(EXACT_TIES[:2]) == ["1125899906842624.2", "1125899906842624.8"]

    def test_any_bit_pattern(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
        def check(bits):
            self.check(np.array(bits, dtype=np.uint64).view(np.float64))

        check()

    def test_shape_and_ends(self):
        # a tie and the non-finite values take the fallback's text, in their own cells
        x = np.array([[1.5, -0.25, 1e300], [0.0, 7.0, -1e-7], [TIE, -math.inf, math.nan]])
        chars = _format17(x, [b";", b"", b"\r\n"], "%.17g".__mod__)
        assert chars.shape == (3, 3, 32) and chars.dtype == np.uint8
        # each column's end sits in bytes 29 - 31 of its cells
        assert (chars[:, :, 29:] == [[59, 0, 0], [0, 0, 0], [13, 10, 0]]).all()
        text = chars.tobytes().translate(None, b"\0")
        assert text == "".join("%.17g;%.17g%.17g\r\n" % tuple(r) for r in x.tolist()).encode()
        assert format17_texts(x[2], lambda v: "<%r>" % v) == ["<%r>" % v for v in x[2].tolist()]

    def test_text_bytes_are_exactly_the_nonzero_bytes(self):
        # a cell's nonzero bytes, in order, are its text and end; every other byte is NUL
        x = formatter_inputs()
        # the two fallbacks are the reference texts: '%.17g' for CSV, _float (null) for JSON
        for fallback, end in (("%.17g".__mod__, b"\r\n"), (_float, b",")):
            cells = _format17(x, [end], fallback)
            for v, cell in zip(x.tolist(), cells):
                text = fallback(v).encode() + end
                assert np.count_nonzero(cell) == len(text) and cell[cell != 0].tobytes() == text

    def test_table_matches_the_percent_template(self, tmp_path):
        x = formatter_inputs()
        table = np.concatenate([x, np.zeros(-x.size % 3)]).reshape(-1, 3)
        assert len(table) > 1024   # more than one block
        assert not _decimal(table.ravel())[2].all()   # some cells take the fallback
        _write_table(tmp_path / "t.csv", ["a,b,c"], len(table), lambda lo, hi: table[lo:hi])
        want = "a,b,c\r\n" + "".join("%.17g,%.17g,%.17g\r\n" % tuple(row) for row in table.tolist())
        assert (tmp_path / "t.csv").read_bytes() == want.encode()


def mask_row(text):
    """The row of _format17's mask table that the '%.17g' text of a finite
    value takes: 17 layout + significant digits - 1, plus 23 x 17 for a minus."""
    body = text.lstrip("-")
    if "e" in body:
        mantissa, exponent = body.split("e")
        layout, digits = 21 + (abs(int(exponent)) >= 100), mantissa.replace(".", "")
    else:
        whole, _, frac = body.partition(".")
        k = len(whole) - 1 if whole != "0" or not frac else len(frac.lstrip("0")) - len(frac) - 1
        layout, digits = (k if k >= 0 else 16 - k), (whole + frac).lstrip("0")
    return 23 * 17 * text.startswith("-") + 17 * layout + len(digits.rstrip("0") or "0") - 1


def layout_values():
    """One positive float for each row of the mask table without the sign:
    decimals of sig random digits at an exponent of the row's layout, kept
    when '%.17g' shows exactly those digits."""
    rng = random.Random(23)
    exponents = {21: [17, 22, 99, -5, -30, -99], 22: [100, 200, 308, -100, -200, -307]}
    found = []
    for layout in range(23):
        ks = exponents.get(layout, [layout if layout <= 16 else 16 - layout])
        for sig in range(1, 18):
            for trial in range(1000):
                digits = ([rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(sig - 2)]
                          + [rng.randint(1, 9)] * (sig > 1))
                x = float("%d.%se%d" % (digits[0], "".join(map(str, digits[1:])),
                                        ks[trial % len(ks)]))
                if mask_row("%.17g" % x) == 17 * layout + sig - 1:
                    found.append(x)
                    break
    return np.array(found)


class TestCellLayouts:
    def test_every_mask_row_point_lead_exponent_and_fallback(self, tmp_path):
        rows = layout_values()
        # the point after digit j = 1 .. 16, and the leads 0.d, 0.0d, 0.00d and 0.000d
        points = [int("1234567890123456"[:j]) + 0.5 for j in range(1, 17)]
        assert ["%.17g" % v for v in points] == [str(int(v)) + ".5" for v in points]
        leads = [0.5, 0.0625, 0.001953125, 0.0001220703125]
        assert ["%.17g" % v for v in leads] == ["0.5", "0.0625", "0.001953125", "0.0001220703125"]
        exponents = [1e20, 1.5e-7, 6.02214076e23, 1e100, 2.5e-300, 5e-324, 1.7976931348623157e308]
        x = np.concatenate([rows, points, leads, exponents, [0.0], EXACT_TIES])
        x = np.concatenate([x, -x, [math.nan, math.inf, TIE]])
        assert sorted({mask_row("%.17g" % v) for v in x[np.isfinite(x)].tolist()}) == \
            list(range(2 * 23 * 17))

        table = np.concatenate([x, np.zeros(-x.size % 3)]).reshape(-1, 3)
        _write_table(tmp_path / "t.csv", ["a,b,c"], len(table), lambda lo, hi: table[lo:hi])
        want = "a,b,c\r\n" + "".join("%.17g,%.17g,%.17g\r\n" % tuple(r) for r in table.tolist())
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        assert _floats(x) == [_float(v) for v in x.tolist()]

        # fallback texts of 24 characters, the most a cell holds, each before a 3-byte end
        special = np.array([math.nan, math.inf, -math.inf, TIE, -TIE])
        wide = "{:#>24}".format
        chars = _format17(special, [b";;\n"], lambda v: wide("%.17g" % v))
        assert not chars[:, 24:29].any()
        assert chars.tobytes().translate(None, b"\0").decode() == \
            "".join(wide("%.17g" % v) + ";;\n" for v in special.tolist())


class TestTableWriter:
    def test_lattice_axes_across_partial_blocks(self, tmp_path):
        # 5 x 300 lattice rows: 1,024-row blocks end inside lattice rows, the last holds 476
        xs = np.array([-2.0, -TIE, 0.0, 1.5, 1e300])
        xis = np.arange(300) * 0.1 - 15.0
        table = np.random.default_rng(8).standard_normal((1500, 2))
        table[[3, 700, 1499], 0] = [math.nan, -math.inf, TIE]
        table[1024, 1] = -0.0
        _write_table(tmp_path / "t.csv", ["x,xi,a,b"], 1500, lambda lo, hi: table[lo:hi],
                     axes=(xs, xis))
        want = "x,xi,a,b\r\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\r\n" % (xs[i // 300], xis[i % 300], *table[i].tolist())
            for i in range(1500))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    def test_grid_write_peak_memory(self, tmp_path):
        # the 512 x 512 grid's own 4 MB is allocated before tracing starts
        grid = stft_grid(make_gaussian(1, 512, 0.1), WindowSpec(1.0))
        write_stft_csv(tmp_path / "warm.csv", grid)
        tracemalloc.start()
        try:
            write_stft_csv(tmp_path / "grid.csv", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000, peak

    def test_profile_table_write_peak_memory(self, tmp_path):
        # the 17,280 x 4 table of sweep-1d's profiles.csv: direction, lambda, magnitude, log
        rng = np.random.default_rng(6)
        mags = np.exp(-rng.uniform(0.0, 30.0, 17280))
        table = np.column_stack([np.repeat(np.arange(720.0), 24),
                                 np.tile(np.geomspace(2.0, 30.0, 24), 720), mags, np.log(mags)])
        _write_table(tmp_path / "warm.csv", ["a"], 1, lambda lo, hi: table[lo:hi])
        tracemalloc.start()
        try:
            _write_table(tmp_path / "t.csv", ["direction,lambda,magnitude,log_magnitude"],
                         len(table), lambda lo, hi: table[lo:hi])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600_000, peak

    def test_signal_round_trip_of_131072_samples(self, tmp_path):
        n = 131072
        rng = np.random.default_rng(13)
        sig = SampledSignal(0.01, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p = tmp_path / "sig.csv"
        write_signal_csv(p, sig)
        assert p.read_bytes() == reference_csv(reference_signal_rows(sig))
        back = read_signal_csv(p)
        assert back.dx == sig.dx and np.array_equal(back.values, sig.values)

    @pytest.mark.parametrize("exc", [
        DomainError("bad block"),
        OSError(errno.ENOSPC, "No space left on device", "t.csv"),
    ], ids=["domain-error", "enospc"])
    def test_failure_in_rows_propagates(self, tmp_path, exc):
        def rows(lo, hi):
            if lo <= 1500 < hi:
                raise exc
            return np.arange(lo, hi, dtype=float)[:, None]

        with pytest.raises(type(exc)) as info:
            _write_table(tmp_path / "t.csv", ["v"], 3000, rows)
        assert info.value is exc
        if isinstance(exc, OSError):
            assert (info.value.errno, info.value.filename) == (errno.ENOSPC, "t.csv")


class TestPolyJson:
    def test_round_trip(self):
        p = poly_1d(1.0, 0.0, -2.5)
        d = {"dim": 1, "coeffs": [{"alpha": [k], "c": c} for k, c in enumerate(p.coeffs.tolist())]}
        back = poly_from_dict(json.loads(json.dumps(d)))
        np.testing.assert_array_equal(back.coeffs, p.coeffs)

    def test_spec_shape(self):
        # terms in any order, degrees left out are 0, zero terms set no degree
        d = {"dim": 1, "coeffs": [{"alpha": [3], "c": 3.0}, {"alpha": [0], "c": -1.0},
                                  {"alpha": [2147483647], "c": 0.0}]}
        np.testing.assert_array_equal(poly_from_dict(d).coeffs, [-1.0, 0.0, 0.0, 3.0])
        # a degree far past any phase still builds its array at numpy speed
        big = poly_from_dict({"dim": 1, "coeffs": [{"alpha": [2 ** 20], "c": 1.0}]})
        assert big.degree == 2 ** 20 and np.count_nonzero(big.coeffs) == 1
        for spec in ({"dim": 2, "coeffs": [{"alpha": [1, 1], "c": 3.0}]},
                     {"dim": 1, "coeffs": [{"alpha": [1, 1], "c": 3.0}]},
                     {"dim": 1, "coeffs": [{"alpha": [], "c": 3.0}]}):
            with pytest.raises(ConfigError, match="dim|alpha"):
                poly_from_dict(spec)

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            poly_from_dict({"dim": 1})

    def test_repeated_multi_index_rejected(self):
        # a dict comprehension would keep only the last coefficient (5 x^2)
        for second in ([2], [2.0]):
            spec = {"dim": 1, "coeffs": [{"alpha": [2], "c": 1.0}, {"alpha": second, "c": 5.0}]}
            with pytest.raises(ConfigError, match="repeated"):
                poly_from_dict(spec)

    def test_non_finite_dim_and_index_rejected(self):
        # json.loads accepts Infinity and NaN; int() of them raises OverflowError / ValueError
        for text in ('{"dim": Infinity, "coeffs": [{"alpha": [3], "c": 1.0}]}',
                     '{"dim": 1, "coeffs": [{"alpha": [Infinity], "c": 1.0}]}',
                     '{"dim": 1, "coeffs": [{"alpha": [-Infinity], "c": 1.0}]}',
                     '{"dim": NaN, "coeffs": []}'):
            with pytest.raises(ConfigError):
                poly_from_dict(json.loads(text))

    def test_any_json_spec_parses_or_raises_config_error(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # every JSON scalar shape, non-finite floats and lists; integers and
        # integral floats stay small so a parsed polynomial is tiny
        value = st.one_of(st.integers(-2, 4), st.sampled_from([0.0, 1.0, 2.5, -1.0]),
                          st.sampled_from([math.inf, -math.inf, math.nan, None, 10 ** 400]),
                          st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2))
        alpha = st.one_of(st.lists(value, max_size=3), value)
        item = st.fixed_dictionaries({"alpha": alpha, "c": value})
        spec = st.one_of(
            st.fixed_dictionaries({"dim": value, "coeffs": st.lists(item, max_size=4)}),
            st.fixed_dictionaries({"dim": value}))

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(spec)
        def check(d):
            try:
                p = poly_from_dict(json.loads(json.dumps(d)))
            except ConfigError:
                return
            assert isinstance(p, PolynomialData)

        check()


def make_estimate(dirs, statuses, rhat, residual=None, n_valid=None, idx=AnisoIndex(1.0, 1.0),
                  lambdas=None, magnitudes=None) -> WFEstimate:
    """An estimate from its columns; residual and n_valid default to 0 and 9."""
    n = len(statuses)
    z = np.array(dirs, dtype=float).reshape(n, -1) if n else np.zeros((0, 2))
    status = np.array([STATUSES.index(s) for s in statuses], dtype=int)
    return WFEstimate(idx, 1.0, z, status, np.array(rhat, dtype=float), np.zeros(n),
                      np.zeros(n) if residual is None else np.array(residual, dtype=float),
                      np.full(n, 9) if n_valid is None else np.array(n_valid), lambdas, magnitudes)


def reference_estimate_dict(est) -> dict:
    """The estimate JSON object built entry by entry from the entries view, one
    dict per row: the reference whose dump_json bytes wf_estimate_to_dict must give."""
    entries = []
    for e in est.entries:
        rhat = None if math.isinf(e.fit.rhat) else e.fit.rhat
        entries.append({
            "dir": e.direction.z.tolist(),
            "rhat": rhat,
            "residual": e.fit.residual,
            "n_valid": e.fit.n_valid,
            "singular": e.singular,
            "status": e.status,
        })
    return {
        "idx": {"t": est.idx.t, "s": est.idx.s},
        "threshold": est.r_threshold,
        "entries": entries,
    }


class TestEstimateExport:
    def test_sentinel_rhat_null(self):
        e = make_estimate([[1.0, 0.0]], ["unreachable"], [math.inf], n_valid=[0])
        d = json.loads(dump_json(wf_estimate_to_dict(e)))
        assert d["entries"][0]["rhat"] is None
        assert d["entries"][0]["singular"] is False
        assert d["entries"][0]["status"] == "unreachable"

    def test_columns_write_the_bytes_of_the_entry_dicts(self):
        # every status, an infinite rate (null), a -0.0 component, 17-digit floats
        third = 1.0 / 3.0
        est = make_estimate(
            [[-0.0, 1.0], [0.6, -0.8], [math.sqrt(0.5), -math.sqrt(0.5)], [-1.0, -0.0]],
            ["singular", "regular", "below-floor", "unreachable"],
            [0.05 + 1e-17, math.pi, math.inf, math.inf], residual=[third, 1e-300, 0.0, 0.0],
            n_valid=[24, 17, 2, 0], idx=AnisoIndex(1.2, 0.6))
        text = dump_json(wf_estimate_to_dict(est))
        assert text == dump_json(reference_estimate_dict(est))
        assert '"dir":[-0,1]' in text and '"rhat":null' in text
        assert [e["status"] for e in json.loads(text)["entries"]] == list(STATUSES)

    @pytest.mark.parametrize("seed, width", [(0, 2), (1, 4), (2, 4)])
    def test_random_columns_match_the_entry_dicts(self, seed, width):
        rng = np.random.default_rng(seed)
        n = 300
        z = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-20, 3, (n, 1))
        z[:, 1:][rng.random((n, width - 1)) < 0.15] = -0.0
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        statuses = rng.choice(STATUSES, n).tolist()
        rhat = np.where(rng.random(n) < 0.2, math.inf, rng.exponential(0.5, n))
        est = make_estimate(z, statuses, rhat, residual=rng.exponential(1e-3, n),
                            n_valid=rng.integers(0, 25, n))
        assert dump_json(wf_estimate_to_dict(est)) == dump_json(reference_estimate_dict(est))

    def test_no_rows(self):
        est = make_estimate([], [], [])
        assert dump_json(wf_estimate_to_dict(est)) == dump_json(reference_estimate_dict(est))
        assert json.loads(dump_json(wf_estimate_to_dict(est)))["entries"] == []

    def test_profile_csv(self, tmp_path):
        lam = np.geomspace(2.0, 20.0, 12)
        table = np.array([np.exp(-lam), np.full(12, np.nan), np.exp(-lam)])
        table[0, 9:] = np.nan
        table[2, 3] = 0.0
        est = make_estimate([[1.0, 0.0]] * 3, ["regular"] * 3, [1.0] * 3,
                            lambdas=lam, magnitudes=table)
        p = tmp_path / "profiles.csv"
        write_profile_csv(p, est)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "direction,lambda,magnitude,log_magnitude"
        assert len(lines) == 1 + 9 + 12
        assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 9 + ["2"] * 12
        assert lines[1] == (f"0,{lam[0]:.17g},{math.exp(-lam[0]):.17g},"
                            f"{math.log(math.exp(-lam[0])):.17g}")
        assert lines[10 + 3].endswith(",0,-inf")

    def test_profile_csv_bytes_match_reference(self, tmp_path):
        rng = np.random.default_rng(7)
        lam = np.geomspace(2.0, 60.0, 40)
        table = np.exp(-rng.uniform(0.0, 30.0, (50, 40)))
        table[4] = np.nan
        table[9, 25:] = np.nan
        table[11, 3] = 0.0
        # values on which np.log and math.log disagree on this host, if any
        cand = np.exp(-rng.uniform(0.0, 700.0, 200_000))
        split = cand[np.log(cand) != [math.log(c) for c in cand.tolist()]][:400]
        table[20:].flat[:split.size] = split
        est = make_estimate([[1.0, 0.0]] * 50, ["regular"] * 50, [1.0] * 50,
                            lambdas=lam, magnitudes=table)
        rows = [["direction", "lambda", "magnitude", "log_magnitude"]]
        for i, row in enumerate(table.tolist()):
            for la, mag in zip(lam.tolist(), row):
                if math.isfinite(mag):
                    rows.append([i, la, mag, math.log(mag) if mag > 0 else "-inf"])
        assert len(rows) - 1 > 1024
        p = tmp_path / "profiles.csv"
        write_profile_csv(p, est)
        assert p.read_bytes() == reference_csv(rows)
