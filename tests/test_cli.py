import contextlib
import copy
import csv
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from anisowf.cli import COMMANDS, main
from anisowf.estimator import product_sphere4
from anisowf.io import write_signal_csv
from anisowf.signals import SampledSignal, make_gaussian
from anisowf.stft import WindowSpec, stft_grid

XSQ = {"dim": 1, "coeffs": [{"alpha": [2], "c": 1.0}]}
PLANE = {"dim": 2, "coeffs": [{"alpha": [2, 0], "c": 1.0}, {"alpha": [0, 2], "c": 1.0}]}
# dim 1, but a multi-index of the plane's length
PLANE_ALPHA = {"dim": 1, "coeffs": [{"alpha": [2, 0], "c": 1.0}]}


def run_cli(tmp_path, command, config, seed=0, name="cfg.json", outname="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    outdir = tmp_path / outname
    code = main([command, "--config", str(cfg_path), "--out", str(outdir),
                 "--seed", str(seed)])
    return code, outdir


# the rest of a config for each command that reads a signal
SIGNAL_COMMANDS = {
    "stft": {},
    "wf": {"index": {"t": 1.0, "s": 1.0}},
    "propagate-verify": {"symbol": XSQ, "time": 0.1, "index": {"t": 1.2, "s": 1.2}},
    "seminorm": {"index": {"t": 1.0, "s": 1.0}, "r_values": [0.5]},
}


def check_signal_refused(tmp_path, capsys, signal, path):
    """Every command that reads a signal exits 2 naming path, with no traceback
    and no file written: propagate-verify writes no evolved.csv."""
    for command, rest in SIGNAL_COMMANDS.items():
        code, outdir = run_cli(tmp_path, command, dict(rest, signal=signal), outname=command)
        err = capsys.readouterr().err
        assert code == 2, (command, err)
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err, err
        assert not any(files for _, _, files in os.walk(outdir)), command


class TestStftCommand:
    def test_gaussian_moyal(self, tmp_path):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1},
               "window": {"width": 1.0}}
        code, outdir = run_cli(tmp_path, "stft", cfg)
        assert code == 0
        report = json.loads((outdir / "moyal.json").read_text())
        assert report["moyal_error"] <= 1e-6
        assert report["toolkit_version"]
        assert (outdir / "stft_grid.csv").exists()

    @pytest.mark.parametrize("value", [1e-170, 1e160])
    def test_norms_whose_squares_leave_the_double_range(self, tmp_path, value):
        # sum |u|^2 underflows to 0 for samples of 1e-170 and overflows for
        # 1e160: the norms scale with the samples and the Moyal error does not
        reports = {}
        for v in (1.0, value):
            path = tmp_path / f"{v}.csv"
            write_signal_csv(path, SampledSignal(0.1, np.full(16, v, dtype=complex)))
            cfg = {"signal": {"kind": "file", "path": str(path)}}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, outdir = run_cli(tmp_path, "stft", cfg, outname=f"out{v}")
            assert code == 0
            reports[v] = json.loads((outdir / "moyal.json").read_text())
        one, far = reports[1.0], reports[value]
        assert far["moyal_error"] == pytest.approx(one["moyal_error"], rel=1e-12)
        for key in ("signal_norm", "stft_norm"):
            assert far[key] == pytest.approx(value * one[key], rel=1e-12)

    def test_zero_signal_exit_1(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        write_signal_csv(path, SampledSignal(0.1, np.zeros(16, dtype=complex)))
        code, outdir = run_cli(tmp_path, "stft", {"signal": {"kind": "file", "path": str(path)}})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "zero signal" in err and "Traceback" not in err, err
        assert os.listdir(outdir) == []

    def test_missing_field_exit_2(self, tmp_path, capsys):
        gauss = {"kind": "gaussian", "n": 256, "dx": 0.1}
        kernel = {"symbol": XSQ, "time": 0.3, "index": {"t": 1.2, "s": 1.2}}
        wf = {"signal": gauss, "index": {"t": 1.0, "s": 1.0}, "sphere_samples": 90}
        empty, bad_index = tmp_path / "empty.csv", tmp_path / "bad_index.csv"
        empty.write_text("")
        bad_index.write_text("n,dx,dim\n16,0.1,1\nindex,x0,re,im\n99,0,1,0\n")
        sig_path = tmp_path / "sig.csv"
        write_signal_csv(sig_path, make_gaussian(1, 64, 0.25))
        lines = sig_path.read_text().splitlines(keepends=True)
        bad_bodies = {"truncated": lines[:3 + 37],
                      "huge": [lines[0], "65536,0.1,3\r\n"] + lines[2:],
                      "swapped": lines[:10] + [lines[11], lines[10]] + lines[12:]}
        for name, body in bad_bodies.items():
            (tmp_path / f"{name}.csv").write_text("".join(body))
        cases = [
            ("stft", {"signal": {"kind": "gaussian", "n": 256}}, "signal.dx"),
            ("stft", {"signal": dict(gauss, n="abc")}, "signal.n"),
            ("stft", {"signal": gauss, "window": {"width": "x"}}, "window.width"),
            ("relation", {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]],
                          "tolerance": "big"}, "tolerance"),
            ("seminorm", {"signal": gauss, "index": {"t": 1.0, "s": 1.0},
                          "kind": "stft", "r_values": 3}, "r_values"),
            ("chirp-verify", {"phase": {"dim": 1, "coeffs": [{"alpha": [3], "c": "abc"}]}},
             "phase"),
            ("propagate-verify", {"symbol": dict(XSQ, dim="one")}, "symbol"),
            ("kernel-check", {"symbol": {"dim": 1}}, "symbol"),
            ("stft", {"signal": {"kind": "chirp", "n": 64, "dx": 0.1,
                                 "phase": {"dim": 1, "coeffs": [{"alpha": [3, 1], "c": 1.0}]}}},
             "signal.phase"),
            ("wf", {"signal": {"kind": "analytic-chirp", "phase": {"dim": "one"}}},
             "signal.phase"),
            ("chirp-verify", {"phase": {"dim": 1.7, "coeffs": [{"alpha": [2], "c": 1.0}]}},
             "phase"),
            ("propagate-verify", {"symbol": {"dim": 1, "coeffs": [{"alpha": [2.5], "c": 1.0}]}},
             "symbol"),
            ("kernel-check", {"symbol": {"dim": 1, "coeffs": [{"alpha": [2], "c": "inf"}]}},
             "symbol"),
            ("stft", {"signal": {"kind": "chirp", "n": 64, "dx": 0.1,
                                 "phase": {"dim": 1, "coeffs": [{"alpha": [2], "c": "nan"}]}}},
             "signal.phase"),
            ("chirp-verify", {"phase": {"dim": 1, "coeffs": [{"alpha": [3], "c": 1.0},
                                                             {"alpha": [3], "c": 5.0}]}},
             "phase"),
            ("chirp-verify", {"phase": {"dim": math.inf, "coeffs": [{"alpha": [3], "c": 1.0}]}},
             "phase"),
            ("propagate-verify", {"symbol": {"dim": 1, "coeffs": [{"alpha": [math.inf],
                                                                   "c": 1.0}]}},
             "symbol"),
            ("stft", {"signal": {"kind": "chirp", "n": 64, "dx": 0.1,
                                 "phase": {"dim": 1, "coeffs": [{"alpha": [2], "c": 1.0},
                                                                {"alpha": [2.0], "c": 1.0}]}}},
             "signal.phase"),
            ("chirp-verify", {"phase": {"dim": 1, "coeffs": ""}}, "phase"),
            ("chirp-verify", {"phase": {"dim": 1, "coeffs": {}}}, "phase"),
            ("kernel-check", dict(kernel, sweep="abcd"), "sweep"),
            ("kernel-check", dict(kernel, sweep=[1, 2]), "sweep"),
            ("relation", {"A": "xx", "B": [[2.0, 4.0]]}, "A"),
            ("relation", {"A": [[1.0, 2.0, 3.0, -4.0], [1.0, 2.0]], "B": [[2.0, 4.0]]}, "A"),
            # A's rows are (x, y, xi, eta): twice as wide as B's, also when B is empty
            ("relation", {"A": [[1.0, 2.0, 3.0, 4.0]], "B": [[1.0, 2.0, 3.0, 4.0]]}, "A"),
            ("relation", {"A": [[1.0, 2.0]], "B": []}, "A"),
            ("relation", {"A": [[1.0] * 6], "B": []}, "A"),
            ("wf", {"signal": {"kind": "file", "path": str(tmp_path / "missing.csv")}},
             "signal.path"),
            ("wf", {"signal": {"kind": "file", "path": str(empty)}}, "signal.path"),
            ("wf", {"signal": {"kind": "file", "path": str(bad_index)}}, "signal.path"),
            *(("wf", {"signal": {"kind": "file", "path": str(tmp_path / f"{name}.csv")}},
               "signal.path") for name in bad_bodies),
            # values that JSON carries but int(), float() and bool() used to coerce
            ("wf", dict(wf, sphere_samples=90.9), "sphere_samples"),
            ("wf", dict(wf, sphere_samples=True), "sphere_samples"),
            ("kernel-check", dict(kernel, sweep=[True, 2, 2, 4]), "sweep"),
            ("kernel-check", dict(kernel, time=math.nan), "time"),
            ("kernel-check", dict(kernel, time="0.5"), "time"),
            ("wf", {**wf, "lambda": {"min": math.nan}}, "lambda.min"),
            ("wf", dict(wf, index={"t": math.inf, "s": 1.0}), "index.t"),
            ("stft", {"signal": gauss, "window": {"width": True}}, "window.width"),
            ("wf", dict(wf, window={"width": 1e-160}), "window.width"),
            ("relation", {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]], "tolerance": True},
             "tolerance"),
            ("stft", {"signal": dict(gauss, n=256.7)}, "signal.n"),
            ("wf", dict(wf, signal={"kind": "file", "path": True}), "signal.path"),
            ("chirp-verify", {"phase": {"dim": 1, "coeffs": [{"alpha": [2], "c": "1.0"}]}},
             "phase"),
            # the seminorm has one kind: an old classical config does not run as stft
            ("seminorm", {"signal": gauss, "index": {"t": 1.0, "s": 1.0}, "kind": "classical",
                          "r_values": [0.5]}, "kind"),
            # commands that read grid samples, given an analytic signal
            ("stft", {"signal": {"kind": "analytic-one"}}, "signal.kind"),
            ("seminorm", {"signal": {"kind": "analytic-gaussian"}, "index": {"t": 1.0, "s": 1.0},
                          "r_values": [0.5]}, "signal.kind"),
            ("propagate-verify", {"symbol": XSQ, "time": 0.25,
                                  "signal": {"kind": "analytic-delta"}}, "signal.kind"),
        ]
        for k, (command, cfg, path) in enumerate(cases):
            code, outdir = run_cli(tmp_path, command, cfg, outname=f"out{k}")
            err = capsys.readouterr().err
            assert code == 2, path
            assert path in err and "Traceback" not in err, err
            assert not any(files for _, _, files in os.walk(outdir)), path
        os.fstat(1)  # a path of true once opened and then closed stdout

    def test_out_names_a_file_exit_2(self, tmp_path, capsys):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1}}
        taken = tmp_path / "taken"
        taken.write_text("")
        for outname in ("taken", "taken/sub"):
            code, _ = run_cli(tmp_path, "stft", cfg, outname=outname)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: --out ") and "Traceback" not in err, err
        assert taken.read_text() == ""

    GRID_512 = {"signal": {"kind": "gaussian", "n": 512, "dx": 0.1}, "window": {"width": 1.0}}

    def test_grid_csv_fields_are_exact_17_digit_text(self, tmp_path):
        code, outdir = run_cli(tmp_path, "stft", self.GRID_512)
        assert code == 0
        with open(outdir / "stft_grid.csv", newline="") as fh:
            rows = csv.reader(fh)
            assert next(rows) == ["x", "xi", "re", "im", "abs"]
            n = 0
            for row in rows:
                assert len(row) == 5 and all(format(float(f), ".17g") == f for f in row), row
                n += 1
        assert n == 512 * 512, n

    def test_grid_csv_is_what_a_row_at_a_time_writer_writes(self, tmp_path):
        # n = 64, byte for byte; abs is Python's abs(complex), from which
        # math.hypot differs in the last bit
        cfg = {"signal": {"kind": "gaussian", "n": 64, "dx": 0.25}, "window": {"width": 1.0}}
        code, outdir = run_cli(tmp_path, "stft", cfg)
        assert code == 0
        g = stft_grid(make_gaussian(1, 64, 0.25), WindowSpec(1.0))
        ref = ["x,xi,re,im,abs\r\n"]
        for x, row in zip(g.positions().tolist(), g.values.tolist()):
            for xi, v in zip(g.frequencies().tolist(), row):
                ref.append("%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % (x, xi, v.real, v.imag, abs(v)))
        assert (outdir / "stft_grid.csv").read_bytes() == "".join(ref).encode()

    def test_unwritable_grid_of_512_exit_1(self, tmp_path, capsys):
        (tmp_path / "blocked" / "stft_grid.csv").mkdir(parents=True)
        code, _ = run_cli(tmp_path, "stft", self.GRID_512, outname="blocked")
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err, err

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        # an output name taken by a directory: the write fails and the directory stays
        blocked = tmp_path / "out" / "stft_grid.csv"
        blocked.mkdir(parents=True)
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1}}
        code, outdir = run_cli(tmp_path, "stft", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {blocked}: Is a directory\n", err
        assert blocked.is_dir() and os.listdir(outdir) == ["stft_grid.csv"]
        # the report written before the failed one is removed
        blocked = tmp_path / "wf" / "profiles.csv"
        blocked.mkdir(parents=True)
        cfg = {"signal": {"kind": "analytic-gaussian"}, "index": {"t": 1.0, "s": 1.0},
               "sphere_samples": 90, "lambda": {"min": 2.0, "max": 8.0, "n": 8}}
        code, outdir = run_cli(tmp_path, "wf", cfg, outname="wf")
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {blocked}: Is a directory\n", err
        assert os.listdir(outdir) == ["profiles.csv"]

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        code = main(["relation", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and "Traceback" not in err, err

    @pytest.mark.parametrize("signal", [
        {"kind": "gaussian", "n": 16, "dx": 2.0, "d": 40},
        {"kind": "gaussian", "n": 16, "dx": 2.0, "d": 100},
        {"kind": "chirp", "n": 16, "dx": 2.0,
         "phase": {"dim": 40, "coeffs": [{"alpha": [2] + [0] * 39, "c": 1.0}]}},
    ])
    def test_grid_of_many_axes_exit_2(self, tmp_path, capsys, signal):
        # a grid of 16^40 samples, or of 101 axes: sampled signals are 1-d, so
        # the field is refused before any array is built
        check_signal_refused(tmp_path, capsys, signal, "signal.d" if "d" in signal
                             else "signal.phase")

    def test_chirp_coarse_grid_exit_3(self, tmp_path):
        cfg = {"signal": {"kind": "chirp", "n": 64, "dx": 1.0, "phase": XSQ}}
        code, outdir = run_cli(tmp_path, "stft", cfg)
        assert code == 3
        assert not (outdir / "stft_grid.csv").exists()

    def test_2d_signal(self, tmp_path, capsys):
        # every signal kind is 1-d: d = 2 is refused before anything is built
        for signal in ({"kind": "gaussian", "d": 2, "n": 32, "dx": 0.5},
                       {"kind": "chirp", "d": 2, "n": 256, "dx": 0.1, "phase": XSQ},
                       {"kind": "analytic-gaussian", "d": 2},
                       {"kind": "analytic-one", "d": 2},
                       {"kind": "analytic-delta", "d": 2}):
            check_signal_refused(tmp_path, capsys, signal, "signal.d")

    @pytest.mark.parametrize("command, path, signal", [
        ("chirp-verify", "phase", None),
        ("propagate-verify", "symbol", None),
        ("kernel-check", "symbol", None),
        ("wf", "signal.phase", {"kind": "chirp", "n": 256, "dx": 0.1, "phase": PLANE}),
        ("wf", "signal.phase", {"kind": "analytic-chirp", "phase": PLANE}),
    ])
    def test_2d_polynomial_exit_2(self, tmp_path, capsys, command, path, signal):
        # every polynomial field is 1-d, and a 2-d one, or a 1-d one with a
        # two-entry alpha, is a config error naming it
        for k, poly in enumerate((PLANE, PLANE_ALPHA)):
            cfg = fuzz_fixture(command, tmp_path)
            if signal is None:
                cfg[path] = poly
            else:
                cfg["signal"] = dict(signal, phase=poly)
            code, outdir = run_cli(tmp_path, command, cfg, outname=f"out{k}")
            err = capsys.readouterr().err
            assert code == 2, err
            assert err.startswith(f"config error: {path}: ") and "Traceback" not in err, err
            assert not any(files for _, _, files in os.walk(outdir))


class TestWfCommand:
    def test_writes_estimate_and_profiles(self, tmp_path):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1},
               "window": {"width": 1.0},
               "index": {"t": 1.0, "s": 1.0},
               "sphere_samples": 90,
               "lambda": {"min": 2.0, "max": 8.0, "n": 24},
               "floor": 1e-11}
        code, outdir = run_cli(tmp_path, "wf", cfg)
        assert code == 0
        est = json.loads((outdir / "wf_estimate.json").read_text())
        assert len(est["entries"]) == 90
        assert not any(e["singular"] for e in est["entries"])
        assert sorted(os.listdir(outdir)) == ["profiles.csv", "wf_estimate.json"]
        lines = (outdir / "profiles.csv").read_text().splitlines()
        assert lines[0] == "direction,lambda,magnitude,log_magnitude"
        assert len(lines) == 1 + 90 * 24
        assert {line.split(",")[0] for line in lines[1:]} == {str(i) for i in range(90)}

    def test_index_guard(self, tmp_path):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1},
               "index": {"t": 0.4, "s": 1.0}, "sphere_samples": 90}
        code, _ = run_cli(tmp_path, "wf", cfg)
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"signal": {"kind": "analytic-one"},
               "window": {"width": 1.0},
               "index": {"t": 1.0, "s": 1.0},
               "sphere_samples": 90,
               "lambda": {"min": 2.0, "max": 100.0, "n": 24},
               "floor": 1e-8}
        code1, out1 = run_cli(tmp_path, "wf", cfg, outname="o1")
        code2, out2 = run_cli(tmp_path, "wf", cfg, outname="o2")
        assert code1 == code2 == 0
        for name in ("wf_estimate.json", "profiles.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_cone_steps_past_the_count_ceiling(self, tmp_path):
        # any cone wider than half the circle is the whole circle; 1e300 used to hang
        cfg = fuzz_fixture("wf", tmp_path)   # 90 directions
        entries = {}
        for steps in (44, 45, 500, 1e300):
            code, outdir = run_cli(tmp_path, "wf", dict(cfg, cone_steps=steps), outname=str(steps))
            assert code == 0
            entries[steps] = json.loads((outdir / "wf_estimate.json").read_text())["entries"]
        assert entries[500] == entries[1e300] == entries[45] != entries[44]

    def test_profiles_write_minus_inf_as_percent_does(self, tmp_path):
        # the analytic Gaussian's |V u| underflows to 0 far out: its log is -inf,
        # a value _format17 cannot decide, written in its cell as '%.17g' writes it
        cfg = {"signal": {"kind": "analytic-gaussian"}, "index": {"t": 1.0, "s": 1.0},
               "sphere_samples": 90, "lambda": {"min": 2.0, "max": 100.0, "n": 24},
               "floor": 1e-11}
        code, outdir = run_cli(tmp_path, "wf", cfg)
        assert code == 0
        with open(outdir / "profiles.csv", newline="") as fh:
            fields = [f for row in list(csv.reader(fh))[1:] for f in row]
        assert all(format(float(f), ".17g") == f for f in fields)
        assert "-inf" in fields

    def test_scales_past_the_double_range_are_unreachable(self, tmp_path, capsys):
        # 2^1000 is a double, 2.1^1000 is not: each curve keeps at most two of
        # its 24 samples, too few to fit, so every direction is unreachable
        cfg = {"signal": {"kind": "analytic-gaussian"}, "index": {"t": 1000.0, "s": 1.0},
               "sphere_samples": 90, "lambda": {"min": 2.0, "max": 8.0, "n": 24}}
        code, outdir = run_cli(tmp_path, "wf", cfg)
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        entries = json.loads((outdir / "wf_estimate.json").read_text())["entries"]
        assert len(entries) == 90 and {e["status"] for e in entries} == {"unreachable"}

    def test_huge_envelope_chirp_runs_without_warnings(self, tmp_path, capsys):
        # an envelope width whose square overflows leaves the unimodular chirp, which runs
        cfg = {"signal": {"kind": "chirp", "n": 256, "dx": 0.1, "phase": XSQ,
                          "envelope_width": 1e300},
               "index": {"t": 1.2, "s": 1.2}, "sphere_samples": 90,
               "lambda": {"min": 2.0, "max": 8.0, "n": 24}, "floor": 1e-6}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = run_cli(tmp_path, "wf", cfg)
        err = capsys.readouterr().err
        assert code == 0 and "Traceback" not in err, err


class TestFileSignal:
    def test_wf_from_signal_file(self, tmp_path):
        from anisowf.io import write_signal_csv
        from anisowf.signals import make_gaussian
        sig_path = tmp_path / "sig.csv"
        write_signal_csv(sig_path, make_gaussian(1, 256, 0.1))
        cfg = {"signal": {"kind": "file", "path": str(sig_path)},
               "window": {"width": 1.0},
               "index": {"t": 1.0, "s": 1.0},
               "sphere_samples": 90,
               "lambda": {"min": 2.0, "max": 8.0, "n": 24},
               "floor": 1e-11}
        code, outdir = run_cli(tmp_path, "wf", cfg)
        assert code == 0
        est = json.loads((outdir / "wf_estimate.json").read_text())
        assert not any(e["singular"] for e in est["entries"])


class TestChirpVerify:
    def test_quadratic_fixture(self, tmp_path):
        cfg = {"phase": XSQ,
               "index": {"t": 1.2, "s": 1.2},
               "window": {"width": 1.0},
               "sphere_samples": 360,
               "lambda": {"min": 2.0, "max": 60.0, "n": 24},
               "floor": 1e-8,
               "tol_angle": 0.09}
        code, outdir = run_cli(tmp_path, "chirp-verify", cfg)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["pass"] is True
        assert report["max_angle_error"] <= 0.09
        pred = json.loads((outdir / "prediction.json").read_text())
        assert pred["regime"] == "gradient-graph"
        counts = report["status_counts"]
        assert list(counts) == ["singular", "regular", "below-floor", "unreachable"]
        assert sum(counts.values()) == 360
        assert counts["singular"] == report["n_detected"]

    def test_readme_quadratic_example(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Example: verify the quadratic-chirp")[1]
        cfg = json.loads(example.split("```json")[1].split("```")[0])
        assert cfg["phase"] == XSQ and cfg["sphere_samples"] == 720
        code, outdir = run_cli(tmp_path, "chirp-verify", cfg)
        assert code == 0
        assert json.loads((outdir / "report.json").read_text())["pass"] is True

    def test_quintic_saddle_cluster(self, tmp_path):
        # 100 x^5 reaches its cluster of coalescing saddles at the origin; on
        # lambda 2-400 its singular directions lie on the predicted xi axis
        cfg = {"phase": {"dim": 1, "coeffs": [{"alpha": [5], "c": 100.0}]},
               "index": {"t": 1.0, "s": 1.5}, "window": {"width": 1.0}, "sphere_samples": 360,
               "lambda": {"min": 2.0, "max": 400.0, "n": 24}, "floor": 1e-8}
        code, outdir = run_cli(tmp_path, "chirp-verify", cfg)
        assert code == 0
        assert json.loads((outdir / "report.json").read_text())["pass"] is True

    def test_tiny_principal_part_is_elliptic(self, tmp_path, capsys):
        # 1e-10 x^3 vanishes only at 0: its frequency-axis prediction runs
        cfg = dict(fuzz_fixture("chirp-verify", tmp_path), index={"t": 1.5, "s": 1.2},
                   phase={"dim": 1, "coeffs": [{"alpha": [3], "c": 1e-10}]})
        code, outdir = run_cli(tmp_path, "chirp-verify", cfg)
        assert code == 0, capsys.readouterr().err
        assert json.loads((outdir / "prediction.json").read_text())["regime"] == "xi-axis"


class TestRelationCommand:
    def test_identity_fixture(self, tmp_path):
        cfg = {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]],
               "tolerance": 1e-9}
        code, outdir = run_cli(tmp_path, "relation", cfg)
        assert code == 0
        report = json.loads((outdir / "composition.json").read_text())
        assert report["composition"] == [[1.0, 3.0]]

    @pytest.mark.parametrize("a, b", [([], [[1.0, 2.0]]), ([[1.0, 2.0, 3.0, -4.0]], []),
                                      ([], [])])
    def test_an_empty_set_takes_the_width_of_the_other(self, tmp_path, a, b):
        code, outdir = run_cli(tmp_path, "relation", {"A": a, "B": b})
        assert code == 0
        report = json.loads((outdir / "composition.json").read_text())
        assert report["composition"] == []

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_extreme_coordinates(self, tmp_path, scale):
        # |x|^2 underflows to 0 or overflows to inf; the point is not the origin
        cfg = {"A": [[scale, 1.0, 0.0, -1.0]], "B": [[1.0, 1.0]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, outdir = run_cli(tmp_path, "relation", cfg)
        assert code == 0
        report = json.loads((outdir / "composition.json").read_text())
        assert report["composition"] == [[scale, 0.0]]

    def test_scales_are_ignored(self, tmp_path):
        # scales and index are read by nothing: the report holds the composition alone
        cfg = {"A": [[1, 2, 3, -4]], "B": [[2, 4]], "tolerance": 0.5, "scales": [1e300],
               "index": {"t": 1.2, "s": 1.2}}
        code, outdir = run_cli(tmp_path, "relation", cfg)
        assert code == 0
        report = json.loads((outdir / "composition.json").read_text())
        assert list(report) == ["toolkit_version", "seed", "config", "composition"]
        assert report["composition"] == [[1.0, 3.0]]


class TestSeminormCommand:
    def test_stft_table(self, tmp_path):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.2},
               "window": {"width": 1.0},
               "index": {"t": 1.0, "s": 1.0},
               "kind": "stft",
               "r_values": [0.5, 1.0]}
        code, outdir = run_cli(tmp_path, "seminorm", cfg)
        assert code == 0
        rows = json.loads((outdir / "seminorm.json").read_text())["values"]
        assert len(rows) == 2
        assert all(not r["divergent"] for r in rows)

    def test_frequency_edge_round_off_is_not_divergent(self, tmp_path):
        # at s = 0.6 the weight lifts the grid's round-off at xi = -pi/dx (7e-17)
        # past the true supremum; the closed form is 0.62002
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.2},
               "index": {"t": 1.0, "s": 0.6}, "r_values": [0.4]}
        code, outdir = run_cli(tmp_path, "seminorm", cfg)
        assert code == 0
        [row] = json.loads((outdir / "seminorm.json").read_text())["values"]
        assert list(row) == ["r", "value", "divergent"] and row["divergent"] is False
        assert row["value"] == pytest.approx(0.62002, rel=1e-3)


def kernel_graph_circle():
    """Criterion 8's predicted kernel wave front directions for x^2 at t = 0.3, both signs."""
    t = np.linspace(0, 2 * math.pi, 721)[:-1]
    v = np.column_stack([np.cos(t) + 0.6 * np.sin(t), np.cos(t), np.sin(t), -np.sin(t)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.vstack([v, -v])


class TestKernelCheck:
    def test_small_kernel_smoke(self, tmp_path):
        cfg = {"symbol": XSQ, "time": 0.3,
               "n": 128, "dx": 0.2216,
               "index": {"t": 1.2, "s": 1.2},
               "window": {"width": 1.0},
               "sweep": [4, 12, 12, 24],
               "lambda": {"min": 2.0, "max": 6.0, "n": 24},
               "r_threshold": 0.13, "floor": 1e-11,
               "moll_width_frac": 0.6, "eps_angle": 0.05}
        code, outdir = run_cli(tmp_path, "kernel-check", cfg)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["wf1_empty"] is True
        assert report["wf2_empty"] is True
        assert report["cone_constant"] >= 1.0
        rows = len(json.loads((outdir / "kernel_wf.json").read_text())["entries"])
        assert sum(report["status_counts"].values()) == rows
        # every row near a plane is counted, and the planes' singular rows are the offenders
        for plane in (1, 2):
            near = report[f"wf{plane}_rows"]
            assert near["singular"] == sum(o["plane"] == plane for o in report["offenders"])
            assert sum(near.values()) > 0

    @pytest.mark.parametrize("width, lam_max", [(10.0, 4.0), (1000.0, 4.0), (1000.0, 40.0),
                                                (1000.0, 400.0)])
    def test_curves_inside_the_window_cell_decide_nothing(self, tmp_path, width, lam_max):
        # a pure-position curve with lambda^t < W stays in the window's own cell,
        # where |V u| does not decay: such samples do not count, so these rows are
        # unreachable instead of singular, and the x^2 propagator passes its check
        cfg = fuzz_fixture("kernel-check", tmp_path)
        cfg["window"] = {"width": width}
        cfg["lambda"] = dict(cfg["lambda"], max=lam_max)
        code, outdir = run_cli(tmp_path, "kernel-check", cfg)
        assert code == 0
        entries = json.loads((outdir / "kernel_wf.json").read_text())["entries"]
        pure_x = {e["status"] for e in entries if not any(e["dir"][2:])}
        assert pure_x == {"unreachable"}

    @pytest.mark.parametrize("width, lam_max, confirmed", [(10.0, 40.0, False),
                                                           (1000.0, 4.0, False),
                                                           (1.0, 8.0, True)])
    def test_empty_traces_confirmed_only_by_regular_rows(self, tmp_path, width, lam_max,
                                                         confirmed):
        # a wide window against the lambda range leaves no regular row near either
        # plane: the traces are empty but unconfirmed, and the exit code stays 0
        cfg = fuzz_fixture("kernel-check", tmp_path)
        cfg["window"] = {"width": width}
        cfg["lambda"] = dict(cfg["lambda"], max=lam_max)
        code, outdir = run_cli(tmp_path, "kernel-check", cfg)
        report = json.loads((outdir / "report.json").read_text())
        assert code == 0 and report["wf1_empty"] and report["wf2_empty"]
        for plane in (1, 2):
            assert report[f"wf{plane}_confirmed"] is confirmed
            assert (report[f"wf{plane}_rows"]["regular"] > 0) is confirmed

    def test_same_seed_same_bytes(self, tmp_path):
        # the refinement jitter is the only randomness: the seed fixes every byte
        cfg = fuzz_fixture("kernel-check", tmp_path)
        out = {}
        for name, seed in (("a", 3), ("b", 3), ("c", 4)):
            assert run_cli(tmp_path, "kernel-check", cfg, seed=seed, outname=name)[0] == 0
            out[name] = (tmp_path / name / "kernel_wf.json").read_bytes()
        assert out["a"] == out["b"]
        n_sweep = len(product_sphere4(*cfg["sweep"]))
        rows = [json.loads(out[k])["entries"] for k in "ac"]
        assert len(rows[0]) > n_sweep and rows[0][:n_sweep] == rows[1][:n_sweep]
        assert rows[0][n_sweep:] != rows[1][n_sweep:]

    def test_flow_graph_at_large_lambda(self, tmp_path):
        # criterion 8's fixture, unmollified, with lambda up to 100: no reach cap stops it
        cfg = {"symbol": XSQ, "time": 0.3, "index": {"t": 1.2, "s": 1.2},
               "window": {"width": 1.0}, "sweep": [8, 24, 24, 64],
               "lambda": {"min": 2.0, "max": 100.0, "n": 24}, "r_threshold": 0.13,
               "floor": 1e-11, "eps_angle": 0.05}
        code, outdir = run_cli(tmp_path, "kernel-check", cfg)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["wf1_empty"] is True and report["wf2_empty"] is True
        entries = json.loads((outdir / "kernel_wf.json").read_text())["entries"]
        sing = np.array([e["dir"] for e in entries if e["singular"]])
        assert len(sing)
        tube = np.max(np.arccos(np.clip(np.max(sing @ kernel_graph_circle().T, axis=1), -1, 1)))
        assert tube <= 0.1

    def test_removed_reach_fields_are_ignored(self, tmp_path):
        # the kernel has no grid and no reach cap: configs that still set n, dx,
        # moll_width_frac, xi_reach_moll_frac or halve_check, valid or not,
        # run as if they did not
        cfg = fuzz_fixture("kernel-check", tmp_path)
        assert run_cli(tmp_path, "kernel-check", cfg, outname="new")[0] == 0
        want = (tmp_path / "new" / "kernel_wf.json").read_bytes()
        for k, old in enumerate(({"n": 512, "dx": 0.1108, "moll_width_frac": 0.6,
                                  "xi_reach_moll_frac": 1.0, "halve_check": True},
                                 {"n": 0, "dx": -1.0, "moll_width_frac": "abc"})):
            code, outdir = run_cli(tmp_path, "kernel-check", dict(cfg, **old), outname=f"old{k}")
            assert code == 0
            assert (outdir / "kernel_wf.json").read_bytes() == want
            report = json.loads((outdir / "report.json").read_text())
            assert "cone_constant_halved" not in report and "moll_width_frac" not in report

    def test_sweep_without_directions_exit_1(self, tmp_path, capsys):
        for k, sweep in enumerate(([0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 2, 0])):
            cfg = dict(fuzz_fixture("kernel-check", tmp_path), sweep=sweep)
            code, outdir = run_cli(tmp_path, "kernel-check", cfg, outname=f"out{k}")
            err = capsys.readouterr().err
            assert code == 1, (sweep, err)
            assert "Traceback" not in err and "no direction" in err, err
            assert not any(files for _, _, files in os.walk(outdir)), sweep

    def test_cubic_symbol_in_the_flow_regime(self, tmp_path, capsys):
        # x^3 at t = s(m - 1) with lambda up to 100: a sampled line would alias,
        # the analytic one has no grid
        cfg = {"symbol": {"dim": 1, "coeffs": [{"alpha": [3], "c": 1.0}]}, "time": 0.3,
               "index": {"t": 1.2, "s": 0.6},
               "window": {"width": 1.0},
               "sweep": [4, 12, 12, 24],
               "lambda": {"min": 2.0, "max": 100.0, "n": 24},
               "r_threshold": 0.13, "floor": 1e-11, "eps_angle": 0.05}
        code, outdir = run_cli(tmp_path, "kernel-check", cfg)
        assert code == 0, capsys.readouterr().err
        report = json.loads((outdir / "report.json").read_text())
        assert report["wf1_empty"] is True
        assert report["wf2_empty"] is True
        assert math.isfinite(report["cone_constant"])
        entries = json.loads((outdir / "kernel_wf.json").read_text())["entries"]
        assert any(e["singular"] for e in entries)

    def test_far_sweep_underflows_without_warnings(self, tmp_path, capsys):
        # at t = 400 the sweep reaches |x| ~ 1e160, where the closed forms' squares
        # overflow: the values there underflow to 0, with no floating-point warning
        cfg = {"symbol": XSQ, "time": 0.3, "index": {"t": 400.0, "s": 1.2},
               "window": {"width": 1.0}, "sweep": [4, 12, 12, 24],
               "lambda": {"min": 2.0, "max": 6.0, "n": 24}, "r_threshold": 0.13,
               "floor": 1e-11, "eps_angle": 0.05}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = run_cli(tmp_path, "kernel-check", cfg)
        err = capsys.readouterr().err
        assert code == 0 and "Traceback" not in err, err


class TestPropagateVerify:
    def test_small_fixture(self, tmp_path):
        cfg = {"symbol": XSQ, "time": 0.25,
               "signal": {"kind": "chirp", "n": 8192, "dx": 0.035,
                          "phase": XSQ, "envelope_width": 7.0,
                          "alias_guard_level": 2e-7},
               "index": {"t": 1.2, "s": 1.2},
               "window": {"width": 1.0},
               "sphere_samples": 360,
               "lambda": {"min": 2.0, "max": 30.0, "n": 24},
               "r_threshold": 0.26, "floor": 1e-6,
               "tol_angle": 0.09}
        code, outdir = run_cli(tmp_path, "propagate-verify", cfg)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["pass"] is True
        for name in ("before", "after"):
            rows = len(json.loads((outdir / f"{name}.json").read_text())["entries"])
            assert sum(report["status_counts"][name].values()) == rows

    def test_evolved_csv_fields_are_exact_17_digit_text(self, tmp_path):
        # the fuzz fixture: a chirp of n = 256 at dx 0.1 under an envelope of width 2
        code, outdir = run_cli(tmp_path, "propagate-verify",
                               fuzz_fixture("propagate-verify", tmp_path))
        assert code == 0
        with open(outdir / "evolved.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2] == ["index", "x0", "re", "im"], rows[2]
        body = rows[3:]
        assert len(body) == 256 and all(len(row) == 4 for row in body)
        assert [row[0] for row in body] == [str(i) for i in range(256)]
        fields = [f for row in body for f in row[1:]]
        assert all(format(float(f), ".17g") == f for f in fields)
        # some point falls inside the digits: fixed notation with two or more integer digits
        assert any("e" not in f and f.lstrip("-").find(".") >= 2 for f in fields)


def fuzz_fixture(command, tmp_path):
    """A small config that command runs with exit 0 in well under a second."""
    window, lam = {"width": 1.0}, {"min": 2.0, "max": 8.0, "n": 12}
    index, unit = {"t": 1.2, "s": 1.2}, {"t": 1.0, "s": 1.0}
    write_signal_csv(tmp_path / "sig.csv", make_gaussian(1, 64, 0.2))
    return {
        "stft": {"signal": {"kind": "gaussian", "n": 64, "dx": 0.2, "width": 1.0},
                 "window": window},
        "wf": {"signal": {"kind": "file", "path": str(tmp_path / "sig.csv")}, "window": window,
               "index": unit, "sphere_samples": 90, "cone_steps": 1, "lambda": lam,
               "r_threshold": 1.0, "floor": 1e-11},
        "chirp-verify": {"phase": XSQ, "index": index, "window": window, "sphere_samples": 90,
                         "lambda": lam, "floor": 1e-8, "tol_angle": 0.09},
        "propagate-verify": {"symbol": XSQ, "time": 0.1,
                             "signal": {"kind": "chirp", "n": 256, "dx": 0.1, "phase": XSQ,
                                        "envelope_width": 2.0, "alias_guard_level": 1e-6},
                             "index": index, "window": window, "sphere_samples": 90,
                             "lambda": lam, "r_threshold": 0.26, "floor": 1e-6,
                             "tol_angle": 0.09},
        "kernel-check": {"symbol": XSQ, "time": 0.3, "index": index, "window": window,
                         "sweep": [2, 2, 2, 4], "lambda": {"min": 2.0, "max": 4.0, "n": 12},
                         "r_threshold": 0.13, "floor": 1e-11, "eps_angle": 0.05},
        "relation": {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]], "tolerance": 1e-9},
        "seminorm": {"signal": {"kind": "gaussian", "n": 128, "dx": 0.15}, "window": window,
                     "index": unit, "kind": "stft", "r_values": [0.5]},
    }[command]


def field_paths(node, prefix=()):
    """Key path of every field in a config, nested objects included."""
    for key, child in node.items():
        yield prefix + (key,)
        if isinstance(child, dict):
            yield from field_paths(child, prefix + (key,))


DROP = "<drop>"
# wrong types, non-finite numbers and out-of-range numbers; no value grows a grid
FUZZ_VALUES = [DROP, "ab", "0.5", True, False, None, math.nan, math.inf, -math.inf,
               [1.0], {"a": 1.0}, -1, 0, 0.5]


class TestWarnings:
    def test_main_lets_warnings_out(self, tmp_path, monkeypatch):
        def warn(config, out, seed):
            warnings.warn("overflow in a command", RuntimeWarning)

        monkeypatch.setitem(COMMANDS, "relation", warn)
        with pytest.warns(RuntimeWarning, match="overflow in a command"):
            code, _ = run_cli(tmp_path, "relation", {})
        assert code == 0


class TestModuleEntryPoint:
    def test_python_m_exit_codes(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
        good = {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]]}
        for k, (cfg, want) in enumerate(((good, 0), (dict(good, tolerance="big"), 2))):
            cfg_path = tmp_path / f"cfg{k}.json"
            cfg_path.write_text(json.dumps(cfg))
            proc = subprocess.run([sys.executable, "-m", "anisowf.cli", "relation",
                                   "--config", str(cfg_path), "--out", str(tmp_path / f"out{k}")],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == want, proc.stderr
            assert "Traceback" not in proc.stderr
        assert (tmp_path / "out0" / "composition.json").exists()


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_mutated_fixture_exits_cleanly(self, tmp_path, command):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        fixture = fuzz_fixture(command, tmp_path)
        assert run_cli(tmp_path, command, fixture)[0] == 0
        runs = itertools.count()

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.sampled_from(list(field_paths(fixture))), st.sampled_from(FUZZ_VALUES))
        def check(path, value):
            cfg = copy.deepcopy(fixture)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            if value is DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, outdir = run_cli(tmp_path, command, cfg, outname=f"fuzz{next(runs)}")
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code:
                assert not any(files for _, _, files in os.walk(outdir)), err.getvalue()

        check()

    def test_positive_fields_reject_zero_and_negative(self, tmp_path, capsys):
        analytic = dict(fuzz_fixture("wf", tmp_path), signal={"kind": "analytic-gaussian"})
        cases = [("kernel-check", None, "eps_angle"), ("chirp-verify", None, "tol_angle"),
                 ("propagate-verify", None, "tol_angle"), ("seminorm", None, "r_values"),
                 ("wf", None, "lambda.min"), ("wf", None, "lambda.max"),
                 ("stft", None, "signal.dx"), ("stft", None, "signal.width"),
                 ("wf", analytic, "signal.width"),
                 ("propagate-verify", None, "signal.dx"),
                 ("propagate-verify", None, "signal.envelope_width"),
                 ("propagate-verify", None, "signal.alias_guard_level"),
                 ("wf", None, "lambda.n"), ("chirp-verify", None, "lambda.n"),
                 ("propagate-verify", None, "lambda.n"), ("kernel-check", None, "lambda.n"),
                 ("stft", None, "signal.n"), ("seminorm", None, "signal.n"),
                 ("propagate-verify", None, "signal.n")]
        runs = itertools.count()
        for command, fixture, field in cases:
            for value in (0, -1):
                cfg = copy.deepcopy(fixture or fuzz_fixture(command, tmp_path))
                *parents, key = field.split(".")
                node = functools.reduce(dict.__getitem__, parents, cfg)
                node[key] = [value] if key.endswith("_values") else value
                code, _ = run_cli(tmp_path, command, cfg, outname=f"out{next(runs)}")
                err = capsys.readouterr().err
                assert code == 2, (command, field, value)
                assert field in err and "Traceback" not in err, err

    # (command, field path, the name the error gives it): a list item is named
    # by its list, a polynomial's field by the polynomial first
    @pytest.mark.parametrize("command, path, named", [
        ("wf", "sphere_samples", "sphere_samples"),
        ("chirp-verify", "sphere_samples", "sphere_samples"),
        ("propagate-verify", "sphere_samples", "sphere_samples"),
        ("wf", "lambda.n", "lambda.n"), ("chirp-verify", "lambda.n", "lambda.n"),
        ("kernel-check", "lambda.n", "lambda.n"), ("kernel-check", "sweep.0", "sweep"),
        ("kernel-check", "sweep.3", "sweep"),
        ("stft", "signal.n", "signal.n"), ("propagate-verify", "signal.n", "signal.n"),
        ("seminorm", "signal.n", "signal.n"), ("stft", "signal.d", "signal.d"),
        ("seminorm", "signal.d", "signal.d"), ("chirp-verify", "phase.dim", "phase"),
        ("chirp-verify", "phase.coeffs.0.alpha.0", "phase")])
    def test_huge_counts_exit_2(self, tmp_path, capsys, command, path, named):
        # 1e300 used to overflow an allocation or an int conversion with a raw traceback
        cfg = copy.deepcopy(fuzz_fixture(command, tmp_path))
        *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
        functools.reduce(lambda node, k: node[k], parents, cfg)[key] = 1e300
        code, outdir = run_cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err and f"{named}: invalid value" in err, err
        assert "at most 2147483647" in err, err
        assert not any(files for _, _, files in os.walk(outdir))

    @pytest.mark.parametrize("command", ["stft", "wf", "chirp-verify", "seminorm",
                                         "kernel-check"])
    def test_window_width_past_2_511_exit_2(self, tmp_path, capsys, command):
        # width^2 of 1e160 used to end in a raw OverflowError in the window's values
        cfg = dict(fuzz_fixture(command, tmp_path), window={"width": 1e160})
        code, outdir = run_cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err and "window.width: invalid value" in err, err
        assert not any(files for _, _, files in os.walk(outdir))

    def test_kernel_window_past_2_510_5_exit_2(self, tmp_path, capsys):
        # the kernel's chirp window has width 1/(sqrt(2) W): past W = 2^510.5 it is
        # below 2^-511, which used to end in exit 1 after the config was accepted
        cfg = fuzz_fixture("kernel-check", tmp_path)
        codes = {}
        for e in (510.25, 510.75):
            codes[e], outdir = run_cli(tmp_path, "kernel-check",
                                       dict(cfg, window={"width": 2.0 ** e}), outname=str(e))
            err = capsys.readouterr().err
            assert "Traceback" not in err, err
        assert codes[510.25] != 2
        assert codes[510.75] == 2 and err.startswith("config error: window.width: "), err
        assert not any(files for _, _, files in os.walk(outdir))

    # a chirp envelope of 1e-300 used to give non-finite samples (exit 1), and a
    # Gaussian width of 1e-160 failed the window's floor (exit 1)
    @pytest.mark.parametrize("command, signal, field", [
        ("propagate-verify", {"envelope_width": 1e-300}, "signal.envelope_width"),
        ("stft", {"width": 1e-160}, "signal.width"),
        ("wf", {"kind": "analytic-gaussian", "width": 1e-160}, "signal.width")])
    def test_signal_widths_past_the_double_range_exit_2(self, tmp_path, capsys, command,
                                                        signal, field):
        cfg = fuzz_fixture(command, tmp_path)
        cfg["signal"] = dict(cfg["signal"], **signal) if "kind" not in signal else signal
        code, outdir = run_cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err and f"{field}: invalid value" in err, err

    def test_huge_envelope_runs_as_the_unenveloped_chirp(self, tmp_path, capsys):
        # an envelope width of 1e300 used to overflow its square with a raw
        # OverflowError; its envelope is 1 to double precision
        cfg = fuzz_fixture("propagate-verify", tmp_path)
        huge = copy.deepcopy(cfg)
        huge["signal"]["envelope_width"] = 1e300
        del cfg["signal"]["envelope_width"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            codes = [run_cli(tmp_path, "propagate-verify", c, outname=name)[0]
                     for c, name in ((huge, "huge"), (cfg, "none"))]
        assert codes == [0, 0], capsys.readouterr().err
        for name in ("evolved.csv", "before.json", "after.json"):
            assert ((tmp_path / "huge" / name).read_bytes()
                    == (tmp_path / "none" / name).read_bytes())

    def test_kernel_grid_size_zero_exits_like_a_bad_size(self, tmp_path, capsys):
        # n = 0 used to reach a division by zero, then exited 1 like n = 1000; the
        # kernel has no grid now, so both run like a config that sets no n
        cfg = fuzz_fixture("kernel-check", tmp_path)
        assert run_cli(tmp_path, "kernel-check", cfg, outname="none")[0] == 0
        want = (tmp_path / "none" / "kernel_wf.json").read_bytes()
        for k, n in enumerate((0, 1000)):
            code, outdir = run_cli(tmp_path, "kernel-check", dict(cfg, n=n), outname=f"out{k}")
            err = capsys.readouterr().err
            assert code == 0, (n, err)
            assert "Traceback" not in err, err
            assert (outdir / "kernel_wf.json").read_bytes() == want
