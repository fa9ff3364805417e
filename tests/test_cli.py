import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from anisowf.cli import COMMANDS, main
from anisowf.io import poly_to_dict, write_signal_csv
from anisowf.poly import poly_1d
from anisowf.signals import make_gaussian

XSQ = poly_to_dict(poly_1d(0.0, 0.0, 1.0))


def run_cli(tmp_path, command, config, seed=0, name="cfg.json", outname="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    outdir = tmp_path / outname
    code = main([command, "--config", str(cfg_path), "--out", str(outdir),
                 "--seed", str(seed)])
    return code, outdir


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
            ("relation", {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]], "scales": "ab",
                          "index": {"t": 1.0, "s": 1.0}}, "scales"),
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
            ("seminorm", {"signal": gauss, "index": {"t": 1.0, "s": 1.0}, "kind": "classical",
                          "max_order": 3.7, "h_values": [0.5]}, "max_order"),
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
    def test_grid_beyond_numpy_limits_exit_1(self, tmp_path, capsys, signal):
        # 16^40 samples overflow numpy's byte count and 101 axes its dimension
        # limit; both are refused before any array is built
        code, outdir = run_cli(tmp_path, "stft", {"signal": signal})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: a grid of 16^") and "Traceback" not in err, err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_chirp_coarse_grid_exit_3(self, tmp_path):
        cfg = {"signal": {"kind": "chirp", "n": 64, "dx": 1.0, "phase": XSQ}}
        code, outdir = run_cli(tmp_path, "stft", cfg)
        assert code == 3
        assert not (outdir / "stft_grid.csv").exists()


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


class TestRelationCommand:
    def test_identity_fixture(self, tmp_path):
        cfg = {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]],
               "tolerance": 1e-9}
        code, outdir = run_cli(tmp_path, "relation", cfg)
        assert code == 0
        report = json.loads((outdir / "composition.json").read_text())
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

    def test_classical_table(self, tmp_path):
        cfg = {"signal": {"kind": "gaussian", "n": 256, "dx": 0.1},
               "index": {"t": 1.0, "s": 1.0},
               "kind": "classical",
               "max_order": 2,
               "h_values": [0.5, 1.0]}
        code, outdir = run_cli(tmp_path, "seminorm", cfg)
        assert code == 0
        rows = json.loads((outdir / "seminorm.json").read_text())["values"]
        assert rows[0]["value"] >= rows[1]["value"]


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
        cfg = {"symbol": poly_to_dict(poly_1d(0.0, 0.0, 0.0, 1.0)), "time": 0.3,
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
        "relation": {"A": [[1.0, 2.0, 3.0, -4.0]], "B": [[2.0, 4.0]], "tolerance": 1e-9,
                     "scales": [2.0], "index": unit},
        "seminorm": {"signal": {"kind": "gaussian", "n": 128, "dx": 0.15}, "index": unit,
                     "kind": "classical", "max_order": 2, "h_values": [0.5]},
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
        stft_seminorm = dict(fuzz_fixture("seminorm", tmp_path), kind="stft")
        analytic = dict(fuzz_fixture("wf", tmp_path), signal={"kind": "analytic-gaussian"})
        cases = [("kernel-check", None, "eps_angle"), ("chirp-verify", None, "tol_angle"),
                 ("propagate-verify", None, "tol_angle"), ("seminorm", None, "h_values"),
                 ("seminorm", stft_seminorm, "r_values"), ("wf", None, "lambda.min"),
                 ("wf", None, "lambda.max"), ("stft", None, "signal.dx"),
                 ("stft", None, "signal.width"), ("wf", analytic, "signal.width"),
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
        ("seminorm", "max_order", "max_order"), ("chirp-verify", "phase.dim", "phase"),
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
