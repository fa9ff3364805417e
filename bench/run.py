"""anisowf benchmark: one workload, repeated for a fixed time, in fresh processes.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-1d --seed 0 --seconds 10 --trace 0

Each repetition runs the workload's steps in a fresh single-threaded
interpreter (bench/worker.py) on inputs made from the seed, then checks
every step's verdict.  Repetitions continue until --seconds have passed
(at least one runs).  The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics (medians over the
repetitions), with --trace 1 the per-module metrics (medians over traced
repetitions, which alternate with untraced ones) and the tracing overhead.  The line before it records the environment.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in every workload process,
# set before numpy loads.  A second thread only spins on these workloads,
# and it changes which near-tied kernel directions get refined.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

# Spawns of `import anisowf` per run; the median is setup_s.  One more runs
# first, unmeasured, so bytecode compilation is not counted.
SETUP_SPAWNS = 9
# Every repetition must end this long after start, inside the 180 s limit.
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

# name -> unit; counts of work are exact, times are inclusive (s) or
# exclusive of traced callees (self_s).
PER_LAYER = {
    "stft.point.sampled_d1.calls": "count",
    "stft.point.sampled_d1.s": "s",
    "stft.point.sampled_d2.calls": "count",
    "stft.point.sampled_d2.s": "s",
    "stft.point.closed_form.calls": "count",
    "stft.point.closed_form.s": "s",
    "stft.point.quadratic_chirp.calls": "count",
    "stft.point.quadratic_chirp.s": "s",
    "stft.point.chirp_quadrature.calls": "count",
    "stft.point.chirp_quadrature.s": "s",
    "stft.point.chirp_quadrature.zero_frac": "fraction",
    "stft.point.above_floor_frac": "fraction",
    "stft.grid.s": "s",
    "stft.moyal_error.s": "s",
    "poly.eval_poly.s": "s",
    "poly.eval_poly.nodes": "count",
    "poly.eval_grad.s": "s",
    "geometry.PhasePoint.count": "count",
    "geometry.scale_point.s": "s",
    "estimator.estimate_wf.self_s": "s",
    "estimator.estimate_kernel_wf.self_s": "s",
    "estimator.fit_rate_arrays.calls": "count",
    "estimator.fit_rate_arrays.s": "s",
    "estimator.curve_reach.s": "s",
    "estimator.directions": "count",
    "estimator.unreachable": "count",
    "io.write_stft_csv.s": "s",
    "io.write_profile_csv.calls": "count",
    "io.write_profile_csv.s": "s",
    "io.read_signal_csv.s": "s",
    "io.write_signal_csv.s": "s",
    "io.dump_json.s": "s",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    "evolution.propagate.s": "s",
    "evolution.kernel_signal.s": "s",
    "evolution.predict_transport.s": "s",
    "chirp.predict_chirp_wf.s": "s",
    "chirp.compare_wf.s": "s",
    "relation.compose.calls": "count",
    "relation.compose.s": "s",
    "relation.compose_via_projection.calls": "count",
    "relation.compose_via_projection.s": "s",
    "cli.stft.s": "s",
    "cli.wf.s": "s",
    "cli.chirp-verify.s": "s",
    "cli.propagate-verify.s": "s",
    "cli.kernel-check.s": "s",
    "cli.parse_signal.s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = (
    "stft.point.sampled_d1.calls", "stft.point.sampled_d2.calls",
    "stft.point.closed_form.calls", "stft.point.quadratic_chirp.calls",
    "stft.point.chirp_quadrature.calls", "poly.eval_poly.nodes",
    "geometry.PhasePoint.count", "estimator.directions", "io.bytes_written",
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_PINS)


def environment() -> dict:
    """What the numbers depend on besides the code: recorded with each run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
    }


def measure_setup(env: dict, spawns: int = SETUP_SPAWNS) -> float:
    """Median seconds from spawning an interpreter to `import anisowf` done."""
    code = ("import anisowf, sys, time; "
            "sys.stdout.write(repr(time.monotonic()) + ' ' + anisowf.__file__)")
    times = []
    for k in range(spawns + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, path = done.stdout.split(" ", 1)
        if not os.path.realpath(path).startswith(str(SRC) + os.sep):
            raise RuntimeError(f"anisowf imported from {path}, not from {SRC}")
        if k:
            times.append(float(stamp) - t0)
    return statistics.median(times)


def wait_with_rusage(proc: subprocess.Popen, deadline: float):
    """Reap proc (killing it at the deadline); return its exit code and rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def run_rep(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh process, in a fresh directory removed afterwards."""
    TMP.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    try:
        plan = workloads.prepare(workload, seed, rundir)
        cmd = [sys.executable, str(BENCH / "worker.py"), rundir, str(SRC)]
        if trace:
            cmd.append("--trace")
        t0 = time.monotonic()
        with open(os.path.join(rundir, "worker.log"), "w") as log:
            proc = subprocess.Popen(cmd, env=child_env(), cwd=rundir,
                                    stdout=log, stderr=subprocess.STDOUT)
            code, usage = wait_with_rusage(proc, deadline)
        rep = {"elapsed": time.monotonic() - t0,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "wall_s": None, "attempted": len(plan["steps"]), "passed": 0, "notes": []}
        if code != 0:
            with open(os.path.join(rundir, "worker.log")) as log:
                rep["notes"].append(f"worker exit {code}: {log.read()[-2000:]}")
            return rep
        with open(os.path.join(rundir, "result.json")) as fh:
            result = json.load(fh)
        rep["wall_s"] = result["wall_s"]
        for step, status in zip(plan["steps"], result["steps"]):
            if not status["ok"]:
                rep["notes"].append(f"{step['name']}: {status['error']}")
                continue
            ok, detail = workloads.check(rundir, step, seed)
            rep["passed"] += ok
            rep["notes"].append(f"{step['name']}: {'PASS' if ok else 'FAIL'} {detail}")
        if trace:
            layers = tracer.summarize(os.path.join(rundir, "spans.npz"),
                                      os.path.join(rundir, "counts.json"))
            written = [_tree_size(os.path.join(rundir, s["argv"][4]))
                       for s in plan["steps"] if s["kind"] == "cli"]
            layers["io.files_written"] = sum(f for f, _ in written)
            layers["io.bytes_written"] = sum(b for _, b in written)
            rep["layers"] = layers
        return rep
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, start: float) -> dict:
    """Repeat the workload until `seconds` have passed; traced runs alternate."""
    deadline = start + DEADLINE_S
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        plain.append(run_rep(workload, seed, False, deadline))
        if trace:
            traced.append(run_rep(workload, seed, True, deadline))
        now = time.monotonic()
        longest = max(r["elapsed"] for r in plain) + max((r["elapsed"] for r in traced), default=0)
        if now - t0 >= seconds or now + longest > deadline:
            break
    return {"plain": plain, "traced": traced}


def _median(reps, key):
    values = [r[key] for r in reps if r[key] is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(plain: list, setup_s: float) -> dict:
    done = [r for r in plain if r["wall_s"] is not None]
    attempted = sum(r["attempted"] for r in plain)
    return {
        "wall_s": _median(done, "wall_s") if done else _median(plain, "elapsed"),
        "setup_s": setup_s,
        "cpu_s": _median(plain, "cpu_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "pass_frac": sum(r["passed"] for r in plain) / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    layered = [r["layers"] for r in traced if "layers" in r]
    out = {}
    for name in PER_LAYER:
        values = [lay.get(name, 0) for lay in layered]
        out[name] = statistics.median(values) if values else 0.0
    out["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anisowf benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "anisowf" / "__init__.py").is_file():
        print(f"no anisowf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the verdict checks call the package too

    setup_s = measure_setup(child_env())
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), start)
    with contextlib.suppress(OSError):
        TMP.rmdir()
    reps = runs["plain"] + runs["traced"]
    for i, rep in enumerate(reps):
        for note in rep["notes"]:
            print(f"[rep {i}] {note}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted - sum(r["passed"] for r in reps)
    if args.trace:
        values, units = per_layer(runs["plain"], runs["traced"]), PER_LAYER
    else:
        values, units = end_to_end(runs["plain"], setup_s), END_TO_END
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "repetitions": len(runs["plain"]),
                      "traced_repetitions": len(runs["traced"])}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
