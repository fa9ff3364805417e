"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py RUNDIR SRC [--trace]

Runs the steps of RUNDIR/plan.json with RUNDIR as the working directory and
writes RUNDIR/result.json.  The timed region covers the steps only: import,
input loading and writing the library steps' results lie outside it.  CLI
steps call ``anisowf.cli.main`` with the argv a user would type.  With
--trace, the tracer wraps the package first and writes its spans after the
timed region.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def run_relation_pairs(relation, instances):
    out = []
    for a_pts, b_pts in instances:
        a = relation.PointSet(a_pts, tolerance=0.5)
        b = relation.PointSet(b_pts, tolerance=0.5)
        out.append((relation.compose(a, b).points, relation.compose_via_projection(a, b).points))
    return out


def run_tensor_sweep(anisowf, kwargs):
    pair = anisowf.signals.tensor_signal(anisowf.signals.one_signal(1),
                                         anisowf.signals.delta_signal(1))
    kw = dict(kwargs, sweep=tuple(kwargs["sweep"]), lambda_range=tuple(kwargs["lambda_range"]))
    est = anisowf.estimator.estimate_kernel_wf(
        pair, anisowf.stft.WindowSpec(1.0), anisowf.geometry.AnisoIndex(1.0, 1.0), **kw)
    return est


def main(argv) -> int:
    rundir, src = argv[1], os.path.realpath(argv[2])
    trace = "--trace" in argv[3:]
    os.chdir(rundir)
    with open("plan.json") as fh:
        plan = json.load(fh)

    import anisowf
    import anisowf.cli
    if not os.path.realpath(anisowf.__file__).startswith(src + os.sep):
        print(f"anisowf imported from {anisowf.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    inputs = {}
    for step in plan["steps"]:
        if "input" in step:
            with open(step["input"]) as fh:
                inputs[step["name"]] = json.load(fh)

    results = []
    outputs = {}
    t0 = time.perf_counter()
    for step in plan["steps"]:
        if tracer is not None:
            tracer.floor = step["floor"]
        status = {"name": step["name"], "ok": False, "error": None}
        try:
            if step["kind"] == "cli":
                rc = anisowf.cli.main(step["argv"])
                status["ok"] = rc == 0
                if rc != 0:
                    status["error"] = f"exit code {rc}"
            elif step["kind"] == "relation-pairs":
                outputs[step["name"]] = run_relation_pairs(anisowf.relation,
                                                           inputs[step["name"]])
                status["ok"] = True
            elif step["kind"] == "tensor-sweep":
                outputs[step["name"]] = run_tensor_sweep(anisowf, step["kwargs"])
                status["ok"] = True
        except (Exception, SystemExit):
            status["error"] = traceback.format_exc()
        results.append(status)
    wall = time.perf_counter() - t0

    for step in plan["steps"]:
        value = outputs.get(step["name"])
        if value is None:
            continue
        if step["kind"] == "relation-pairs":
            value = [[left.tolist(), right.tolist()] for left, right in value]
        else:
            value = [e.direction.z.tolist() for e in value.entries if e.singular]
        with open(step["output"], "w") as fh:
            json.dump(value, fh)
    if tracer is not None:
        tracer.save("spans.npz", "counts.json")
    with open("result.json", "w") as fh:
        json.dump({"wall_s": wall, "steps": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
