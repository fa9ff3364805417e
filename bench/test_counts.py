"""Self-checks of the benchmark.

Run from the repository root: ``python3 -m pytest bench/test_counts.py -q``
(about three minutes: two traced repetitions of every workload).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    """Two traced runs at one seed pass every verdict and give identical counts."""
    deadline = time.monotonic() + 900.0
    first, second = (run.run_rep(workload, 0, True, deadline) for _ in range(2))
    for rep in (first, second):
        assert rep["passed"] == rep["attempted"], rep["notes"]
    drift = {name: (first["layers"].get(name, 0), second["layers"].get(name, 0))
             for name in run.EXACT_COUNTS
             if first["layers"].get(name, 0) != second["layers"].get(name, 0)}
    assert not drift


def test_self_time_excludes_children(tmp_path):
    t = tracer.Tracer()
    inner = t.wrap(lambda: time.sleep(0.02), "inner")
    outer = t.wrap(lambda: (inner(), inner(), time.sleep(0.01)), "outer")
    outer()
    t.save(str(tmp_path / "spans.npz"), str(tmp_path / "counts.json"))
    out = tracer.summarize(str(tmp_path / "spans.npz"), str(tmp_path / "counts.json"))
    assert out["inner.calls"] == 2 and out["outer.calls"] == 1
    assert out["outer.self_s"] == pytest.approx(out["outer.s"] - out["inner.s"])
    assert 0.01 <= out["outer.self_s"] < out["inner.s"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
