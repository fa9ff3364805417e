"""The verdicts, frozen: the status of every swept row, one character per row.

verdicts.json holds, for each acceptance criterion that sweeps (3-9) and for
the fuzz fixture of each sweeping CLI command, the status string of every
estimate_wf or estimate_kernel_wf call it makes, in call order; a row's
character is the first letter of its status in STATUSES.  The test recomputes
every sweep and compares exactly, so a change that moves a verdict shows it
as a diff of this file.  Regenerate it with

    PYTHONPATH=src python tests/test_verdicts.py
"""

import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np

import anisowf.cli
import test_acceptance
import test_cli
from anisowf.estimator import STATUSES

PATH = Path(__file__).with_name("verdicts.json")
CODES = np.array([status[0] for status in STATUSES])
CRITERIA = ("test_criterion_3_quadratic_chirp", "test_criterion_4_cubic_chirp_anisotropic",
            "test_criterion_5_regime_propositions", "test_criterion_6_propagation_flow",
            "test_criterion_7_invariant_regime", "test_criterion_8_kernel_graph_condition",
            "test_criterion_9_relation_and_tensor")
COMMANDS = ("chirp-verify", "wf", "propagate-verify", "kernel-check")


@contextlib.contextmanager
def recording(sweeps):
    """Append to sweeps the status string of each estimate the acceptance
    tests and the CLI make while the block runs."""
    saved = []
    for module in (test_acceptance, anisowf.cli):
        for name in ("estimate_wf", "estimate_kernel_wf"):
            estimate = getattr(module, name)

            def recorded(*args, _estimate=estimate, **kwargs):
                est = _estimate(*args, **kwargs)
                sweeps.append("".join(CODES[est.status]))
                return est

            saved.append((module, name, estimate))
            setattr(module, name, recorded)
    try:
        yield
    finally:
        for module, name, estimate in saved:
            setattr(module, name, estimate)


def compute() -> dict:
    verdicts = {}
    for name in CRITERIA:
        with recording(verdicts.setdefault(name, [])):
            getattr(test_acceptance, name)()
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            cfg = test_cli.fuzz_fixture(command, Path(tmp))
            with recording(verdicts.setdefault(f"cli {command}", [])):
                code, _ = test_cli.run_cli(Path(tmp), command, cfg, outname=command)
            assert code == 0, command
    return verdicts


def test_no_verdict_moves():
    frozen = json.loads(PATH.read_text())
    now = compute()
    assert list(now) == list(frozen)
    for name, sweeps in frozen.items():
        assert [len(s) for s in now[name]] == [len(s) for s in sweeps], name
        for k, (want, got) in enumerate(zip(sweeps, now[name])):
            moved = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
            assert not moved, f"{name} sweep {k}: rows {moved[:10]} moved"


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=1) + "\n")
