"""The benchmark's smoke run, as a tier-1 check.

perfbench/tracing.py wraps module-level names of solrepair (for example
corpus.filter_state_dependent, repair.substitute_function, harness.run_task
and scrub in corpus, executor and repair), and its correctness gate checks
every verdict against the generated plan. A refactor that renames one of
those names, calls around it, or changes a verdict, fails here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results: dict[str, dict] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("## workload "):
            workload = line.split()[-1]
        elif line.startswith("{"):
            results[workload] = json.loads(line)
    assert sorted(results) == ["build-flat", "complete-small", "repair-lcs"]
    assert all(result["correct"] is True for result in results.values())
    # Retrieval and verify are counted where repair calls
    # repair.lcs_retrieve_multi and repair.differential_verify; a call routed
    # around either name would read zero here.
    layers = results["repair-lcs"]["metrics"]
    assert layers["retrieval.calls"]["value"] > 0
    assert layers["executor.verify_calls"]["value"] > 0


def test_gate_reports_a_verifier_that_passes_everything(monkeypatch):
    """perfbench/selftest.py's false-pass check, in-process: with
    ScriptedDifferentialBackend.verify patched to pass every completion, one
    smoke pass of repair-lcs must report a problem. A mock that judged
    completions outside verify would escape the patch, and this would fail.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import selftest

    failures: list[str] = []
    try:
        selftest.gate_catches("repair-lcs", selftest.pass_everything, failures, "a false pass")
    finally:
        shutil.rmtree(selftest.SCRATCH, ignore_errors=True)
        for name in ("selftest", "run", "tracing", "workloads"):
            sys.modules.pop(name, None)
    assert failures == []
