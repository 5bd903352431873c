"""The benchmark's smoke run, as a tier-1 check.

perfbench/tracing.py wraps module-level names of solrepair (for example
corpus.filter_state_dependent, repair.substitute_function, harness.run_task
and scrub in corpus, executor and repair), and its correctness gate checks
every verdict against the generated plan. A refactor that renames one of
those names, or changes a verdict, fails here.
"""

from __future__ import annotations

import json
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
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    assert all(result["correct"] is True for result in results)
