"""Self-test of the benchmark, at smoke size.

  python3 perfbench/selftest.py

Checks that:
  - the metric tables in run.py and tracing.py match BENCHMARK.json;
  - every workload passes its correctness gate with --trace 0 and --trace 1,
    and reports exactly the metrics BENCHMARK.json declares, with their units;
  - the gate catches a verifier that passes everything and a filter that
    keeps every function;
  - the benchmark exits non-zero, printing no result, where there is no
    solrepair source tree.
Exits 0 when all hold. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / f"selftest-{os.getpid()}"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_tables(failures: list[str]) -> None:
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != list(table):
            failures.append(f"BENCHMARK.json {key} differs from the code's table")
        else:
            print(f"ok   BENCHMARK.json {key} matches the code ({len(table)} metrics)")


def check_workloads(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"]:
                failures.append(f"{label}: exit {proc.returncode}, correct={result['correct']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
            if len(failures) == before:
                print(f"ok   {label}: {result['attempted']} tasks")


def gate_catches(workload: str, patch, failures: list[str], what: str) -> None:
    """Run one smoke pass with `patch` applied; the gate must report it."""
    import run
    from workloads import generate

    work = SCRATCH / what.replace(" ", "-")
    plan = generate(workload, 7, work, smoke=True)
    bench = run.Bench(work, plan)
    undo = patch()
    try:
        bench.one_pass()
    finally:
        undo()
    if bench.problems:
        print(f"ok   gate catches {what}: {bench.problems[0][:100]}")
    else:
        failures.append(f"gate missed {what}")


def pass_everything():
    from solrepair.executor import ScriptedDifferentialBackend

    original = ScriptedDifferentialBackend.verify

    def verify(self, oracle_source, completed_source, target_function_id):
        return self._verdict(time.perf_counter(), "pass")

    ScriptedDifferentialBackend.verify = verify
    return lambda: setattr(ScriptedDifferentialBackend, "verify", original)


def keep_everything():
    from solrepair import corpus

    original = corpus.filter_state_dependent
    corpus.filter_state_dependent = lambda record, file, config=None: corpus.FilterDecision(keep=True)
    return lambda: setattr(corpus, "filter_state_dependent", original)


def check_bare_directory(failures: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "build-flat", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []
    SCRATCH.mkdir(parents=True)
    try:
        check_tables(failures)
        check_workloads(failures)
        gate_catches("repair-lcs", pass_everything, failures, "a false pass")
        gate_catches("build-flat", keep_everything, failures, "a filter keeping everything")
        check_bare_directory(failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
