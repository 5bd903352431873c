"""scripts/cli_checks.sh, the command-line checks that CI runs through the
installed console script, run here through `python -m solrepair.cli`, so
that every tier-1 run makes the same checks."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cli_checks.sh"
CHECKS = [
    "readme_quickstart",
    "report_names_a_wrongly_typed_session_value",
    "verify_the_fixtures_own_bodies",
    "verify_the_scope_probes",
    "build_the_fixtures_task_file",
    "build_corpus20_through_every_deny_list_bucket",
    "build_commented_declarations",
    "report_names_a_row_with_an_over_long_integer",
    "resume_after_a_torn_outcomes_row",
    "report_rejects_an_outcome_row_of_two_sessions",
    "run_config_with_n_samples_exits_2",
    "report_without_sessions_prints_unknown_cost",
    "report_rejects_another_runs_sessions",
    "report_rejects_the_sessions_of_another_run_over_the_same_tasks",
    "report_rejects_an_outcome_row_of_another_budget",
    "rows_are_canonical_json",
]

pytestmark = pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")


def run_checks(tmp_path: Path, solrepair: str | None, path: str | None = None) -> subprocess.CompletedProcess:
    """Run the script with SOLREPAIR set to `solrepair`, or unset when it
    is None, so that the script's default finds `solrepair` on PATH."""
    env = dict(
        os.environ,
        PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        TMPDIR=str(tmp_path),
    )
    env.pop("SOLREPAIR", None)
    if solrepair is not None:
        env["SOLREPAIR"] = solrepair
    if path is not None:
        env["PATH"] = os.pathsep.join([path, env.get("PATH", "")])
    return subprocess.run(["bash", str(SCRIPT)], env=env, capture_output=True, text=True, timeout=300)


def assert_every_check_passed(result: subprocess.CompletedProcess, tmp_path: Path) -> None:
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert [line[3:] for line in result.stdout.splitlines() if line.startswith("== ")] == CHECKS
    assert result.stdout.endswith("cli checks: all passed\n")
    # Every file a check wrote is gone.
    assert list(tmp_path.iterdir()) == []


def test_every_check_passes_through_the_module(tmp_path):
    result = run_checks(tmp_path, f"{sys.executable} -m solrepair.cli")
    assert_every_check_passed(result, tmp_path)


def test_the_default_command_runs_solrepair_from_path(tmp_path):
    # SOLREPAIR unset, as CI runs the script: the default `solrepair` must
    # reach the program of that name on PATH, here a shim for the module.
    bin_dir, tmp = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    tmp.mkdir()
    shim = bin_dir / "solrepair"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m solrepair.cli "$@"\n')
    shim.chmod(0o755)
    result = run_checks(tmp, None, path=str(bin_dir))
    assert_every_check_passed(result, tmp)


def test_a_failing_check_stops_the_script(tmp_path):
    result = run_checks(tmp_path, "false")
    assert result.returncode != 0
    assert result.stderr.endswith(f"cli check failed: {CHECKS[0]}\n")
    assert "all passed" not in result.stdout


def test_a_failure_before_the_first_check_is_named(tmp_path):
    # mktemp fails in a temporary directory that does not exist.
    result = run_checks(tmp_path / "missing", f"{sys.executable} -m solrepair.cli")
    assert result.returncode != 0
    assert result.stderr.endswith("cli check failed: setup\n")
    assert "== " not in result.stdout
