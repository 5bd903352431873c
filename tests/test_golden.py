"""Golden build and run outputs on the fixtures, reproduced byte for byte.

The files in tests/fixtures/e2e/golden pin the on-disk formats: the
corpus20 build stats, the e2e outcomes at max_rounds 0 and 1, and sha256
digests of the e2e session logs (with each verdict's wall-clock `elapsed`
set to 0), with and without the scripted executor table. Each run's exit
code and manifest are asserted too, so that a golden never pins a run that
ended otherwise than planned. Three runs complete with exit 0. The fourth,
`r1.generated` (one repair round, generated cases in place of the table),
is partial by design, with exit 3: the mock's feedback for the 10
wrong-arithmetic tasks then differs from the table's, so their repair
prompts are not in the strict scripted client and those tasks stay
incomplete. Its goldens pin the 40 rows it writes. Regenerate them on
purpose only, when a format changes on purpose:

    PYTHONPATH=src python tests/test_golden.py tests/fixtures/e2e/golden
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
E2E = FIXTURES / "e2e"
GOLDEN = E2E / "golden"

_ELAPSED = re.compile(rb'"elapsed":[-+0-9.eE]+')

# (name, max_rounds, with the executor table)
RUNS = [("r0", 0, True), ("r1", 1, True), ("r0.generated", 0, False), ("r1.generated", 1, False)]
# The wrong-arithmetic tasks, whose repair prompts differ without the table.
WRONG_ARITHMETIC = [f"bank{k}.sol#L{start}-{start + 3}" for k in range(5) for start in (32, 57)]
# Each run's exit code, manifest status and incomplete task ids.
ENDINGS = {
    "r0": (0, "complete", []),
    "r1": (0, "complete", []),
    "r0.generated": (0, "complete", []),
    "r1.generated": (3, "partial", WRONG_ARITHMETIC),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(out: Path, max_rounds: int, table: bool) -> tuple[int, dict, bytes, bytes]:
    """The run's exit code, its manifest, and its outcome and session logs."""
    from solrepair.harness import RunConfig, cmd_run

    config = RunConfig(
        task_file=str(E2E / "tasks.jsonl"),
        out_dir=str(out),
        source_root=str(E2E / "sources"),
        mock_client=str(E2E / "mock_client.json"),
        mock_executor=str(E2E / "mock_executor.json") if table else None,
        max_rounds=max_rounds,
        retrieval={"method": "lcs"} if max_rounds else None,
    )
    manifest, code = cmd_run(config)
    sessions = _ELAPSED.sub(b'"elapsed":0', (out / "sessions.jsonl").read_bytes())
    return code, manifest.to_json(), (out / "outcomes.jsonl").read_bytes(), sessions


def produce(work: Path) -> tuple[dict[str, bytes], dict[str, tuple[int, dict]]]:
    """Every golden file's bytes, computed by the code under test, and each
    run's exit code and manifest."""
    from solrepair.harness import cmd_build

    cmd_build(FIXTURES / "corpus20", work / "corpus20.tasks.jsonl", work / "corpus20.stats.json")
    cmd_build(E2E / "sources", work / "e2e.tasks.jsonl", work / "e2e.stats.json")
    files = {"corpus20.stats.json": (work / "corpus20.stats.json").read_bytes()}
    digests = {
        "corpus20.tasks.jsonl": _sha256((work / "corpus20.tasks.jsonl").read_bytes()),
        "e2e.stats.json": _sha256((work / "e2e.stats.json").read_bytes()),
        "e2e.tasks.jsonl": _sha256((work / "e2e.tasks.jsonl").read_bytes()),
    }
    endings = {}
    for name, max_rounds, table in RUNS:
        code, manifest, outcomes, sessions = _run(work / name, max_rounds, table)
        endings[name] = code, manifest
        if table:
            files[f"outcomes.{name}.jsonl"] = outcomes
        digests[f"outcomes.{name}.jsonl"] = _sha256(outcomes)
        digests[f"sessions.{name}.jsonl"] = _sha256(sessions)
    files["digests.json"] = (json.dumps(digests, indent=2, sort_keys=True) + "\n").encode()
    return files, endings


@pytest.fixture(scope="module")
def produced_with_endings(tmp_path_factory) -> tuple[dict[str, bytes], dict[str, tuple[int, dict]]]:
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def produced(produced_with_endings) -> dict[str, bytes]:
    return produced_with_endings[0]


@pytest.mark.parametrize("name", ENDINGS)
def test_golden_runs_end_as_planned(produced_with_endings, name):
    code, manifest = produced_with_endings[1][name]
    want_code, want_status, want_incomplete = ENDINGS[name]
    assert (code, manifest["status"], manifest["incomplete_task_ids"]) == (want_code, want_status, want_incomplete)
    assert manifest["tasks_completed"] == 50 - len(want_incomplete)


def test_golden_files_reproduced(produced):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(produced)
    for name, data in produced.items():
        assert (GOLDEN / name).read_bytes() == data, name


def test_committed_e2e_build_outputs_reproduced(produced):
    digests = json.loads(produced["digests.json"])
    assert digests["e2e.stats.json"] == _sha256((E2E / "stats.json").read_bytes())
    assert digests["e2e.tasks.jsonl"] == _sha256((E2E / "tasks.jsonl").read_bytes())


def test_golden_pass_rates(produced):
    def passed(name: str) -> int:
        rows = [json.loads(line) for line in produced[name].decode().splitlines()]
        return sum(row["c"] for row in rows)

    assert passed("outcomes.r0.jsonl") == 20
    assert passed("outcomes.r1.jsonl") == 40


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in produce(Path(tmp))[0].items():
            (target / name).write_bytes(data)
