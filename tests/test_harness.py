"""Run orchestration: config validation, build, run, resume, report, verify, CLI.

Most tests drive the 50-task end-to-end fixture, whose scripted client was
recorded against the real pipeline. The fixture is built so the no-repair
baseline passes 20/50 tasks (pass@1 = 40.00) and one round of LCS-guided
self_edit repair passes 40/50 (pass@1 = 80.00).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import importlib.util
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import typing
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from solrepair import executor, harness, repair, retrieval
from solrepair.cli import build_parser, main
from solrepair.context import get_counter
from solrepair.corpus import SourceIndex
from solrepair.executor import (
    STATUS_COMPILE_ERROR,
    STATUS_EXECUTOR_UNAVAILABLE,
    STATUS_FUNCTIONAL_MISMATCH,
    STATUS_PASS,
    ScriptedDifferentialBackend,
    SolcCompileBackend,
    SubprocessFuzzBackend,
)
from solrepair.harness import (
    EXECUTORS,
    EXIT_CONFIG,
    EXIT_INFRA,
    EXIT_OK,
    ConfigError,
    RunConfig,
    build_client,
    build_provider,
    cmd_build,
    cmd_report,
    cmd_run,
    cmd_verify,
    load_tasks,
    read_outcomes,
    read_sessions,
)
from solrepair.metrics import TaskOutcome, build_report, format_report_table
from solrepair.repair import (
    STRATEGY_KINDS,
    HttpModelClient,
    RepairSession,
    ScriptedModelClient,
    build_completion_prompt,
    prompt_hash,
)
from solrepair.retrieval import (
    METHODS,
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
    RetrievalConfig,
    RetrievalUnavailableError,
)

E2E_TASKS = 50
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RAR_OVERRIDES = dict(max_rounds=1, retrieval={"method": "lcs"})

# Whether each shipped model client, executor backend and embedding provider
# can wait outside the process, which is what a run's worker pool is for.
WAITS = {
    HttpModelClient: True,
    SolcCompileBackend: True,
    SubprocessFuzzBackend: True,
    HttpEmbeddingProvider: True,
    ScriptedModelClient: False,
    ScriptedDifferentialBackend: False,
    HashEmbeddingProvider: False,
}


def outcome_bytes(out_dir: Path) -> bytes:
    return (out_dir / "outcomes.jsonl").read_bytes()


def normalized_sessions(out_dir: Path) -> list[dict]:
    """Session rows with wall-clock timing zeroed out.

    Verdicts record elapsed executor time, which is telemetry rather than
    result data; only the outcomes file promises byte-level stability.
    """
    rows = []
    for line in (out_dir / "sessions.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        for attempt in row["attempts"]:
            attempt["verdict"]["elapsed"] = 0.0
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory, e2e_dir):
    """One completed no-repair run, shared read-only across tests."""
    from solrepair.harness import RunConfig, cmd_run

    out = tmp_path_factory.mktemp("baseline")
    config = RunConfig(
        task_file=str(e2e_dir / "tasks.jsonl"),
        out_dir=str(out),
        source_root=str(e2e_dir / "sources"),
        context_budget=2048,
        counter="bytes4",
        mock_client=str(e2e_dir / "mock_client.json"),
        mock_executor=str(e2e_dir / "mock_executor.json"),
        executor="mock",
        max_rounds=0,
    )
    manifest, code = cmd_run(config)
    return config, manifest, code, out


@pytest.fixture(scope="module")
def rar_run(tmp_path_factory, e2e_dir):
    """One completed repair run (LCS + self_edit, one round)."""
    from solrepair.harness import RunConfig, cmd_run

    out = tmp_path_factory.mktemp("rar")
    config = RunConfig(
        task_file=str(e2e_dir / "tasks.jsonl"),
        out_dir=str(out),
        source_root=str(e2e_dir / "sources"),
        context_budget=2048,
        counter="bytes4",
        mock_client=str(e2e_dir / "mock_client.json"),
        mock_executor=str(e2e_dir / "mock_executor.json"),
        executor="mock",
        **RAR_OVERRIDES,
    )
    manifest, code = cmd_run(config)
    return config, manifest, code, out


class TestRunConfigValidation:
    def test_valid_config_passes(self, e2e_config_factory, tmp_path):
        e2e_config_factory(str(tmp_path)).validate()

    def test_missing_task_file(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), task_file=str(tmp_path / "no.jsonl"))
        with pytest.raises(ConfigError, match="task file not found"):
            config.validate()

    def test_negative_budget(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), context_budget=-1)
        with pytest.raises(ConfigError, match="context_budget"):
            config.validate()

    def test_negative_rounds(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), max_rounds=-1)
        with pytest.raises(ConfigError, match="max_rounds"):
            config.validate()

    @pytest.mark.parametrize("field", ["max_tokens", "workers"])
    def test_counts_must_be_positive(self, e2e_config_factory, tmp_path, field):
        config = e2e_config_factory(str(tmp_path), **{field: 0})
        with pytest.raises(ConfigError, match="must be >= 1"):
            config.validate()

    def test_needs_some_client(self, e2e_config_factory, tmp_path):
        # Only run calls a model: the client is checked where it is built.
        config = e2e_config_factory(str(tmp_path), mock_client=None, endpoint=None)
        config.validate()
        with pytest.raises(ConfigError, match="mock-client|endpoint"):
            build_client(config)

    def test_missing_mock_client_file(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), mock_client=str(tmp_path / "x.json"))
        with pytest.raises(ConfigError, match="mock client fixture not found"):
            config.validate()

    def test_missing_mock_executor_file(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), mock_executor=str(tmp_path / "x.json"))
        with pytest.raises(ConfigError, match="mock executor fixture not found"):
            config.validate()

    def test_unknown_executor_kind(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), executor="evm")
        with pytest.raises(ConfigError, match="unknown executor kind"):
            config.validate()

    def test_fuzz_needs_command(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), executor="fuzz")
        with pytest.raises(ConfigError, match="fuzz executor needs a command"):
            config.validate()

    def test_unknown_counter(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), counter="tiktoken")
        with pytest.raises(ConfigError):
            config.validate()

    def test_unknown_strategy(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), strategy="self_hypnosis")
        with pytest.raises(ConfigError):
            config.validate()

    def test_bad_retrieval_config(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), retrieval={"method": "lcs", "depth": 2})
        with pytest.raises(ConfigError):
            config.validate()

    def test_retrieval_config_not_an_object(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), retrieval="lcs")
        with pytest.raises(ConfigError, match="expected a JSON object, got str at key 'retrieval'"):
            config.validate()

    def test_json_round_trip(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path), **RAR_OVERRIDES)
        assert RunConfig.from_json(config.to_json()) == config

    def test_dense_endpoint_and_dimension_configure_the_provider(self, e2e_config_factory, tmp_path):
        retrieval = {"method": "dense", "endpoint": "http://localhost:9/embed", "dimension": 8}
        config = e2e_config_factory(str(tmp_path), retrieval=retrieval)
        with mock.patch("solrepair.rows.post_json") as post:
            config.validate()
            provider = build_provider(config)
        post.assert_not_called()
        assert isinstance(provider, HttpEmbeddingProvider)
        assert provider.dimension == 8
        assert config.retrieval_config() == RetrievalConfig(
            method="dense", endpoint="http://localhost:9/embed", dimension=8
        )


class TestLoadTasks:
    def test_loads_all_e2e_tasks(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path))
        tasks = load_tasks(config)
        assert len(tasks) == E2E_TASKS
        ids = [t.task_id for t in tasks]
        assert len(set(ids)) == E2E_TASKS
        for task in tasks:
            assert task.context.text
            assert task.context.actual_tokens <= task.context.budget == 2048
            # Context stops before the function's own declaration.
            assert task.record.signature.strip() not in task.context.text
            assert task.record.body in task.oracle.text

    def test_missing_source_file(self, e2e_dir, tmp_path):
        row = json.loads(
            (e2e_dir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0]
        )
        row["source_path"], row["id"] = "ghost.sol", "ghost.sol#L12-15"
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps(row) + "\n", encoding="utf-8")
        config = RunConfig(
            task_file=str(task_file),
            out_dir=str(tmp_path),
            source_root=str(e2e_dir / "sources"),
            mock_client=str(e2e_dir / "mock_client.json"),
        )
        with pytest.raises(ConfigError, match="source file not found"):
            load_tasks(config)

    def test_unreadable_task_file(self, e2e_dir, tmp_path):
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text("{not json\n", encoding="utf-8")
        config = RunConfig(
            task_file=str(task_file),
            out_dir=str(tmp_path),
            mock_client=str(e2e_dir / "mock_client.json"),
        )
        with pytest.raises(ConfigError, match=r"tasks\.jsonl, line 1: malformed JSON"):
            load_tasks(config)


ONE_SOL = """\
pragma solidity ^0.8.0;

contract One {
    /// Adds.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    /// Doubles.
    function twice(uint256 x) public pure returns (uint256) {
        return x * 2;
    }
}
"""

TWO_SOL = """\
pragma solidity ^0.8.0;

contract Two {
    /// Adds.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    /// Issues new units to the caller.
    function issue(uint256 amount) public {
        _mint(msg.sender, amount);
    }
}
"""


class TestCmdBuild:
    @pytest.fixture
    def source_dir(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "one.sol").write_text(ONE_SOL, encoding="utf-8")
        (src / "two.sol").write_text(TWO_SOL, encoding="utf-8")
        return src

    def test_counts(self, source_dir, tmp_path):
        report = cmd_build(source_dir, tmp_path / "tasks.jsonl")
        assert report.total_extracted == 4
        assert report.excluded_mint == 1
        assert report.excluded_no_comment == 0
        assert report.excluded_state_dependent == 0
        assert report.dedup_removed == 1  # two.sol repeats one.sol's add body
        assert report.retained == 2
        assert report.retained + report.exclusions() + report.dedup_removed == (
            report.total_extracted
        )
        assert report.duplication_rate == pytest.approx(1 / 3)

    def test_outputs_written(self, source_dir, tmp_path):
        tasks_path = tmp_path / "tasks.jsonl"
        stats_path = tmp_path / "stats.json"
        report = cmd_build(source_dir, tasks_path, stats_path)
        rows = [
            json.loads(line)
            for line in tasks_path.read_text(encoding="utf-8").splitlines()
        ]
        # Paths are relative to the build root so --source-root resolves them.
        assert [r["source_path"] for r in rows] == ["one.sol", "one.sol"]
        assert len({r["id"] for r in rows}) == len(rows)
        assert json.loads(stats_path.read_text(encoding="utf-8")) == report.to_json()

    def test_missing_source_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="source directory not found"):
            cmd_build(tmp_path / "nowhere", tmp_path / "tasks.jsonl")

    def test_built_tasks_verify_against_their_sources(self, source_dir, tmp_path, e2e_dir):
        # Round trip: build from a directory, then verify the oracle bodies
        # with source_root pointing at that same directory.
        tasks_path = tmp_path / "tasks.jsonl"
        cmd_build(source_dir, tasks_path)
        config = RunConfig(
            task_file=str(tasks_path),
            out_dir=str(tmp_path / "out"),
            source_root=str(source_dir),
            mock_client=str(e2e_dir / "mock_client.json"),
        )
        tasks = load_tasks(config)
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            "".join(
                json.dumps({"task_id": t.task_id, "body": t.record.body}) + "\n"
                for t in tasks
            ),
            encoding="utf-8",
        )
        results, code = cmd_verify(completions, config)
        assert code == EXIT_OK
        assert all(r["verdict"]["status"] == STATUS_PASS for r in results)

    def test_commented_declarations_build_and_run(self, tmp_path, capsys):
        """Comments between `function` and the name, and inside parameter
        lists: build keeps the four functions the deny-list leaves, and a
        run locates each and passes it when the model replies its own body."""
        sources = ROOT / "tests" / "fixtures" / "commented" / "sources"
        tasks_path = tmp_path / "tasks.jsonl"
        code = main(["build", "--sources", str(sources), "--tasks", str(tasks_path)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["retained"] == 4
        config = RunConfig(task_file=str(tasks_path), out_dir=str(tmp_path / "out"), source_root=str(sources))
        tasks = load_tasks(config)
        assert [t.target.name for t in tasks] == ["twice", "half", "add", "larger"]
        client = tmp_path / "client.json"
        client.write_text(
            json.dumps({"completions": {prompt_hash(build_completion_prompt(t)): t.record.body for t in tasks}}),
            encoding="utf-8",
        )
        _, code = cmd_run(dataclasses.replace(config, mock_client=str(client)))
        assert code == EXIT_OK
        outcomes = read_outcomes(tmp_path / "out" / "outcomes.jsonl")
        assert [(o.task_id, o.c) for o in outcomes] == [(t.task_id, 1) for t in tasks]


class TestCmdRun:
    def test_baseline_pass_rates(self, baseline_run):
        config, manifest, code, out = baseline_run
        assert code == EXIT_OK
        assert manifest.status == "complete"
        assert manifest.tasks_total == E2E_TASKS
        assert manifest.tasks_completed == E2E_TASKS
        assert manifest.incomplete_task_ids == []
        outcomes = read_outcomes(out / "outcomes.jsonl")
        report = build_report(outcomes)
        assert report["overall"]["pass@1"] == 40.0
        assert report["overall"]["compilation@1"] == 60.0
        assert report["overall"]["tasks"] == E2E_TASKS
        assert report["overall"]["excluded_unavailable"] == 0

    def test_baseline_sessions_have_single_attempts(self, baseline_run):
        _, _, _, out = baseline_run
        sessions = read_sessions(out / "sessions.jsonl")
        assert len(sessions) == E2E_TASKS
        assert all(len(s.attempts) == 1 for s in sessions)

    def test_repair_pass_rates(self, rar_run):
        config, manifest, code, out = rar_run
        assert code == EXIT_OK
        assert manifest.status == "complete"
        outcomes = read_outcomes(out / "outcomes.jsonl")
        report = build_report(outcomes)
        assert report["overall"]["pass@1"] == 80.0
        assert report["overall"]["compilation@1"] == 100.0

    def test_each_source_indexed_once(self, e2e_config_factory, e2e_dir, tmp_path):
        """Load, splice and verify all read the one index load_tasks builds:
        a repair run indexes each source text exactly once, and nothing else."""
        indexed: list[tuple[str, str]] = []
        real_init = SourceIndex.__init__

        def counting_init(self, text, path="<source>"):
            indexed.append((path, text))
            real_init(self, text, path)

        config = e2e_config_factory(str(tmp_path / "out"), **RAR_OVERRIDES)
        assert config.max_rounds == 1
        with mock.patch.object(SourceIndex, "__init__", counting_init):
            _, code = cmd_run(config)
        assert code == EXIT_OK
        sources = sorted((e2e_dir / "sources").glob("*.sol"))
        assert len(sources) == 5
        assert sorted(indexed) == [(p.name, p.read_text(encoding="utf-8")) for p in sources]

    def test_repair_session_shapes(self, rar_run):
        _, _, _, out = rar_run
        sessions = read_sessions(out / "sessions.jsonl")
        assert len(sessions) == E2E_TASKS
        two_attempt = [s for s in sessions if len(s.attempts) == 2]
        assert len(two_attempt) == 30
        repaired = [s for s in two_attempt if s.final_status == STATUS_PASS]
        assert len(repaired) == 20
        for session in repaired:
            first, second = session.attempts
            assert first.verdict.status == STATUS_COMPILE_ERROR
            assert second.snippets, session.task_id
            assert any("interface Registry" in s.text for s in second.snippets)
        stubborn = [s for s in two_attempt if s.final_status != STATUS_PASS]
        assert {s.final_status for s in stubborn} == {STATUS_FUNCTIONAL_MISMATCH}

    def test_manifest_records_components(self, rar_run):
        config, manifest, _, out = rar_run
        assert manifest.backend_name == "mock-diff"
        assert manifest.client_name == "scripted"
        assert manifest.config == config.to_json()
        written = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert written["schema"] == "manifest@1"
        assert written["tasks_completed"] == E2E_TASKS

    def test_outcome_rows_have_no_timestamps(self, rar_run):
        _, _, _, out = rar_run
        for line in (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            assert not any("time" in key or "_at" in key for key in row)

    def test_deterministic_across_fresh_runs(self, e2e_config_factory, rar_run, tmp_path):
        _, _, _, reference = rar_run
        want = outcome_bytes(reference)
        want_sessions = normalized_sessions(reference)
        for name in ("a", "b"):
            out = tmp_path / name
            _, code = cmd_run(e2e_config_factory(str(out), **RAR_OVERRIDES))
            assert code == EXIT_OK
            assert outcome_bytes(out) == want
            assert normalized_sessions(out) == want_sessions

    def test_worker_count_does_not_change_output(self, e2e_config_factory, rar_run, tmp_path):
        _, _, _, reference = rar_run
        out = tmp_path / "w8"
        _, code = cmd_run(e2e_config_factory(str(out), workers=8, **RAR_OVERRIDES))
        assert code == EXIT_OK
        assert outcome_bytes(out) == outcome_bytes(reference)
        assert normalized_sessions(out) == normalized_sessions(reference)

    @staticmethod
    def threads_of_run(config, *patches) -> list[tuple[int, int]]:
        """(thread id, live thread count) at the start of each task of a
        run of config that must exit 0, with the given patches applied."""
        real = harness.run_task
        seen = []

        def run_task(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return real(*args)

        with contextlib.ExitStack() as stack:
            for patch in (mock.patch.object(harness, "run_task", run_task), *patches):
                stack.enter_context(patch)
            _, code = cmd_run(config)
        assert code == EXIT_OK and len(seen) == E2E_TASKS
        return seen

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_offline_run_stays_on_the_calling_thread(self, e2e_config_factory, baseline_run, tmp_path, workers):
        # Neither the scripted client nor the mock backend waits, so no
        # worker count starts a thread.
        calling, before = threading.get_ident(), threading.active_count()
        out = tmp_path / "out"
        seen = self.threads_of_run(e2e_config_factory(str(out), max_rounds=0, workers=workers))
        assert set(seen) == {(calling, before)}
        assert threading.active_count() == before
        assert outcome_bytes(out) == outcome_bytes(baseline_run[3])

    @pytest.mark.parametrize("part", ["client", "backend", "provider", "undeclared"])
    def test_a_waiting_part_runs_tasks_in_the_pool(
        self, e2e_config_factory, baseline_run, tmp_path, refused_url, waiting_client, part
    ):
        # Any one part that waits, or does not say, is enough for a pool.
        patches = {
            "client": mock.patch.object(harness, "build_client", waiting_client),
            "backend": mock.patch.object(harness.ScriptedDifferentialBackend, "waits", True),
            # max_rounds 0 never embeds, so the refused endpoint is not called.
            "provider": mock.patch.object(harness, "build_provider", lambda config: HttpEmbeddingProvider(refused_url, 16)),
            "undeclared": mock.patch.object(
                harness, "build_client", lambda *args: SimpleNamespace(name="undeclared", complete=build_client(*args).complete)
            ),
        }
        calling, before = threading.get_ident(), threading.active_count()
        out = tmp_path / "out"
        seen = self.threads_of_run(e2e_config_factory(str(out), max_rounds=0, workers=2), patches[part])
        assert calling not in {ident for ident, _ in seen}
        assert all(active > before for _, active in seen)
        assert threading.active_count() == before
        assert outcome_bytes(out) == outcome_bytes(baseline_run[3])
        assert normalized_sessions(out) == normalized_sessions(baseline_run[3])

    @pytest.mark.parametrize("cls,waits", WAITS.items(), ids=lambda value: getattr(value, "__name__", None))
    def test_each_shipped_part_declares_whether_it_waits(self, cls, waits):
        assert vars(cls)["waits"] is waits

    def test_every_shipped_part_is_in_the_waits_table(self):
        # A new client, backend or provider must join the table above.
        shipped = {
            cls.__name__
            for module in (repair, executor, retrieval)
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module.__name__
            and not getattr(cls, "_is_protocol", False)
            and any(hasattr(cls, method) for method in ("complete", "verify", "embed"))
        }
        assert shipped == {cls.__name__ for cls in WAITS}
        assert "waits" in typing.get_type_hints(repair.ModelClient)
        assert "waits" in typing.get_type_hints(retrieval.EmbeddingProvider)

    def test_rerun_of_complete_dir_is_noop(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(str(tmp_path / "out"), **RAR_OVERRIDES)
        cmd_run(config)
        before = outcome_bytes(tmp_path / "out")
        before_sessions = (tmp_path / "out" / "sessions.jsonl").read_bytes()
        manifest, code = cmd_run(config)
        assert code == EXIT_OK
        assert manifest.status == "complete"
        assert outcome_bytes(tmp_path / "out") == before
        assert (tmp_path / "out" / "sessions.jsonl").read_bytes() == before_sessions

    def test_corrupt_client_fixture_is_config_error(self, e2e_config_factory, tmp_path):
        bad = tmp_path / "client.json"
        bad.write_text("{truncated", encoding="utf-8")
        config = e2e_config_factory(str(tmp_path / "out"), mock_client=str(bad))
        with pytest.raises(ConfigError, match="cannot read client fixture file"):
            cmd_run(config)
        assert not (tmp_path / "out").exists()

    def test_wrong_executor_fixture_schema_is_config_error(self, e2e_config_factory, tmp_path):
        bad = tmp_path / "executor.json"
        bad.write_text(json.dumps({"schema": "mock-executor@9"}), encoding="utf-8")
        config = e2e_config_factory(str(tmp_path / "out"), mock_executor=str(bad))
        with pytest.raises(ConfigError, match="bad executor fixture"):
            cmd_run(config)
        assert not (tmp_path / "out").exists()

    def test_foreign_outcomes_rejected(self, e2e_config_factory, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "outcomes.jsonl").write_text(
            json.dumps({"task_id": "other-suite#L1-2", "n": 1, "c": 1, "c_compile": 1}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="foreign tasks"):
            cmd_run(e2e_config_factory(str(out)))

    def test_unavailable_executor_exits_infra(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(
            str(tmp_path / "out"),
            executor="solc",
            solc_path=str(tmp_path / "no-such-solc"),
            mock_executor=None,
        )
        manifest, code = cmd_run(config)
        assert code == EXIT_INFRA
        assert manifest.status == "complete"  # every task got a row, all poisoned
        outcomes = read_outcomes(tmp_path / "out" / "outcomes.jsonl")
        assert all(o.unavailable for o in outcomes)
        sessions = read_sessions(tmp_path / "out" / "sessions.jsonl")
        assert all(s.final_status == STATUS_EXECUTOR_UNAVAILABLE for s in sessions)

    def test_unscripted_prompt_leaves_run_partial(self, e2e_config_factory, tmp_path):
        # self_refine repair prompts were never recorded in the fixture, so
        # every task that needs repair fails with a client error.
        config = e2e_config_factory(
            str(tmp_path / "out"),
            strategy="self_refine",
            **RAR_OVERRIDES,
        )
        manifest, code = cmd_run(config)
        assert code == EXIT_INFRA
        assert manifest.status == "partial"
        assert manifest.tasks_completed == 20
        outcomes = read_outcomes(tmp_path / "out" / "outcomes.jsonl")
        assert len(outcomes) == 20
        assert all(o.c == 1 for o in outcomes)
        # Exactly the tasks without an outcome row, in task order.
        passed = {o.task_id for o in outcomes}
        assert manifest.incomplete_task_ids == [t.task_id for t in load_tasks(config) if t.task_id not in passed]

    def test_retrieval_failure_leaves_run_partial(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(
            str(tmp_path / "out"), max_rounds=1, retrieval={"method": "dense"}
        )
        down = RetrievalUnavailableError("embedding endpoint failed")
        with mock.patch.object(HashEmbeddingProvider, "embed", side_effect=down):
            manifest, code = cmd_run(config)
        assert code == EXIT_INFRA
        written = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert written["status"] == manifest.status == "partial"
        # The 20 tasks whose first completion passes never retrieve.
        assert written["tasks_completed"] == 20
        assert len(written["incomplete_task_ids"]) == E2E_TASKS - 20


class TestResume:
    def cut(self, text: str, keep: int) -> list[str]:
        return text.splitlines()[:keep]

    def test_resume_after_torn_write_matches_uninterrupted_run(
        self, e2e_config_factory, rar_run, tmp_path
    ):
        _, _, _, reference = rar_run
        want_outcomes = outcome_bytes(reference)
        all_sessions = (reference / "sessions.jsonl").read_text(encoding="utf-8")

        out = tmp_path / "crashed"
        out.mkdir()
        # One session row per task here, so line i pairs with outcome line i.
        outcome_lines = self.cut(want_outcomes.decode("utf-8"), 20)
        torn = '{"task_id":"bank2.sol#L'
        (out / "outcomes.jsonl").write_text(
            "".join(line + "\n" for line in outcome_lines) + torn, encoding="utf-8"
        )
        # Lines 21-23 are orphans: their outcome rows never committed.
        (out / "sessions.jsonl").write_text(
            "".join(line + "\n" for line in self.cut(all_sessions, 23)),
            encoding="utf-8",
        )

        manifest, code = cmd_run(e2e_config_factory(str(out), **RAR_OVERRIDES))
        assert code == EXIT_OK
        assert manifest.status == "complete"
        assert outcome_bytes(out) == want_outcomes
        assert normalized_sessions(out) == normalized_sessions(reference)

    def test_resume_skips_committed_tasks(self, e2e_config_factory, rar_run, tmp_path, caplog):
        _, _, _, reference = rar_run
        want = outcome_bytes(reference)
        out = tmp_path / "half"
        out.mkdir()
        outcome_lines = self.cut(want.decode("utf-8"), 40)
        session_lines = self.cut(
            (reference / "sessions.jsonl").read_text(encoding="utf-8"), 40
        )
        (out / "outcomes.jsonl").write_text(
            "".join(line + "\n" for line in outcome_lines), encoding="utf-8"
        )
        (out / "sessions.jsonl").write_text(
            "".join(line + "\n" for line in session_lines), encoding="utf-8"
        )
        with caplog.at_level(logging.INFO, logger="solrepair"):
            _, code = cmd_run(e2e_config_factory(str(out), **RAR_OVERRIDES))
        assert code == EXIT_OK
        assert outcome_bytes(out) == want
        assert normalized_sessions(out) == normalized_sessions(reference)
        assert any("40 already done, 10 pending" in m for m in caplog.messages)

    @pytest.mark.parametrize(
        "damage", ["torn-first-row", "blank-line", "torn-row-before-intact-ones", "long-int-row-before-intact-ones"]
    )
    def test_resume_after_damage_before_the_last_row_matches_uninterrupted_run(
        self, e2e_config_factory, rar_run, tmp_path, damage
    ):
        _, _, _, reference = rar_run
        want = outcome_bytes(reference)
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(reference / "sessions.jsonl", out / "sessions.jsonl")
        first, rest = want.split(b"\n", 1)
        damaged = first[:9] if damage == "torn-first-row" else first + b"\n\n" + rest
        if damage == "torn-row-before-intact-ones":
            # Nothing after a torn row was committed, however whole it looks.
            lines = want.split(b"\n")
            damaged = b"\n".join(lines[:10] + [lines[10][:20]] + lines[11:])
        if damage == "long-int-row-before-intact-ones":
            # A row that json.loads rejects, here for an integer longer than
            # CPython converts, is one that does not parse.
            lines = want.split(b"\n")
            damaged = b"\n".join(lines[:10] + [lines[10][:-1] + b',"n":' + b"1" * 5000 + b"}"] + lines[11:])
        (out / "outcomes.jsonl").write_bytes(damaged)
        manifest, code = cmd_run(e2e_config_factory(str(out), **RAR_OVERRIDES))
        assert (code, manifest.status) == (EXIT_OK, "complete")
        assert outcome_bytes(out) == want

    # e2e_config_factory only builds a RunConfig, so sharing it across
    # examples shares no state.
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_property_resume_after_a_cut_at_any_byte_matches_uninterrupted_run(
        self, e2e_config_factory, rar_run, data
    ):
        _, _, _, reference = rar_run
        name = data.draw(st.sampled_from(["outcomes.jsonl", "sessions.jsonl"]))
        whole = (reference / name).read_bytes()
        cut = data.draw(st.integers(0, len(whole)))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for copied in ("outcomes.jsonl", "sessions.jsonl"):
                shutil.copyfile(reference / copied, out / copied)
            (out / name).write_bytes(whole[:cut])
            manifest, code = cmd_run(e2e_config_factory(tmp, **RAR_OVERRIDES))
            assert (code, manifest.status) == (EXIT_OK, "complete")
            assert outcome_bytes(out) == outcome_bytes(reference)
            assert normalized_sessions(out) == normalized_sessions(reference)

    def test_resume_after_a_sessions_cut_reruns_the_tasks_it_lost(
        self, e2e_config_factory, rar_run, tmp_path, caplog
    ):
        _, _, _, reference = rar_run
        out = tmp_path / "out"
        out.mkdir()
        shutil.copyfile(reference / "outcomes.jsonl", out / "outcomes.jsonl")
        sessions = self.cut((reference / "sessions.jsonl").read_text(encoding="utf-8"), 13)
        (out / "sessions.jsonl").write_text("".join(line + "\n" for line in sessions), encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="solrepair"):
            manifest, code = cmd_run(e2e_config_factory(str(out), **RAR_OVERRIDES))
        assert (code, manifest.status) == (EXIT_OK, "complete")
        assert any("13 already done, 37 pending" in m for m in caplog.messages)
        assert outcome_bytes(out) == outcome_bytes(reference)
        assert normalized_sessions(out) == normalized_sessions(reference)


class TestCmdReport:
    def test_merges_outcome_files(self, baseline_run, rar_run):
        _, _, _, base_out = baseline_run
        _, _, _, rar_out = rar_run
        report = cmd_report(
            [base_out / "outcomes.jsonl", rar_out / "outcomes.jsonl"],
            [base_out / "sessions.jsonl", rar_out / "sessions.jsonl"],
        )
        assert report["overall"]["tasks"] == 100
        assert report["overall"]["pass@1"] == 60.0  # (20 + 40) / 100
        assert report["cost"]["total_usd"] > 0

    def test_empty_outcomes_rejected(self, tmp_path):
        empty = tmp_path / "outcomes.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="no outcomes"):
            cmd_report([empty])

    def test_unknown_attempt_stage_exits_config(self, rar_run, tmp_path, capsys):
        _, _, _, out = rar_run
        rows = (out / "sessions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        rows[1] = rows[1].replace('"stage":"completion"', '"stage":"bompletion"', 1)
        sessions = tmp_path / "sessions.jsonl"
        sessions.write_text("".join(rows), encoding="utf-8")
        code = main(["report", "--outcomes", str(out / "outcomes.jsonl"), "--sessions", str(sessions)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {sessions}, line 2: unknown attempt stage 'bompletion'\n"

    def test_out_json_is_deterministic(self, rar_run, tmp_path):
        _, _, _, out = rar_run
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        for path in (first, second):
            cmd_report(
                [out / "outcomes.jsonl"], [out / "sessions.jsonl"], out_json=path
            )
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert payload["schema"] == "report@1"
        assert payload["by_context"]["2048"]["pass@1"] == 80.0

    def test_table_shows_a_cost_below_a_cent(self, rar_run):
        _, _, _, out = rar_run
        report = cmd_report([out / "outcomes.jsonl"], [out / "sessions.jsonl"])
        assert report["cost"]["total_usd"] == pytest.approx(0.00315)
        assert format_report_table(report).endswith("total cost (USD): 0.00315")


class TestCmdVerify:
    @pytest.fixture
    def verify_config(self, e2e_config_factory, tmp_path):
        return e2e_config_factory(str(tmp_path / "out"))

    def first_tasks(self, config, count: int):
        return load_tasks(config)[:count]

    def test_verdicts_per_row(self, verify_config, tmp_path):
        tasks = self.first_tasks(verify_config, 2)
        rows = [
            {"task_id": tasks[0].task_id, "body": tasks[0].record.body},
            {"task_id": tasks[1].task_id, "body": "{ return a * b + 123; }"},
        ]
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        results, code = cmd_verify(completions, verify_config, tmp_path / "v.jsonl")
        assert code == EXIT_OK
        assert [r["task_id"] for r in results] == [t.task_id for t in tasks]
        assert results[0]["verdict"]["status"] == STATUS_PASS
        assert results[1]["verdict"]["status"] == STATUS_FUNCTIONAL_MISMATCH
        written = [
            json.loads(line)
            for line in (tmp_path / "v.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert written == results

    def test_reads_bodies_as_run_reads_replies(self, verify_config, tmp_path):
        task = self.first_tasks(verify_config, 1)[0]
        bodies = [
            task.record.body + "\n",
            task.record.body + " // done\n",
            "```solidity\n" + task.record.body + "\n```",
            "{ return a +",
        ]
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            "".join(json.dumps({"task_id": task.task_id, "body": body}) + "\n" for body in bodies), encoding="utf-8"
        )
        results, code = cmd_verify(completions, verify_config)
        assert code == EXIT_OK
        assert [row["verdict"]["status"] for row in results] == [STATUS_PASS] * 3 + ["compile_error"]
        assert results[-1]["verdict"]["diagnostics"][0]["message"] == "completed body is not one balanced {...} block"

    @pytest.mark.parametrize("counter", ["bytes4", "words"])
    def test_builds_no_context_window(self, e2e_config_factory, tmp_path, counter):
        config = e2e_config_factory(str(tmp_path / "out"), counter=counter)
        task = self.first_tasks(config, 1)[0]
        completions = tmp_path / "completions.jsonl"
        completions.write_text(json.dumps({"task_id": task.task_id, "body": task.record.body}) + "\n", encoding="utf-8")
        with mock.patch.object(type(get_counter(counter)), "count", side_effect=AssertionError("counted")) as count:
            results, code = cmd_verify(completions, config)
        assert (code, results[0]["verdict"]["status"]) == (EXIT_OK, STATUS_PASS)
        assert count.call_count == 0

    def test_unknown_task_id_rejected(self, verify_config, tmp_path):
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            json.dumps({"task_id": "nope#L1-2", "body": "{}"}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="unknown task id"):
            cmd_verify(completions, verify_config)

    def test_unavailable_backend_returns_infra(self, e2e_config_factory, tmp_path):
        config = e2e_config_factory(
            str(tmp_path / "out"),
            executor="solc",
            solc_path=str(tmp_path / "no-such-solc"),
            mock_executor=None,
        )
        task = load_tasks(config)[0]
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            json.dumps({"task_id": task.task_id, "body": task.record.body}) + "\n",
            encoding="utf-8",
        )
        results, code = cmd_verify(completions, config)
        assert code == EXIT_INFRA
        assert results[0]["verdict"]["status"] == STATUS_EXECUTOR_UNAVAILABLE


class TestCli:
    def run_flags(self, e2e_dir, out_dir: Path, *extra: str) -> list[str]:
        return [
            "run",
            "--tasks", str(e2e_dir / "tasks.jsonl"),
            "--out", str(out_dir),
            "--source-root", str(e2e_dir / "sources"),
            "--budget", "2048",
            "--counter", "bytes4",
            "--executor", "mock",
            "--mock-client", str(e2e_dir / "mock_client.json"),
            "--mock-executor", str(e2e_dir / "mock_executor.json"),
            *extra,
        ]

    def test_build_command(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "one.sol").write_text(ONE_SOL, encoding="utf-8")
        code = main(
            [
                "build",
                "--sources", str(src),
                "--tasks", str(tmp_path / "tasks.jsonl"),
                "--stats", str(tmp_path / "stats.json"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["retained"] == 2
        assert (tmp_path / "tasks.jsonl").is_file()
        assert (tmp_path / "stats.json").is_file()

    def test_build_non_utf8_source_exits_config(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "one.sol").write_text(ONE_SOL, encoding="utf-8")
        bad = src / "two.sol"
        bad.write_bytes(b"contract C {\xff}\n")
        code = main(["build", "--sources", str(src), "--tasks", str(tmp_path / "tasks.jsonl")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: source file {bad} is not UTF-8")

    def test_run_non_utf8_source_exits_config(self, e2e_dir, tmp_path, capsys):
        sources = tmp_path / "sources"
        shutil.copytree(e2e_dir / "sources", sources)
        bad = sources / "bank0.sol"
        bad.write_bytes(bad.read_bytes() + b"// \xff\n")
        flags = self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "0")
        flags[flags.index("--source-root") + 1] = str(sources)
        assert main(flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: source file {bad} is not UTF-8")

    @pytest.mark.parametrize(
        "key,value,complaint",
        [
            ("span", [1.5, 9], "expected int, got float at key 'span[0]'"),
            ("span", [12, 13, 15], "expected 2 items, got 3 at key 'span'"),
            ("span", [12], "expected 2 items, got 1 at key 'span'"),
            ("span", "12-15", "expected list, got str at key 'span'"),
            ("span", ["12", 15], "expected int, got str at key 'span[0]'"),
            ("body", 5, "expected str, got int at key 'body'"),
            ("comment", None, "expected str, got NoneType at key 'comment'"),
            ("signature", ["function f()"], "expected str, got list at key 'signature'"),
            ("id", 7, "expected str, got int at key 'id'"),
            ("id", None, "missing key 'id'"),
            ("comment", " \n", "bank0.sol: empty comment block"),
            ("source_path", {"path": "bank0.sol"}, "expected str, got dict at key 'source_path'"),
            ("contract_type", 0, "expected str or None, got int at key 'contract_type'"),
        ],
        ids=["float-span", "long-span", "short-span", "string-span", "string-span-item", "body", "comment",
             "signature", "id", "missing-id", "empty-comment", "source_path", "contract_type"],
    )
    def test_run_on_wrongly_typed_task_row_exits_config(self, e2e_dir, tmp_path, capsys, key, value, complaint):
        lines = (e2e_dir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row[key] = value
        if key == "id" and value is None:  # a row without an id
            del row["id"]
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n", encoding="utf-8")
        flags = self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "0")
        flags[flags.index("--tasks") + 1] = str(tasks)
        assert main(flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {tasks}, line 2: bad task row: {complaint}\n"

    def test_run_on_an_over_long_integer_in_a_task_row_exits_config(self, e2e_dir, tmp_path, capsys):
        lines = (e2e_dir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:-1] + ', "span": [1, ' + "9" * 5000 + "]}"
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "0")
        flags[flags.index("--tasks") + 1] = str(tasks)
        assert main(flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tasks}, line 2: malformed JSON: Exceeds the limit (4300 digits)")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content", [None, "{not json", "[1, 2]"], ids=["missing", "malformed", "not-an-object"]
    )
    def test_bad_config_file_exits_config(self, tmp_path, capsys, content):
        config_path = tmp_path / "run.json"
        if content is not None:
            config_path.write_text(content, encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(config_path) in err

    @pytest.mark.parametrize(
        "name,row,complaint",
        [
            ("outcomes.jsonl", "[]", "TaskOutcome: expected a JSON object, got list"),
            ("outcomes.jsonl", '{"task_id": ["x"]}', "expected str, got list at key 'task_id'"),
            ("sessions.jsonl", "[]", "RepairSession: expected a JSON object, got list"),
            ("sessions.jsonl", '{"task_id": {"x": 1}}', "expected str, got dict at key 'task_id'"),
            (
                "outcomes.jsonl",
                '{"n": 1}',
                "TaskOutcome.__init__() missing 3 required positional arguments: 'task_id', 'c', and 'c_compile'",
            ),
        ],
        ids=["outcome-list", "outcome-list-id", "session-list", "session-object-id", "outcome-no-id"],
    )
    def test_resume_on_a_hostile_row_exits_config(self, e2e_dir, rar_run, tmp_path, capsys, name, row, complaint):
        _, _, _, reference = rar_run
        out = tmp_path / "out"
        out.mkdir()
        for copied in ("outcomes.jsonl", "sessions.jsonl"):
            shutil.copyfile(reference / copied, out / copied)
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        lines[1] = row
        (out / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(self.run_flags(e2e_dir, out, "--max-rounds", "1", "--retrieval", "lcs")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {out / name}, line 2: {complaint}\n"

    @pytest.mark.parametrize(
        "edit,complaint",
        [
            (lambda row: {**row, "sample": 0}, "got an unexpected keyword argument 'sample'"),
            (
                lambda row: {k: v for k, v in row.items() if k != "context_budget"},
                "missing 1 required positional argument: 'context_budget'",
            ),
        ],
        ids=["with-sample", "without-context-budget"],
    )
    def test_resume_on_a_session_row_of_an_earlier_format_exits_config(
        self, e2e_dir, rar_run, tmp_path, capsys, edit, complaint
    ):
        """A run never appends to a session log that holds a row of an
        earlier format: it exits 2 naming the row, before writing anything."""
        _, _, _, reference = rar_run
        out = tmp_path / "out"
        shutil.copytree(reference, out)
        lines = (out / "sessions.jsonl").read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        (out / "sessions.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(self.run_flags(e2e_dir, out, "--max-rounds", "1", "--retrieval", "lcs")) == EXIT_CONFIG
        err = capsys.readouterr().err
        named = re.escape(f"error: {out / 'sessions.jsonl'}, line 3: ")
        assert re.fullmatch(f"{named}RepairSession.__init__.. {complaint}\n", err), err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_on_non_utf8_outcomes_exits_config(self, e2e_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "outcomes.jsonl").write_bytes(b'{"task_id": "\xff"}\n')
        assert main(self.run_flags(e2e_dir, out, "--max-rounds", "0")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: outcomes file {out / 'outcomes.jsonl'} is not UTF-8")

    @pytest.mark.parametrize(
        "flag,edit,complaint",
        [
            ("--mock-client", lambda fixture: [], "client fixture file {path}: expected a JSON object"),
            (
                "--mock-client",
                lambda fixture: fixture | {"completions": []},
                "bad client fixture {path}: expected dict, got list at key 'completions'",
            ),
            ("--mock-executor", lambda fixture: [], "executor fixture file {path}: expected a JSON object"),
            (
                "--mock-executor",
                lambda fixture: fixture | {"functions": {"bank0.sol#L12-15": {"cases": [{"inputs": {"a": 1}}]}}},
                "bad executor fixture {path}: ExecutorCase.__init__() missing 1 required positional argument: "
                "'output' at key 'functions.bank0.sol#L12-15.cases[0]'",
            ),
            (
                "--mock-executor",
                lambda fixture: fixture | {"functions": {"bank0.sol#L12-15": 5}},
                "bad executor fixture {path}: ExecutorTable: expected a JSON object, got int "
                "at key 'functions.bank0.sol#L12-15'",
            ),
        ],
        ids=["client-list", "client-completions-list", "executor-list", "case-without-output", "table-int"],
    )
    def test_malformed_fixture_exits_config_before_any_output(self, e2e_dir, tmp_path, capsys, flag, edit, complaint):
        name = "mock_client.json" if flag == "--mock-client" else "mock_executor.json"
        path = tmp_path / name
        path.write_text(json.dumps(edit(json.loads((e2e_dir / name).read_text(encoding="utf-8")))), encoding="utf-8")
        out = tmp_path / "out"
        assert main(self.run_flags(e2e_dir, out, flag, str(path))) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {complaint.format(path=path)}\n"
        assert not out.exists()

    def test_run_then_report(self, e2e_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(self.run_flags(e2e_dir, out, "--max-rounds", "0"))
        assert code == EXIT_OK
        assert f"run complete: {E2E_TASKS}/{E2E_TASKS} tasks" in capsys.readouterr().out

        report_json = tmp_path / "report.json"
        code = main(
            [
                "report",
                "--outcomes", str(out / "outcomes.jsonl"),
                "--sessions", str(out / "sessions.jsonl"),
                "--json", str(report_json),
            ]
        )
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "pass@1" in table
        assert "40.00" in table
        assert "total cost (USD):" in table
        payload = json.loads(report_json.read_text(encoding="utf-8"))
        assert payload["overall"]["pass@1"] == 40.0

    @pytest.mark.parametrize(
        "rows,complaint",
        [
            (['{"task_id": "x", "body": "{}"', "{not json"], "line 1: malformed JSON"),
            (["", '{"body": "{ }"}'], "line 2: 'task_id' missing or not a string"),
            (['{"task_id": "x"}'], "line 1: 'body' missing or not a string"),
            (['{"task_id": "x", "body": 5}'], "line 1: 'body' missing or not a string"),
            (['["x", "{ }"]'], "line 1: expected a JSON object"),
            (['{"task_id": "x", "body": "{ }", "n": ' + "1" * 5000 + "}"], "line 1: malformed JSON: Exceeds the limit"),
        ],
        ids=["malformed", "no-task-id", "no-body", "non-string-body", "not-an-object", "long-int"],
    )
    def test_verify_bad_completions_row_exits_config(self, e2e_dir, tmp_path, capsys, rows, complaint):
        completions = tmp_path / "completions.jsonl"
        completions.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            [
                "verify",
                "--tasks", str(e2e_dir / "tasks.jsonl"),
                "--source-root", str(e2e_dir / "sources"),
                "--executor", "mock",
                "--completions", str(completions),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {completions}, {complaint}")

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\n"], ids=["missing", "not-utf8"])
    def test_verify_unreadable_completions_exits_config(self, e2e_dir, tmp_path, capsys, content):
        completions = tmp_path / "completions.jsonl"
        if content is not None:
            completions.write_bytes(content)
        code = main(
            [
                "verify",
                "--tasks", str(e2e_dir / "tasks.jsonl"),
                "--source-root", str(e2e_dir / "sources"),
                "--executor", "mock",
                "--completions", str(completions),
            ]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot read completions file {completions}")

    def test_cli_run_matches_library_run(self, e2e_dir, rar_run, tmp_path):
        _, _, _, reference = rar_run
        out = tmp_path / "out"
        code = main(
            self.run_flags(
                e2e_dir, out, "--max-rounds", "1", "--retrieval", "lcs"
            )
        )
        assert code == EXIT_OK
        assert outcome_bytes(out) == outcome_bytes(reference)
        assert normalized_sessions(out) == normalized_sessions(reference)

    def test_config_file_with_flag_override(self, e2e_config_factory, e2e_dir, baseline_run, tmp_path):
        _, _, _, reference = baseline_run
        config = e2e_config_factory(str(tmp_path / "out"), **RAR_OVERRIDES)
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(config.to_json(), indent=2), encoding="utf-8"
        )
        # --max-rounds 0 beats the config file's max_rounds=1.
        code = main(["run", "--config", str(config_path), "--max-rounds", "0"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "outcomes.jsonl").read_bytes() == (
            reference / "outcomes.jsonl"
        ).read_bytes()

    def test_run_without_tasks_exits_config(self, capsys):
        assert main(["run"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_run_with_missing_task_file_exits_config(self, e2e_dir, tmp_path, capsys):
        flags = self.run_flags(e2e_dir, tmp_path / "out")
        flags[flags.index("--tasks") + 1] = str(tmp_path / "ghost.jsonl")
        assert main(flags) == EXIT_CONFIG
        assert "task file not found" in capsys.readouterr().err

    def test_run_with_unavailable_solc_exits_infra(self, e2e_dir, tmp_path, capsys):
        flags = self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "0")
        flags[flags.index("--executor") + 1] = "solc"
        flags += ["--solc", str(tmp_path / "no-such-solc")]
        # Drop the mock-executor fixture; the solc backend ignores it anyway
        # but validation still checks the path exists, which it does here.
        assert main(flags) == EXIT_INFRA
        capsys.readouterr()

    def test_report_on_missing_file_exits_config(self, baseline_run, tmp_path, capsys):
        _, _, _, out = baseline_run
        for argv in (
            ["report", "--outcomes", str(tmp_path / "ghost.jsonl")],
            ["report", "--outcomes", str(out / "outcomes.jsonl"), "--sessions", str(tmp_path / "ghost.jsonl")],
        ):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"error: cannot read {argv[-2][2:]} file {tmp_path / 'ghost.jsonl'}")

    @pytest.mark.parametrize(
        "flags,complaint",
        [
            (["--prompt-price", "nan"], "--prompt-price must be a finite number >= 0, got nan"),
            (["--prompt-price", "-1"], "--prompt-price must be a finite number >= 0, got -1.0"),
            (["--completion-price", "inf"], "--completion-price must be a finite number >= 0, got inf"),
        ],
        ids=["price-nan", "price-negative", "price-infinite"],
    )
    def test_report_on_bad_price_exits_config(self, baseline_run, tmp_path, capsys, flags, complaint):
        _, _, _, out = baseline_run
        json_out = tmp_path / "report.json"
        argv = ["report", "--outcomes", str(out / "outcomes.jsonl"), "--sessions", str(out / "sessions.jsonl")]
        assert main([*argv, "--json", str(json_out), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {complaint}"), captured.err
        assert not json_out.exists()

    def test_report_on_only_unavailable_outcomes_exits_config(self, e2e_dir, tmp_path, capsys):
        flags = self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "0")
        flags[flags.index("--executor") + 1] = "solc"
        flags += ["--solc", str(tmp_path / "no-such-solc")]
        assert main(flags) == EXIT_INFRA
        outcomes = read_outcomes(tmp_path / "out" / "outcomes.jsonl")
        assert len(outcomes) == E2E_TASKS and all(o.unavailable for o in outcomes)
        capsys.readouterr()
        assert main(["report", "--outcomes", str(tmp_path / "out" / "outcomes.jsonl")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no usable outcomes (all executor_unavailable or empty)\n"

    def test_report_without_sessions_gives_no_cost(self, rar_run, tmp_path, capsys):
        _, _, _, out = rar_run
        json_out = tmp_path / "report.json"
        assert main(["report", "--outcomes", str(out / "outcomes.jsonl"), "--json", str(json_out)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("\ntotal cost (USD): unknown (no --sessions)\n")
        report = json.loads(json_out.read_text(encoding="utf-8"))
        assert report["cost"] is None
        assert report["points"] == [{"context_budget": 2048, "cost_usd": None, "pass@1": 80.0}]
        with_sessions = cmd_report([out / "outcomes.jsonl"], [out / "sessions.jsonl"])
        assert {k: v for k, v in report.items() if k not in ("cost", "points")} == {
            k: v for k, v in with_sessions.items() if k not in ("cost", "points")
        }

    def test_report_on_an_empty_session_log_exits_config(self, rar_run, tmp_path, capsys):
        # A session log that was given but holds no row pairs with no
        # outcome row: the report would price none of the run's attempts.
        _, _, _, out = rar_run
        empty = tmp_path / "sessions.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["report", "--outcomes", str(out / "outcomes.jsonl"), "--sessions", str(empty)]) == EXIT_CONFIG
        first = json.loads((out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()[0])["task_id"]
        assert capsys.readouterr().err == (
            f"error: {out / 'outcomes.jsonl'}: {first}: 1 outcome row(s) but 0 session row(s); "
            "--sessions must hold one session row per outcome row\n"
        )

    def test_report_pairs_sessions_with_outcomes_by_task(self, rar_run, baseline_run, tmp_path):
        """One session row per outcome row, counted by task id over all the
        files: both runs' outcomes with both runs' sessions pair; another
        run's sessions beside a run's own, or a log that lacks a task, exit 2
        naming the first unpaired task and its file."""
        rar, base = rar_run[3], baseline_run[3]
        both = cmd_report([rar / "outcomes.jsonl", base / "outcomes.jsonl"], [base / "sessions.jsonl", rar / "sessions.jsonl"])
        assert both["overall"]["tasks"] == 100
        lines = (rar / "sessions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])["task_id"]
        fewer = tmp_path / "sessions.jsonl"
        fewer.write_text("".join(lines[1:]), encoding="utf-8")
        fewer_outcomes = tmp_path / "outcomes.jsonl"
        fewer_outcomes.write_text(
            "".join(line for line in (rar / "outcomes.jsonl").open(encoding="utf-8") if json.loads(line)["task_id"] != first),
            encoding="utf-8",
        )
        cases = [
            ([fewer_outcomes], [rar / "sessions.jsonl"], rar / "sessions.jsonl", 0, 1),
            ([rar / "outcomes.jsonl"], [rar / "sessions.jsonl", base / "sessions.jsonl"], rar / "outcomes.jsonl", 1, 2),
            ([rar / "outcomes.jsonl"], [fewer], rar / "outcomes.jsonl", 1, 0),
            ([base / "outcomes.jsonl", rar / "outcomes.jsonl"], [rar / "sessions.jsonl"], base / "outcomes.jsonl", 2, 1),
        ]
        for outcomes, sessions, named, n, m in cases:
            with pytest.raises(ConfigError) as exc:
                cmd_report(outcomes, sessions)
            assert str(exc.value).startswith(f"{named}: {first}: {n} outcome row(s) but {m} session row(s)")

    @pytest.mark.parametrize(
        "column", ["c", "c_compile", "prompt_tokens", "completion_tokens", "unavailable", "context_budget"]
    )
    def test_report_rejects_outcome_rows_that_are_not_the_fold_of_the_sessions(self, rar_run, baseline_run, tmp_path, column):
        """Task ids that pair are not enough: each outcome row must be the
        fold of a session row. An edit of any one column of one row, or the
        sessions of another run over the same tasks, exits 2 naming the
        first outcome row that no session folds into and the files."""
        rar, base = rar_run[3], baseline_run[3]
        rows = [json.loads(line) for line in (rar / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
        row = next(r for r in rows[2:] if r["c"] == 0 and r["c_compile"] == 1)
        row[column] = {"c": 1, "c_compile": 0, "unavailable": True}.get(column, row[column] + 1)
        edited = tmp_path / "outcomes.jsonl"
        edited.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        sessions = [base / "sessions.jsonl", rar / "sessions.jsonl"]
        cases = [
            ([edited, base / "outcomes.jsonl"], sessions, edited, row["task_id"], rar / "sessions.jsonl"),
            ([base / "outcomes.jsonl"], [rar / "sessions.jsonl"], base / "outcomes.jsonl", None, rar / "sessions.jsonl"),
        ]
        for outcomes, logs, named, task_id, log in cases:
            if task_id is None:  # the first task the baseline failed, and repair fixed
                task_id = next(r["task_id"] for r in map(json.loads, named.open(encoding="utf-8")) if not r["c"])
            with pytest.raises(ConfigError) as exc:
                cmd_report(outcomes, logs)
            assert str(exc.value) == (
                f"{named}: {task_id}: the outcome row is not the fold of its session row in {log}; "
                "--sessions must hold the sessions of the run that wrote --outcomes"
            )
        assert cmd_report([rar / "outcomes.jsonl", base / "outcomes.jsonl"], sessions)["overall"]["tasks"] == 100

    def test_report_compares_a_null_budget_as_a_multiset(self, rar_run, tmp_path):
        """Outcome rows of one task that differ only in a null budget do not
        order against each other; the fold is compared as a multiset, so
        they exit 2 rather than end in a TypeError."""
        rar = rar_run[3]
        rows = [json.loads(line) for line in (rar / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
        edited = tmp_path / "outcomes.jsonl"
        edited.write_text("".join(json.dumps({**r, "context_budget": None}) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            cmd_report([rar / "outcomes.jsonl", edited], [rar / "sessions.jsonl"] * 2)
        assert str(exc.value) == (
            f"{edited}: {rows[0]['task_id']}: the outcome row is not the fold of its session row in "
            f"{rar / 'sessions.jsonl'}; --sessions must hold the sessions of the run that wrote --outcomes"
        )

    @pytest.mark.parametrize("argv", [["run", "--samples", "2"], ["report", "--outcomes", "o.jsonl", "--k", "1"]])
    def test_sample_count_flags_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def wide_outcomes(self, tmp_path_factory):
        """Outcomes with one context budget per task, so that the report
        table has one column per task: far more than a pipe holds."""
        path = tmp_path_factory.mktemp("wide") / "outcomes.jsonl"
        outcomes = [TaskOutcome(f"t{i}", n=1, c=i % 2, c_compile=1, context_budget=10**5 + i) for i in range(6000)]
        path.write_text("".join(json.dumps(o.to_json()) + "\n" for o in outcomes))
        return path, len(format_report_table(build_report(outcomes)).encode())

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("reader", ["gone-at-start", "one-line", "full-disk"])
    def test_report_to_a_closed_or_failing_stdout(self, wide_outcomes, reader, unbuffered):
        outcomes, table_bytes = wide_outcomes
        argv = [sys.executable, "-m", "solrepair.cli", "report", "--outcomes", str(outcomes)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        if reader == "one-line":
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            # The child cannot have written the whole table before the close,
            # so its write always meets the closed pipe.
            pipe_bytes = fcntl.fcntl(child.stdout.fileno(), fcntl.F_GETPIPE_SZ) if hasattr(fcntl, "F_GETPIPE_SZ") else 2**16
            assert table_bytes > 2 * pipe_bytes
            assert child.stdout.readline().startswith(b"metric")
            child.stdout.close()
            err = child.stderr.read()
            child.stderr.close()
            code = child.wait(timeout=60)
        else:
            if reader == "gone-at-start":
                read_end, stdout = os.pipe()
                os.close(read_end)
            else:
                stdout = os.open("/dev/full", os.O_WRONLY)
            try:
                child = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
            finally:
                os.close(stdout)
            code, err = child.returncode, child.stderr
        if reader == "full-disk":
            assert code == EXIT_INFRA
            assert err.startswith(b"error: [Errno 28]") and err.count(b"\n") == 1, err
        else:
            assert (code, err) == (EXIT_OK, b"")

    @pytest.mark.parametrize(
        "kind,edit,complaint",
        [
            ("outcomes", lambda row: json.dumps(row)[:-1], "malformed JSON"),
            ("outcomes", lambda row: json.dumps(row)[:-1] + ', "n": ' + "1" * 5000 + "}", "malformed JSON: Exceeds the limit"),
            ("outcomes", lambda row: json.dumps([row]), "expected a JSON object"),
            ("outcomes", lambda row: json.dumps({**row, "n": 1, "c": 2}), "bank0.sol#L12-15: c=2 outside"),
            ("outcomes", lambda row: json.dumps({**row, "n": 2}), r"bank0.sol#L12-15: n=2, but a task has one session \(n=1\)"),
            ("outcomes", lambda row: json.dumps({**row, "c_compile": 2}), r"bank0.sol#L12-15: c_compile=2 outside \[1, 1\]"),
            ("outcomes", lambda row: json.dumps({k: v for k, v in row.items() if k != "n"}), "TaskOutcome.__init__.. missing 1 required positional argument: 'n'"),
            ("outcomes", lambda row: json.dumps({**row, "extra": 1}), "TaskOutcome.__init__.. got an unexpected keyword argument 'extra'"),
            ("sessions", lambda row: json.dumps(row)[:-1], "malformed JSON"),
            ("sessions", lambda row: json.dumps({k: v for k, v in row.items() if k != "strategy"}), "RepairSession.__init__.. missing 1 required positional argument: 'strategy'"),
            ("sessions", lambda row: json.dumps({**row, "sample_index": 0}), "RepairSession.__init__.. got an unexpected keyword argument 'sample_index'"),
            ("sessions", lambda row: json.dumps({**row, "attempts": [{**row["attempts"][0], "extra": 1}]}), "Attempt.__init__.. got an unexpected keyword argument 'extra'"),
            ("sessions", lambda row: json.dumps({**row, "attempts": [{**row["attempts"][0], "verdict": "pass"}]}), "ExecutionVerdict: expected a JSON object, got str"),
            ("sessions", lambda row: json.dumps({**row, "attempts": 3}), "expected list, got int at key 'attempts'"),
            ("outcomes", lambda row: json.dumps({**row, "unavailable": 0}), "expected bool, got int at key 'unavailable'"),
            ("sessions", lambda row: json.dumps({**row, "attempts": [{**row["attempts"][0], "prompt_tokens": "x"}]}), r"expected int, got str at key 'attempts\[0\]\.prompt_tokens'"),
        ],
        ids=[
            "outcome-malformed", "outcome-long-int", "outcome-not-an-object", "outcome-bad-count", "outcome-two-sessions",
            "outcome-bad-compile-count", "outcome-missing-key",
            "outcome-unknown-key", "session-malformed", "session-missing-key", "session-unknown-key",
            "attempt-unknown-key", "verdict-not-an-object", "attempts-not-a-list", "outcome-int-for-bool",
            "attempt-str-for-int",
        ],
    )
    def test_report_on_malformed_row_exits_config(self, baseline_run, tmp_path, capsys, kind, edit, complaint):
        _, _, _, out = baseline_run
        paths = {k: out / f"{k}.jsonl" for k in ("outcomes", "sessions")}
        lines = paths[kind].read_text(encoding="utf-8").splitlines()
        bad = tmp_path / f"{kind}.jsonl"
        bad.write_text(f"{lines[1]}\n{edit(json.loads(lines[0]))}\n", encoding="utf-8")
        paths[kind] = bad
        code = main(["report", "--outcomes", str(paths["outcomes"]), "--sessions", str(paths["sessions"])])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(f"error: {re.escape(str(bad))}, line 2: {complaint}", err), err

    def test_config_file_non_object_retrieval_with_retrieval_flag_exits_config(
        self, e2e_config_factory, tmp_path, capsys
    ):
        payload = e2e_config_factory(str(tmp_path / "out")).to_json() | {"retrieval": "lcs"}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        for flags in ([], ["--retrieval", "bm25"], ["--max-snippets", "2"]):
            assert main(["run", "--config", str(config_path), *flags]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"error: config file {config_path}: retrieval must be a JSON object, not 'lcs'")
        assert not (tmp_path / "out").exists()

    def test_config_file_wrong_typed_value_exits_config(self, e2e_config_factory, tmp_path, capsys):
        payload = e2e_config_factory(str(tmp_path / "out")).to_json() | {"workers": "2"}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: bad config: expected int, got str at key 'workers'\n"

    def test_task_that_raises_leaves_run_partial(self, e2e_dir, tmp_path, capsys, caplog):
        real = repair.extract_code_block
        calls = []

        def seventh_call_raises(text):
            calls.append(text)
            if len(calls) == 7:
                raise RuntimeError("injected fault")
            return real(text)

        out = tmp_path / "out"
        with mock.patch.object(repair, "extract_code_block", side_effect=seventh_call_raises):
            with caplog.at_level(logging.ERROR, logger="solrepair"):
                code = main(self.run_flags(e2e_dir, out, "--max-rounds", "0"))
        assert code == EXIT_INFRA
        assert f"run partial: {E2E_TASKS - 1}/{E2E_TASKS} tasks" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        (failed,) = manifest["incomplete_task_ids"]
        assert manifest["status"] == "partial"
        assert failed == load_tasks(RunConfig(str(e2e_dir / "tasks.jsonl"), str(out), str(e2e_dir / "sources")))[6].task_id
        (record,) = [r for r in caplog.records if "failed" in r.getMessage()]
        assert record.getMessage() == f"task {failed} failed: RuntimeError: injected fault"
        assert record.exc_info is not None

    # `budget` is a flag's name, not its field's; `k_values` and `n_samples`
    # were fields of earlier versions: a task has one session, so no run
    # setting counts samples.
    @pytest.mark.parametrize("key,value", [("budget", 64), ("k_values", [1, 5]), ("n_samples", 4)])
    def test_config_file_with_unknown_key_exits_config(self, e2e_config_factory, tmp_path, capsys, key, value):
        payload = e2e_config_factory(str(tmp_path / "out")).to_json() | {key: value}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"unexpected keyword argument '{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_dense_endpoint_runs_without_requests(self, e2e_dir, baseline_run, tmp_path):
        _, _, _, reference = baseline_run
        config_path = tmp_path / "run.json"
        retrieval = {"method": "dense", "endpoint": "http://localhost:9/embed", "dimension": 8}
        config_path.write_text(json.dumps({"retrieval": retrieval}), encoding="utf-8")
        out = tmp_path / "out"
        with mock.patch("solrepair.rows.post_json") as post:
            code = main(self.run_flags(e2e_dir, out, "--config", str(config_path), "--max-rounds", "0"))
        assert code == EXIT_OK
        post.assert_not_called()
        assert outcome_bytes(out) == outcome_bytes(reference)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["retrieval"] == retrieval

    @pytest.mark.parametrize(
        "flag,value,field,expected",
        [
            ("--tasks", "t.jsonl", "task_file", "t.jsonl"),
            ("--out", "o", "out_dir", "o"),
            ("--source-root", "src", "source_root", "src"),
            ("--budget", "64", "context_budget", 64),
            ("--counter", "words", "counter", "words"),
            ("--strategy", "self_debug", "strategy", "self_debug"),
            ("--max-rounds", "3", "max_rounds", 3),
            ("--max-tokens", "99", "max_tokens", 99),
            ("--workers", "2", "workers", 2),
            ("--seed", "7", "seed", 7),
            ("--retrieval", "bm25", "retrieval", {"method": "bm25"}),
            ("--mock-client", "c.json", "mock_client", "c.json"),
            ("--mock-executor", "e.json", "mock_executor", "e.json"),
            ("--executor", "solc", "executor", "solc"),
            ("--solc", "bin/solc", "solc_path", "bin/solc"),
            ("--endpoint", "http://localhost:9/v1", "endpoint", "http://localhost:9/v1"),
            ("--model", "m", "model", "m"),
            ("--api-key-env", "KEY", "api_key_env", "KEY"),
            ("--rate-limit", "30", "rate_limit_per_minute", 30),
        ],
    )
    def test_run_flag_sets_its_config_field(self, flag, value, field, expected):
        captured = []

        def fake_run(config):
            captured.append(config)
            return SimpleNamespace(status="complete", tasks_completed=0, tasks_total=0), EXIT_OK

        with mock.patch("solrepair.cli.cmd_run", fake_run):
            assert main(["run", "--tasks", "base.jsonl", "--out", "base", flag, value]) == EXIT_OK
        assert getattr(captured[0], field) == expected

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "edit_rows,source_tail,complaint",
        [
            (None, "\n}\n", ": task bank0.sol#L12-15: bank0.sol: unmatched '}' at line 63, column 1"),
            (
                lambda rows: [{**rows[0], "id": "bank0.sol#L17-20", "span": [17, 20]}, *rows[2:]],
                "",
                ": task bank0.sol#L17-20: function 'fn_0_0' not found within span (17, 20)",
            ),
            (
                lambda rows: [{**rows[0], "id": "bank0.sol#L900-910", "span": [900, 910]}, *rows[1:]],
                "",
                ": task bank0.sol#L900-910: target span (900, 910) outside bank0.sol (61 lines)",
            ),
            (
                lambda rows: [{**rows[0], "signature": "function(uint256 a) "}, *rows[1:]],
                "",
                ": task bank0.sol#L12-15: bank0.sol: no function name in signature",
            ),
            (lambda rows: [*rows, rows[0]], "", ", line 51: id 'bank0.sol#L12-15' repeats line 1"),
            (
                lambda rows: [{**rows[0], "id": "fn_0_0"}, *rows[1:]],
                "",
                ", line 1: id 'fn_0_0' should be 'bank0.sol#L12-15' (<source_path>#L<start>-<end>)",
            ),
            (
                # Line 66 declares a Yul function inside outer's assembly block.
                lambda rows: [
                    {**rows[0], "id": "bank0.sol#L66-66", "span": [66, 66], "signature": "function helper(v) -> z "},
                    *rows[1:],
                ],
                "contract Y {\n    /// d\n    function outer(uint256 y) public pure returns (uint256 r) {\n"
                "        assembly {\n            function helper(v) -> z { z := v }\n            r := helper(y)\n"
                "        }\n    }\n}\n",
                ": task bank0.sol#L66-66: function 'helper' is nested in another function's body",
            ),
        ],
        ids=[
            "unbalanced-source", "span-on-next-function", "span-outside-file", "nameless-signature", "repeated-row",
            "foreign-id", "nested-target",
        ],
    )
    def test_task_that_does_not_fit_its_source_exits_config_before_any_output(
        self, e2e_dir, tmp_path, capsys, command, edit_rows, source_tail, complaint
    ):
        sources = tmp_path / "sources"
        shutil.copytree(e2e_dir / "sources", sources)
        with open(sources / "bank0.sol", "a", encoding="utf-8") as fh:
            fh.write(source_tail)
        rows = [json.loads(line) for line in (e2e_dir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()]
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("".join(json.dumps(row) + "\n" for row in (edit_rows or list)(rows)), encoding="utf-8")
        config_path = tmp_path / "run.json"
        config_path.write_text("{}", encoding="utf-8")
        out = tmp_path / "out"
        flags = self.config_flags(e2e_dir, out, command, config_path)
        flags[flags.index("--tasks") + 1] = str(tasks)
        flags[flags.index("--source-root") + 1] = str(sources)
        assert main(flags) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {tasks}{complaint}\n"
        assert not out.exists()

    def test_verify_command(self, e2e_config_factory, e2e_dir, tmp_path, capsys):
        config = e2e_config_factory(str(tmp_path / "out"))
        task = load_tasks(config)[0]
        completions = tmp_path / "completions.jsonl"
        completions.write_text(
            json.dumps({"task_id": task.task_id, "body": task.record.body}) + "\n",
            encoding="utf-8",
        )
        verdicts = tmp_path / "verdicts.jsonl"
        code = main(
            [
                "verify",
                "--tasks", str(e2e_dir / "tasks.jsonl"),
                "--source-root", str(e2e_dir / "sources"),
                "--executor", "mock",
                "--mock-executor", str(e2e_dir / "mock_executor.json"),
                "--completions", str(completions),
                "--verdicts", str(verdicts),
            ]
        )
        assert code == EXIT_OK
        row = json.loads(verdicts.read_text(encoding="utf-8").splitlines()[0])
        assert row["verdict"]["status"] == STATUS_PASS

    def config_flags(self, e2e_dir, out_dir: Path, command: str, config_path: Path) -> list[str]:
        """`run` or `verify` on the fixture with settings from config_path."""
        flags = [
            command,
            "--tasks", str(e2e_dir / "tasks.jsonl"),
            "--source-root", str(e2e_dir / "sources"),
            "--mock-executor", str(e2e_dir / "mock_executor.json"),
            "--config", str(config_path),
        ]
        if command == "run":
            return flags + ["--out", str(out_dir), "--mock-client", str(e2e_dir / "mock_client.json")]
        completions = out_dir.parent / "completions.jsonl"
        completions.write_text(json.dumps({"task_id": "bank0.sol#L12-15", "body": "{ }"}) + "\n", encoding="utf-8")
        return flags + ["--completions", str(completions), "--verdicts", str(out_dir)]

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "settings,complaint",
        [
            ({"retrieval": {"method": "lcs", "max_snippets": 2.5}}, "bad config: expected int, got float at key 'retrieval.max_snippets'"),
            ({"retrieval": {"method": "dense", "dimension": "16"}}, "bad config: expected int, got str at key 'retrieval.dimension'"),
            ({"retrieval": {"method": "dense", "dimension": 0}}, "dimension must be >= 1"),
            ({"retrieval": {"method": "lcs", "max_snippets": True}}, "bad config: expected int, got bool at key 'retrieval.max_snippets'"),
            ({"retrieval": {"method": "lcs", "window_lines": 1.0}}, "bad config: expected int, got float at key 'retrieval.window_lines'"),
            ({"retrieval": {"method": 3}}, "bad config: expected str, got int at key 'retrieval.method'"),
            ({"workers": True}, "bad config: expected int, got bool at key 'workers'"),
            ({"max_tokens": -5}, "max_tokens must be >= 1"),
            ({"max_tokens": 0}, "max_tokens must be >= 1"),
            ({"rate_limit_per_minute": -1}, "rate_limit_per_minute must be >= 0"),
            ({"executor_timeout": -1}, "executor_timeout must be > 0"),
            ({"executor": "fuzz", "fuzz_command": ["true"], "executor_timeout": 0}, "executor_timeout must be > 0"),
            ({"executor": "bogus"}, "unknown executor kind 'bogus'"),
            ({"counter": "nope"}, "unknown token counter 'nope' (known: bytes4, words)"),
        ],
        ids=[
            "float-snippets", "str-dimension", "zero-dimension", "bool-snippets", "float-window", "int-method",
            "bool-workers", "negative-max-tokens", "zero-max-tokens", "negative-rate-limit", "negative-timeout",
            "fuzz-zero-timeout", "unknown-executor", "unknown-counter",
        ],
    )
    def test_bad_setting_exits_config_before_any_output(self, e2e_dir, tmp_path, capsys, command, settings, complaint):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(settings), encoding="utf-8")
        out = tmp_path / "out"
        assert main(self.config_flags(e2e_dir, out, command, config_path)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    def test_verify_unknown_counter_flag_exits_config(self, e2e_dir, tmp_path, capsys):
        flags = self.config_flags(e2e_dir, tmp_path / "verdicts.jsonl", "verify", tmp_path / "run.json")
        (tmp_path / "run.json").write_text("{}", encoding="utf-8")
        assert main(flags + ["--counter", "nope"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: unknown token counter 'nope' (known: bytes4, words)\n"

    @pytest.mark.parametrize("flag", ["--max-snippets", "--window-lines", "--step-lines"])
    def test_retrieval_sub_flag_while_retrieval_is_off_exits_config(self, e2e_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert main(self.run_flags(e2e_dir, out, flag, "2")) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {flag} needs --retrieval or a retrieval object in --config\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "in_file,flags,expected",
        [
            (None, ["--retrieval", "bm25", "--max-snippets", "3"], {"method": "bm25", "max_snippets": 3}),
            ({"method": "tfidf"}, ["--window-lines", "4", "--step-lines", "2"], {"method": "tfidf", "window_lines": 4, "step_lines": 2}),
            ({"method": "dense", "dimension": 8}, ["--retrieval", "lcs"], {"method": "lcs", "dimension": 8}),
        ],
        ids=["flag-turns-retrieval-on", "file-turns-retrieval-on", "flag-overrides-file"],
    )
    def test_retrieval_flags_merge_into_the_retrieval_object(self, tmp_path, in_file, flags, expected):
        captured = []

        def fake_run(config):
            captured.append(config)
            return SimpleNamespace(status="complete", tasks_completed=0, tasks_total=0), EXIT_OK

        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"retrieval": in_file}), encoding="utf-8")
        with mock.patch("solrepair.cli.cmd_run", fake_run):
            argv = ["run", "--tasks", "t.jsonl", "--out", "o", "--config", str(config_path), *flags]
            assert main(argv) == EXIT_OK
        assert captured[0].retrieval == expected

    def test_every_run_flag_sets_a_declared_field_and_takes_its_declared_choices(self):
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        fields |= {f"retrieval.{f.name}" for f in dataclasses.fields(RetrievalConfig)}
        declared = {"strategy": STRATEGY_KINDS, "executor": EXECUTORS, "retrieval.method": METHODS}
        for command, expected in (("run", set(declared)), ("verify", {"executor"})):
            with_choices = set()
            for action in subparsers.choices[command]._actions:
                if action.dest in ("help", "config", "completions", "verdicts"):
                    continue
                assert action.dest in fields, action.option_strings
                if action.choices is not None:
                    assert action.choices is declared[action.dest], action.option_strings
                    with_choices.add(action.dest)
            assert with_choices == expected

    @pytest.mark.parametrize(
        "command,flags",
        [
            (
                "run",
                [
                    "--config", "--tasks", "--out", "--source-root", "--budget", "--counter", "--strategy",
                    "--max-rounds", "--max-tokens", "--workers", "--seed", "--retrieval",
                    "--max-snippets", "--window-lines", "--step-lines", "--mock-client", "--mock-executor",
                    "--executor", "--solc", "--endpoint", "--model", "--api-key-env", "--rate-limit",
                ],
            ),
            (
                "verify",
                [
                    "--config", "--tasks", "--source-root", "--budget", "--counter", "--seed", "--mock-executor",
                    "--executor", "--solc", "--completions", "--verdicts",
                ],
            ),
        ],
    )
    def test_subcommand_takes_exactly_its_flags(self, command, flags):
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        assert taken == set(flags)

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["run", "--tasks", "t.jsonl"], "run needs --tasks and --out (or a --config providing them)"),
            (["verify", "--completions", "c.jsonl"], "verify needs --tasks (or a --config providing task_file)"),
        ],
    )
    def test_missing_task_file_names_the_command(self, capsys, argv, complaint):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {complaint}\n"

    @pytest.mark.parametrize(
        "flag",
        [
            "--out", "--strategy", "--max-rounds", "--max-tokens", "--workers", "--retrieval",
            "--max-snippets", "--window-lines", "--step-lines", "--mock-client", "--endpoint", "--model",
            "--api-key-env", "--rate-limit",
        ],
    )
    def test_run_only_flag_on_verify_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tasks", "t.jsonl", "--completions", "c.jsonl", flag, "0"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err

    def test_run_decodes_strategy_and_retrieval_once(self, e2e_dir, tmp_path):
        with mock.patch.object(harness, "from_json_at", wraps=harness.from_json_at) as decode, mock.patch.object(
            harness, "RepairStrategy", wraps=harness.RepairStrategy
        ) as strategy:
            assert main(self.run_flags(e2e_dir, tmp_path / "out", "--max-rounds", "1", "--retrieval", "lcs")) == EXIT_OK
        # validate, run and build_provider each decode once, not once per task.
        assert decode.call_count == 3
        assert strategy.call_count == 2


RETRIEVAL_TYPES = {f.name: typing.get_type_hints(RetrievalConfig)[f.name] for f in dataclasses.fields(RetrievalConfig)}
# The JSON types each RetrievalConfig field type takes.
TAKES = {int: (int,), float: (int, float), str: (str,), str | None: (str, type(None))}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_wrongly_typed_retrieval_value_exits_config(e2e_dir, data):
    key = data.draw(st.sampled_from(sorted(RETRIEVAL_TYPES)))
    value = data.draw(JSON_VALUES.filter(lambda v: type(v) not in TAKES[RETRIEVAL_TYPES[key]]))
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps({"retrieval": {"method": "lcs", key: value}}), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(TestCli().config_flags(e2e_dir, out, "run", config_path))
        assert code == EXIT_CONFIG
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error: bad config: expected ")
        assert err.getvalue().endswith(f" at key 'retrieval.{key}'\n")
        assert not out.exists()


def test_logs_and_task_files_are_parsed_without_json_loads(e2e_dir, rar_run, tmp_path, monkeypatch):
    """Rows as the harness writes them are each parsed once, in place:
    json.loads is the fallback for any other line, and reading the e2e run
    and a run of perfbench's complete-small workload never reaches it."""
    from solrepair.corpus import read_task_file
    from solrepair.harness import _log_rows

    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    plan = workloads.generate("complete-small", 1, tmp_path)
    cmd_build(tmp_path / "sources", tmp_path / "tasks.jsonl")
    config = workloads.run_config(workloads.WORKLOADS["complete-small"], tmp_path, tmp_path / "tasks.jsonl", 1)
    assert cmd_run(config)[1] == EXIT_OK

    for tasks, logs in ((e2e_dir / "tasks.jsonl", rar_run[3]), (tmp_path / "tasks.jsonl", tmp_path)):
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            assert len(read_task_file(tasks)) == len(_log_rows(logs / "outcomes.jsonl", "outcomes", TaskOutcome)) > 0
            assert _log_rows(logs / "sessions.jsonl", "sessions", RepairSession)
            report = cmd_report([logs / "outcomes.jsonl"], [logs / "sessions.jsonl"])
        assert loads.call_count == 0, tasks
    assert report["overall"]["pass@1"] == plan["pass_at_1"]


def test_run_logs_skip_whitespace_only_lines(tmp_path):
    from solrepair.harness import _log_rows

    path = tmp_path / "outcomes.jsonl"
    a, b = (TaskOutcome(task_id, 1, 0, 0).to_line() for task_id in "ab")
    path.write_text(f"{a}\t\n　\n \x0b\n{b}", encoding="utf-8")
    # A whitespace line read as a row would end the log there, as a torn one.
    assert [task_id for task_id, _ in _log_rows(path, "outcomes", TaskOutcome)] == ["a", "b"]


# Each end-to-end input, by its place in a copy of the fixture, and the
# commands that read it.
HOSTILE_INPUTS = {
    "tasks.jsonl": ("run", "verify"),
    "mock_client.json": ("run",),
    "mock_executor.json": ("run", "verify"),
    "sources/bank0.sol": ("build", "run", "verify"),
    "sources/bank3.sol": ("build", "run", "verify"),
    "outcomes.jsonl": ("report",),
    "sessions.jsonl": ("report",),
}
JSON_TOKENS = [b"{", b"}", b"[", b"]", b'"', b",", b":", b"null", b"true", b"-1", b"1e999", b'"x"', b"{}", b"[]"]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data after one byte flip, inserted JSON token, deletion or duplicated line."""
    kind = draw(st.sampled_from(["flip", "insert", "delete", "duplicate-line"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "insert":
        return data[:at] + draw(st.sampled_from(JSON_TOKENS)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 64)) :]
    lines = data.split(b"\n")
    line = draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[: line + 1] + lines[line:])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_hostile_input_ends_in_a_documented_exit_code(e2e_dir, rar_run, data):
    _, _, _, logs = rar_run
    name = data.draw(st.sampled_from(sorted(HOSTILE_INPUTS)))
    command = data.draw(st.sampled_from(HOSTILE_INPUTS[name]))
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        shutil.copytree(e2e_dir / "sources", ws / "sources")
        for fixture in ("tasks.jsonl", "mock_client.json", "mock_executor.json"):
            shutil.copyfile(e2e_dir / fixture, ws / fixture)
        for log in ("outcomes.jsonl", "sessions.jsonl"):
            shutil.copyfile(logs / log, ws / log)
        tasks = [json.loads(line) for line in (e2e_dir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()]
        (ws / "completions.jsonl").write_text(
            "".join(json.dumps({"task_id": t["id"], "body": t["body"] + "\n"}) + "\n" for t in tasks), encoding="utf-8"
        )
        (ws / name).write_bytes(data.draw(mutations((ws / name).read_bytes())))
        inputs = ["--tasks", str(ws / "tasks.jsonl"), "--source-root", str(ws / "sources"), "--executor", "mock"]
        inputs += ["--mock-executor", str(ws / "mock_executor.json")]
        argv = {
            "build": ["build", "--sources", str(ws / "sources"), "--tasks", str(ws / "built.jsonl")],
            "run": ["run", *inputs, "--out", str(ws / "out"), "--mock-client", str(ws / "mock_client.json"),
                    "--max-rounds", "1", "--retrieval", "lcs"],
            "verify": ["verify", *inputs, "--completions", str(ws / "completions.jsonl"),
                       "--verdicts", str(ws / "verdicts.jsonl")],
            "report": ["report", "--outcomes", str(ws / "outcomes.jsonl"), "--sessions", str(ws / "sessions.jsonl")],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        event(f"{command} exit {code}")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFRA)
