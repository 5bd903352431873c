"""Release gate: one test per headline guarantee, one printed line each.

Every test re-derives its expected values from scratch (closed forms,
brute-force oracles, hand-computed fixtures) rather than importing helpers
from the per-module test files, so a regression in those files cannot mask
a regression here. Run with plain pytest; the summary lines print even
under captured output.
"""

from __future__ import annotations

import json
import math
import random
import re
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from solrepair import harness
from solrepair.corpus import (
    SourceIndex,
    build_corpus,
)
from solrepair.executor import (
    STATUS_COMPILE_ERROR,
    STATUS_EXECUTOR_UNAVAILABLE,
    STATUS_PASS,
    SolcCompileBackend,
)
from solrepair.harness import (
    EXIT_OK,
    RunConfig,
    cmd_report,
    cmd_run,
    read_outcomes,
    read_sessions,
)
from solrepair.metrics import (
    GPT_4O_MINI_PRICES,
    TaskOutcome,
    bleu,
    compilation_at_1,
    cost_of,
    crystal_bleu,
    pass_at_1,
    pearson,
    usage_cost,
)
from solrepair.retrieval import (
    MIN_LCS_LENGTH,
    HashEmbeddingProvider,
    Query,
    RetrievalConfig,
    lcs_retrieve_multi,
    retrieve,
)


@contextmanager
def reported(capsys, label: str):
    """Print one PASS/FAIL summary line for the enclosed assertions."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {label}: PASS")


# Shared end-to-end runs, built lazily so a failure surfaces inside the
# first criterion that needs them (and its printed line) instead of as a
# fixture error with no line at all.
_RUNS: dict = {}


def e2e_config(e2e_dir: Path, out_dir: Path, **overrides) -> RunConfig:
    base = dict(
        task_file=str(e2e_dir / "tasks.jsonl"),
        out_dir=str(out_dir),
        source_root=str(e2e_dir / "sources"),
        context_budget=2048,
        counter="bytes4",
        mock_client=str(e2e_dir / "mock_client.json"),
        mock_executor=str(e2e_dir / "mock_executor.json"),
        executor="mock",
    )
    base.update(overrides)
    return RunConfig(**base)


def e2e_runs(e2e_dir: Path, tmp_path_factory) -> dict:
    if not _RUNS:
        baseline_out = tmp_path_factory.mktemp("acc-baseline")
        rar_out = tmp_path_factory.mktemp("acc-rar")
        _, baseline_code = cmd_run(e2e_config(e2e_dir, baseline_out, max_rounds=0))
        _, rar_code = cmd_run(
            e2e_config(e2e_dir, rar_out, max_rounds=1, retrieval={"method": "lcs"})
        )
        _RUNS.update(
            baseline_out=baseline_out,
            baseline_code=baseline_code,
            rar_out=rar_out,
            rar_code=rar_code,
        )
    return _RUNS


def test_pass_rate_is_the_exact_share_of_passing_tasks(capsys):
    with reported(capsys, "[1/9] pass@1 == passing/usable tasks, exactly (<=8 tasks); n != 1 rejected"):
        for usable in range(1, 9):
            for passed in range(usable + 1):
                rows = [TaskOutcome(f"t{i}", n=1, c=int(i < passed), c_compile=1, context_budget=2048) for i in range(usable)]
                rows.append(TaskOutcome("gone", n=1, c=1, c_compile=1, context_budget=2048, unavailable=True))
                assert pass_at_1(rows) == 100 * passed / usable, (usable, passed)
                assert compilation_at_1(rows) == 100.0
        with pytest.raises(ValueError, match="a task has one session"):
            TaskOutcome(task_id="t", n=2, c=1, c_compile=1, context_budget=2048)


def lcs_bruteforce(query_text: str, lines: list[str], cap: int):
    """All-substrings reference: longest length with any hit wins."""
    for length in range(len(query_text), MIN_LCS_LENGTH - 1, -1):
        hits = []
        for idx, text in enumerate(lines):
            for j in range(len(query_text) - length + 1):
                fragment = query_text[j : j + length]
                if fragment in text:
                    hits.append((idx, float(length), fragment, text))
                    break
        if hits:
            return sorted(hits, key=lambda h: h[0])[:cap]
    return []


def test_lcs_retrieval_matches_bruteforce_oracle(capsys):
    with reported(capsys, "[2/9] LCS == brute-force oracle (1000 random contexts, <10s)"):
        rng = random.Random(1461)
        alphabet = "abcdef _(){};=+"
        start = time.perf_counter()
        for _ in range(1000):
            lines = [
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(5, 41)))
                for _ in range(50)
            ]
            query_text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(2, 13))
            )
            cap = rng.randrange(1, 6)
            got = [
                (s.line_index, s.score, s.matched_fragment, s.text)
                for s in lcs_retrieve_multi(
                    [Query(query_text)],
                    lines,
                    RetrievalConfig(max_snippets=cap),
                )
            ]
            assert got == lcs_bruteforce(query_text, lines, cap)
        assert time.perf_counter() - start < 10.0


def test_retrieval_contract_and_scoring_fixtures(capsys):
    with reported(capsys, "[3/9] retrievers capped+sorted; BM25/TF-IDF fixtures at 1e-9"):
        rng = random.Random(97)
        provider = HashEmbeddingProvider(dimension=16)
        words = ["transfer", "amount", "owner", "uint256", "balance", "fee"]
        for _ in range(40):
            lines = [
                " ".join(rng.choice(words) for _ in range(rng.randrange(1, 5)))
                for _ in range(rng.randrange(1, 30))
            ]
            query = Query(" ".join(rng.choice(words) for _ in range(rng.randrange(1, 4))))
            cap = rng.randrange(1, 5)
            for method in ("lcs", "bm25", "tfidf", "jaccard", "dense"):
                config = RetrievalConfig(method=method, max_snippets=cap)
                out = retrieve(query, lines, config, provider=provider)
                assert len(out) <= cap
                keys = [(-s.score, s.line_index) for s in out]
                assert keys == sorted(keys), (method, out)

        # BM25 (Lucene idf, k1=1.2, b=0.75) on three one-line windows.
        config = RetrievalConfig(method="bm25", max_snippets=10)
        out = retrieve(Query("a"), ["a b", "a a b", "c"], config)
        idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        w0 = idf * 2.2 / (1 + 1.2 * (0.25 + 0.75 * (2 / 2)))
        w1 = idf * 4.4 / (2 + 1.2 * (0.25 + 0.75 * (3 / 2)))
        assert [s.line_index for s in out] == [1, 0]
        assert abs(out[0].score - w1) <= 1e-9
        assert abs(out[1].score - w0) <= 1e-9

        # TF-IDF cosine with ln(N/df) weights.
        config = RetrievalConfig(method="tfidf", max_snippets=10)
        out = retrieve(
            Query("transfer amount"),
            ["transfer amount", "approve spender", "transfer fee"],
            config,
        )
        l15, l3 = math.log(3 / 2), math.log(3)
        assert [s.line_index for s in out] == [0, 2]
        assert abs(out[0].score - 1.0) <= 1e-9
        assert abs(out[1].score - l15 * l15 / (l15 * l15 + l3 * l3)) <= 1e-9


def test_corpus_pipeline_counts_and_injection(capsys, corpus20_dir):
    with reported(capsys, "[4/9] corpus fixture counts exact"):
        files = [SourceIndex.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(corpus20_dir.glob("*.sol"))]
        kept, report = build_corpus(files)
        assert report.total_extracted == 110
        assert report.excluded_no_comment == 5
        assert report.excluded_state_dependent == 3
        assert report.excluded_mint == 2
        assert report.dedup_removed == 87
        assert report.retained == 13 == len(kept)
        # 13 survivors out of 100 filter-passing bodies: rate 87/100.
        assert abs(report.duplication_rate - 0.87) <= 1e-12


def untimed_sessions(out_dir: Path) -> list[dict]:
    """The session rows of a run, each verdict without its `elapsed`."""
    rows = [json.loads(line) for line in (out_dir / "sessions.jsonl").read_text(encoding="utf-8").splitlines()]
    for row in rows:
        for attempt in row["attempts"]:
            del attempt["verdict"]["elapsed"]
    return rows


def test_repair_lift_on_scripted_fixture(capsys, e2e_dir, tmp_path_factory, waiting_client):
    label = "[5/9] scripted 50-task run: pass@1 40.00 -> 80.00; stable x3 runs, workers {1,2,8}"
    with reported(capsys, label):
        runs = e2e_runs(e2e_dir, tmp_path_factory)
        assert runs["baseline_code"] == EXIT_OK
        assert runs["rar_code"] == EXIT_OK

        baseline = read_outcomes(runs["baseline_out"] / "outcomes.jsonl")
        repaired = read_outcomes(runs["rar_out"] / "outcomes.jsonl")
        assert round(pass_at_1(baseline), 2) == 40.00
        assert round(compilation_at_1(baseline), 2) == 60.00
        assert round(pass_at_1(repaired), 2) == 80.00
        assert round(compilation_at_1(repaired), 2) == 100.00

        # Repair prompts quote the retrieved declaration lines of their file.
        sessions = read_sessions(runs["rar_out"] / "sessions.jsonl")
        recovered = [
            s
            for s in sessions
            if len(s.attempts) == 2
            and s.attempts[0].verdict.status == STATUS_COMPILE_ERROR
            and s.final_status == STATUS_PASS
        ]
        assert len(recovered) == 20
        for session in recovered:
            file_index = re.match(r"bank(\d+)\.sol#", session.task_id).group(1)
            assert f"interface Registry{file_index}" in session.attempts[1].prompt

        # Outcomes are byte-identical and sessions equal but for the
        # executor's wall-clock time, whatever the worker count. The client
        # declares that it waits, so 2 and 8 workers drain a thread pool.
        reference = (runs["rar_out"] / "outcomes.jsonl").read_bytes()
        reference_sessions = untimed_sessions(runs["rar_out"])
        real_run_task = harness.run_task
        for workers in (1, 2, 8):
            out = tmp_path_factory.mktemp(f"acc-rar-workers{workers}")
            threads = set()

            def run_task(*args):
                threads.add(threading.get_ident())
                return real_run_task(*args)

            with mock.patch.object(harness, "build_client", waiting_client), mock.patch.object(
                harness, "run_task", run_task
            ):
                _, code = cmd_run(
                    e2e_config(
                        e2e_dir,
                        out,
                        max_rounds=1,
                        retrieval={"method": "lcs"},
                        workers=workers,
                    )
                )
            assert code == EXIT_OK
            calling = threading.get_ident()
            assert threads == {calling} if workers == 1 else calling not in threads
            assert (out / "outcomes.jsonl").read_bytes() == reference
            assert untimed_sessions(out) == reference_sessions


def test_cost_ledger_known_prices_and_additivity(capsys, e2e_dir, tmp_path_factory):
    with reported(capsys, "[6/9] cost: 1M+1M tokens -> $0.75 to the cent; additive"):
        dollars = usage_cost(1_000_000, 1_000_000, GPT_4O_MINI_PRICES)
        assert round(dollars, 2) == 0.75

        runs = e2e_runs(e2e_dir, tmp_path_factory)
        sessions = read_sessions(runs["rar_out"] / "sessions.jsonl")
        whole = cost_of(sessions)
        first = cost_of(sessions[:25])
        second = cost_of(sessions[25:])
        for stage in whole.prompt_tokens:
            assert whole.prompt_tokens[stage] == (
                first.prompt_tokens[stage] + second.prompt_tokens[stage]
            )
            assert whole.completion_tokens[stage] == (
                first.completion_tokens[stage] + second.completion_tokens[stage]
            )
        assert whole.total_usd == pytest.approx(
            first.total_usd + second.total_usd, rel=1e-12
        )
        assert whole.total_usd > 0


def test_metric_relationships(capsys, e2e_dir, tmp_path_factory):
    with reported(capsys, "[7/9] pass@1 <= compilation@1; crystal <= BLEU; Pearson oracles"):
        runs = e2e_runs(e2e_dir, tmp_path_factory)
        for out_dir in (runs["baseline_out"], runs["rar_out"]):
            outcomes = read_outcomes(out_dir / "outcomes.jsonl")
            assert pass_at_1(outcomes) <= compilation_at_1(outcomes)
        for c in range(2):
            for c_compile in range(c, 2):
                rows = [TaskOutcome(task_id="t", n=1, c=c, c_compile=c_compile, context_budget=2048)]
                assert pass_at_1(rows) <= compilation_at_1(rows)

        candidate = "the quick brown fox jumps over the lazy dog near the bank"
        reference = "the quick brown fox leaps over a lazy dog by the river"
        assert crystal_bleu(candidate, reference, {("the",)}) <= bleu(candidate, reference)
        assert crystal_bleu("a b c d e", "a b c d f", {("a",), ("a", "b")}) <= bleu(
            "a b c d e", "a b c d f"
        )
        assert crystal_bleu(candidate, reference, set()) == bleu(candidate, reference)

        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_resume_and_report_reproducibility(capsys, e2e_dir, tmp_path_factory, tmp_path):
    with reported(capsys, "[8/9] torn-write resume byte-identical; report byte-stable"):
        runs = e2e_runs(e2e_dir, tmp_path_factory)
        reference = (runs["rar_out"] / "outcomes.jsonl").read_bytes()
        session_text = (runs["rar_out"] / "sessions.jsonl").read_text(encoding="utf-8")

        crashed = tmp_path / "crashed"
        crashed.mkdir()
        committed = reference.decode("utf-8").splitlines()[:17]
        (crashed / "outcomes.jsonl").write_text(
            "".join(line + "\n" for line in committed) + '{"task_id":"bank1.s',
            encoding="utf-8",
        )
        (crashed / "sessions.jsonl").write_text(
            "".join(line + "\n" for line in session_text.splitlines()[:19]),
            encoding="utf-8",
        )
        _, code = cmd_run(
            e2e_config(e2e_dir, crashed, max_rounds=1, retrieval={"method": "lcs"})
        )
        assert code == EXIT_OK
        assert (crashed / "outcomes.jsonl").read_bytes() == reference

        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (first, second):
            cmd_report(
                [runs["rar_out"] / "outcomes.jsonl"],
                [runs["rar_out"] / "sessions.jsonl"],
                out_json=path,
            )
        assert first.read_bytes() == second.read_bytes()


def test_offline_operation(capsys, e2e_dir, tmp_path, monkeypatch):
    with reported(capsys, "[9/9] offline: no sockets; missing compiler degrades gracefully"):
        def deny(*args, **kwargs):
            raise AssertionError("network access attempted during mock run")

        monkeypatch.setattr(socket.socket, "connect", deny)
        manifest, code = cmd_run(e2e_config(e2e_dir, tmp_path / "out", max_rounds=0))
        assert code == EXIT_OK
        assert manifest.status == "complete"

        backend = SolcCompileBackend(str(tmp_path / "no-such-solc"))
        assert backend.version == "unavailable"
        assert backend.compile("contract A {}").status == STATUS_EXECUTOR_UNAVAILABLE
