"""Prompt construction, reply parsing, model clients, and the repair loop."""

from __future__ import annotations

import json
import math
import time

from unittest import mock

import pytest

from solrepair.context import ContextWindow
from solrepair.corpus import SourceIndex, extract_functions
from solrepair.executor import Diagnostic, ExecutionVerdict
from solrepair import repair
from solrepair.repair import (
    Attempt,
    CompletionTask,
    ModelClientError,
    ModelReply,
    RateLimiter,
    RepairSession,
    RepairStrategy,
    ScriptedModelClient,
    SNIPPETS_HEADER,
    build_completion_prompt,
    build_repair_prompt,
    complete_function,
    extract_code_block,
    feedback_block,
    prompt_hash,
    run_rar,
)
from solrepair.retrieval import RetrievalConfig, RetrievedSnippet
from solrepair.rows import read_json

ORACLE = """contract Vault {
    uint256 public stored;
    uint256 internal cap;

    /// Doubles the stash.
    function double(uint256 x) public pure returns (uint256) {
        return x * 2;
    }
}
"""

VAULT = SourceIndex.from_text("vault.sol", ORACLE)
RECORD = extract_functions(VAULT)[0]
TARGET = VAULT.find(RECORD.name, *RECORD.span)
CONTEXT_TEXT = "uint256 public stored;\nuint256 internal cap;\n"


def make_task(context_text: str = CONTEXT_TEXT) -> CompletionTask:
    ctx = ContextWindow(text=context_text, budget=512, actual_tokens=len(context_text.split()))
    return CompletionTask(
        task_id=RECORD.task_id(), record=RECORD, context=ctx, oracle=VAULT, target=TARGET
    )


class QueueClient:
    """Replays canned reply texts in order; records every prompt."""

    name = "queue"

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls: list[str] = []

    def complete(self, prompt: str, max_tokens: int) -> ModelReply:
        self.calls.append(prompt)
        text = self.replies.pop(0)
        return ModelReply(text=text, prompt_tokens=len(prompt), completion_tokens=len(text))


class SequenceBackend:
    """Returns scripted verdicts in order, ignoring the sources."""

    name = "seq"
    version = "seq@1"

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def verify(self, oracle, completed_source, target_function_id):
        return self.verdicts.pop(0)


def ce(identifier=None, line=None, message="verification failed"):
    return ExecutionVerdict(
        status="compile_error",
        diagnostics=(
            Diagnostic("UndeclaredIdentifier" if identifier else "Other",
                       message, line=line, identifier=identifier),
        ),
        backend="seq",
        backend_version="seq@1",
    )


PASS = ExecutionVerdict(status="pass", backend="seq", backend_version="seq@1")
UNAVAILABLE = ExecutionVerdict(
    status="executor_unavailable",
    diagnostics=(Diagnostic("Other", "backend offline"),),
    backend="seq",
    backend_version="seq@1",
)


class TestExtractCodeBlock:
    def test_plain_body(self):
        assert extract_code_block("{ return x * 2; }") == "{ return x * 2; }"

    def test_fenced_with_language(self):
        text = "Here is the code:\n```solidity\n{ return 1; }\n```\nDone."
        assert extract_code_block(text) == "{ return 1; }"

    def test_fenced_without_language(self):
        assert extract_code_block("```\n{ return 1; }\n```") == "{ return 1; }"

    def test_prose_around_braces(self):
        assert extract_code_block("Sure! { return 1; } hope it helps") == "{ return 1; }"

    def test_nested_braces(self):
        body = "{ if (x > 0) { return 1; } return 2; }"
        assert extract_code_block("prefix " + body + " suffix") == body

    def test_brace_in_string_literal_ignored(self):
        body = '{ s = "}"; return 1; }'
        assert extract_code_block(body) == body

    def test_unbalanced_returns_stripped_raw(self):
        assert extract_code_block("  { return 1;  ") == "{ return 1;"

    def test_no_braces_returns_stripped_raw(self):
        assert extract_code_block("  return 1;\n") == "return 1;"


class TestCompletionPrompt:
    def test_contains_comment_signature_and_instruction(self):
        prompt = build_completion_prompt(make_task())
        assert prompt.startswith("You are completing a Solidity function.")
        assert RECORD.comment in prompt
        assert RECORD.signature in prompt
        assert "Write only the function body, starting with '{' and ending with '}'." in prompt

    def test_context_section_present(self):
        prompt = build_completion_prompt(make_task())
        assert "Preceding contract context:\n" + CONTEXT_TEXT in prompt

    def test_empty_context_omits_header(self):
        prompt = build_completion_prompt(make_task(context_text=""))
        assert "Preceding contract context" not in prompt


class TestScriptedClient:
    def fixture_for(self, prompt: str, text: str, strict: bool = True) -> dict:
        return {
            "schema": "mock-client@1",
            "strict": strict,
            "completions": {prompt_hash(prompt): text},
        }

    def test_replays_by_hash_with_usage(self):
        client = ScriptedModelClient(self.fixture_for("the prompt", "{ return 1; }"))
        reply = client.complete("the prompt", 64)
        assert reply.text == "{ return 1; }"
        assert reply.prompt_tokens == math.ceil(len("the prompt".encode()) / 4)
        assert reply.completion_tokens == math.ceil(len("{ return 1; }".encode()) / 4)

    def test_strict_unknown_prompt_raises(self):
        client = ScriptedModelClient(self.fixture_for("known", "x"))
        with pytest.raises(ModelClientError, match="no scripted completion"):
            client.complete("unknown", 64)

    def test_lenient_unknown_prompt_stubs(self):
        client = ScriptedModelClient(self.fixture_for("known", "x", strict=False))
        assert client.complete("unknown", 64).text == "{ }"

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "client.json"
        path.write_text(json.dumps(self.fixture_for("p", "c")))
        assert ScriptedModelClient(read_json(path, "client fixture")).complete("p", 8).text == "c"

    @pytest.mark.parametrize(
        "edit,complaint",
        [
            ({"completions": []}, "expected dict, got list at key 'completions'"),
            ({"completions": {"h": 1}}, "expected str, got int at key 'completions.h'"),
            ({"strict": "yes"}, "expected bool, got str at key 'strict'"),
            ({"extra": 1}, "unexpected keyword argument 'extra'"),
        ],
        ids=["list-completions", "int-completion", "str-strict", "unknown-key"],
    )
    def test_fixture_decoded_strictly(self, edit, complaint):
        with pytest.raises(TypeError) as info:
            ScriptedModelClient(self.fixture_for("p", "c") | edit)
        assert str(info.value).endswith(complaint)

    def test_rejects_foreign_fixture_schema(self):
        fixture = self.fixture_for("p", "c")
        fixture["schema"] = "mock-client@9"
        with pytest.raises(ValueError, match="unsupported client fixture schema"):
            ScriptedModelClient(fixture)


class TestStrategy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="repair strategy"):
            RepairStrategy(kind="pray")

    @pytest.mark.parametrize(
        "kind,uses", [("self_edit", True), ("self_debug", True), ("self_repair", True), ("self_refine", False)]
    )
    def test_feedback_usage_matrix(self, kind, uses):
        assert RepairStrategy(kind=kind).uses_executor_feedback is uses


class TestRepairPrompt:
    def attempt_with(self, verdict) -> Attempt:
        return Attempt(
            stage="completion",
            prompt="p",
            completion="{ return x + 2; }",
            body="{ return x + 2; }",
            prompt_tokens=10,
            completion_tokens=5,
            verdict=verdict,
        )

    def snippets(self):
        return [
            RetrievedSnippet(line_index=0, text="uint256 public stored;", score=6.0),
            RetrievedSnippet(line_index=1, text="uint256 internal cap;", score=3.0),
        ]

    def test_self_edit_embeds_feedback_verbatim_and_contiguous(self):
        verdict = ExecutionVerdict(
            status="compile_error",
            diagnostics=(
                Diagnostic("UndeclaredIdentifier", 'Undeclared identifier "stored".'),
                Diagnostic("Other", "second message"),
            ),
        )
        prompt, reply, explain_prompt = build_repair_prompt(
            RepairStrategy("self_edit"), make_task(), self.attempt_with(verdict), self.snippets()
        )
        block = 'Undeclared identifier "stored".\nsecond message'
        assert feedback_block(verdict) == block
        assert "Executor feedback:\n" + block + "\n" in prompt
        assert reply is None
        assert explain_prompt == ""

    def test_snippets_section_rows_in_order(self):
        prompt, _, _ = build_repair_prompt(
            RepairStrategy("self_edit"), make_task(), self.attempt_with(ce("stored")), self.snippets()
        )
        section_at = prompt.index(SNIPPETS_HEADER + ":")
        row0 = prompt.index("[line 0] uint256 public stored;")
        row1 = prompt.index("[line 1] uint256 internal cap;")
        assert section_at < row0 < row1

    def test_no_snippets_omits_header(self):
        prompt, _, _ = build_repair_prompt(
            RepairStrategy("self_edit"), make_task(), self.attempt_with(ce("stored")), []
        )
        assert SNIPPETS_HEADER not in prompt

    def test_previous_completion_included(self):
        prompt, _, _ = build_repair_prompt(
            RepairStrategy("self_edit"), make_task(), self.attempt_with(ce()), []
        )
        assert "Previous completion:\n{ return x + 2; }" in prompt

    def test_self_refine_never_sees_executor_text(self):
        verdict = ce(message="EXECUTOR SAYS BOOM")
        prompt, _, _ = build_repair_prompt(
            RepairStrategy("self_refine"), make_task(), self.attempt_with(verdict), []
        )
        assert "EXECUTOR SAYS BOOM" not in prompt
        assert "feedback" not in prompt.lower()

    def test_self_repair_asks_for_interpretation_first(self):
        prompt, _, _ = build_repair_prompt(
            RepairStrategy("self_repair"), make_task(), self.attempt_with(ce()), []
        )
        assert "First state what the feedback means" in prompt
        assert "Executor feedback:" in prompt

    def test_self_debug_makes_explanation_call(self):
        client = QueueClient(["line 1 doubles x"])
        prompt, reply, explain_prompt = build_repair_prompt(
            RepairStrategy("self_debug"),
            make_task(),
            self.attempt_with(ce()),
            [],
            client=client,
        )
        assert reply is not None
        assert reply.text == "line 1 doubles x"
        assert "Line-by-line explanation of the previous completion:\nline 1 doubles x" in prompt
        assert "Explain, line by line" in explain_prompt
        assert "{ return x + 2; }" in explain_prompt
        assert client.calls == [explain_prompt]

    def test_self_debug_without_client_rejected(self):
        with pytest.raises(ValueError, match="self_debug"):
            build_repair_prompt(
                RepairStrategy("self_debug"), make_task(), self.attempt_with(ce()), []
            )

    def test_unverified_attempt_rejected(self):
        with pytest.raises(ValueError, match="verified attempt"):
            build_repair_prompt(
                RepairStrategy("self_edit"), make_task(), self.attempt_with(None), []
            )


class TestRetrieveForRepair:
    def test_only_newline_ends_a_context_line(self):
        # A form feed is a line break to str.splitlines(), not to spans or
        # diagnostics; a final newline adds no empty line.
        body = "{\n    // step\x0cone\n    return a + missingThing;\n}"
        verdict = ce(line=3, message="boom")
        context = ContextWindow(
            text="uint256 a; // x\x0cy\nuint256 missingThing;\n", budget=512, actual_tokens=5
        )
        with mock.patch.object(repair, "retrieve", return_value=[]) as retrieve:
            repair._retrieve_for_repair(RetrievalConfig(method="bm25"), verdict, body, context, None)
        query, lines = retrieve.call_args.args[:2]
        assert query.text == "return a + missingThing;"
        assert lines == ["uint256 a; // x\x0cy", "uint256 missingThing;"]


class TestRunRar:
    LCS = RetrievalConfig(method="lcs", max_snippets=2)

    def test_pass_on_first_attempt(self):
        client = QueueClient(["{ return x * 2; }"])
        session = run_rar(
            make_task(), client, SequenceBackend([PASS]), RepairStrategy("self_edit"),
            retriever_cfg=self.LCS, max_rounds=1,
        )
        assert len(session.attempts) == 1
        assert session.final_status == "pass"
        assert session.attempts[0].stage == "completion"
        assert len(client.calls) == 1

    def test_fail_then_repair_to_pass(self):
        client = QueueClient(["{ return stored + x; }", "{ return x * 2; }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce("stored"), PASS]),
            RepairStrategy("self_edit"), retriever_cfg=self.LCS, max_rounds=1,
        )
        assert [a.stage for a in session.attempts] == ["completion", "repair"]
        assert session.final_status == "pass"
        repair = session.attempts[1]
        assert repair.snippets
        assert repair.snippets[0].matched_fragment == "stored"
        assert repair.snippets[0].text == "uint256 public stored;"
        assert SNIPPETS_HEADER + ":" in repair.prompt
        assert "[line 0] uint256 public stored;" in repair.prompt

    def test_max_rounds_zero_is_no_repair_baseline(self):
        client = QueueClient(["{ return x + 1; }"])
        task = make_task()
        session = run_rar(
            task, client, SequenceBackend([ce("stored")]), RepairStrategy("self_edit"),
            retriever_cfg=self.LCS, max_rounds=0,
        )
        assert len(session.attempts) == 1
        assert session.final_status == "compile_error"
        assert session.attempts[0].prompt == build_completion_prompt(task)

    def test_rounds_exhausted_keeps_failure(self):
        client = QueueClient(["{ a }", "{ b }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce(), ce()]), RepairStrategy("self_edit"),
            retriever_cfg=self.LCS, max_rounds=1,
        )
        assert len(session.attempts) == 2
        assert session.final_status == "compile_error"

    def test_unavailable_aborts_immediately(self):
        client = QueueClient(["{ a }"])
        session = run_rar(
            make_task(), client, SequenceBackend([UNAVAILABLE]), RepairStrategy("self_edit"),
            retriever_cfg=self.LCS, max_rounds=3,
        )
        assert len(session.attempts) == 1
        assert session.final_status == "executor_unavailable"
        assert len(client.calls) == 1

    def test_unavailable_mid_loop_stops_repair(self):
        client = QueueClient(["{ a }", "{ b }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce(), UNAVAILABLE]),
            RepairStrategy("self_edit"), retriever_cfg=self.LCS, max_rounds=3,
        )
        assert len(session.attempts) == 2
        assert session.final_status == "executor_unavailable"

    def test_no_retriever_means_no_snippets(self):
        client = QueueClient(["{ a }", "{ b }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce("stored"), PASS]),
            RepairStrategy("self_edit"), retriever_cfg=None, max_rounds=1,
        )
        repair = session.attempts[1]
        assert repair.snippets == ()
        assert SNIPPETS_HEADER not in repair.prompt

    def test_retrieval_reruns_each_round(self):
        client = QueueClient(["{ a }", "{ b }", "{ c }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce("stored"), ce("cap"), PASS]),
            RepairStrategy("self_edit"), retriever_cfg=self.LCS, max_rounds=2,
        )
        first, second = session.attempts[1], session.attempts[2]
        assert first.snippets[0].matched_fragment == "stored"
        assert second.snippets[0].matched_fragment == "cap"
        assert first.snippets != second.snippets

    def test_self_debug_extra_call_accounted(self):
        client = QueueClient(["{ a }", "explains the bug", "{ return x * 2; }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce(), PASS]), RepairStrategy("self_debug"),
            retriever_cfg=None, max_rounds=1,
        )
        assert len(client.calls) == 3
        repair = session.attempts[1]
        assert repair.explanation == "explains the bug"
        assert repair.explanation_prompt_tokens == len(client.calls[1])
        assert repair.explanation_completion_tokens == len("explains the bug")
        assert "explains the bug" in repair.prompt

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            run_rar(make_task(), QueueClient([]), SequenceBackend([]), RepairStrategy("self_edit"), max_rounds=-1)

    def test_verify_splices_at_the_target_under_the_task_id(self):
        seen = []

        class Recording(SequenceBackend):
            def verify(self, oracle, completed_source, target_function_id):
                seen.append((oracle, completed_source, target_function_id))
                return super().verify(oracle, completed_source, target_function_id)

        body = "{ return x + x; }"
        run_rar(make_task(), QueueClient([body]), Recording([PASS]), RepairStrategy("self_edit"), max_rounds=0)
        ((oracle, completed, task_id),) = seen
        assert (oracle, completed.source_in(oracle), task_id) == (VAULT, ORACLE.replace(RECORD.body, body), RECORD.task_id())
        assert completed.body == body

    def test_complete_function_returns_the_verified_attempt(self):
        client = QueueClient(["```solidity\n{ return x * 2; }\n```"])
        attempt = complete_function(make_task(), client, SequenceBackend([ce("y")]), max_tokens=64)
        assert (attempt.stage, attempt.body, attempt.verdict) == ("completion", "{ return x * 2; }", ce("y"))
        assert attempt.prompt == client.calls[0] == build_completion_prompt(make_task())

    def test_session_json_round_trip(self):
        client = QueueClient(["{ return stored + x; }", "{ return x * 2; }"])
        session = run_rar(
            make_task(), client, SequenceBackend([ce("stored"), PASS]),
            RepairStrategy("self_edit"), retriever_cfg=self.LCS, max_rounds=1,
        )
        payload = json.loads(json.dumps(session.to_json()))
        assert RepairSession.from_json(payload) == session
        assert payload["final_status"] == "pass"
        assert payload["context_budget"] == make_task().context.budget


class TestSessionValidation:
    def attempt(self, verdict=None) -> Attempt:
        return Attempt(
            stage="completion", prompt="p", completion="c", body="{ }",
            prompt_tokens=1, completion_tokens=1, verdict=verdict,
        )

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown attempt stage 'bompletion'"):
            Attempt(stage="bompletion", prompt="p", completion="c", body="{ }", prompt_tokens=1, completion_tokens=1)

    def test_empty_attempts_rejected(self):
        with pytest.raises(ValueError, match="at least the completion"):
            RepairSession(task_id="t", strategy="self_edit", max_rounds=1, context_budget=0, attempts=())

    def test_attempt_count_capped(self):
        with pytest.raises(ValueError, match="more attempts"):
            RepairSession(
                task_id="t", strategy="self_edit", max_rounds=0, context_budget=0,
                attempts=(self.attempt(), self.attempt()),
            )

    def test_missing_verdict_reads_as_unavailable(self):
        session = RepairSession(
            task_id="t", strategy="self_edit", max_rounds=0, context_budget=0, attempts=(self.attempt(),)
        )
        assert session.final_status == "executor_unavailable"


class TestRateLimiter:
    def test_zero_limit_is_noop(self):
        limiter = RateLimiter(0)
        t0 = time.perf_counter()
        for _ in range(100):
            limiter.acquire()
        assert time.perf_counter() - t0 < 0.5

    def test_stale_stamps_pruned_without_sleep(self):
        limiter = RateLimiter(2)
        old = time.monotonic() - 61.0
        limiter._stamps.extend([old, old])
        t0 = time.perf_counter()
        limiter.acquire()
        assert time.perf_counter() - t0 < 0.5
        assert len(limiter._stamps) == 1


class TestHttpClient:
    """HttpModelClient against a loopback server that replays scripted
    replies; time.sleep is patched, so no test waits out a backoff."""

    OK = (200, {"choices": [{"message": {"content": "ok"}}]})

    @pytest.fixture
    def sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        return sleeps

    def make_client(self, url, **kwargs):
        from solrepair.repair import HttpModelClient

        return HttpModelClient(url, "test-model", timeout=5.0, **kwargs)

    def test_success_uses_reported_usage(self, http_server):
        payload = {
            "choices": [{"message": {"content": "{ return 1; }"}}],
            "usage": {"prompt_tokens": 42, "completion_tokens": 7},
        }
        http_server.replies.append((200, payload))
        reply = self.make_client(http_server.url).complete("p", 64)
        assert reply == ModelReply(text="{ return 1; }", prompt_tokens=42, completion_tokens=7)
        ((headers, body),) = http_server.received
        assert headers["Content-Type"] == "application/json"
        assert body == {"model": "test-model", "messages": [{"role": "user", "content": "p"}], "max_tokens": 64, "temperature": 0.0}

    def test_missing_usage_falls_back_to_counter(self, http_server):
        http_server.replies.append((200, {"choices": [{"message": {"content": "abcd"}}]}))
        reply = self.make_client(http_server.url).complete("abcdefgh", 64)
        assert reply.prompt_tokens == 2
        assert reply.completion_tokens == 1

    def test_retries_transient_500_then_succeeds(self, http_server, sleeps):
        http_server.replies += [(500, {}), self.OK]
        reply = self.make_client(http_server.url, max_retries=1).complete("p", 8)
        assert reply.text == "ok"
        assert (len(http_server.received), sleeps) == (2, [1.0])

    def test_persistent_failure_raises_client_error(self, http_server, sleeps):
        http_server.replies += [(502, {}), (503, {})]
        with pytest.raises(ModelClientError, match="model call failed: HTTP 503"):
            self.make_client(http_server.url, max_retries=1).complete("p", 8)
        assert (len(http_server.received), sleeps) == (2, [1.0])

    @pytest.mark.parametrize(
        "status,payload",
        [(401, {"error": "bad key"}), (404, None), (200, {"error": "no choices"}), (200, {"choices": []}), (200, ["x"])],
    )
    def test_non_transient_failure_raises_without_retry(self, http_server, sleeps, status, payload):
        http_server.replies += [(status, payload), self.OK, self.OK]
        with pytest.raises(ModelClientError, match="model call failed"):
            self.make_client(http_server.url, max_retries=2).complete("p", 8)
        assert (len(http_server.received), sleeps) == (1, [])

    @pytest.mark.parametrize(
        "message,usage",
        [
            ({"content": "x"}, {"prompt_tokens": "many"}),
            ({"content": "x"}, {"completion_tokens": -1}),
            ({"content": "x"}, {"prompt_tokens": True}),
            ({"content": 5}, {}),
            ({"content": None}, {}),
        ],
        ids=["str-count", "negative-count", "bool-count", "int-content", "null-content"],
    )
    def test_malformed_reply_raises_without_retry(self, http_server, sleeps, message, usage):
        http_server.replies += [(200, {"choices": [{"message": message}], "usage": usage}), self.OK]
        with pytest.raises(ModelClientError, match="model call failed: malformed reply"):
            self.make_client(http_server.url, max_retries=1).complete("p", 8)
        assert (len(http_server.received), sleeps) == (1, [])

    def test_retries_429_and_network_errors_then_raises(self, http_server, sleeps):
        http_server.replies += [(429, {}), "reset", (503, {})]
        with pytest.raises(ModelClientError, match="HTTP 503"):
            self.make_client(http_server.url, max_retries=2).complete("p", 8)
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("failure", ["reset", "garbled"])
    def test_reply_cut_off_or_garbled_is_retried(self, http_server, sleeps, failure):
        http_server.replies += [failure, self.OK]
        assert self.make_client(http_server.url, max_retries=1).complete("p", 8).text == "ok"
        assert (len(http_server.received), sleeps) == (2, [1.0])

    def test_refused_port_is_retried_then_raises(self, refused_url, sleeps):
        with pytest.raises(ModelClientError, match="model call failed: .*refused"):
            self.make_client(refused_url, max_retries=2).complete("p", 8)
        assert sleeps == [1.0, 2.0]

    def test_api_key_header_from_env(self, http_server, monkeypatch):
        http_server.replies.append(self.OK)
        monkeypatch.setenv("TEST_MODEL_KEY", "sk-secret")
        self.make_client(http_server.url, api_key_env="TEST_MODEL_KEY").complete("p", 8)
        ((headers, _),) = http_server.received
        assert headers["Authorization"] == "Bearer sk-secret"
