"""Model clients, repair strategies, and the complete/verify/repair loop.

The loop: complete the function, verify through an executor backend, and on
failure retrieve snippets from the context window, build a strategy-specific
repair prompt, and try again, up to max_rounds repair rounds. Prompt
templates are versioned text assets under solrepair/prompts/.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Protocol, Sequence, runtime_checkable

from . import rows
from .context import DEFAULT_COUNTER, ContextWindow, TokenCounter
from .corpus import FunctionRecord, IndexedFunction, SourceIndex, pair_braces, scrub
from .executor import (
    ExecutionVerdict,
    STATUS_EXECUTOR_UNAVAILABLE,
    STATUS_PASS,
    differential_verify,
    substitute_function,
)
from .retrieval import (
    EmbeddingProvider,
    RetrievalConfig,
    RetrievedSnippet,
    lcs_retrieve_multi,
    queries_for_method,
    retrieve,
)
from .rows import Record

DEFAULT_MAX_TOKENS = 1024
DEFAULT_MAX_ROUNDS = 1

STRATEGY_KINDS = ("self_edit", "self_debug", "self_refine", "self_repair")

MOCK_CLIENT_SCHEMA = "mock-client@1"


class ModelClientError(RuntimeError):
    """A model call failed after retries; retryable at the harness level."""


@dataclass(frozen=True)
class ModelReply:
    text: str
    prompt_tokens: int
    completion_tokens: int


@runtime_checkable
class ModelClient(Protocol):
    name: str
    # Whether a call can block on something outside the process (a network
    # or a subprocess), so that a run gains from overlapping calls.
    waits: bool

    def complete(self, prompt: str, max_tokens: int) -> ModelReply: ...


@dataclass(frozen=True)
class RepairStrategy:
    """One of the four repair prompt styles.

    self_refine is the only strategy that never sees executor output; the
    others embed the raw diagnostics verbatim.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown repair strategy {self.kind!r}")

    @property
    def uses_executor_feedback(self) -> bool:
        return self.kind != "self_refine"


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClientFixture(Record):
    """A scripted-client fixture (mock-client@1): each completion by the
    sha256 of its prompt."""

    SCHEMA = MOCK_CLIENT_SCHEMA

    completions: dict[str, str]
    strict: bool = True


class ScriptedModelClient:
    """Replays completions from a decoded ClientFixture object, keyed by
    prompt hash. Strict fixtures raise on unknown prompts, which catches
    silent prompt drift in tests. A wrongly typed fixture raises TypeError
    naming its key; a foreign schema, ValueError.
    """

    name = "scripted"
    waits = False

    def __init__(self, fixture: dict, counter: TokenCounter = DEFAULT_COUNTER) -> None:
        declared = fixture.get("schema", MOCK_CLIENT_SCHEMA)
        if declared != MOCK_CLIENT_SCHEMA:
            raise ValueError(f"unsupported client fixture schema {declared!r}")
        decoded = ClientFixture.from_json(fixture)
        self.completions, self.strict = decoded.completions, decoded.strict
        self.counter = counter

    def complete(self, prompt: str, max_tokens: int) -> ModelReply:
        key = prompt_hash(prompt)
        text = self.completions.get(key)
        if text is None:
            if self.strict:
                raise ModelClientError(
                    f"no scripted completion for prompt hash {key[:16]}"
                )
            text = "{ }"
        return ModelReply(
            text=text,
            prompt_tokens=self.counter.count(prompt),
            completion_tokens=self.counter.count(text),
        )


class RateLimiter:
    """Global requests-per-minute cap shared across worker threads."""

    def __init__(self, per_minute: int) -> None:
        self.per_minute = per_minute
        self._lock = threading.Lock()
        self._stamps: deque[float] = deque()

    def acquire(self) -> None:
        if self.per_minute <= 0:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            time.sleep(max(wait, 0.01))


class HttpModelClient:
    """Chat-completions style JSON-over-HTTP client.

    The API key is read from an environment variable and never logged.
    Transient failures (429, 5xx, network) retry with backoff before raising
    ModelClientError; any other error response or a malformed reply raises
    it at once.
    """

    waits = True

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "MODEL_API_KEY",
        timeout: float = 60.0,
        max_retries: int = 2,
        rate_limiter: RateLimiter | None = None,
        counter: TokenCounter = DEFAULT_COUNTER,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.name = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.rate_limiter = rate_limiter
        self.counter = counter

    def complete(self, prompt: str, max_tokens: int) -> ModelReply:
        api_key = os.environ.get(self.api_key_env, "")
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": max_tokens,
            "temperature": 0.0,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            try:
                status, body = rows.post_json(self.endpoint, payload, self.timeout, headers)
            except OSError as exc:
                last_error = exc
            else:
                if status != 429 and status < 500:
                    return self._reply(status, body, prompt)
                last_error = ModelClientError(f"HTTP {status}")
            if attempt < self.max_retries:
                time.sleep(min(2.0**attempt, 8.0))
        raise ModelClientError(f"model call failed: {last_error}") from last_error

    def _reply(self, status: int, body: bytes, prompt: str) -> ModelReply:
        """The reply a final HTTP answer holds: a string `content`, and usage
        counts that are non-negative ints where they are given."""
        if status >= 400:
            raise ModelClientError(f"model call failed: HTTP {status}")
        try:
            data = json.loads(body)
            text = data["choices"][0]["message"]["content"]
            if type(text) is not str:
                raise TypeError(f"content is {type(text).__name__}, not str")
            usage = data.get("usage", {})
            counts = (
                usage.get("prompt_tokens", self.counter.count(prompt)),
                usage.get("completion_tokens", self.counter.count(text)),
            )
            if not all(type(n) is int and n >= 0 for n in counts):
                raise TypeError(f"usage counts {counts!r} are not non-negative ints")
        except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
            raise ModelClientError(f"model call failed: malformed reply: {exc!r}") from exc
        return ModelReply(text, *counts)


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

@cache
def load_template(name: str) -> str:
    path = resources.files("solrepair").joinpath(f"prompts/{name}.txt")
    return path.read_text(encoding="utf-8")


SNIPPETS_HEADER = "Retrieved Code Snippets"


def _snippets_section(snippets: Sequence[RetrievedSnippet]) -> str:
    if not snippets:
        return ""
    lines = [f"{SNIPPETS_HEADER}:"]
    for snippet in snippets:
        lines.append(f"[line {snippet.line_index}] {snippet.text}")
    return "\n".join(lines) + "\n\n"


def _context_section(context: ContextWindow) -> str:
    if not context.text:
        return ""
    return f"Preceding contract context:\n{context.text}\n\n"


def feedback_block(verdict: ExecutionVerdict) -> str:
    """Raw diagnostics joined into the contiguous block shown to the model."""
    return "\n".join(d.message for d in verdict.diagnostics)


@dataclass(frozen=True)
class CompletionTask:
    """Everything needed to complete and verify one function; oracle is the
    index of the source file the function was taken from, and target the
    function's declaration in it, located once when the task is loaded."""

    task_id: str
    record: FunctionRecord
    context: ContextWindow
    oracle: SourceIndex = field(compare=False, repr=False)
    target: IndexedFunction = field(compare=False, repr=False)


def build_completion_prompt(task: CompletionTask) -> str:
    return load_template("complete.v1").format(
        context_section=_context_section(task.context),
        comment=task.record.comment,
        signature=task.record.signature,
    )


_FENCE_RE = re.compile(r"```[A-Za-z]*\n(.*?)```", re.S)


def extract_code_block(text: str) -> str:
    """First balanced-brace block of the reply, fences stripped first.

    Replies without a balanced block come back stripped as-is; the executor
    then reports the malformed body instead of the parser guessing.
    """
    m = _FENCE_RE.search(text)
    candidate = m.group(1) if m else text
    scrubbed = scrub(candidate)
    start = scrubbed.find("{")
    if start != -1:
        end = pair_braces(scrubbed, start)[0].get(start)
        if end is not None:
            return candidate[start : end + 1]
    return candidate.strip()


# The stages a session's tokens are counted under, so the stages an
# attempt may name; `run` makes its attempts in the first two.
STAGE_COMPLETION = "completion"
STAGE_REPAIR = "repair"
STAGE_DEBUG_EXPLANATION = "debug_explanation"
STAGES = (STAGE_COMPLETION, STAGE_REPAIR, STAGE_DEBUG_EXPLANATION)


@dataclass(frozen=True)
class Attempt(Record):
    """One model call and its verification outcome."""

    stage: str  # "completion" or "repair"
    prompt: str
    completion: str
    body: str
    prompt_tokens: int
    completion_tokens: int
    verdict: ExecutionVerdict | None = None
    snippets: tuple[RetrievedSnippet, ...] = ()
    explanation_prompt: str = ""
    explanation: str = ""
    explanation_prompt_tokens: int = 0
    explanation_completion_tokens: int = 0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown attempt stage {self.stage!r}")


@dataclass(frozen=True)
class RepairSession(Record):
    """All attempts for one task, in order; a row adds the derived
    `final_status`. `sample` is always 0, a column `sessions@1` keeps."""

    DERIVED = ("final_status",)

    task_id: str
    strategy: str
    max_rounds: int
    attempts: tuple[Attempt, ...]
    sample: int = 0

    def __post_init__(self) -> None:
        if not self.attempts:
            raise ValueError("a session records at least the completion attempt")
        if len(self.attempts) > 1 + self.max_rounds:
            raise ValueError("more attempts than 1 + max_rounds")
        if self.sample != 0:
            raise ValueError(f"{self.task_id}: sample={self.sample}, but a task has one session (sample=0)")

    @property
    def final_status(self) -> str:
        last = self.attempts[-1].verdict
        return last.status if last else STATUS_EXECUTOR_UNAVAILABLE


def complete_function(
    task: CompletionTask, client: ModelClient, backend, max_tokens: int = DEFAULT_MAX_TOKENS
) -> Attempt:
    """First completion attempt, verified through backend."""
    prompt = build_completion_prompt(task)
    reply = client.complete(prompt, max_tokens)
    body = extract_code_block(reply.text)
    return Attempt(
        stage="completion",
        prompt=prompt,
        completion=reply.text,
        body=body,
        prompt_tokens=reply.prompt_tokens,
        completion_tokens=reply.completion_tokens,
        verdict=_verify(task, body, backend),
    )


def build_repair_prompt(
    strategy: RepairStrategy,
    task: CompletionTask,
    attempt: Attempt,
    snippets: Sequence[RetrievedSnippet],
    client: ModelClient | None = None,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> tuple[str, ModelReply | None, str]:
    """Render the strategy's repair prompt.

    self_debug makes one extra model call for the line-by-line explanation
    and embeds the reply; that reply and its prompt are returned so the
    caller can account for the extra usage.
    """
    if attempt.verdict is None:
        raise ValueError("repair needs a verified attempt")
    fields = {
        "comment": task.record.comment,
        "signature": task.record.signature,
        "completion": attempt.body,
        "snippets_section": _snippets_section(snippets),
    }
    if strategy.uses_executor_feedback:
        fields["feedback"] = feedback_block(attempt.verdict)
    if strategy.kind == "self_debug":
        if client is None:
            raise ValueError("self_debug needs a model client for the explanation")
        explain_prompt = load_template("self_debug_explain.v1").format(
            comment=task.record.comment,
            signature=task.record.signature,
            completion=attempt.body,
        )
        explanation = client.complete(explain_prompt, max_tokens)
        fields["explanation"] = explanation.text
        prompt = load_template("self_debug.v1").format(**fields)
        return prompt, explanation, explain_prompt
    prompt = load_template(f"{strategy.kind}.v1").format(**fields)
    return prompt, None, ""


def _verify(task: CompletionTask, body: str, backend) -> ExecutionVerdict:
    completed = substitute_function(task.target, body)
    return differential_verify(task.oracle, completed, task.task_id, backend)


def _retrieve_for_repair(
    config: RetrievalConfig,
    verdict: ExecutionVerdict,
    completed_body: str,
    context: ContextWindow,
    provider: EmbeddingProvider | None,
) -> list[RetrievedSnippet]:
    queries = queries_for_method(config.method, verdict.diagnostics, completed_body)
    # Lines count "\n" only, as spans and diagnostics do; a final newline
    # ends the last line rather than starting an empty one.
    lines = context.text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not queries or not lines:
        return []
    if config.method == "lcs":
        return lcs_retrieve_multi(queries, lines, config)
    return retrieve(queries[0], lines, config, provider)


def run_rar(
    task: CompletionTask,
    client: ModelClient,
    backend,
    strategy: RepairStrategy,
    retriever_cfg: RetrievalConfig | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    provider: EmbeddingProvider | None = None,
) -> RepairSession:
    """Retrieval-augmented repair for one task.

    max_rounds=0 is the no-repair baseline and issues prompts byte-identical
    to plain completion. Retrieval reruns every round from the latest
    verdict; it is skipped entirely when retriever_cfg is None. An
    executor_unavailable verdict aborts the session with that status.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    attempts = [complete_function(task, client, backend, max_tokens)]
    verdict = attempts[0].verdict
    rounds = 0
    while (
        verdict.status not in (STATUS_PASS, STATUS_EXECUTOR_UNAVAILABLE)
        and rounds < max_rounds
    ):
        snippets: list[RetrievedSnippet] = []
        if retriever_cfg is not None:
            snippets = _retrieve_for_repair(
                retriever_cfg, verdict, attempts[-1].body, task.context, provider
            )
        prompt, explanation, explain_prompt = build_repair_prompt(
            strategy, task, attempts[-1], snippets, client=client, max_tokens=max_tokens
        )
        reply = client.complete(prompt, max_tokens)
        body = extract_code_block(reply.text)
        verdict = _verify(task, body, backend)
        attempts.append(
            Attempt(
                stage="repair",
                prompt=prompt,
                completion=reply.text,
                body=body,
                prompt_tokens=reply.prompt_tokens,
                completion_tokens=reply.completion_tokens,
                verdict=verdict,
                snippets=tuple(snippets),
                explanation_prompt=explain_prompt,
                explanation=explanation.text if explanation else "",
                explanation_prompt_tokens=explanation.prompt_tokens if explanation else 0,
                explanation_completion_tokens=(
                    explanation.completion_tokens if explanation else 0
                ),
            )
        )
        rounds += 1
    return RepairSession(
        task_id=task.task_id,
        strategy=strategy.kind,
        max_rounds=max_rounds,
        attempts=tuple(attempts),
    )
