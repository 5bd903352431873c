"""Run orchestration: corpus builds, benchmark runs, reports, verification.

Runs persist to an output directory as JSONL: sessions.jsonl (every model
attempt) and outcomes.jsonl (one committed row per task, written in task
order). A task is committed when its outcome row and its session row
are present; on resume, the first task that is not ends the committed
prefix, every row after it is dropped and those tasks re-run, so a killed
and resumed run produces byte-identical outcomes. Tasks run on the
calling thread, and no thread starts, unless the run has N > 1 workers and
its model client, executor backend or embedding provider declares that
its calls wait (`waits`, as an HTTP client or a compiler subprocess
does): then N workers form a pool whose results are drained in
submission order. Only the calling thread writes.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import datetime as _dt
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .context import ContextWindow, build_context, check_span, get_counter
from .corpus import (
    FilterReport,
    FunctionRecord,
    SourceIndex,
    build_corpus,
    read_task_file,
    write_task_file,
)
from .executor import (
    STATUS_EXECUTOR_UNAVAILABLE,
    ExecutionVerdict,
    ScriptedDifferentialBackend,
    SolcCompileBackend,
    SubprocessFuzzBackend,
)
from .metrics import (
    CostModel,
    GPT_4O_MINI_PRICES,
    TaskOutcome,
    build_report,
    outcome_columns,
    outcome_from_session,
    session_fold,
)
from .repair import (
    STRATEGY_KINDS,
    CompletionTask,
    HttpModelClient,
    ModelClientError,
    RateLimiter,
    RepairSession,
    RepairStrategy,
    ScriptedModelClient,
    _verify,
    extract_code_block,
    run_rar,
)
from .retrieval import (
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
    RetrievalConfig,
    RetrievalUnavailableError,
)
from .rows import (
    ConfigError,
    Record,
    UnparsedLine,
    from_json_at,
    parse_jsonl,
    read_json,
    read_records,
    read_rows,
    write_json,
)

MANIFEST_SCHEMA = "manifest@1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFRA = 3

log = logging.getLogger("solrepair")


def _mock_backend(config: RunConfig) -> ScriptedDifferentialBackend:
    path = config.mock_executor
    fixture = None if path is None else read_json(path, "executor fixture")
    try:
        return ScriptedDifferentialBackend(fixture, seed=config.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad executor fixture {path}: {exc}") from exc


# Each executor kind and how a run config builds its backend.
EXECUTORS = {
    "mock": _mock_backend,
    "solc": lambda config: SolcCompileBackend(config.solc_path, timeout=config.executor_timeout),
    "fuzz": lambda config: SubprocessFuzzBackend(config.fuzz_command, timeout=config.executor_timeout),
}

# Each integer setting with a lower bound, and the bound.
_AT_LEAST = (
    ("context_budget", 0),
    ("max_rounds", 0),
    ("max_tokens", 1),
    ("workers", 1),
    ("rate_limit_per_minute", 0),
)


@dataclass
class RunConfig(Record):
    """Everything a benchmark run needs; serialized into the manifest.

    A field's type is the type its `--config` value must have, and a
    field's `choices` metadata lists the values it takes; the command line
    flags derive from both.
    """

    task_file: str
    out_dir: str
    source_root: str = ""
    context_budget: int = 2048
    counter: str = "bytes4"
    strategy: str = field(default="self_edit", metadata={"choices": STRATEGY_KINDS})
    max_rounds: int = 1
    max_tokens: int = 1024
    workers: int = 1
    seed: int = 0
    # The RetrievalConfig fields as given, or None when repair retrieves
    # nothing; kept as an object so the manifest repeats it as given.
    retrieval: dict | None = None
    executor: str = field(default="mock", metadata={"choices": EXECUTORS})
    mock_executor: str | None = None
    solc_path: str = "solc"
    fuzz_command: list[str] = field(default_factory=list)
    executor_timeout: float = 60.0
    mock_client: str | None = None
    endpoint: str | None = None
    model: str = "scripted"
    api_key_env: str = "MODEL_API_KEY"
    rate_limit_per_minute: int = 0
    prompt_usd_per_million: float = GPT_4O_MINI_PRICES.prompt_usd_per_million
    completion_usd_per_million: float = GPT_4O_MINI_PRICES.completion_usd_per_million

    def validate(self) -> None:
        """Raise ConfigError for a setting that `run` and `verify` cannot
        use. The model client, which `verify` does not need, is checked by
        build_client."""
        if not Path(self.task_file).is_file():
            raise ConfigError(f"task file not found: {self.task_file}")
        for name, least in _AT_LEAST:
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.executor_timeout <= 0:
            raise ConfigError("executor_timeout must be > 0")
        if self.mock_client is not None and not Path(self.mock_client).is_file():
            raise ConfigError(f"mock client fixture not found: {self.mock_client}")
        if self.mock_executor is not None and not Path(self.mock_executor).is_file():
            raise ConfigError(f"mock executor fixture not found: {self.mock_executor}")
        if self.executor not in EXECUTORS:
            raise ConfigError(f"unknown executor kind {self.executor!r}")
        if self.executor == "fuzz" and not self.fuzz_command:
            raise ConfigError("fuzz executor needs a command")
        try:
            get_counter(self.counter)
            RepairStrategy(self.strategy)
            self.retrieval_config()
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def retrieval_config(self) -> RetrievalConfig | None:
        """`retrieval` decoded, or None when retrieval is off. A wrongly
        typed value raises a TypeError naming `retrieval.<key>`."""
        if self.retrieval is None:
            return None
        return from_json_at("retrieval", RetrievalConfig, self.retrieval)


@dataclass
class RunManifest(Record):
    """Summary of one run: config snapshot, versions, completion status."""

    SCHEMA = MANIFEST_SCHEMA

    config: dict
    started_at: str
    finished_at: str
    harness_version: str
    backend_name: str
    backend_version: str
    client_name: str
    tasks_total: int
    tasks_completed: int
    incomplete_task_ids: list[str]
    status: str  # "complete" | "partial"


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def build_client(config: RunConfig, rate_limiter: RateLimiter | None = None):
    if config.mock_client is not None:
        fixture = read_json(config.mock_client, "client fixture")
        try:
            return ScriptedModelClient(fixture, counter=get_counter(config.counter))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad client fixture {config.mock_client}: {exc}") from exc
    if config.endpoint is None:
        raise ConfigError("need --mock-client FILE or an HTTP endpoint")
    return HttpModelClient(
        endpoint=config.endpoint,
        model=config.model,
        api_key_env=config.api_key_env,
        rate_limiter=rate_limiter,
        counter=get_counter(config.counter),
    )


def build_backend(config: RunConfig):
    return EXECUTORS[config.executor](config)


def build_provider(config: RunConfig):
    retrieval = config.retrieval_config()
    if retrieval is None or retrieval.method != "dense":
        return None
    if retrieval.endpoint:
        return HttpEmbeddingProvider(retrieval.endpoint, retrieval.dimension)
    return HashEmbeddingProvider(retrieval.dimension)


def _read_text(path: Path, kind: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not UTF-8: {exc}") from exc


def _load(config: RunConfig, window: Callable[[SourceIndex, FunctionRecord], ContextWindow]) -> list[CompletionTask]:
    """Read sources, locate each task's function in its source's index and
    give it window(source, record).

    A source that is unbalanced, a window that raises ValueError (for a span
    outside its source), a function not found within its span and one nested
    in another function's body (Yul inside `assembly`) raise ConfigError
    naming the task file and the task.
    """
    sources: dict[str, SourceIndex] = {}
    tasks: list[CompletionTask] = []
    for record in read_task_file(config.task_file):
        path = record.source_path
        if path not in sources:
            full = Path(config.source_root) / path if config.source_root else Path(path)
            if not full.is_file():
                raise ConfigError(f"source file not found: {full}")
            sources[path] = SourceIndex.from_text(path, _read_text(full, "source"))
        index = sources[path]
        task_id = record.task_id()
        try:
            index.check()
            context = window(index, record)
            target = index.find(record.name, *record.span)
            if target is None:
                raise ValueError(f"function {record.name!r} not found within span {record.span}")
            if target.depth:
                raise ValueError(f"function {record.name!r} is nested in another function's body")
        except ValueError as exc:
            raise ConfigError(f"{config.task_file}: task {task_id}: {exc}") from exc
        tasks.append(CompletionTask(task_id, record, context, index, target))
    return tasks


def load_tasks(config: RunConfig) -> list[CompletionTask]:
    """Materialize tasks: read sources, locate each task's function in its
    source's index and build its context window; see _load for the errors."""
    counter = get_counter(config.counter)
    return _load(config, lambda index, record: build_context(index, record, config.context_budget, counter))


def _no_window(index: SourceIndex, record: FunctionRecord) -> ContextWindow:
    """The empty window of a task whose span fits its source, for a command
    that reads no window."""
    check_span(index, record)
    return ContextWindow("", 0, 0)


def cmd_build(source_dir: str | Path, tasks_out: str | Path, stats_out: str | Path | None = None) -> FilterReport:
    """Build a task file from a directory tree of .sol sources.

    Source paths are recorded relative to source_dir, so a later run can
    resolve them with source_root pointing at the same directory.
    """
    source_dir = Path(source_dir)
    if not source_dir.is_dir():
        raise ConfigError(f"source directory not found: {source_dir}")
    paths = sorted(source_dir.rglob("*.sol"))
    sources = [SourceIndex.from_text(str(p.relative_to(source_dir)), _read_text(p, "source")) for p in paths]
    records, report = build_corpus(sources)
    write_task_file(records, tasks_out)
    if stats_out is not None:
        write_json(stats_out, report.to_json())
    log.info(
        "built %d tasks from %d files (%d extracted, %d dupes removed)",
        report.retained,
        len(sources),
        report.total_extracted,
        report.dedup_removed,
    )
    return report


def _log_rows(path: Path, kind: str, cls: type[Record]) -> list[tuple[str, str]]:
    """(task id, line) for each row of a run log, up to the first row that
    does not parse, as a torn write leaves it: nothing after it was
    committed. A row that parses but is not a row of cls, as a row of an
    earlier format is not, raises ConfigError naming its line, so a run
    never appends to a log of another format."""
    if not path.is_file():
        return []
    text = _read_text(path, kind)
    rows = []
    try:
        for lineno, start, end, row in parse_jsonl(text):
            try:
                rows.append((cls.from_json(row).task_id, text[start:end]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    except UnparsedLine:
        pass
    return rows


def run_task(
    task: CompletionTask,
    config: RunConfig,
    strategy: RepairStrategy,
    retriever_cfg: RetrievalConfig | None,
    client,
    backend,
    provider,
) -> tuple[TaskOutcome, list[RepairSession]]:
    """One task's session and the outcome row folded from it; pure with
    respect to shared state. The session comes in a list of one, the shape
    perfbench's tracer reads from this call."""
    session = run_rar(
        task,
        client,
        backend,
        strategy,
        retriever_cfg=retriever_cfg,
        max_rounds=config.max_rounds,
        max_tokens=config.max_tokens,
        provider=provider,
    )
    return outcome_from_session(session), [session]


def cmd_run(config: RunConfig) -> tuple[RunManifest, int]:
    """Execute a run with resume support; returns (manifest, exit_code).

    Every setting is checked, and the client, backend and embedding
    provider built, before anything in the output directory is touched.
    """
    config.validate()
    strategy = RepairStrategy(config.strategy)
    retriever_cfg = config.retrieval_config()
    rate_limiter = (
        RateLimiter(config.rate_limit_per_minute) if config.rate_limit_per_minute else None
    )
    client = build_client(config, rate_limiter)
    backend = build_backend(config)
    provider = build_provider(config)
    tasks = load_tasks(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcomes_path = out / "outcomes.jsonl"
    sessions_path = out / "sessions.jsonl"
    manifest_path = out / "manifest.json"

    started = _now()
    outcome_rows = _log_rows(outcomes_path, "outcomes", TaskOutcome)
    known = {t.task_id for t in tasks}
    unknown = [task_id for task_id, _ in outcome_rows if task_id not in known]
    if unknown:
        raise ConfigError(
            f"{outcomes_path} holds outcomes for foreign tasks (e.g. {unknown[0]}); "
            "wrong output directory?"
        )
    # A task commits only with its session row: the first that lacks one
    # ends the committed prefix, and the tasks from it on run again.
    session_rows = _log_rows(sessions_path, "sessions", RepairSession)
    logged = {task_id for task_id, _ in session_rows}
    committed = list(takewhile(lambda row: row[0] in logged, outcome_rows))
    done = {task_id for task_id, _ in committed}
    # Rewrite both logs to exactly the committed rows: a torn tail, even a
    # torn first row, is dropped, so new rows start on a line of their own.
    outcomes_path.write_text("".join(line + "\n" for _, line in committed), encoding="utf-8")
    sessions_path.write_text("".join(line + "\n" for t, line in session_rows if t in done), encoding="utf-8")
    pending = [t for t in tasks if t.task_id not in done]
    log.info("run: %d tasks total, %d already done, %d pending", len(tasks), len(done), len(pending))

    unavailable_seen = False

    def worker(task: CompletionTask):
        try:
            return run_task(task, config, strategy, retriever_cfg, client, backend, provider)
        except Exception as exc:  # one task's failure leaves the run partial, never ends it
            return task.task_id, exc

    with contextlib.ExitStack() as stack:
        out_fh = stack.enter_context(open(outcomes_path, "a", encoding="utf-8"))
        sess_fh = stack.enter_context(open(sessions_path, "a", encoding="utf-8"))
        # Results come in submission order, so files stay in task order
        # whatever the worker count. A pool is there so that model, executor
        # and embedding latency overlap across workers; with one worker, or
        # when no part waits outside the process, tasks run on this thread.
        # A part that does not declare `waits` is taken to wait.
        waits = any(getattr(part, "waits", True) for part in (client, backend, provider) if part is not None)
        if config.workers == 1 or not waits:
            results = map(worker, pending)
        else:
            pool = stack.enter_context(concurrent.futures.ThreadPoolExecutor(max_workers=config.workers))
            results = pool.map(worker, pending)
        for result in results:
            if isinstance(result[0], str):
                task_id, exc = result
                # A model or retrieval outage needs no traceback; anything
                # else is a fault whose traceback is wanted.
                expected = isinstance(exc, (ModelClientError, RetrievalUnavailableError))
                log.error(
                    "task %s failed: %s: %s", task_id, type(exc).__name__, exc,
                    exc_info=None if expected else exc,
                )
                continue
            outcome, (session,) = result
            sess_fh.write(session.to_line())
            sess_fh.flush()
            out_fh.write(outcome.to_line())
            out_fh.flush()
            done.add(outcome.task_id)
            if outcome.unavailable:
                unavailable_seen = True

    incomplete = [t.task_id for t in tasks if t.task_id not in done]
    manifest = RunManifest(
        config=config.to_json(),
        started_at=started,
        finished_at=_now(),
        harness_version=__version__,
        backend_name=getattr(backend, "name", "?"),
        backend_version=str(getattr(backend, "version", "")),
        client_name=getattr(client, "name", "?"),
        tasks_total=len(tasks),
        tasks_completed=len(done),
        incomplete_task_ids=incomplete,
        status="complete" if not incomplete else "partial",
    )
    write_json(manifest_path, manifest.to_json())
    exit_code = EXIT_OK
    if incomplete or unavailable_seen:
        exit_code = EXIT_INFRA
    return manifest, exit_code


def read_outcomes(path: str | Path) -> list[TaskOutcome]:
    return read_records(TaskOutcome, path, "outcomes")


def read_sessions(path: str | Path) -> list[RepairSession]:
    return read_records(RepairSession, path, "sessions")


def cmd_report(
    outcome_paths: Sequence[str | Path],
    session_paths: Sequence[str | Path] = (),
    cost_model: CostModel = GPT_4O_MINI_PRICES,
    out_json: str | Path | None = None,
) -> dict:
    """Aggregate persisted logs into a report; pure given the input files.

    Without session paths the report's cost is unknown (see build_report).
    Raises ConfigError when the outcome rows are not, as a multiset, the
    fold of the sessions (metrics.session_fold: every column of a row,
    its context budget included), or when none is usable.
    """
    outcome_files = [(path, read_outcomes(path)) for path in outcome_paths]
    outcomes = [row for _, rows in outcome_files for row in rows]
    if not outcomes:
        raise ConfigError("no outcomes to report on")
    session_files = [(path, read_sessions(path)) for path in session_paths]
    sessions = [row for _, rows in session_files for row in rows]
    if session_paths and Counter(map(outcome_columns, outcomes)) != Counter(map(session_fold, sessions)):
        raise ConfigError(_unfolded(outcome_files, session_files))
    try:
        report = build_report(outcomes, sessions if session_paths else None, cost_model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if out_json is not None:
        write_json(out_json, report)
    return report


def _unfolded(outcome_files: list, session_files: list) -> str:
    """Why the outcome rows are not the fold of the sessions: the first
    task, in file order, with more or fewer outcome rows than session rows,
    else the first outcome row that no session folds into, beside the file
    of a session row of its task that folds into no outcome row."""
    outcomes = [(path, row) for path, rows in outcome_files for row in rows]
    sessions = [(path, row) for path, rows in session_files for row in rows]
    outcome_rows = Counter(row.task_id for _, row in outcomes)
    session_rows = Counter(row.task_id for _, row in sessions)
    for path, row in outcomes + sessions:
        if outcome_rows[row.task_id] != session_rows[row.task_id]:
            return (
                f"{path}: {row.task_id}: {outcome_rows[row.task_id]} outcome row(s) but {session_rows[row.task_id]} "
                "session row(s); --sessions must hold one session row per outcome row"
            )
    columns = Counter(outcome_columns(row) for _, row in outcomes)
    folds = Counter(session_fold(row) for _, row in sessions)
    unmatched, unused = columns - folds, folds - columns
    path, row = next((path, row) for path, row in outcomes if outcome_columns(row) in unmatched)
    log = next(log for log, session in sessions if session.task_id == row.task_id and session_fold(session) in unused)
    return (
        f"{path}: {row.task_id}: the outcome row is not the fold of its session row in {log}; "
        "--sessions must hold the sessions of the run that wrote --outcomes"
    )


def _read_completions(path: str | Path) -> list[tuple[int, str, str]]:
    """(line number, task id, body) per row of a completions file.

    A row that is not a JSON object with a string task_id and a string body
    raises ConfigError naming its line.
    """
    rows = []
    for lineno, row in read_rows(path, "completions"):
        for key in ("task_id", "body"):
            if not isinstance(row.get(key), str):
                raise ConfigError(f"{path}, line {lineno}: {key!r} missing or not a string")
        rows.append((lineno, row["task_id"], row["body"]))
    return rows


@dataclass(frozen=True)
class VerifiedBody(Record):
    """One row that `verify --verdicts` writes: a completion's task id and
    its verdict."""

    task_id: str
    verdict: ExecutionVerdict


def cmd_verify(
    completions_path: str | Path,
    config: RunConfig,
    out_path: str | Path | None = None,
) -> tuple[list[dict], int]:
    """Verify externally produced bodies against the oracles of the tasks in
    config.task_file.

    Completions file: JSONL rows {"task_id": ..., "body": ...}; every row is
    checked before any is verified; the config is checked as `run` checks it.
    Each body is read as `run` reads a reply, through extract_code_block.
    """
    config.validate()
    backend = build_backend(config)
    # Verify reads no context window, so none is built.
    tasks = {t.task_id: t for t in _load(config, _no_window)}
    rows = _read_completions(completions_path)
    for lineno, task_id, _ in rows:
        if task_id not in tasks:
            raise ConfigError(f"{completions_path}, line {lineno}: unknown task id {task_id!r}")
    verified = []
    exit_code = EXIT_OK
    for _, task_id, body in rows:
        verdict = _verify(tasks[task_id], extract_code_block(body), backend)
        if verdict.status == STATUS_EXECUTOR_UNAVAILABLE:
            exit_code = EXIT_INFRA
        verified.append(VerifiedBody(task_id, verdict))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(row.to_line() for row in verified)
    return [row.to_json() for row in verified], exit_code
