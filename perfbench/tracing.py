"""In-memory spans around solrepair's module boundaries, and the per-layer
metrics computed from them.

The tracer swaps public functions on the module that calls them (for
example `solrepair.harness.run_task`, which `cmd_run` looks up in its own
module) for wrappers that record one span per call, and puts the originals
back on `remove()`. No file of the program is edited. Spans stay in memory
until the benchmark writes them out once at the end. Only calls inside this
process are traced.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    req: str  # the task a span works for; spans of one task share it
    iteration: int
    phase: str  # "build", "setup", "run" or "report"
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "req": self.req,
            "iteration": self.iteration,
            "phase": self.phase,
            "start_s": self.start,
            "dur_ms": 1e3 * self.dur,
            "self_ms": 1e3 * self.self_time,
            "info": self.info,
        }


class Tracer:
    """Spans and call tallies, kept per thread while open and merged on close."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (iteration, phase, innermost span name, key) -> [calls, amount]
        self.tallies: dict[tuple[int, str, str, str], list[int]] = {}
        self.phase = ""
        self.iteration = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, req=None, inspect=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `req(args)` names the task a root span works for; `inspect(args,
        result)` returns details kept on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                id=next(tracer._ids),
                name=name,
                parent=parent.id if parent else None,
                req=req(args) if req else (parent.req if parent else ""),
                iteration=tracer.iteration,
                phase=tracer.phase,
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.dur
                tracer.spans.append(span)
            if inspect is not None:
                span.info = inspect(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def tally(self, owner, attr: str, key: str, amount) -> None:
        """Count calls of owner.attr, and `amount(args)`, by innermost span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            slot = (tracer.iteration, tracer.phase, stack[-1].name if stack else "", key)
            size = amount(args)
            with tracer._lock:
                entry = tracer.tallies.setdefault(slot, [0, 0])
                entry[0] += 1
                entry[1] += size
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def tallied(self, iteration: int, phase: str, key: str, within=None) -> tuple[int, int]:
        calls = amount = 0
        for (it, ph, where, k), (c, a) in self.tallies.items():
            if it == iteration and ph == phase and k == key and (within is None or where in within):
                calls += c
                amount += a
        return calls, amount


def instrument(tracer: Tracer, needed_decl: dict[str, str]) -> None:
    """Wrap each layer of solrepair where the layer above calls it.

    needed_decl maps a task id to the declaration its repair prompt should
    retrieve, for retrieval.hit_ratio.
    """
    import solrepair.context as context
    import solrepair.corpus as corpus
    import solrepair.executor as executor
    import solrepair.harness as harness
    import solrepair.repair as repair

    def session_info(args, result) -> dict:
        _, sessions = result
        needed = needed_decl.get(args[0].task_id)
        info = {"attempts": 0, "entered": 0, "fixed": 0, "repair_prompts": 0, "hits": 0}
        for session in sessions:
            info["attempts"] += len(session.attempts)
            if len(session.attempts) > 1:
                info["entered"] += 1
                info["fixed"] += session.final_status == "pass"
            if needed:
                for attempt in session.attempts[1:]:
                    info["repair_prompts"] += 1
                    info["hits"] += any(needed in s.text for s in attempt.snippets)
        return info

    wrap = tracer.wrap
    # corpus: the calls build_corpus makes
    wrap(corpus, "extract_functions", "corpus.extract")
    wrap(corpus, "count_function_declarations", "corpus.extract")
    wrap(corpus, "filter_state_dependent", "corpus.filter")
    wrap(corpus, "dedup_exact", "corpus.dedup")
    for module in (corpus, executor, repair):
        tracer.tally(module, "scrub", "scrub_chars", lambda args: len(args[0]))
    # harness and context: the calls cmd_run and load_tasks make
    wrap(harness, "load_tasks", "harness.load_tasks")
    wrap(
        harness, "build_context", "context.build_context",
        inspect=lambda args, r: {"tokens": r.actual_tokens},
    )
    tracer.tally(context.ApproxBytesCounter, "count", "count", lambda args: 1)
    wrap(harness, "run_task", "harness.run_task", req=lambda args: args[0].task_id, inspect=session_info)
    # repair, executor and retrieval: the calls run_rar makes
    wrap(repair, "build_completion_prompt", "repair.prompt_render")
    wrap(repair, "build_repair_prompt", "repair.prompt_render")
    wrap(
        repair.ScriptedModelClient, "complete", "repair.model",
        inspect=lambda args, r: {"prompt_tokens": r.prompt_tokens},
    )
    wrap(repair, "substitute_function", "executor.splice")
    wrap(repair, "differential_verify", "executor.verify", inspect=lambda args, r: {"status": r.status})
    wrap(
        repair, "lcs_retrieve_multi", "retrieval.lcs",
        inspect=lambda args, r: {"query_chars": sum(len(q.text) for q in args[0]), "lines": len(args[1])},
    )
    # metrics: the calls cmd_report makes
    wrap(harness, "read_outcomes", "metrics.read")
    wrap(harness, "read_sessions", "metrics.read")
    wrap(harness, "build_report", "metrics.build_report")


# name, unit, better; the order in which they are printed.
PER_LAYER = (
    ("corpus.extract_ms", "ms", "lower"),
    ("corpus.filter_ms", "ms", "lower"),
    ("corpus.filter_calls", "count", "lower"),
    ("corpus.dedup_ms", "ms", "lower"),
    ("corpus.scrub_calls", "count", "lower"),
    ("corpus.scrub_mchars", "Mchar", "lower"),
    ("context.build_context_ms", "ms", "lower"),
    ("context.count_calls", "count", "lower"),
    ("context.window_tokens_p50", "tokens", "lower"),
    ("repair.model_calls", "count", "lower"),
    ("repair.model_ms", "ms", "lower"),
    ("repair.prompt_render_ms", "ms", "lower"),
    ("repair.prompt_tokens_per_task", "tokens", "lower"),
    ("repair.attempts_per_task", "count", "lower"),
    ("repair.repair_yield", "ratio", "higher"),
    ("executor.verify_calls", "count", "lower"),
    ("executor.verify_ms_p50", "ms", "lower"),
    ("executor.verify_ms_p95", "ms", "lower"),
    ("executor.verify_ms_total", "ms", "lower"),
    ("executor.splice_ms_total", "ms", "lower"),
    ("executor.scrub_chars_per_attempt", "chars", "lower"),
    ("executor.pass_ratio", "ratio", "higher"),
    ("retrieval.calls", "count", "lower"),
    ("retrieval.ms_p50", "ms", "lower"),
    ("retrieval.ms_p95", "ms", "lower"),
    ("retrieval.ms_total", "ms", "lower"),
    ("retrieval.query_chars_p50", "chars", "lower"),
    ("retrieval.context_lines_p50", "lines", "lower"),
    ("retrieval.hit_ratio", "ratio", "higher"),
    ("harness.load_tasks_ms", "ms", "lower"),
    ("harness.run_task_ms_p50", "ms", "lower"),
    ("harness.run_task_ms_p95", "ms", "lower"),
    ("harness.run_task_ms_total", "ms", "lower"),
    ("harness.overhead_ms", "ms", "lower"),
    ("harness.worker_busy_share", "ratio", "higher"),
    ("harness.outcome_bytes", "bytes", "lower"),
    ("harness.session_bytes", "bytes", "lower"),
    ("metrics.read_ms", "ms", "lower"),
    ("metrics.build_report_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Percentiles pool their samples over every traced iteration.
SAMPLED = {
    "context.window_tokens_p50": ("context.build_context", "tokens", 50),
    "executor.verify_ms_p50": ("executor.verify", None, 50),
    "executor.verify_ms_p95": ("executor.verify", None, 95),
    "retrieval.ms_p50": ("retrieval.lcs", None, 50),
    "retrieval.ms_p95": ("retrieval.lcs", None, 95),
    "retrieval.query_chars_p50": ("retrieval.lcs", "query_chars", 50),
    "retrieval.context_lines_p50": ("retrieval.lcs", "lines", 50),
    "harness.run_task_ms_p50": ("harness.run_task", None, 50),
    "harness.run_task_ms_p95": ("harness.run_task", None, 95),
}


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def iteration_metrics(tracer: Tracer, iteration: int, ctx: dict) -> dict[str, float]:
    """The per-layer metrics of one traced iteration that are not percentiles.

    ctx is the pass's own record (run_start, run_end, report_calls,
    outcome_bytes, session_bytes) plus the run's workers and tasks.
    """
    spans = [s for s in tracer.spans if s.iteration == iteration]

    def named(name: str, phase: str) -> list[Span]:
        return [s for s in spans if s.name == name and s.phase == phase]

    def ms(items: list[Span], self_time: bool = False) -> float:
        return 1e3 * sum(s.self_time if self_time else s.dur for s in items)

    def info_sum(items: list[Span], key: str) -> int:
        return sum(s.info.get(key, 0) for s in items)

    tasks = ctx["tasks"]
    verify = named("executor.verify", "run")
    retrieval = named("retrieval.lcs", "run")
    run_tasks = named("harness.run_task", "run")
    run_wall = ctx["run_end"] - ctx["run_start"]
    scrub_build_calls, scrub_build = tracer.tallied(iteration, "build", "scrub_chars")
    _, scrub_attempts = tracer.tallied(
        iteration, "run", "scrub_chars", within=("executor.verify", "executor.splice")
    )
    count_calls, _ = tracer.tallied(iteration, "run", "count", within=("context.build_context",))
    busy = sum(s.dur for s in run_tasks)
    return {
        "corpus.extract_ms": ms(named("corpus.extract", "build")),
        "corpus.filter_ms": ms(named("corpus.filter", "build")),
        "corpus.filter_calls": len(named("corpus.filter", "build")),
        "corpus.dedup_ms": ms(named("corpus.dedup", "build")),
        "corpus.scrub_calls": scrub_build_calls,
        "corpus.scrub_mchars": scrub_build / 1e6,
        "context.build_context_ms": ms(named("context.build_context", "run")),
        "context.count_calls": count_calls,
        "repair.model_calls": len(named("repair.model", "run")),
        "repair.model_ms": ms(named("repair.model", "run")),
        "repair.prompt_render_ms": ms(named("repair.prompt_render", "run"), self_time=True),
        "repair.prompt_tokens_per_task": info_sum(named("repair.model", "run"), "prompt_tokens") / tasks,
        "repair.attempts_per_task": info_sum(run_tasks, "attempts") / tasks,
        "repair.repair_yield": _ratio(info_sum(run_tasks, "fixed"), info_sum(run_tasks, "entered")),
        "executor.verify_calls": len(verify),
        "executor.verify_ms_total": ms(verify),
        "executor.splice_ms_total": ms(named("executor.splice", "run")),
        "executor.scrub_chars_per_attempt": _ratio(scrub_attempts, len(verify)),
        "executor.pass_ratio": _ratio(sum(s.info["status"] == "pass" for s in verify), len(verify)),
        "retrieval.calls": len(retrieval),
        "retrieval.ms_total": ms(retrieval),
        "retrieval.hit_ratio": _ratio(info_sum(run_tasks, "hits"), info_sum(run_tasks, "repair_prompts")),
        "harness.load_tasks_ms": ms(named("harness.load_tasks", "run")),
        "harness.run_task_ms_total": 1e3 * busy,
        "harness.overhead_ms": 1e3 * (run_wall - _covered([(s.start, s.end) for s in run_tasks])),
        "harness.worker_busy_share": busy / (run_wall * ctx["workers"]),
        "harness.outcome_bytes": ctx["outcome_bytes"],
        "harness.session_bytes": ctx["session_bytes"],
        "metrics.read_ms": ms(named("metrics.read", "report")) / ctx["report_calls"],
        "metrics.build_report_ms": ms(named("metrics.build_report", "report")) / ctx["report_calls"],
    }


def layer_metrics(tracer: Tracer, contexts: dict[int, dict], overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric: medians over traced iterations, pooled percentiles."""
    per_iteration = [iteration_metrics(tracer, it, ctx) for it, ctx in contexts.items()]
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name in SAMPLED:
            span_name, key, q = SAMPLED[name]
            samples = [
                s.info[key] if key else 1e3 * s.dur
                for s in tracer.spans
                if s.name == span_name and s.phase == "run" and s.iteration in contexts
            ]
            out[name] = float(percentile(samples, q))
        elif name == "trace.overhead_pct":
            out[name] = overhead_pct
        else:
            out[name] = float(statistics.median(m[name] for m in per_iteration))
    return out
