"""Benchmark metrics: pass@1, compilation@1, BLEU variants, correlation, cost.

A task is one completion and its repairs, so pass@1 is the share of usable
tasks whose final verdict is pass, and compilation@1 the share whose final
verdict compiled. Both are exact fractions until the percentage is taken,
so their rounding never depends on the order of the rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

from .corpus import tokenize_terms
from .executor import (
    STATUS_EXECUTOR_UNAVAILABLE,
    STATUS_FUNCTIONAL_MISMATCH,
    STATUS_PASS,
)
from .repair import STAGE_DEBUG_EXPLANATION, STAGES, RepairSession
from .rows import Record

REPORT_SCHEMA = "report@1"

BLEU_EPSILON = 1e-9
TRIVIAL_NGRAM_TOP_K = 500


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation input has zero variance."""


@dataclass(frozen=True)
class TaskOutcome(Record):
    """One task's row for pass@1 and compilation@1: whether its session
    passed (`c`) and compiled (`c_compile`), as 0 or 1, at its context
    budget. `n`, the number of sessions, is always 1."""

    task_id: str
    n: int
    c: int
    c_compile: int
    context_budget: int
    prompt_tokens: int = 0
    completion_tokens: int = 0
    unavailable: bool = False

    def __post_init__(self) -> None:
        if self.n != 1:
            raise ValueError(f"{self.task_id}: n={self.n}, but a task has one session (n=1)")
        if not 0 <= self.c <= 1:
            raise ValueError(f"{self.task_id}: c={self.c} outside [0, 1]")
        if not self.c <= self.c_compile <= 1:
            raise ValueError(f"{self.task_id}: c_compile={self.c_compile} outside [{self.c}, 1]")


def session_fold(session: RepairSession) -> tuple[str, int, int, int, int, int, bool]:
    """The columns (task_id, c, c_compile, context_budget, prompt_tokens,
    completion_tokens, unavailable) of the outcome row a session folds into.
    The task compiled when the final verdict is pass or functional_mismatch;
    an executor_unavailable verdict excludes it from metric denominators."""
    status = session.final_status
    prompt_tokens = 0
    completion_tokens = 0
    for attempt in session.attempts:
        prompt_tokens += attempt.prompt_tokens + attempt.explanation_prompt_tokens
        completion_tokens += attempt.completion_tokens + attempt.explanation_completion_tokens
    return (
        session.task_id,
        int(status == STATUS_PASS),
        int(status in (STATUS_PASS, STATUS_FUNCTIONAL_MISMATCH)),
        session.context_budget,
        prompt_tokens,
        completion_tokens,
        status == STATUS_EXECUTOR_UNAVAILABLE,
    )


# An outcome row's columns but `n`, in field order: the order session_fold gives them.
outcome_columns = attrgetter(*(f.name for f in fields(TaskOutcome) if f.name != "n"))


def outcome_from_session(session: RepairSession) -> TaskOutcome:
    """Fold a task's session into its outcome row (session_fold)."""
    task_id, *columns = session_fold(session)
    return TaskOutcome(task_id, 1, *columns)


def _share(outcomes: Sequence[TaskOutcome], count: str) -> Fraction:
    """The exact mean of one count column (`c` or `c_compile`) over usable
    tasks."""
    counts = [getattr(o, count) for o in outcomes if not o.unavailable]
    if not counts:
        raise ValueError("no usable outcomes (all executor_unavailable or empty)")
    return Fraction(sum(counts), len(counts))


def pass_at_1(outcomes: Sequence[TaskOutcome]) -> float:
    """The share of usable tasks that passed, as a percentage."""
    return float(_share(outcomes, "c") * 100)


def compilation_at_1(outcomes: Sequence[TaskOutcome]) -> float:
    """The share of usable tasks that compiled, as a percentage."""
    return float(_share(outcomes, "c_compile") * 100)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_impl(
    candidate: str,
    reference: str,
    trivially_shared: frozenset | set | None,
    max_n: int,
    epsilon: float,
) -> float:
    cand = tokenize_terms(candidate)
    ref = tokenize_terms(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        counts = _ngram_counts(cand, n)
        total = sum(counts.values())
        if total == 0:
            continue  # candidate shorter than this order; skip, don't punish
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(
            min(count, ref_counts[gram])
            for gram, count in counts.items()
            if not (trivially_shared and gram in trivially_shared)
        )
        precision = clipped / total if clipped > 0 else epsilon
        log_sum += math.log(precision)
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if len(cand) > len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return 100.0 * brevity * math.exp(log_sum / orders)


def bleu(candidate: str, reference: str, max_n: int = 4, epsilon: float = BLEU_EPSILON) -> float:
    """BLEU-4 on the shared tokenizer, scaled to [0, 100].

    Brevity penalty applies when the candidate is shorter; orders with zero
    candidate n-grams are skipped; zero matches smooth to epsilon.
    """
    return _bleu_impl(candidate, reference, None, max_n, epsilon)


def crystal_bleu(
    candidate: str,
    reference: str,
    trivially_shared: Iterable[tuple[str, ...]],
    max_n: int = 4,
    epsilon: float = BLEU_EPSILON,
) -> float:
    """BLEU with trivially shared n-grams removed from the match counts.

    Only matched counts shrink, so crystal_bleu(c, r, S) <= bleu(c, r) for
    every S. With an empty S the two are equal.
    """
    return _bleu_impl(candidate, reference, frozenset(trivially_shared), max_n, epsilon)


def trivially_shared_ngrams(
    texts: Iterable[str], k: int = TRIVIAL_NGRAM_TOP_K, max_n: int = 4
) -> set[tuple[str, ...]]:
    """Top-k most frequent n-grams (n = 1..max_n) across a corpus.

    Ties break lexicographically so the set is deterministic.
    """
    counts: Counter = Counter()
    for text in texts:
        tokens = tokenize_terms(text)
        for n in range(1, max_n + 1):
            counts.update(_ngram_counts(tokens, n))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {gram for gram, _ in ranked[:k]}


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; zero-variance input raises UndefinedCorrelationError."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("correlation needs at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class CostModel:
    """USD per million tokens, priced separately for prompt and completion."""

    prompt_usd_per_million: float
    completion_usd_per_million: float


GPT_4O_MINI_PRICES = CostModel(prompt_usd_per_million=0.15, completion_usd_per_million=0.60)


def usage_cost(prompt_tokens: int, completion_tokens: int, model: CostModel) -> float:
    return (
        prompt_tokens * model.prompt_usd_per_million / 1e6
        + completion_tokens * model.completion_usd_per_million / 1e6
    )


@dataclass
class CostBreakdown(Record):
    """Token and dollar totals, split by pipeline stage."""

    prompt_tokens: dict[str, int]
    completion_tokens: dict[str, int]
    cost_usd: dict[str, float]
    total_usd: float


def cost_of(
    sessions: Iterable[RepairSession], model: CostModel = GPT_4O_MINI_PRICES
) -> CostBreakdown:
    """Dollar cost of a run, additive over sessions and linear in prices."""
    prompt_tokens = dict.fromkeys(STAGES, 0)
    completion_tokens = dict.fromkeys(STAGES, 0)
    for session in sessions:
        for attempt in session.attempts:
            prompt_tokens[attempt.stage] += attempt.prompt_tokens
            completion_tokens[attempt.stage] += attempt.completion_tokens
            prompt_tokens[STAGE_DEBUG_EXPLANATION] += attempt.explanation_prompt_tokens
            completion_tokens[STAGE_DEBUG_EXPLANATION] += (
                attempt.explanation_completion_tokens
            )
    cost_usd = {
        stage: usage_cost(prompt_tokens[stage], completion_tokens[stage], model)
        for stage in STAGES
    }
    return CostBreakdown(
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        cost_usd=cost_usd,
        total_usd=sum(cost_usd.values()),
    )


def build_report(
    outcomes: Sequence[TaskOutcome],
    sessions: Sequence[RepairSession] | None = None,
    cost_model: CostModel = GPT_4O_MINI_PRICES,
) -> dict:
    """Aggregate metrics grouped by context budget, plus a cost point series.

    The point series pairs the cost of each budget's sessions with its pass@1
    so runs can be compared on cost-effectiveness, sorted by cost. Without
    sessions (None) the cost is unknown: `cost` and each point's `cost_usd`
    are None, and the points stay in budget order.
    """
    groups: dict[int, list[TaskOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault(outcome.context_budget, []).append(outcome)

    budget_sessions: dict[int, list[RepairSession]] = {}
    for session in sessions or ():
        budget_sessions.setdefault(session.context_budget, []).append(session)

    def metrics_for(rows: Sequence[TaskOutcome]) -> dict:
        return {
            "pass@1": round(pass_at_1(rows), 2),
            "compilation@1": round(compilation_at_1(rows), 2),
            "tasks": sum(1 for r in rows if not r.unavailable),
            "excluded_unavailable": sum(1 for r in rows if r.unavailable),
        }

    by_context = {}
    points = []
    for budget in sorted(groups):
        entry = by_context[str(budget)] = metrics_for(groups[budget])
        group_cost = (
            None if sessions is None else round(cost_of(budget_sessions.get(budget, []), cost_model).total_usd, 6)
        )
        points.append({"context_budget": budget, "cost_usd": group_cost, "pass@1": entry["pass@1"]})
    if sessions is not None:
        points.sort(key=lambda p: p["cost_usd"])
    return {
        "schema": REPORT_SCHEMA,
        "by_context": by_context,
        "overall": metrics_for(outcomes),
        "cost": None if sessions is None else cost_of(sessions, cost_model).to_json(),
        "points": points,
    }


def format_report_table(report: dict) -> str:
    """Aligned text table: one column per context budget plus the overall."""
    budgets = list(report["by_context"].keys())
    metric_names = sorted(
        {name for entry in report["by_context"].values() for name in entry},
        key=lambda n: (n != "pass@1", n),
    )
    header = ["metric"] + budgets + ["overall"]
    rows = [header]
    for name in metric_names:
        row = [name]
        for budget in budgets:
            value = report["by_context"][budget].get(name, "")
            row.append(f"{value:.2f}" if isinstance(value, float) else str(value))
        value = report["overall"].get(name, "")
        row.append(f"{value:.2f}" if isinstance(value, float) else str(value))
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    lines.append("")
    if report["cost"] is None:
        lines.append("total cost (USD): unknown (no --sessions)")
    else:
        # Up to 6 significant digits in fixed point: a run can cost well
        # under a cent, and 0.00315 must not read 0.00.
        total = Decimal(f"{report['cost']['total_usd']:.6g}")
        lines.append(f"total cost (USD): {total:f}")
    return "\n".join(lines)
