"""Benchmark metrics: pass@k, compilation@1, BLEU variants, correlation, cost.

pass@k uses the unbiased estimator 1 - C(n-c, k)/C(n, k) averaged over
tasks, computed with exact integer binomials so small counts never lose
precision to floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
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
    """Per-task sample counts feeding pass@k and compilation@1."""

    task_id: str
    n: int
    c: int
    c_compile: int
    prompt_tokens: int = 0
    completion_tokens: int = 0
    unavailable: bool = False
    context_budget: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"{self.task_id}: need at least one sample")
        if not 0 <= self.c <= self.n:
            raise ValueError(f"{self.task_id}: c={self.c} outside [0, {self.n}]")
        if not self.c <= self.c_compile <= self.n:
            raise ValueError(
                f"{self.task_id}: c_compile={self.c_compile} outside [{self.c}, {self.n}]"
            )


def outcome_from_sessions(
    task_id: str,
    sessions: Sequence[RepairSession],
    context_budget: int | None = None,
) -> TaskOutcome:
    """Fold one task's sample sessions into the counts the metrics need.

    A sample counts as compiled when its final verdict is pass or
    functional_mismatch. Any executor_unavailable sample poisons the task,
    excluding it from metric denominators.
    """
    n = len(sessions)
    c = sum(1 for s in sessions if s.final_status == STATUS_PASS)
    c_compile = sum(
        1
        for s in sessions
        if s.final_status in (STATUS_PASS, STATUS_FUNCTIONAL_MISMATCH)
    )
    unavailable = any(s.final_status == STATUS_EXECUTOR_UNAVAILABLE for s in sessions)
    prompt_tokens = 0
    completion_tokens = 0
    for session in sessions:
        for attempt in session.attempts:
            prompt_tokens += attempt.prompt_tokens + attempt.explanation_prompt_tokens
            completion_tokens += (
                attempt.completion_tokens + attempt.explanation_completion_tokens
            )
    return TaskOutcome(
        task_id=task_id,
        n=n,
        c=c,
        c_compile=c_compile,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        unavailable=unavailable,
        context_budget=context_budget,
    )


def _pass_at_k_fraction(outcomes: Sequence[TaskOutcome], k: int, compiled: bool) -> Fraction:
    """The exact mean of 1 - C(n-c, k)/C(n, k) over usable tasks, summed
    once per distinct (n, c) pair and weighted by how many tasks share it."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = Counter(
        (o.n, o.c_compile if compiled else o.c) for o in outcomes if not o.unavailable
    )
    if not counts:
        raise ValueError("no usable outcomes (all executor_unavailable or empty)")
    if any(n < k for n, _ in counts):
        first = next(o for o in outcomes if not o.unavailable and o.n < k)
        raise ValueError(f"k={k} exceeds n={first.n} samples for task {first.task_id}")
    total = sum(
        count * (1 - Fraction(math.comb(n - c, k), math.comb(n, k)))
        for (n, c), count in counts.items()
    )
    return total / counts.total()


def pass_at_k(outcomes: Sequence[TaskOutcome], k: int) -> float:
    """Unbiased pass@k as a percentage (exact arithmetic, float at the end)."""
    return float(_pass_at_k_fraction(outcomes, k, compiled=False) * 100)


def compilation_at_1(outcomes: Sequence[TaskOutcome]) -> float:
    """pass@1 over compile successes, as a percentage."""
    return float(_pass_at_k_fraction(outcomes, 1, compiled=True) * 100)


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
    k_values: Sequence[int] = (1,),
    cost_model: CostModel = GPT_4O_MINI_PRICES,
) -> dict:
    """Aggregate metrics grouped by context budget, plus a cost point series.

    The point series pairs each group's total cost with its pass@1 so runs
    can be compared on cost-effectiveness; merging reports keeps the series
    sorted by cost.
    """
    groups: dict[int | None, list[TaskOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault(outcome.context_budget, []).append(outcome)

    budget_sessions: dict[int | None, list[RepairSession]] = {}
    if sessions:
        budget_of = {o.task_id: o.context_budget for o in outcomes}
        for session in sessions:
            budget_sessions.setdefault(budget_of.get(session.task_id), []).append(session)

    def metrics_for(rows: Sequence[TaskOutcome]) -> dict:
        entry = {f"pass@{k}": round(pass_at_k(rows, k), 2) for k in k_values}
        entry["compilation@1"] = round(compilation_at_1(rows), 2)
        entry["tasks"] = sum(1 for r in rows if not r.unavailable)
        entry["excluded_unavailable"] = sum(1 for r in rows if r.unavailable)
        return entry

    by_context = {}
    points = []
    for budget in sorted(groups, key=lambda b: (b is None, b)):
        rows = groups[budget]
        key = "none" if budget is None else str(budget)
        by_context[key] = metrics_for(rows)
        group_cost = cost_of(budget_sessions.get(budget, []), cost_model).total_usd
        points.append(
            {
                "context_budget": budget,
                "cost_usd": round(group_cost, 6),
                "pass@1": round(pass_at_k(rows, 1), 2),
            }
        )
    report = {
        "schema": REPORT_SCHEMA,
        "by_context": by_context,
        "overall": metrics_for(outcomes),
        "cost": cost_of(sessions or [], cost_model).to_json(),
        "points": sorted(points, key=lambda p: p["cost_usd"]),
    }
    return report


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
    # Up to 6 significant digits in fixed point: a run can cost well under
    # a cent, and 0.00315 must not read 0.00.
    total = Decimal(f"{report['cost']['total_usd']:.6g}")
    lines.append(f"total cost (USD): {total:f}")
    return "\n".join(lines)
