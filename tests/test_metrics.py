"""Metrics: pass@1 and compilation@1 against the k = 1 case of the exact
pass@k estimator, BLEU variants against hand-counted n-gram fixtures,
correlation, and the cost ledger."""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solrepair.executor import Diagnostic, ExecutionVerdict
from solrepair.metrics import (
    CostModel,
    GPT_4O_MINI_PRICES,
    TaskOutcome,
    UndefinedCorrelationError,
    bleu,
    build_report,
    compilation_at_1,
    cost_of,
    crystal_bleu,
    format_report_table,
    outcome_from_session,
    pass_at_1,
    pearson,
    trivially_shared_ngrams,
    usage_cost,
)
from solrepair.repair import Attempt, RepairSession


def outcome(task_id="t", n=1, c=0, c_compile=None, unavailable=False, budget=2048, pt=0, ct=0):
    return TaskOutcome(
        task_id=task_id,
        n=n,
        c=c,
        c_compile=c if c_compile is None else c_compile,
        prompt_tokens=pt,
        completion_tokens=ct,
        unavailable=unavailable,
        context_budget=budget,
    )


def reference_pass_at_k(outcomes, k: int, compiled: bool) -> Fraction:
    """Reference: the unbiased pass@k estimator 1 - C(n-c, k)/C(n, k),
    averaged exactly over usable tasks, summed once per distinct (n, c)
    pair and weighted by how many tasks share it. At k = 1 and n = 1 it
    must equal pass@1 (compiled=False) and compilation@1 (compiled=True)."""
    counts = Counter((o.n, o.c_compile if compiled else o.c) for o in outcomes if not o.unavailable)
    total = sum(
        count * (1 - Fraction(math.comb(n - c, k), math.comb(n, k))) for (n, c), count in counts.items()
    )
    return total / counts.total()


class TestPassAt1:
    def test_mean_over_tasks(self):
        rows = [outcome("a", c=1), outcome("b", c=0)]
        assert pass_at_1(rows) == 50.0

    def test_unavailable_tasks_excluded(self):
        rows = [outcome("a", c=1), outcome("b", c=0, unavailable=True)]
        assert pass_at_1(rows) == 100.0

    def test_all_unavailable_rejected(self):
        for metric in (pass_at_1, compilation_at_1):
            with pytest.raises(ValueError, match="no usable outcomes"):
                metric([outcome(unavailable=True)])

    def test_empty_rejected(self):
        for metric in (pass_at_1, compilation_at_1):
            with pytest.raises(ValueError, match="no usable outcomes"):
                metric([])

    def test_compilation_uses_compile_counts(self):
        rows = [outcome("a", c=0, c_compile=1), outcome("b", c=1, c_compile=1), outcome("c"), outcome("d")]
        assert compilation_at_1(rows) == 50.0
        assert pass_at_1(rows) == 25.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.sampled_from([(0, 0), (0, 1), (1, 1)]).flatmap(lambda cc: st.tuples(st.just(cc), st.booleans())),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_equal_the_reference_at_k1(self, counts):
        rows = [outcome(f"t{i}", c=c, c_compile=cc, unavailable=u) for i, ((c, cc), u) in enumerate(counts)]
        if all(o.unavailable for o in rows):
            return
        assert pass_at_1(rows) == float(reference_pass_at_k(rows, 1, compiled=False) * 100)
        assert compilation_at_1(rows) == float(reference_pass_at_k(rows, 1, compiled=True) * 100)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 1)]), min_size=1, max_size=40), st.randoms())
    def test_property_order_independent(self, counts, rng):
        # Exact arithmetic: the row order cannot move the last bit.
        rows = [outcome(f"t{i}", c=c, c_compile=cc) for i, (c, cc) in enumerate(counts)]
        shuffled = rng.sample(rows, len(rows))
        assert (pass_at_1(shuffled), compilation_at_1(shuffled)) == (pass_at_1(rows), compilation_at_1(rows))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 1)]), min_size=1, max_size=20))
    def test_property_pass_never_exceeds_compilation(self, counts):
        rows = [outcome(f"t{i}", c=c, c_compile=cc) for i, (c, cc) in enumerate(counts)]
        assert pass_at_1(rows) <= compilation_at_1(rows)


class TestOutcomeTypes:
    def test_validation(self):
        with pytest.raises(ValueError, match="n=0, but a task has one session"):
            outcome(n=0)
        with pytest.raises(ValueError, match="n=2, but a task has one session"):
            outcome(n=2, c=1)
        with pytest.raises(ValueError, match="outside"):
            outcome(c=2)
        with pytest.raises(ValueError, match="c_compile"):
            TaskOutcome(task_id="t", n=1, c=1, c_compile=0, context_budget=0)
        with pytest.raises(ValueError, match="c_compile"):
            TaskOutcome(task_id="t", n=1, c=0, c_compile=2, context_budget=0)

    def test_json_round_trip(self):
        o = outcome("t", c=0, c_compile=1, unavailable=False, budget=2048, pt=10, ct=3)
        assert TaskOutcome.from_json(json.loads(json.dumps(o.to_json()))) == o


def session_with(final_status: str, *, pt=10, ct=5, ept=0, ect=0, task_id="t", stage2=False, budget=2048):
    verdict = {
        "pass": ExecutionVerdict(status="pass"),
        "compile_error": ExecutionVerdict(
            status="compile_error", diagnostics=(Diagnostic("Other", "m"),)
        ),
        "functional_mismatch": ExecutionVerdict(
            status="functional_mismatch", diagnostics=(Diagnostic("Other", "m"),)
        ),
        "executor_unavailable": ExecutionVerdict(status="executor_unavailable"),
    }[final_status]
    attempts = [
        Attempt(
            stage="completion", prompt="p", completion="c", body="{ }",
            prompt_tokens=pt, completion_tokens=ct, verdict=verdict,
        )
    ]
    if stage2:
        attempts.append(
            Attempt(
                stage="repair", prompt="p2", completion="c2", body="{ }",
                prompt_tokens=pt, completion_tokens=ct, verdict=verdict,
                explanation_prompt_tokens=ept, explanation_completion_tokens=ect,
            )
        )
    return RepairSession(
        task_id=task_id, strategy="self_edit", max_rounds=1, context_budget=budget, attempts=tuple(attempts)
    )


class TestOutcomeFromSession:
    @pytest.mark.parametrize(
        "status,counts",
        [("pass", (1, 1)), ("functional_mismatch", (0, 1)), ("compile_error", (0, 0)), ("executor_unavailable", (0, 0))],
    )
    def test_counts(self, status, counts):
        o = outcome_from_session(session_with(status, task_id="t7", budget=1024))
        assert (o.task_id, o.n, (o.c, o.c_compile)) == ("t7", 1, counts)
        assert o.unavailable is (status == "executor_unavailable")
        assert o.context_budget == 1024

    def test_token_totals_include_explanations(self):
        o = outcome_from_session(session_with("pass", pt=100, ct=50, ept=70, ect=30, stage2=True))
        assert o.prompt_tokens == 100 + 100 + 70
        assert o.completion_tokens == 50 + 50 + 30


CAND_12 = "the quick brown fox jumps over the lazy dog near the bank"
REF_12 = "the quick brown fox leaps over a lazy dog by the river"


class TestBleu:
    def test_identity_scores_100(self):
        text = "function add ( uint256 a , uint256 b )"
        assert bleu(text, text) == pytest.approx(100.0, abs=1e-9)

    def test_identity_shorter_than_four_tokens(self):
        assert bleu("a b", "a b") == pytest.approx(100.0, abs=1e-9)

    def test_twelve_token_fixture_hand_counts(self):
        # Clipped matches counted by hand: 8/12 unigrams, 4/11 bigrams,
        # 2/10 trigrams, 1/9 four-grams; equal lengths so no brevity penalty.
        expected = 100.0 * math.exp(
            (math.log(8 / 12) + math.log(4 / 11) + math.log(2 / 10) + math.log(1 / 9)) / 4
        )
        assert bleu(CAND_12, REF_12) == pytest.approx(expected, rel=1e-12)

    def test_zero_overlap_smoothed_near_zero(self):
        score = bleu("aa bb cc dd", "ee ff gg hh")
        assert 0.0 < score < 1e-4

    def test_empty_candidate_is_zero(self):
        assert bleu("", "a b c") == 0.0

    def test_brevity_penalty(self):
        # Perfect precision but half the reference length.
        assert bleu("a b c d", "a b c d e f g h") == pytest.approx(
            100.0 * math.exp(1.0 - 8 / 4), rel=1e-12
        )

    def test_longer_candidate_no_penalty(self):
        assert bleu("a b c d e f g h", "a b c d e f g h x") <= 100.0


class TestCrystalBleu:
    TRIVIAL = {("a",), ("a", "b")}

    def test_hand_fixture(self):
        cand, ref = "a b c d e", "a b c d f"
        expected_bleu = 100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        expected_crystal = 100.0 * (3 / 5 * 2 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert bleu(cand, ref) == pytest.approx(expected_bleu, rel=1e-9)
        assert crystal_bleu(cand, ref, self.TRIVIAL) == pytest.approx(expected_crystal, rel=1e-9)

    def test_empty_trivial_set_equals_bleu(self):
        assert crystal_bleu(CAND_12, REF_12, set()) == bleu(CAND_12, REF_12)

    @settings(max_examples=60, deadline=None)
    @given(
        cand=st.lists(st.sampled_from("abcd"), min_size=1, max_size=10).map(" ".join),
        ref=st.lists(st.sampled_from("abcd"), min_size=1, max_size=10).map(" ".join),
        trivial=st.sets(
            st.tuples(st.sampled_from("abcd")) | st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
            max_size=6,
        ),
    )
    def test_property_crystal_never_exceeds_bleu(self, cand, ref, trivial):
        assert crystal_bleu(cand, ref, trivial) <= bleu(cand, ref) + 1e-9


class TestTriviallyShared:
    def test_top_k_with_lexicographic_ties(self):
        got = trivially_shared_ngrams(["a a b", "a b"], k=2)
        assert got == {("a",), ("a", "b")}

    def test_large_k_returns_all(self):
        got = trivially_shared_ngrams(["a a b", "a b"], k=100)
        assert got == {("a",), ("b",), ("a", "b"), ("a", "a"), ("a", "a", "b")}

    def test_deterministic(self):
        texts = ["x y z", "y z x", "z x y"]
        assert trivially_shared_ngrams(texts, k=3) == trivially_shared_ngrams(texts, k=3)


class TestPearson:
    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            pearson([1], [2])


class TestCost:
    def test_million_tokens_to_the_cent(self):
        assert round(usage_cost(1_000_000, 1_000_000, GPT_4O_MINI_PRICES), 2) == 0.75

    def test_spot_value(self):
        assert usage_cost(2_000_000, 500_000, GPT_4O_MINI_PRICES) == pytest.approx(0.60, abs=1e-9)

    def test_zero_usage_is_free(self):
        assert usage_cost(0, 0, GPT_4O_MINI_PRICES) == 0.0

    def test_ledger_stage_breakdown(self):
        sessions = [session_with("pass", pt=100, ct=50, ept=70, ect=30, stage2=True)]
        breakdown = cost_of(sessions)
        assert breakdown.prompt_tokens == {
            "completion": 100, "repair": 100, "debug_explanation": 70,
        }
        assert breakdown.completion_tokens == {
            "completion": 50, "repair": 50, "debug_explanation": 30,
        }
        expected_total = usage_cost(270, 130, GPT_4O_MINI_PRICES)
        assert breakdown.total_usd == pytest.approx(expected_total, abs=1e-12)

    def test_ledger_additive_over_sessions(self):
        a = [session_with("pass", pt=11, ct=3), session_with("compile_error", pt=7, ct=2)]
        b = [session_with("pass", pt=100, ct=50, ept=70, ect=30, stage2=True)]
        total_split = cost_of(a).total_usd + cost_of(b).total_usd
        assert cost_of(a + b).total_usd == pytest.approx(total_split, abs=1e-12)

    def test_ledger_linear_in_prices(self):
        sessions = [session_with("pass", pt=123, ct=45)]
        doubled = CostModel(
            prompt_usd_per_million=GPT_4O_MINI_PRICES.prompt_usd_per_million * 2,
            completion_usd_per_million=GPT_4O_MINI_PRICES.completion_usd_per_million * 2,
        )
        assert cost_of(sessions, doubled).total_usd == pytest.approx(
            2 * cost_of(sessions).total_usd, abs=1e-12
        )


class TestReport:
    def rows(self):
        return [
            outcome("a", n=1, c=1, budget=0),
            outcome("b", n=1, c=0, budget=0),
            outcome("c", n=1, c=0, c_compile=1, budget=2048),
            outcome("d", n=1, c=1, budget=2048),
            outcome("e", n=1, c=1, budget=2048),
            outcome("f", n=1, c=0, budget=2048, unavailable=True),
        ]

    def test_grouped_by_budget(self):
        report = build_report(self.rows())
        assert report["schema"] == "report@1"
        assert set(report["by_context"]) == {"0", "2048"}
        assert report["by_context"]["0"]["pass@1"] == 50.0
        assert report["by_context"]["2048"]["pass@1"] == pytest.approx(66.67)
        assert report["by_context"]["2048"]["compilation@1"] == 100.0
        assert report["by_context"]["2048"]["tasks"] == 3
        assert report["by_context"]["2048"]["excluded_unavailable"] == 1

    def test_overall_spans_groups(self):
        report = build_report(self.rows())
        assert report["overall"]["pass@1"] == 60.0
        assert report["overall"]["tasks"] == 5

    def test_points_sorted_by_cost(self):
        # Budget 0's two tasks cost more than budget 2048's four.
        sessions = [
            session_with("pass", task_id=t, pt=1000 if t in "ab" else 10, budget=0 if t in "ab" else 2048)
            for t in "abcdef"
        ]
        report = build_report(self.rows(), sessions)
        assert [p["context_budget"] for p in report["points"]] == [2048, 0]
        assert [p["cost_usd"] for p in report["points"]] == [
            round(usage_cost(40, 20, GPT_4O_MINI_PRICES), 6),
            round(usage_cost(2000, 10, GPT_4O_MINI_PRICES), 6),
        ]
        assert [p["pass@1"] for p in report["points"]] == [pytest.approx(66.67), 50.0]

    def test_cost_unknown_without_sessions(self):
        report = build_report(self.rows())
        assert report["cost"] is None
        assert report["points"] == [
            {"context_budget": 0, "cost_usd": None, "pass@1": 50.0},
            {"context_budget": 2048, "cost_usd": None, "pass@1": pytest.approx(66.67)},
        ]
        assert format_report_table(report).endswith("total cost (USD): unknown (no --sessions)")

    def test_no_session_costs_nothing(self):
        report = build_report(self.rows(), [])
        assert report["cost"]["total_usd"] == 0.0
        assert [p["cost_usd"] for p in report["points"]] == [0.0, 0.0]

    def test_table_layout(self):
        report = build_report(self.rows(), [])
        table = format_report_table(report)
        lines = table.splitlines()
        assert lines[0].split() == ["metric", "0", "2048", "overall"]
        assert lines[2].startswith("pass@1")
        assert table.endswith("total cost (USD): 0")

    @pytest.mark.parametrize(
        "total,printed",
        [(0.00315, "0.00315"), (0.75, "0.75"), (1 / 3, "0.333333"), (1234567.891, "1234570"), (5e-05, "0.00005")],
    )
    def test_table_prints_cost_to_six_significant_digits(self, total, printed):
        report = build_report(self.rows(), [])
        report["cost"]["total_usd"] = total
        assert format_report_table(report).endswith(f"total cost (USD): {printed}")

    def test_table_deterministic(self):
        report = build_report(self.rows())
        assert format_report_table(report) == format_report_table(report)
