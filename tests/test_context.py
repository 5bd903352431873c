"""Token counters and budgeted context-window construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solrepair.context import (
    CONTEXT_BUDGETS,
    ApproxBytesCounter,
    ContextWindow,
    WordCounter,
    build_context,
    get_counter,
)
from solrepair.corpus import FunctionRecord, SourceIndex, extract_functions

FIXTURES = Path(__file__).parent / "fixtures"


def file_with_target(preceding_lines: list[str]) -> tuple[SourceIndex, FunctionRecord]:
    """Source whose last two lines hold the target; window comes from the rest."""
    text = "".join(line + "\n" for line in preceding_lines)
    sig_line = len(preceding_lines) + 1
    text += "/// doc\nfunction f() public { return; }\n"
    file = SourceIndex.from_text("ctx.sol", text)
    record = FunctionRecord(
        source_path="ctx.sol",
        comment="/// doc\n",
        signature="function f() public ",
        body="{ return; }",
        span=(sig_line, sig_line + 1),
    )
    return file, record


class TestCounters:
    def test_bytes4_empty(self):
        assert ApproxBytesCounter().count("") == 0

    def test_bytes4_rounds_up(self):
        c = ApproxBytesCounter()
        assert c.count("abcd") == 1
        assert c.count("abcde") == 2

    def test_bytes4_counts_utf8_bytes(self):
        assert ApproxBytesCounter().count("ééé") == 2  # 6 bytes

    @pytest.mark.parametrize(
        "text,count",
        [("a" * 1024, 256), ("a" * 1025, 257), ("\x7f" * 5, 2), ("é" * 3 + "a", 2), ("€", 1),
         ("€" * 4, 3), ("𝄞" * 3, 3), ("a𝄞", 2), ("\x80", 1)],
    )
    def test_bytes4_counts_ascii_and_multibyte_texts(self, text, count):
        assert ApproxBytesCounter().count(text) == count

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=40) | st.text(st.characters(max_codepoint=127), max_size=40))
    def test_property_bytes4_is_a_quarter_of_the_utf8_bytes_rounded_up(self, text):
        assert ApproxBytesCounter().count(text) == -(-len(text.encode("utf-8")) // 4)

    def test_words(self):
        c = WordCounter()
        assert c.count("") == 0
        assert c.count("a b  c\n d") == 4

    def test_registry_lookup(self):
        assert get_counter("bytes4").name == "bytes4"
        assert get_counter("words").name == "words"

    def test_registry_unknown(self):
        with pytest.raises(ValueError, match="unknown token counter"):
            get_counter("no-such-counter")


class TestBuildContext:
    def test_exact_fit_with_words(self):
        file, rec = file_with_target(["one two", "three", "four five six"])
        window = build_context(file, rec, budget=3, counter=WordCounter())
        assert window.text == "four five six\n"
        assert window.actual_tokens == 3
        assert window.budget == 3

    def test_budget_zero_empty(self):
        file, rec = file_with_target(["one two"])
        window = build_context(file, rec, budget=0, counter=WordCounter())
        assert window.text == ""
        assert window.actual_tokens == 0

    @pytest.mark.parametrize("counter", [ApproxBytesCounter(), WordCounter()], ids=lambda c: c.name)
    def test_budget_zero_empty_above_a_blank_line(self, counter):
        # The blank line above the doc comment counts no words, but is no context.
        file = SourceIndex.from_text(
            "c.sol",
            "contract C {\n    uint256 x;\n\n    /// Adds.\n"
            "    function f(uint256 a) public pure returns (uint256) {\n        return a + 1;\n    }\n}\n",
        )
        (rec,) = extract_functions(file)
        assert build_context(file, rec, budget=0, counter=counter) == ContextWindow("", 0, 0)
        assert build_context(file, rec, budget=1, counter=WordCounter()).text == "\n"

    def test_negative_budget_rejected(self):
        file, rec = file_with_target(["one"])
        with pytest.raises(ValueError, match="non-negative"):
            build_context(file, rec, budget=-1)

    def test_huge_budget_returns_everything(self):
        lines = [f"line {i}" for i in range(10)]
        file, rec = file_with_target(lines)
        window = build_context(file, rec, budget=10_000, counter=WordCounter())
        assert window.text == "".join(l + "\n" for l in lines)

    def test_target_on_first_line_has_no_context(self):
        file, rec = file_with_target([])
        window = build_context(file, rec, budget=100, counter=WordCounter())
        assert window.text == ""

    def test_span_outside_file_rejected(self):
        file, rec = file_with_target(["one"])
        bad = FunctionRecord(
            source_path=rec.source_path,
            comment=rec.comment,
            signature=rec.signature,
            body=rec.body,
            span=(98, 99),
        )
        with pytest.raises(ValueError, match="outside"):
            build_context(file, bad, budget=10)

    def test_partial_line_never_included(self):
        file, rec = file_with_target(["aaaa bbbb", "cc"])
        window = build_context(file, rec, budget=2, counter=WordCounter())
        # Two words fit, but "aaaa bbbb\ncc\n" is 3; only the whole last line fits.
        assert window.text == "cc\n"

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, brk):
        # str.splitlines() also breaks at these; spans count "\n" only.
        file, rec = file_with_target([f"uint256 x; // a{brk}b", "uint256 y;"])
        window = build_context(file, rec, budget=10_000, counter=WordCounter())
        assert window.text == f"uint256 x; // a{brk}b\nuint256 y;\n"
        window = build_context(file, rec, budget=2, counter=WordCounter())
        assert window.text == "uint256 y;\n"

    def test_deterministic(self):
        file, rec = file_with_target([f"word{i} filler" for i in range(30)])
        a = build_context(file, rec, budget=7, counter=WordCounter())
        b = build_context(file, rec, budget=7, counter=WordCounter())
        assert a == b

    def test_budget_presets_sorted_and_start_at_zero(self):
        assert CONTEXT_BUDGETS[0] == 0
        assert list(CONTEXT_BUDGETS) == sorted(set(CONTEXT_BUDGETS))


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(
        st.text(alphabet="ab c", min_size=0, max_size=12).map(lambda s: s.replace("\n", " ")),
        min_size=0,
        max_size=12,
    ),
    b1=st.integers(min_value=0, max_value=20),
    extra=st.integers(min_value=0, max_value=20),
)
def test_property_window_is_whole_line_suffix_and_monotone(lines, b1, extra):
    file, rec = file_with_target(lines)
    counter = WordCounter()
    small = build_context(file, rec, budget=b1, counter=counter)
    large = build_context(file, rec, budget=b1 + extra, counter=counter)
    preceding = "".join(l + "\n" for l in lines)

    for window in (small, large):
        assert window.actual_tokens == counter.count(window.text)
        assert window.actual_tokens <= window.budget or window.text == ""
        assert preceding.endswith(window.text)
        if window.text:
            start = len(preceding) - len(window.text)
            assert start == 0 or preceding[start - 1] == "\n"
    # A bigger budget can only extend the window upward.
    assert large.text.endswith(small.text)


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.text(alphabet="xy z", min_size=1, max_size=8), min_size=1, max_size=10),
    budget=st.integers(min_value=0, max_value=30),
)
def test_property_window_is_maximal(lines, budget):
    """Budget 0 is the empty window; for any other budget no earlier
    whole-line start would also fit."""
    lines = [l.replace("\n", " ") for l in lines]
    file, rec = file_with_target(lines)
    counter = WordCounter()
    window = build_context(file, rec, budget=budget, counter=counter)
    preceding = "".join(l + "\n" for l in lines)
    start = len(preceding) - len(window.text)
    if budget == 0:
        assert window.text == ""
    elif start > 0:
        prev_start = preceding.rfind("\n", 0, start - 1) + 1
        assert counter.count(preceding[prev_start:]) > budget


def reference_build_context(file: SourceIndex, target: FunctionRecord, budget: int, counter) -> ContextWindow:
    """build_context as a bisection over every line start before the target,
    each probe counting a suffix of all the preceding text; budget 0 is the
    empty window."""
    if budget == 0:
        return ContextWindow(text="", budget=0, actual_tokens=0)
    starts = file.line_starts[: target.span[0]]
    preceding = file.text[: starts[-1]]
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if counter.count(preceding[starts[mid] :]) <= budget:
            hi = mid
        else:
            lo = mid + 1
    window = preceding[starts[lo] :]
    return ContextWindow(text=window, budget=budget, actual_tokens=counter.count(window))


COUNTERS = (ApproxBytesCounter(), WordCounter())


def test_windows_match_reference_on_every_fixture_target():
    paths = sorted(FIXTURES.rglob("*.sol"))
    targets = 0
    for path in paths:
        file = SourceIndex.from_text(str(path), path.read_text(encoding="utf-8"))
        for record in extract_functions(file):
            targets += 1
            for budget in (0, 1, 7, 64, 256, 1000, 2048, 32768):
                for counter in COUNTERS:
                    got = build_context(file, record, budget, counter)
                    assert got == reference_build_context(file, record, budget, counter), (path, record.span, budget)
    assert targets >= 50


def target_at(lines: list[str], line: int) -> tuple[SourceIndex, FunctionRecord]:
    file = SourceIndex.from_text("ctx.sol", "".join(l + "\n" for l in lines))
    record = FunctionRecord(source_path="ctx.sol", comment="/// doc\n", signature="function f() ", body="{ }", span=(line, line))
    return file, record


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.text(alphabet="ab c\té€", max_size=90), min_size=1, max_size=60),
    data=st.data(),
    budget=st.integers(min_value=0, max_value=512),
    counter=st.sampled_from(COUNTERS),
)
def test_property_window_equals_reference(lines, data, budget, counter):
    """For any monotone counter the first fitting start is unique, so the
    windows are byte-identical however the search probes."""
    line = data.draw(st.integers(min_value=1, max_value=len(lines)))
    file, record = target_at(lines, line)
    assert build_context(file, record, budget, counter) == reference_build_context(file, record, budget, counter)


@dataclass
class TallyCounter:
    """Counts words, and tallies the characters it was asked to count."""

    name: str = "tally"
    chars: list[int] = field(default_factory=list)

    def count(self, text: str) -> int:
        self.chars.append(len(text))
        return len(text.split())


def test_window_cost_follows_the_window_not_the_file():
    lines = [f"uint256 constant C{i} = {i};" for i in range(20_000)]
    file, record = target_at(lines, len(lines))
    counter = TallyCounter()
    window = build_context(file, record, 40, counter)
    assert window.actual_tokens <= 40
    # Each probe counts at most eight times the window's lines, or one line.
    lines_in_window = window.text.count("\n")
    assert max(counter.chars) <= max(8 * lines_in_window, 1) * max(len(l) + 1 for l in lines)
    assert sum(counter.chars) < 100 * len(window.text)
