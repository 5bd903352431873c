"""Token counting and token-budgeted context windows.

A context window is the longest whole-line suffix of the text preceding the
target function whose token count fits the budget. Counters are pluggable;
the default approximates subword tokenizers at roughly four UTF-8 bytes per
token, which keeps the harness free of model-specific tokenizer downloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from .corpus import FunctionRecord, SourceIndex

# Budget presets used by the sweep configs; any non-negative budget is valid.
CONTEXT_BUDGETS = (0, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


@runtime_checkable
class TokenCounter(Protocol):
    """Counting contract: count("") == 0 and counts are monotone under
    concatenation (count(a + b) >= count(a))."""

    name: str

    def count(self, text: str) -> int: ...


@dataclass(frozen=True)
class ApproxBytesCounter:
    """ceil(utf8_bytes / 4): a deterministic stand-in for a real tokenizer."""

    name: str = "bytes4"

    def count(self, text: str) -> int:
        # An ASCII text has one byte per character; isascii() is O(1).
        size = len(text) if text.isascii() else len(text.encode("utf-8"))
        return math.ceil(size / 4)


@dataclass(frozen=True)
class WordCounter:
    """Whitespace-separated word count; exact and easy to reason about in tests."""

    name: str = "words"

    def count(self, text: str) -> int:
        return len(text.split())


DEFAULT_COUNTER: TokenCounter = ApproxBytesCounter()

_COUNTERS: dict[str, TokenCounter] = {
    "bytes4": ApproxBytesCounter(),
    "words": WordCounter(),
}


def get_counter(name: str) -> TokenCounter:
    try:
        return _COUNTERS[name]
    except KeyError:
        known = ", ".join(sorted(_COUNTERS))
        raise ValueError(f"unknown token counter {name!r} (known: {known})") from None


@dataclass(frozen=True)
class ContextWindow:
    """Context text handed to the model, plus its measured size."""

    text: str
    budget: int
    actual_tokens: int


def check_span(index: SourceIndex, target: FunctionRecord) -> None:
    """Raise ValueError when target's span is not within the source's lines."""
    # Lines end at "\n" only, as spans do; a final newline ends the last line.
    total_lines = len(index.line_starts) - (index.text.endswith("\n") or not index.text)
    if target.span[0] < 1 or target.span[1] > max(1, total_lines):
        raise ValueError(
            f"target span {target.span} outside {index.path} ({total_lines} lines)"
        )


def build_context(
    index: SourceIndex,
    target: FunctionRecord,
    budget: int,
    counter: TokenCounter = DEFAULT_COUNTER,
) -> ContextWindow:
    """Largest whole-line suffix of the text before target that fits budget.

    Deterministic; budget 0 yields an empty window; a negative budget is an
    error. The target's own comment block and signature are not part of the
    window and do not count against the budget.
    """
    if budget < 0:
        raise ValueError(f"context budget must be non-negative, got {budget}")
    check_span(index, target)
    if budget == 0:
        # Blank lines count no words, yet are no context.
        return ContextWindow(text="", budget=0, actual_tokens=0)
    text = index.text
    line_starts = index.line_starts

    # A window starts at a line start and ends where the target's line
    # starts. count(window) shrinks as the start moves right (monotone
    # counters), so the first start that fits is found by stepping back 1,
    # 8, 64, ... lines from the target until a start does not fit, then
    # bisecting between the last start that fit and that one. No counted
    # text spans more than eight times the window's lines (or one line), so
    # a window costs O(window), not O(file); steps of 8 rather than 2 take
    # fewer counts when the file is not much longer than its windows.
    count = counter.count
    fit = end_line = target.span[0] - 1
    end = line_starts[end_line]
    tokens, miss, step = 0, -1, 1  # count(window from fit); the nearest start known not to fit
    while fit > 0:
        line = max(0, end_line - step)
        n = count(text[line_starts[line] : end])
        if n > budget:
            miss = line
            break
        fit, tokens, step = line, n, step * 8
    while fit - miss > 1:
        line = (fit + miss) // 2
        n = count(text[line_starts[line] : end])
        if n > budget:
            miss = line
        else:
            fit, tokens = line, n
    return ContextWindow(text=text[line_starts[fit] : end], budget=budget, actual_tokens=tokens)
