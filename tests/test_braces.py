"""The one brace pairer (corpus.pair_braces) against the per-character depth
matcher that the executor's block checks and the reply parser each used to
carry, on generated text holding braces, comments, strings and `assembly`."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from solrepair.corpus import pair_braces, scrub
from solrepair.executor import _ASSEMBLY_RE, _is_single_block, _without_assembly
from solrepair.repair import _FENCE_RE, extract_code_block


def depth_match(scrubbed: str, start: int) -> int | None:
    """Offset of the '}' that brings the brace depth counted from start back
    to zero, stepping one character at a time; None when none does."""
    depth = 0
    for idx in range(start, len(scrubbed)):
        if scrubbed[idx] == "{":
            depth += 1
        elif scrubbed[idx] == "}":
            depth -= 1
            if depth == 0:
                return idx
    return None


def reference_is_single_block(scrubbed: str) -> bool:
    if not (scrubbed.startswith("{") and scrubbed.endswith("}")):
        return False
    return depth_match(scrubbed, 0) == len(scrubbed) - 1


def reference_without_assembly(scrubbed: str) -> str:
    pieces, pos = [], 0
    for m in _ASSEMBLY_RE.finditer(scrubbed):
        if m.start() < pos:
            continue
        close = depth_match(scrubbed, m.end() - 1)
        end = len(scrubbed) if close is None else close + 1
        pieces += (scrubbed[pos : m.start()], " " * (end - m.start()))
        pos = end
    return "".join(pieces) + scrubbed[pos:]


def reference_extract_code_block(text: str) -> str:
    m = _FENCE_RE.search(text)
    candidate = m.group(1) if m else text
    scrubbed = scrub(candidate)
    start = scrubbed.find("{")
    if start != -1:
        close = depth_match(scrubbed, start)
        if close is not None:
            return candidate[start : close + 1]
    return candidate.strip()


BRACE_SOUP = st.sampled_from(
    ["{", "}", " { ", " } ", " ", "\n", "x", ";", " assembly { ", "assembly (\"memory-safe\") {",
     " let y := 1 ", "function f() "]
)
# Comment, string and fence markers; scrub blanks what follows most of them.
MARKERS = st.sampled_from(["//", "/*", "*/", '"', "'", "\\", "```", "```solidity\n"])
BRACE_TEXT = st.lists(BRACE_SOUP, max_size=30).map("".join) | st.lists(BRACE_SOUP | MARKERS, max_size=30).map("".join)


def first_unmatched(scrubbed: str) -> int:
    """Offset of the first brace without a partner, by a per-character stack."""
    stack: list[int] = []
    for idx, char in enumerate(scrubbed):
        if char == "{":
            stack.append(idx)
        elif char == "}":
            if not stack:
                return idx
            stack.pop()
    return stack[0] if stack else -1


@settings(max_examples=1000, deadline=None)
@given(text=BRACE_TEXT)
@example(text="{ } assembly { } } assembly { { }")
def test_property_pair_braces_equals_depth_matcher(text):
    scrubbed = scrub(text)
    opens = [idx for idx, char in enumerate(scrubbed) if char == "{"]
    closing, unmatched = pair_braces(scrubbed, 0)
    assert unmatched == first_unmatched(scrubbed)
    # Pairing stops at an unmatched '}'; every '{' before it that closes is paired.
    stop = unmatched if unmatched != -1 and scrubbed[unmatched] == "}" else len(scrubbed)
    assert closing == {
        o: depth_match(scrubbed, o) for o in opens if o < stop and depth_match(scrubbed, o) is not None
    }
    for o in opens:
        assert pair_braces(scrubbed, o)[0].get(o) == depth_match(scrubbed, o)


@settings(max_examples=1000, deadline=None)
@given(text=BRACE_TEXT)
@example(text="{ } assembly { } } assembly { { }")
@example(text="assembly { } } assembly { } x")
@example(text="{ assembly { ")
def test_property_block_checks_equal_depth_matcher(text):
    scrubbed = scrub(text)
    assert _is_single_block(scrubbed) == reference_is_single_block(scrubbed)
    assert _without_assembly(scrubbed) == reference_without_assembly(scrubbed)
    assert extract_code_block(text) == reference_extract_code_block(text)
    braced = "{" + text + "}"
    assert _is_single_block(scrub(braced)) == reference_is_single_block(scrub(braced))
