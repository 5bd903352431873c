"""Extraction, filtering, dedup, and task-file round trips."""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solrepair import corpus
from solrepair.corpus import (
    SOLIDITY_KEYWORDS,
    FunctionRecord,
    MalformedSourceError,
    SourceIndex,
    build_corpus,
    count_function_declarations,
    dedup_exact,
    extract_functions,
    filter_state_dependent,
    lex_identifiers,
    read_task_file,
    scrub,
    tokenize_terms,
    write_task_file,
    _FUNCTION_DECL_RE,
    _IDENT_RE,
    _SIZED_TYPE_RE,
    _identifiers,
)
from solrepair.rows import ConfigError

SIMPLE = """\
pragma solidity ^0.8.0;

contract Adder {
    /// Adds two numbers.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    function undocumented(uint256 a) public pure returns (uint256) {
        return a;
    }
}
"""


def make_record(body: str, comment: str = "/// doc\n", sig: str = "function f(uint256 a) public pure returns (uint256) ") -> FunctionRecord:
    return FunctionRecord(source_path="t.sol", comment=comment, signature=sig, body=body, span=(1, 1 + body.count("\n")))


class TestTokenize:
    def test_identifiers_and_punctuation(self):
        assert tokenize_terms("foo_bar(uint256 x);") == ["foo_bar", "(", "uint256", "x", ")", ";"]

    def test_case_sensitive(self):
        assert tokenize_terms("Foo foo") == ["Foo", "foo"]

    def test_whitespace_never_tokenizes(self):
        assert tokenize_terms("  \n\t ") == []

    def test_lex_identifiers_skips_keywords_and_types(self):
        idents = lex_identifiers("function add(uint256 a) public { return a + helper(msg.sender); }")
        assert idents == ["add", "a", "helper", "sender"]

    def test_lex_identifiers_order_of_first_appearance(self):
        assert lex_identifiers("b; a; b; c; a;") == ["b", "a", "c"]

    def test_lex_identifiers_ignores_comments_and_strings(self):
        assert lex_identifiers('x = "ghost"; // phantom\n') == ["x"]


def reference_identifiers(scrubbed: str) -> list[str]:
    """The list-membership loop that `_identifiers` replaced."""
    seen: list[str] = []
    for ident in _IDENT_RE.findall(scrubbed):
        if ident in SOLIDITY_KEYWORDS or _SIZED_TYPE_RE.match(ident):
            continue
        if ident not in seen:
            seen.append(ident)
    return seen


IDENT_SOUP = st.sampled_from(
    [
        "a", "b_1", "$x", "mint", "_mint", "uint", "uint256", "int8", "bytes32", "bytes", "fixed128x18",
        "ufixed", "msg", "sender", "function", "return", "constructor", "address", "Ж", "é9",
        " ", ".", "(", ")", "1", "0x1f", "\n", '"', "//", "/*", "*/",
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(IDENT_SOUP, max_size=30).map("".join))
def test_property_identifiers_match_list_loop(text):
    """Deduplicating through a dict keeps the loop's words and their order
    of first appearance, keywords and sized types left out."""
    assert _identifiers(text) == reference_identifiers(text)
    assert lex_identifiers(text) == reference_identifiers(scrub(text))


class TestScrub:
    def test_preserves_length_and_newlines(self):
        text = 'a = "b}c"; // brace }\n/* more { */ d;'
        cleaned = scrub(text)
        assert len(cleaned) == len(text)
        assert cleaned.count("\n") == text.count("\n")
        assert "}" not in cleaned.replace("d;", "")

    def test_escaped_quote_inside_string(self):
        cleaned = scrub(r'x = "a\"b"; y;')
        assert "y;" in cleaned
        assert "a" not in cleaned.split(";", 1)[0].replace("x = ", "").strip() or True
        assert cleaned.endswith("y;")

    def test_balanced_ignores_braces_in_strings(self):
        SourceIndex('contract C { function f() public { s = "}"; } }').check()


def reference_scrub(text: str) -> str:
    """The per-character scrub that the regex tokenizer replaced."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                if text[k] != "\n":
                    out[k] = " "
            i = j
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            for k in range(i, j):
                if text[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


SCRUB_ALPHABET = st.sampled_from(
    ["/", "*", "//", "/*", "*/", '"', "'", "\\", "\n", "{", "}", "a", " ", "\t", "\u00e9", "\r"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(SCRUB_ALPHABET, max_size=40).map("".join))
def test_property_scrub_matches_reference(text):
    """The regex tokenizer blanks exactly what the per-character loop did,
    unterminated comments and strings and a trailing backslash included."""
    cleaned = scrub(text)
    assert cleaned == reference_scrub(text)
    assert len(cleaned) == len(text)
    assert [i for i, ch in enumerate(cleaned) if ch == "\n"] == [
        i for i, ch in enumerate(text) if ch == "\n"
    ]


# The declaration pattern with its leading `\b`, as it was before the `f`
# moved ahead of the word-boundary check.
WORD_BOUNDARY_FUNCTION_DECL_RE = re.compile(r"\bfunction\b\s*([A-Za-z_$][A-Za-z0-9_$]*)\s*\(")
# Keywords, names and what may precede a keyword's first letter: `$`, `_`,
# digits and non-ASCII letters (`$` is no word character; `é`, `Ж` and `²`
# are, for `\b` as for `\w`).
DECL_SOUP = st.sampled_from(
    [
        "function", "fun", "x", "bar", "_", "$", "1", "é", "Ж", "²", " ", "\n", "\t", "(", ")", "{", ";",
    ]
)


def matches(found) -> list[tuple[tuple[int, int], tuple]]:
    return [(m.span(), m.groups()) for m in found]


def test_literal_led_pattern_finds_a_match_after_a_failed_candidate():
    # A candidate that fails its boundary check must not swallow the real
    # match after it.
    for text, names in [
        ("xfunction function bar(", ["bar"]), ("$function f(", ["f"]), ("éfunction f(", []), ("_function f( function g (", ["g"]),
    ]:
        assert [m.group(1) for m in _FUNCTION_DECL_RE.finditer(text)] == names, text
        assert matches(_FUNCTION_DECL_RE.finditer(text)) == matches(WORD_BOUNDARY_FUNCTION_DECL_RE.finditer(text))


@settings(max_examples=400, deadline=None)
@given(text=st.lists(DECL_SOUP, max_size=30).map("".join))
@example(text="éfunction f( Жfunction g( ²function h(")
def test_property_literal_led_function_pattern_equals_word_boundary_form(text):
    assert matches(_FUNCTION_DECL_RE.finditer(text)) == matches(WORD_BOUNDARY_FUNCTION_DECL_RE.finditer(text))


# The default owner check before its second alternative began with `\b`: a
# search must find the same match with it.
UNANCHORED_OWNER_CHECK_RE = re.compile(
    r"msg\s*\.\s*sender\s*[=!]=\s*\w*[Oo]wner\w*|\w*[Oo]wner\w*\s*[=!]=\s*msg\s*\.\s*sender"
)
OWNER_SOUP = st.sampled_from(
    ["msg", ".", "sender", " ", "\n", "==", "!=", "=", "owner", "Owner", "_owner", "newOwner", "ownerOf", "o", "wner",
     "Own", "x", "é", "Ж", "9", "$", "(", ")", ";"]
)


@settings(max_examples=1000, deadline=None)
@given(text=st.lists(OWNER_SOUP, max_size=16).map("".join))
@example(text="a.owner == msg.senderowner == msg.sender")
@example(text="éowner == msg.sender")
def test_property_owner_check_equals_the_unanchored_pattern(text):
    found, reference = corpus.OWNER_CHECK_RE.search(text), UNANCHORED_OWNER_CHECK_RE.search(text)
    assert (found and (found.span(), found.group(0))) == (reference and (reference.span(), reference.group(0)))


def reference_scan_functions(index: SourceIndex, closing: dict[int, int]) -> tuple:
    """The header scan that walked every '(', ')', ';' and '{' after the
    parameter list's '(' and stopped at the first ';' or '{' at depth 0."""
    scrubbed = index.scrubbed
    found, open_bodies = [], []
    for decl in WORD_BOUNDARY_FUNCTION_DECL_RE.finditer(scrubbed):
        kw = decl.start()
        while open_bodies and open_bodies[-1] < kw:
            open_bodies.pop()
        parens, sig_end = 0, len(scrubbed)
        for stop in re.finditer(r"[();{]", scrubbed[decl.end() - 1 :]):
            ch = stop.group()
            if ch == "(":
                parens += 1
            elif ch == ")":
                parens -= 1
            elif parens == 0:
                sig_end = decl.end() - 1 + stop.start()
                break
        body = (sig_end, closing[sig_end]) if scrubbed[sig_end : sig_end + 1] == "{" else (-1, -1)
        found.append((decl.group(1), kw, sig_end, *body, len(open_bodies)))
        if body[1] != -1:
            open_bodies.append(body[1])
    return tuple(found)


def scan_outcome(scan):
    try:
        return "value", scan()
    except KeyError as exc:  # a body-opening '{' without its '}'
        return "raise", exc.args


HEADER_PARTS = st.sampled_from(
    [
        "function f(", "function g (", "function", "uint a", ", ", "(", "(", ")", ")", ";", "{", "}", "{ }",
        " returns ", "/* ( */", "// ) ;\n", '"(;{"', "'", "\n", "x",
    ]
)


@settings(max_examples=600, deadline=None)
@given(text=st.lists(HEADER_PARTS, max_size=24).map("".join))
@example(text="function f(uint a; uint b) { }")
@example(text="function f(a { b) ; x")
@example(text="function f(g()) { function g( ) ;")
@example(text="function f() ) ; { }")
def test_property_signature_search_equals_token_walk(text):
    """The one-search header scan finds the functions the token walk found,
    parentheses nested or unbalanced, stops inside them, headers unterminated,
    comments and strings included."""
    index = SourceIndex(text)
    closing, stack = {}, []
    for m in re.finditer(r"[{}]", index.scrubbed):
        if m.group() == "{":
            stack.append(m.start())
        elif stack:
            closing[stack.pop()] = m.start()
    got = scan_outcome(
        lambda: tuple(
            (f.name, f.kw_offset, f.sig_end, f.body_start, f.body_end, f.depth) for f in index._scan_functions(closing)
        )
    )
    assert got == scan_outcome(lambda: reference_scan_functions(index, closing))


@pytest.mark.parametrize(
    "text",
    ['x "abc', "x 'a\\", "/* open\n{", "// tail", 'a "b\\"c" d', "/*/ x */ y", "s = '\\'; t"],
)
def test_scrub_edge_cases_match_reference(text):
    assert scrub(text) == reference_scrub(text)


class TestBalance:
    def test_unmatched_open_names_position(self):
        src = "contract C {\n    function f() public { }\n"
        with pytest.raises(MalformedSourceError) as exc:
            SourceIndex(src, "bad.sol").check()
        msg = str(exc.value)
        assert "bad.sol" in msg
        assert "line 1" in msg
        assert "'{'" in msg

    def test_unmatched_close_names_position(self):
        with pytest.raises(MalformedSourceError) as exc:
            SourceIndex("contract C { }\n}\n", "bad.sol").check()
        assert "line 2" in str(exc.value)
        assert "'}'" in str(exc.value)

    def test_index_defers_the_error_to_its_functions(self):
        index = SourceIndex("contract C {\n", "bad.sol")
        assert index.error == "bad.sol: unmatched '{' at line 1, column 12"
        with pytest.raises(MalformedSourceError, match="column 12"):
            index.functions

    def test_extraction_raises_on_unbalanced(self):
        file = SourceIndex.from_text("bad.sol", "contract C {\n /// d\n function f() public {\n")
        with pytest.raises(MalformedSourceError):
            extract_functions(file)


class TestExtraction:
    def test_simple_round_trip(self):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        records = extract_functions(file)
        assert len(records) == 1
        rec = records[0]
        assert rec.comment == "    /// Adds two numbers.\n"
        assert rec.signature == "function add(uint256 a, uint256 b) public pure returns (uint256) "
        assert rec.body == "{\n        return a + b;\n    }"
        assert rec.span == (4, 7)
        assert rec.name == "add"
        assert rec.task_id() == "adder.sol#L4-7"

    def test_count_includes_uncommented(self):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        assert count_function_declarations(file) == 2

    def test_bodyless_declarations_not_counted(self):
        src = "interface I {\n    /// doc\n    function f() external;\n}\n"
        file = SourceIndex.from_text("i.sol", src)
        assert count_function_declarations(file) == 0
        assert extract_functions(file) == []

    def test_nested_yul_function_skipped(self):
        src = (
            "contract C {\n"
            "    /// Doubles y.\n"
            "    function outer(uint256 y) public pure returns (uint256 r) {\n"
            "        assembly {\n"
            "            /// Yul helper.\n"
            "            function helper(v) -> z { z := add(v, v) }\n"
            "            r := helper(y)\n"
            "        }\n"
            "    }\n"
            "}\n"
        )
        file = SourceIndex.from_text("c.sol", src)
        assert [r.name for r in extract_functions(file)] == ["outer"]
        assert count_function_declarations(file) == 1
        assert [(fn.name, fn.depth) for fn in file.functions] == [("outer", 0), ("helper", 1)]

    def test_unnamed_functions_skipped(self):
        src = "contract C {\n    /// doc\n    fallback() external {}\n}\n"
        assert extract_functions(SourceIndex.from_text("c.sol", src)) == []

    def test_double_slash_comment_run(self):
        src = (
            "contract C {\n"
            "    // line one\n"
            "    // line two\n"
            "    function f() public { }\n"
            "}\n"
        )
        recs = extract_functions(SourceIndex.from_text("c.sol", src))
        assert recs[0].comment == "    // line one\n    // line two\n"
        assert recs[0].span == (2, 4)

    def test_block_comment(self):
        src = (
            "contract C {\n"
            "    /* first\n"
            "       second */\n"
            "    function f() public { }\n"
            "}\n"
        )
        recs = extract_functions(SourceIndex.from_text("c.sol", src))
        assert recs[0].comment == "    /* first\n       second */\n"

    def test_blank_line_breaks_association(self):
        src = (
            "contract C {\n"
            "    // stale note\n"
            "\n"
            "    function f() public { }\n"
            "}\n"
        )
        assert extract_functions(SourceIndex.from_text("c.sol", src)) == []

    def test_code_line_breaks_association(self):
        src = (
            "contract C {\n"
            "    // note\n"
            "    uint256 x;\n"
            "    function f() public { }\n"
            "}\n"
        )
        assert extract_functions(SourceIndex.from_text("c.sol", src)) == []

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, brk):
        # str.splitlines() also breaks at these; spans count "\n" only.
        src = (
            "contract C {\n"
            f"    // note {brk} page break\n"
            "    /// Adds.\n"
            "    function f() public { }\n"
            "}\n"
        )
        (rec,) = extract_functions(SourceIndex.from_text("c.sol", src))
        assert rec.span == (2, 4)
        assert rec.comment == f"    // note {brk} page break\n    /// Adds.\n"

    def test_rendered_re_extracts_identically(self):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        rec = extract_functions(file)[0]
        wrapper = "contract W {\n" + rec.rendered() + "\n}\n"
        again = extract_functions(SourceIndex.from_text("w.sol", wrapper))[0]
        assert again.signature == rec.signature
        assert again.body == rec.body

    def test_deterministic_and_order_stable(self):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        assert extract_functions(file) == extract_functions(file)

    def test_corpus20_round_trip(self, corpus20_dir):
        for path in sorted(corpus20_dir.glob("*.sol")):
            file = SourceIndex.from_text(str(path), path.read_text(encoding="utf-8"))
            for rec in extract_functions(file):
                lines = file.text.splitlines(keepends=True)
                slice_text = "".join(lines[rec.span[0] - 1 : rec.span[1]])
                rendered = rec.rendered()
                # Slice equals rendered text modulo per-line leading indent.
                norm = lambda s: [ln.strip() for ln in s.strip().splitlines()]
                assert norm(slice_text) == norm(rendered)


class TestFilter:
    def wrap(self, fn_text: str, extra: str = "") -> tuple[FunctionRecord, SourceIndex]:
        src = "contract C {\n" + fn_text + extra + "}\n"
        file = SourceIndex.from_text("c.sol", src)
        return extract_functions(file)[0], file

    def test_plain_function_kept(self):
        rec, file = self.wrap("    /// d\n    function f(uint256 a) public pure returns (uint256) { return a; }\n")
        assert filter_state_dependent(rec, file).keep

    def test_mint_identifier_excluded(self):
        rec, file = self.wrap("    /// d\n    function f(address to) public { _mint(to, 1); }\n")
        decision = filter_state_dependent(rec, file)
        assert not decision.keep
        assert decision.reason == "mint"
        assert decision.detail == "_mint"

    def test_mint_substring_not_excluded(self):
        rec, file = self.wrap("    /// d\n    function f(uint256 minted) public pure returns (uint256) { return minted + 1; }\n")
        assert filter_state_dependent(rec, file).keep

    def test_owner_modifier_excluded(self):
        rec, file = self.wrap("    /// d\n    function f() public onlyOwner { x = 1; }\n")
        decision = filter_state_dependent(rec, file)
        assert not decision.keep
        assert decision.reason == "owner-modifier"

    def test_owner_check_excluded_both_orders(self):
        for guard in ("msg.sender == owner", "owner == msg.sender"):
            rec, file = self.wrap(f'    /// d\n    function f() public {{ require({guard}, "no"); }}\n')
            decision = filter_state_dependent(rec, file)
            assert not decision.keep
            assert decision.reason == "owner-check"

    def test_constructor_reference_excluded(self):
        rec, file = self.wrap("    /// d\n    function f() public { Token t = Token.constructor(); }\n")
        decision = filter_state_dependent(rec, file)
        assert not decision.keep
        assert decision.reason == "constructor"

    def test_transitive_exclusion(self):
        extra = "    function drain() internal onlyOwner { x = 0; }\n"
        rec, file = self.wrap("    /// d\n    function f() public { drain(); }\n", extra)
        decision = filter_state_dependent(rec, file)
        assert not decision.keep
        assert decision.reason == "owner-modifier"
        assert decision.detail == "via drain: onlyOwner"

    def test_reference_cycle_terminates(self):
        extra = "    function g() internal { f(); }\n"
        rec, file = self.wrap("    /// d\n    function f() public { g(); }\n", extra)
        assert filter_state_dependent(rec, file).keep

    def test_call_reaches_every_overload(self):
        extra = (
            "    function pay(address to) internal { _mint(to, 1); }\n"
            "    function pay(uint256 a) internal { a; }\n"
        )
        rec, file = self.wrap("    /// d\n    function f(address to) public { pay(to); }\n", extra)
        decision = filter_state_dependent(rec, file)
        assert (decision.keep, decision.reason, decision.detail) == (False, "mint", "via pay: _mint")

    def test_call_to_own_overload_is_walked(self):
        extra = "    function g(address to) internal { _mint(to, 2); }\n"
        rec, file = self.wrap("    /// d\n    function g(uint256 a) public { g(msg.sender); }\n", extra)
        decision = filter_state_dependent(rec, file)
        assert (decision.keep, decision.reason, decision.detail) == (False, "mint", "via g: _mint")

    def test_record_of_another_file_raises(self):
        rec, _ = self.wrap("    /// d\n    function f() public { x = 1; }\n")
        other = SourceIndex.from_text("other.sol", "contract D {\n    function g() public { x = 1; }\n}\n")
        with pytest.raises(ValueError, match=re.escape(rec.task_id())):
            filter_state_dependent(rec, other)

    @staticmethod
    def chain(n: int, k: int) -> SourceIndex:
        """N commented records that each call the head of a K-function chain."""
        parts = ["contract C {\n"]
        for i in range(n):
            parts.append(f"    /// r{i}\n    function r{i}(uint256 a) public returns (uint256) {{ return c0(a) + {i}; }}\n")
        for j in range(k):
            step = f"c{j + 1}(a)" if j + 1 < k else "a"
            parts.append(f"    function c{j}(uint256 a) internal returns (uint256) {{ return {step}; }}\n")
        parts.append("}\n")
        return SourceIndex.from_text("chain.sol", "".join(parts))

    def test_each_function_is_scanned_once_per_build(self, monkeypatch):
        """N records calling the head of a K-function chain cost N + K
        deny-list scans, not one walk of the chain per record."""
        n, k = 40, 30
        scans = []
        match = corpus._match_deny_list
        monkeypatch.setattr(corpus, "_match_deny_list", lambda *args: scans.append(1) or match(*args))
        kept, report = build_corpus([self.chain(n, k)])
        assert len(kept) == report.retained == n
        assert len(scans) == n + k

    def test_walks_stop_at_functions_proven_clean(self, monkeypatch):
        """The first record's walk proves the chain clean, so each later walk
        steps to the chain's head and stops: O(N + K) steps in all, not the
        N * (K + 1) of a whole walk per record."""
        n = k = 400
        steps = []

        class CountingDeque(deque):
            def popleft(self):
                steps.append(1)
                return super().popleft()

        monkeypatch.setattr(corpus, "deque", CountingDeque)
        kept, report = build_corpus([self.chain(n, k)])
        assert len(kept) == report.retained == n
        assert len(steps) == (k + 1) + 2 * (n - 1)


def reference_match(signature: str, body: str) -> tuple[str, str] | None:
    """The deny-list match over scrubbed texts, one word list per check."""
    idents = set(reference_identifiers(body))
    for mint in corpus.MINT_IDENTIFIERS:
        if mint in idents:
            return "mint", mint
    for modifier in corpus.OWNER_MODIFIERS:
        if modifier in _IDENT_RE.findall(signature):
            return "owner-modifier", modifier
    m = corpus.OWNER_CHECK_RE.search(body)
    if m:
        return "owner-check", m.group(0)
    for deny in corpus.DENY_IDENTIFIERS:
        if deny in _IDENT_RE.findall(body):
            return "constructor", deny
    return None


def reference_name_walk(record: FunctionRecord, file: SourceIndex) -> tuple:
    """The walk by name, the last declaration of a name winning, each
    reached function scanned afresh for each record."""
    hit = reference_match(scrub(record.signature), scrub(record.body))
    if hit:
        return False, hit[0], hit[1]
    functions = {fn.name: fn for fn in file.functions if fn.has_body}
    visited = {record.name}
    frontier = [i for i in reference_identifiers(scrub(record.body)) if i in functions and i not in visited]
    while frontier:
        name = frontier.pop(0)
        if name in visited:
            continue
        visited.add(name)
        fn = functions[name]
        body = scrub(file.text[fn.body_start : fn.body_end + 1])
        hit = reference_match(scrub(file.text[fn.kw_offset : fn.body_start]), body)
        if hit:
            return False, hit[0], f"via {name}: {hit[1]}"
        frontier.extend(i for i in reference_identifiers(body) if i in functions and i not in visited)
    return True, None, None


def reference_overload_walk(record: FunctionRecord, file: SourceIndex) -> tuple:
    """The walk by location: a named call reaches every body-bearing
    function of that name, each scanned afresh."""
    bodies = [fn for fn in file.functions if fn.has_body]
    own = next(fn for fn in bodies if file.text[fn.kw_offset : fn.body_end + 1] == record.signature + record.body)
    visited, frontier = [own], [own]
    while frontier:
        fn = frontier.pop(0)
        body = scrub(file.text[fn.body_start : fn.body_end + 1])
        hit = reference_match(scrub(file.text[fn.kw_offset : fn.body_start]), body)
        if hit:
            return False, hit[0], hit[1] if fn is own else f"via {fn.name}: {hit[1]}"
        for callee in (g for name in reference_identifiers(body) for g in bodies if g.name == name):
            if callee not in visited:
                visited.append(callee)
                frontier.append(callee)
    return True, None, None


DENY_STATEMENTS = ["_mint(a, 1);", "mint(a);", "require(msg.sender == owner);", "Token.constructor();"]
PARAMETERS = ["uint256 a", "address a", "bytes32 a", "bool a", "int8 a", "string memory a", "uint8 a"]


@st.composite
def call_graph_sources(draw, overloads: bool) -> str:
    """Two contracts of functions that call each other, cycles and self
    calls included; some trip the deny-list, some are bodiless, and with
    `overloads` several share a name."""
    n = draw(st.integers(min_value=2, max_value=7))
    names = draw(st.lists(st.sampled_from("fgh"), min_size=n, max_size=n)) if overloads else [f"fn{i}" for i in range(n)]
    split = draw(st.integers(min_value=0, max_value=n))
    parts = ["contract A {\n"]
    for i, name in enumerate(names):
        if i == split:
            parts.append("}\n\ncontract B {\n")
        param = PARAMETERS[names[:i].count(name)]
        modifier = draw(st.sampled_from(["", "", "", "onlyOwner "]))
        if draw(st.booleans()):
            parts.append(f"    /// {name} {i}\n")
        if not draw(st.sampled_from([True, True, True, False])):
            parts.append(f"    function {name}({param}) external {modifier};\n")
            continue
        calls = " ".join(f"{names[j]}(a);" for j in draw(st.lists(st.integers(0, n - 1), max_size=3)))
        deny = draw(st.sampled_from(["", "", "", ""] + DENY_STATEMENTS))
        parts.append(f"    function {name}({param}) public {modifier}{{\n        {calls}\n        {deny}\n    }}\n")
    parts.append("}\n")
    return "".join(parts)


def assert_filter_matches(text: str, reference) -> None:
    """The filter decides as the reference, under the deny-list and under
    one whose mint identifiers are the function names `fn1` and `g`, so
    that calls to them are rejected; each over a fresh index, since an
    index keeps the scans of one deny-list."""
    for mints in (corpus.MINT_IDENTIFIERS, ("fn1", "g")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "MINT_IDENTIFIERS", mints)
            file = SourceIndex.from_text("g.sol", text)
            for record in extract_functions(file):
                decision = filter_state_dependent(record, file)
                assert (decision.keep, decision.reason, decision.detail) == reference(record, file), record.task_id()


@settings(max_examples=100, deadline=None)
@given(call_graph_sources(overloads=False))
def test_property_filter_without_overloads_matches_name_walk(text):
    """Where every name has one body, walking by location and scanning
    each function once decides as the walk by name did."""
    assert_filter_matches(text, reference_name_walk)


@settings(max_examples=100, deadline=None)
@given(call_graph_sources(overloads=True))
def test_property_filter_with_overloads_matches_fresh_walk(text):
    """With overloads, the cached scans decide as a walk that rescans
    every overload of every called name."""
    assert_filter_matches(text, reference_overload_walk)


class TestDedup:
    def test_exact_duplicates_removed_first_kept(self):
        a = make_record("{ return a; }")
        b = replace(a, source_path="other.sol")
        kept, report = dedup_exact([a, b])
        assert kept == [a]
        assert report.dedup_removed == 1
        assert report.duplication_rate == pytest.approx(0.5)

    def test_trailing_whitespace_insensitive(self):
        a = make_record("{\n    return a;\n}")
        b = make_record("{\n    return a;   \n}")
        kept, _ = dedup_exact([a, b])
        assert kept == [a]

    def test_leading_indentation_significant(self):
        a = make_record("{\n    return a;\n}")
        b = make_record("{\n        return a;\n}")
        kept, _ = dedup_exact([a, b])
        assert len(kept) == 2

    def test_constructed_rate(self):
        uniques = [make_record("{ return %d; }" % i) for i in range(13)]
        pool = list(uniques)
        i = 0
        while len(pool) < 100:
            pool.append(replace(uniques[i % 13], source_path=f"dup{i}.sol"))
            i += 1
        kept, report = dedup_exact(pool)
        assert len(kept) == 13
        assert report.dedup_removed == 87
        assert report.duplication_rate == pytest.approx(0.87, abs=1e-12)

    def test_empty_pool(self):
        kept, report = dedup_exact([])
        assert kept == []
        assert report.duplication_rate == 0.0


class TestBuildCorpus:
    def test_corpus20_counts(self, corpus20_dir):
        files = [SourceIndex.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(corpus20_dir.glob("*.sol"))]
        kept, report = build_corpus(files)
        assert report.total_extracted == 110
        assert report.excluded_no_comment == 5
        assert report.excluded_state_dependent == 3
        assert report.excluded_mint == 2
        assert report.dedup_removed == 87
        assert report.retained == 13
        assert len(kept) == 13
        assert report.duplication_rate == pytest.approx(0.87, abs=1e-12)

    def test_report_invariant(self, corpus20_dir):
        files = [SourceIndex.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(corpus20_dir.glob("*.sol"))]
        _, report = build_corpus(files)
        assert report.retained + report.exclusions() + report.dedup_removed == report.total_extracted

    def test_report_json_round_trip(self, corpus20_dir):
        files = [SourceIndex.from_text(str(p), p.read_text(encoding="utf-8")) for p in sorted(corpus20_dir.glob("*.sol"))]
        _, report = build_corpus(files)
        payload = report.to_json()
        assert payload["schema"] == "corpus-stats@1"
        from solrepair.corpus import FilterReport

        assert FilterReport.from_json(json.loads(json.dumps(payload))) == report


class TestTaskFile:
    def test_round_trip(self, tmp_path):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        records = extract_functions(file)
        path = tmp_path / "tasks.jsonl"
        assert write_task_file(records, path) == 1
        assert read_task_file(path) == records

    @pytest.mark.parametrize(
        "edit,complaint",
        [
            (
                lambda rows: [{**rows[0], "id": "adder.sol#add"}],
                "line 1: id 'adder.sol#add' should be 'adder.sol#L4-7' (<source_path>#L<start>-<end>)",
            ),
            (
                lambda rows: [{**rows[0], "span": [5, 7]}],
                "line 1: id 'adder.sol#L4-7' should be 'adder.sol#L5-7' (<source_path>#L<start>-<end>)",
            ),
            (lambda rows: [rows[0], rows[0]], "line 2: id 'adder.sol#L4-7' repeats line 1"),
        ],
        ids=["foreign-id", "span-not-in-id", "repeated-id"],
    )
    def test_row_whose_id_is_not_its_own_or_repeats_is_rejected(self, tmp_path, edit, complaint):
        path = tmp_path / "tasks.jsonl"
        write_task_file(extract_functions(SourceIndex.from_text("adder.sol", SIMPLE)), path)
        rows = edit([json.loads(line) for line in path.read_text().splitlines()])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ConfigError) as info:
            read_task_file(path)
        assert str(info.value) == f"{path}, {complaint}"

    def test_rows_are_sorted_compact_json(self, tmp_path):
        file = SourceIndex.from_text("adder.sol", SIMPLE)
        path = tmp_path / "tasks.jsonl"
        write_task_file(extract_functions(file), path)
        line = path.read_text().splitlines()[0]
        row = json.loads(line)
        assert list(row) == sorted(row)
        assert json.dumps(row, sort_keys=True, separators=(",", ":")) == line


NAME_POOL = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@settings(max_examples=40, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=999),
)
def test_property_commented_functions_all_extracted(flags, seed):
    """Every commented function is found; uncommented ones are counted only."""
    parts = ["contract Gen {\n"]
    expected = []
    for idx, commented in enumerate(flags):
        name = f"{NAME_POOL[idx % len(NAME_POOL)]}{seed}_{idx}"
        if commented:
            parts.append(f"    /// doc {idx}\n")
            expected.append(name)
        parts.append(
            f"    function {name}(uint256 a) public pure returns (uint256) {{\n"
            f"        return a + {idx};\n"
            f"    }}\n"
        )
    parts.append("}\n")
    file = SourceIndex.from_text("gen.sol", "".join(parts))
    records = extract_functions(file)
    assert [r.name for r in records] == expected
    assert count_function_declarations(file) == len(flags)
