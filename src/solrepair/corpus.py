"""Corpus construction for Solidity function-completion tasks.

Extracts commented functions from .sol sources, filters out functions whose
behaviour depends on chain state or privileged callers, removes exact
duplicates, and writes the retained records to a JSONL task file.

Each source is parsed once, into a `SourceIndex`. Besides its functions,
the index holds a declaration table, built on first read: each declaration
at file level and directly in a contract, interface or library, with its
kind, name, enclosing contract and offsets. The names a function sees from
outside its body (`SourceIndex.visible`) are a fold of that table. The
declaration grammar here is the one the executor's body reader uses too.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .rows import ConfigError, Record, read_rows

STATS_SCHEMA = "corpus-stats@1"

# Identifier runs and single punctuation marks; shared by retrieval and
# surface metrics so scores are comparable across modules.
_TERM_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


# The name after the `function` keyword, past the whitespace and comments
# between them, as _FUNCTION_DECL_RE reads it in scrubbed text. Each comment
# form ends at its first terminator, so no retry finds a name inside one.
_FUNCTION_NAME_RE = re.compile(r"function\b(?:\s|//[^\n]*\n|/\*(?:[^*]|\*(?!/))*\*/)*([A-Za-z_$][A-Za-z0-9_$]*)")

# Reserved words and built-in globals that never count as user identifiers.
SOLIDITY_KEYWORDS = frozenset(
    """
    abstract address anonymous as assembly assert bool break bytes calldata
    case catch constant constructor continue contract days default delete do
    else emit enum error ether event external fallback false final for from
    function gwei hours if immutable import indexed interface internal is
    let library mapping memory minutes modifier new override payable pragma
    private public pure receive require return returns revert seconds
    solidity storage string struct super switch this throw true try type
    unchecked using view virtual weeks wei while
    abi block msg tx now gasleft keccak256 sha256 ripemd160 ecrecover
    addmod mulmod selfdestruct blockhash unicode
    """.split()
)
_SIZED_TYPE_RE = re.compile(r"^(?:u?int\d*|bytes\d*|u?fixed\d*x?\d*)$")
# The letters a word that _SIZED_TYPE_RE matches can start with.
_SIZED_TYPE_FIRST = "uibf"


class MalformedSourceError(ValueError):
    """Raised when source text cannot be scanned (unbalanced braces)."""


class MalformedRecordError(ValueError):
    """Raised when a function record is malformed: no comment, a bad span or no name."""


def tokenize_terms(text: str) -> list[str]:
    """Split text into identifier runs and single punctuation marks.

    Case-sensitive; whitespace never yields tokens.
    """
    return _TERM_RE.findall(text)


def lex_identifiers(text: str) -> list[str]:
    """Identifiers in order of first appearance, keywords and literals removed.

    Comments and string literals are blanked before lexing.
    """
    return _identifiers(scrub(text))


def _identifiers(scrubbed: str) -> list[str]:
    return _unreserved(dict.fromkeys(_IDENT_RE.findall(scrubbed)))


def _unreserved(words: Iterable[str]) -> list[str]:
    return [
        w for w in words
        if w not in SOLIDITY_KEYWORDS and not (w[0] in _SIZED_TYPE_FIRST and _SIZED_TYPE_RE.match(w))
    ]


# Comments and string literals. Each runs to its terminator or, when
# unterminated, to the end of the text; a backslash escapes any one character
# inside a string, a trailing one included.
_SCRUB_RE = re.compile(
    r"//[^\n]*"
    r"|/\*(?:.*?\*/|.*)"
    r'|"[^"\\]*(?:\\.?[^"\\]*)*"?'
    r"|'[^'\\]*(?:\\.?[^'\\]*)*'?",
    re.S,
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")
# A named declaration up to its parameter list; unnamed fallback/receive
# style declarations and function types never match. `\bfunction` with the
# `f` moved before the word-boundary check, a lookbehind on `\w` as Unicode
# as `\b` is: led by a literal, the pattern lets `re` skip to candidates.
_FUNCTION_DECL_RE = re.compile(r"f(?<!\wf)unction\b\s*([A-Za-z_$][A-Za-z0-9_$]*)\s*\(")

_NAME = r"[A-Za-z_$][A-Za-z0-9_$]*"
# Parenthesized text within one statement, nested three deep at most.
_PARENS = r"\((?:[^(){};]|\((?:[^(){};]|\([^(){};]*\))*\))*\)"
# A declaration, one rule for state variables, constants, immutables and
# locals: a type, qualifiers (a data location; for a state variable, also
# visibility and mutability), then the name. The type is a `mapping(...)`,
# a function type or a name path (its first name is group "first"), with
# `[...]` suffixes. No part runs past the end of a statement.
_DECLARATION_RE = re.compile(
    rf"\s*(?:mapping\s*{_PARENS}|function\s*{_PARENS}(?:\s*(?:internal|external|pure|view|payable))*"
    rf"(?:\s*returns\s*{_PARENS})?|(?P<first>{_NAME})(?:\s*\.\s*{_NAME})*(?:\s+payable)?)(?:\s*\[[^\[\]{{}};]*\])*"
    r"(?:\s+(?:memory|storage|calldata|transient|public|private|internal|constant|immutable|override))*"
    rf"\s+(?P<name>{_NAME})(?=\s*(?:[=;,)]|$))"
)
# Keywords that cannot lead a declaration's type.
_NOT_TYPES = SOLIDITY_KEYWORDS - {"address", "bool", "string", "bytes", "mapping", "function"}


def _is_declaration(m: re.Match | None) -> bool:
    return m is not None and m["first"] not in _NOT_TYPES and m["name"] not in SOLIDITY_KEYWORDS


# A declaration's header, from its first character to its ';' or '{'.
_CHUNK_RE = re.compile(r"[^;{]*")
_SPACE_RE = re.compile(r"\s*")
# A declaration that a keyword leads; any other is a variable's or none.
_MEMBER_RE = re.compile(
    rf"\s*(?:abstract\s+)?(contract|interface|library|struct|enum|function|modifier|event|error|type)\s+({_NAME})"
)
_CONTAINERS = ("contract", "interface", "library")
_PRIVATE_RE = re.compile(r"\bprivate\b")
_OPEN_RE = re.compile(r"i(?<!\wi)(?:mport|s)\b")  # `\b(?:import|is)\b`, led by a literal


def _blank(match: re.Match) -> str:
    token = match.group()
    if "\n" not in token:
        return " " * len(token)
    return _NOT_NEWLINE_RE.sub(" ", token)


def scrub(text: str) -> str:
    """Blank out comments and string literals, preserving length and newlines.

    Brace matching and identifier lexing run on the scrubbed text so literals
    cannot confuse them.
    """
    return _SCRUB_RE.sub(_blank, text)


def pair_braces(scrubbed: str, start: int) -> tuple[dict[int, int], int]:
    """The offset of each '{' from start on -> the offset of its '}', paired
    in order, and the offset of the first unmatched brace (-1 if none).

    Pairing stops at an unmatched '}', so the map then holds only the
    braces before it. Every search runs in `str.find`; Python steps once
    per brace. SourceIndex, the executor's block checks and the reply
    parser all pair braces here, on scrubbed text.
    """
    find = scrubbed.find
    closing: dict[int, int] = {}
    stack: list[int] = []
    pos = start
    while (close := find("}", pos)) != -1:
        opening = find("{", pos, close)
        while opening != -1:
            stack.append(opening)
            opening = find("{", opening + 1, close)
        if not stack:
            return closing, close
        closing[stack.pop()] = close
        pos = close + 1
    return closing, stack[0] if stack else find("{", pos)


class IndexedFunction(NamedTuple):
    """Char-offset view of one function declaration in a source text."""

    name: str
    kw_offset: int        # offset of the 'function' keyword
    sig_end: int          # offset of the '{' or ';' ending the header (len(text) if neither)
    body_start: int       # offset of '{' (-1 when the declaration has no body)
    body_end: int         # offset of matching '}' (-1 when no body)
    depth: int            # number of function bodies around the declaration

    @property
    def has_body(self) -> bool:
        return self.body_start != -1

    @property
    def end(self) -> int:
        """Offset of the declaration's last character."""
        return self.body_end if self.has_body else self.sig_end


class Declaration(NamedTuple):
    """One declaration at file level or directly in the body of a contract,
    interface or library; its line is `index.line_of(header)`."""

    kind: str  # contract, interface, library, struct, enum, function, modifier, event, error, type or variable
    name: str
    contract: str | None  # the enclosing contract's name; None at file level
    header: int  # offset of the header's first character
    body: int  # offset of the body's '{' (-1 when the declaration has none)


# Builds an IndexedFunction from a tuple of its fields without the Python
# frame of the NamedTuple's __new__.
_new_function = tuple.__new__


class SourceIndex:
    """One parse of a source text, shared by build, splice and verify.

    Holds the scrubbed text, line starts, the offset of each '{' -> that of
    its '}' (`closing`) and every named function declaration, keyed by
    location; one brace-matching pass finds the bodies and is also the
    balance check. Unbalanced text is indexed without functions; asking for
    them, or for the declaration table, raises MalformedSourceError naming
    the first unmatched brace.

    Every character-level search runs in a `str` method or a regex (scrub,
    declarations); Python steps once per brace and once per declaration.
    """

    @classmethod
    def from_text(cls, path: str, text: str) -> SourceIndex:
        """The index of `text`, the source read from `path`."""
        return cls(text, path)

    def __init__(self, text: str, path: str = "<source>") -> None:
        self.text = text
        self.path = path
        self.scrubbed = scrub(text)
        # Line k starts after the k pieces before it and their k newlines.
        pieces = text.split("\n")
        self.line_starts = list(map(add, accumulate(map(len, pieces), initial=0), range(len(pieces))))
        self.closing, unmatched = pair_braces(self.scrubbed, 0)
        self.error = None if unmatched == -1 else self._unmatched(self.scrubbed[unmatched], unmatched)
        self._functions = () if self.error else self._scan_functions(self.closing)
        self._by_end_line: dict[int, list[IndexedFunction]] = {}
        starts = self.line_starts
        for fn in self._functions:
            if fn.has_body:
                self._by_end_line.setdefault(bisect_right(starts, fn.body_end), []).append(fn)
        # The build filter's _scan of each function, by body_start; _CLEAN
        # for a function whose whole reach a walk found clean.
        self.scans: dict[int, tuple] = {}

    def line_of(self, offset: int) -> int:
        """1-based line holding offset."""
        return bisect_right(self.line_starts, offset)

    def _unmatched(self, brace: str, offset: int) -> str:
        line = self.line_of(offset)
        col = offset - self.line_starts[line - 1] + 1
        return f"{self.path}: unmatched '{brace}' at line {line}, column {col}"

    def check(self) -> None:
        """Raise MalformedSourceError naming the first unmatched brace."""
        if self.error is not None:
            raise MalformedSourceError(self.error)

    @property
    def functions(self) -> tuple[IndexedFunction, ...]:
        """Every named function declaration, in source order."""
        self.check()
        return self._functions

    def _scan_functions(self, closing: dict[int, int]) -> tuple[IndexedFunction, ...]:
        scrubbed = self.scrubbed
        find, count, size = scrubbed.find, scrubbed.count, len(scrubbed)
        found: list[IndexedFunction] = []
        open_bodies: list[int] = []  # body ends of the function bodies around the scan point
        # The first ';' at or after `searched` (size if none): the answer for
        # any search point from `searched` up to it.
        searched = semi = -1
        for decl in _FUNCTION_DECL_RE.finditer(scrubbed):
            kw = decl.start()
            while open_bodies and open_bodies[-1] < kw:
                open_bodies.pop()
            # The header ends at the first ';' or '{' outside its parentheses:
            # the first stop with as many '(' as ')' since the parameter
            # list's '('. Counts run on from one candidate stop to the next.
            # A '{' is looked for only up to the next ';', so a run of
            # bodiless declarations is scanned once.
            sig_end = size
            pos = start = decl.end() - 1
            depth = 0
            while True:
                if not searched <= start <= semi:
                    searched, semi = start, find(";", start)
                    if semi == -1:
                        semi = size
                stop = find("{", start, semi)
                if stop == -1:
                    stop = semi
                if stop == size:
                    break
                depth += count("(", pos, stop) - count(")", pos, stop)
                if depth == 0:
                    sig_end = stop
                    break
                pos, start = stop, stop + 1
            nesting = len(open_bodies)
            if sig_end < size and scrubbed[sig_end] == "{":
                body = (sig_end, closing[sig_end])
                open_bodies.append(body[1])
            else:
                body = (-1, -1)
            found.append(_new_function(IndexedFunction, (decl[1], kw, sig_end, *body, nesting)))
        return tuple(found)

    def find(self, name: str, first_line: int, last_line: int) -> IndexedFunction | None:
        """The body-bearing function `name` declared within, and ending on the
        last of, the given 1-based lines; the first in source order."""
        for fn in self._by_end_line.get(last_line, ()):
            if fn.name == name and self.line_of(fn.kw_offset) >= first_line:
                return fn
        return None

    @cached_property
    def overloads(self) -> dict[str, list[IndexedFunction]]:
        """Body-bearing functions by name, every overload in source order."""
        named: dict[str, list[IndexedFunction]] = {}
        for fn in self.functions:
            if fn.has_body:
                named.setdefault(fn.name, []).append(fn)
        return named

    @cached_property
    def declarations(self) -> tuple[Declaration, ...]:
        """Every declaration at file level, each followed by those directly
        in its body when it is a contract, interface or library, in source
        order. A variable is a declaration that no keyword leads."""
        self.check()
        table: list[Declaration] = []
        for decl in self._members(0, len(self.scrubbed), None):
            table.append(decl)
            if decl.kind in _CONTAINERS and decl.body != -1:
                table += self._members(decl.body + 1, self.closing[decl.body], decl.name)
        return tuple(table)

    def _members(self, start: int, end: int, contract: str | None) -> Iterator[Declaration]:
        """The declarations directly in scrubbed[start:end], skipping the
        bodies in it."""
        scrubbed = self.scrubbed
        pos = start
        while pos < end:
            stop = _CHUNK_RE.match(scrubbed, pos, end).end()
            body = stop if scrubbed.startswith("{", stop, end) else -1
            header = _SPACE_RE.match(scrubbed, pos, stop).end()
            if m := _MEMBER_RE.match(scrubbed, pos, stop):
                yield Declaration(m[1], m[2], contract, header, body)
            elif _is_declaration(d := _DECLARATION_RE.match(scrubbed, pos, stop)):
                yield Declaration("variable", d["name"], contract, header, -1)
            pos = stop + 1 if body == -1 else self.closing[body] + 1

    @cached_property
    def self_contained(self) -> bool:
        """True when the source neither imports nor has a contract,
        interface or library that inherits. An `is` in any other
        declaration, as in `type Price is uint256;`, opens nothing."""
        scrubbed = self.scrubbed
        for m in _OPEN_RE.finditer(scrubbed):
            # An `is` is in the declaration that starts after the last ';',
            # '{' or '}' before it, as _members reads declarations.
            start = max(scrubbed.rfind(c, 0, m.start()) for c in ";{}") + 1
            header = _MEMBER_RE.match(scrubbed, start, m.start())
            if m[0] == "import" or header and header[1] in _CONTAINERS:
                return False
        return True

    def visible(self, offset: int) -> frozenset[str] | None:
        """The names a function declared at offset sees from outside its
        body: the file-level names and, in a contract, interface or library,
        its members and those its bases pass on. None where they cannot be
        decided: the source imports, or a base is not declared before it."""
        return next(names for start, end, names in self._scopes if start <= offset <= end)

    @cached_property
    def _scopes(self) -> list[tuple[int, int, frozenset[str] | None]]:
        """The body span of each contract, interface and library with the
        names its functions see, then the whole text's with the file-level
        names; a fold of the table."""
        scrubbed, closing = self.scrubbed, self.closing
        if re.search(r"\bimport\b", scrubbed):
            return [(0, len(scrubbed), None)]
        # Each contract's span, the names its functions see from it and its
        # bases, and the names it passes on: all but its `private` members.
        contracts: dict[str, tuple] = {}
        seen = passed = None
        for decl in self.declarations:
            if decl.contract is None:
                seen = passed = None
                if decl.kind in _CONTAINERS and decl.body != -1:
                    end = closing[decl.body]
                    # solc takes a base only when it is declared before what inherits it.
                    bases = re.split(r"\bis\b", re.sub(_PARENS, "", scrubbed[decl.header : decl.body]), 1)[1:]
                    above = [contracts.get(base.strip(), (None,) * 4)[3] for base in bases and bases[0].split(",")]
                    if None not in above:
                        passed = set().union(*above)
                        seen = set(passed)
                    contracts[decl.name] = (decl.body, end, seen, passed)
            elif passed is not None:
                seen.add(decl.name)
                header = scrubbed[decl.header : _CHUNK_RE.match(scrubbed, decl.header, end).end()]
                if not _PRIVATE_RE.search(header):
                    passed.add(decl.name)
        outer = frozenset(decl.name for decl in self.declarations if decl.contract is None)
        spans = [(start, end, None if seen is None else outer | seen) for start, end, seen, _ in contracts.values()]
        return [*spans, (0, len(scrubbed), outer)]


# The earlier name of SourceIndex, kept for callers that still import it.
SourceFile = SourceIndex


@dataclass(frozen=True)
class FunctionRecord(Record):
    """One extracted function: comment block, signature, body, and location;
    a task file row is its JSON plus the derived `id`.

    The span is 1-based and inclusive, covering comment through closing
    brace. Concatenating comment + signature + body reproduces the source
    slice for that span, modulo leading indentation per line.
    """

    DERIVED = ("id",)

    source_path: str
    comment: str
    signature: str
    body: str
    span: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.span) != 2:
            raise MalformedRecordError(f"expected 2 items, got {len(self.span)} at key 'span'")
        if not self.comment.strip():
            raise MalformedRecordError(f"{self.source_path}: empty comment block")
        if self.span[0] < 1 or self.span[1] < self.span[0]:
            raise MalformedRecordError(f"{self.source_path}: invalid span {self.span}")

    @classmethod
    def from_json(cls, payload: dict) -> FunctionRecord:
        """The record a task row holds. The row's `id` must be a string;
        read_task_file checks that it is the record's task_id()."""
        if isinstance(payload, dict):
            if "id" not in payload:
                raise TypeError("missing key 'id'")
            if type(payload["id"]) is not str:
                raise TypeError(f"expected str, got {type(payload['id']).__name__} at key 'id'")
        return super().from_json(payload)

    @property
    def name(self) -> str:
        m = _FUNCTION_NAME_RE.search(self.signature)
        if m is None:
            raise MalformedRecordError(f"{self.source_path}: no function name in signature")
        return m.group(1)

    def rendered(self) -> str:
        return self.comment + self.signature + self.body

    def dedup_key(self) -> str:
        # Trailing whitespace per line is insignificant for duplicate detection.
        return "\n".join(line.rstrip() for line in self.rendered().splitlines())

    def task_id(self) -> str:
        return f"{self.source_path}#L{self.span[0]}-{self.span[1]}"

    # The task row's derived key.
    id = property(task_id)


def _comment_block_top(index: SourceIndex, sig_line: int) -> int:
    """First line of the comment block directly above sig_line, else sig_line.

    A block is a maximal run of `//`/`///` lines or a `/* .. */` block with
    no blank line between it and the signature. Anything else (blank line,
    code) terminates the walk upward. Lines end at "\n" only, as spans do.
    """
    text, starts = index.text, index.line_starts

    def line(n: int) -> str:  # 1-based, above sig_line
        return text[starts[n - 1] : starts[n]]

    top = sig_line
    i = sig_line - 1
    while i >= 1:
        stripped = line(i).strip()
        if not stripped:
            break
        if stripped.startswith("//"):
            top = i
            i -= 1
            continue
        if stripped.endswith("*/"):
            j = i
            while j >= 1:
                lead = line(j).lstrip()
                if lead.startswith("/*"):
                    break
                if not lead:
                    j = 0
                    break
                j -= 1
            if j >= 1 and line(j).lstrip().startswith("/*"):
                top = j
                i = j - 1
                continue
        break
    return top


def extract_functions(index: SourceIndex) -> list[FunctionRecord]:
    """Extract every commented, body-bearing function from a source.

    Deterministic and order-stable. Functions without a directly preceding
    comment block are omitted, and so are functions nested in another
    function's body (Yul functions inside `assembly`); unbalanced sources
    raise MalformedSourceError.
    """
    text, starts = index.text, index.line_starts
    records: list[FunctionRecord] = []
    for fn in index.functions:
        if not fn.has_body or fn.depth:
            continue
        sig_line = bisect_right(starts, fn.kw_offset)
        top = _comment_block_top(index, sig_line)
        if top == sig_line:
            continue
        records.append(
            FunctionRecord(
                source_path=index.path,
                comment=text[starts[top - 1] : starts[sig_line - 1]],
                signature=text[fn.kw_offset : fn.body_start],
                body=text[fn.body_start : fn.body_end + 1],
                span=(top, bisect_right(starts, fn.body_end)),
            )
        )
    return records


def count_function_declarations(index: SourceIndex) -> int:
    """Number of body-bearing, non-nested function declarations, commented or not."""
    return sum(1 for fn in index.functions if fn.has_body and not fn.depth)


# The deny-list of state- or privilege-dependent functions: a mint call, an
# owner-only modifier, a comparison of msg.sender with an owner, or a
# reference to a constructor.
MINT_IDENTIFIERS = ("mint", "_mint")
OWNER_MODIFIERS = ("onlyOwner",)
OWNER_CHECK_RE = re.compile(
    r"msg\s*\.\s*sender\s*[=!]=\s*\w*[Oo]wner\w*"
    r"|\b\w*[Oo]wner\w*\s*[=!]=\s*msg\s*\.\s*sender"
)
# A word every OWNER_CHECK_RE match holds: a body without it is not searched.
OWNER_CHECK_LITERAL = "sender"
DENY_IDENTIFIERS = ("constructor",)


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    reason: str | None = None
    detail: str | None = None


# The one decision of every kept record.
_KEEP = FilterDecision(keep=True)


def _match_deny_list(signature: str, body: str, words: dict[str, None], idents: list[str]) -> tuple[str, str] | None:
    """Return (reason, detail) when the function trips the deny-list.

    Both texts come scrubbed; `words` are the body's distinct words and
    `idents` those of them that are not reserved.
    """
    for mint in MINT_IDENTIFIERS:
        if mint in idents:
            return "mint", mint
    for modifier in OWNER_MODIFIERS:
        # The substring test spares most signatures their word list.
        if modifier in signature and modifier in _IDENT_RE.findall(signature):
            return "owner-modifier", modifier
    if OWNER_CHECK_LITERAL in body:
        m = OWNER_CHECK_RE.search(body)
        if m:
            return "owner-check", m.group(0)
    for deny in DENY_IDENTIFIERS:
        if deny in words:
            return "constructor", deny
    return None


# The scan of a function proven clean: no hit, and nothing past it to walk.
_CLEAN = (None, ())


def _scan(index: SourceIndex, fn: IndexedFunction) -> tuple:
    """A function's deny-list hit, and the body-bearing functions its body
    names: every overload, in order of first mention. Reads the scrubbed
    file, where a signature and a body start and end outside any comment or
    string."""
    body = index.scrubbed[fn.body_start : fn.body_end + 1]
    words = dict.fromkeys(_IDENT_RE.findall(body))
    idents = _unreserved(words)
    calls = tuple(callee for name in idents for callee in index.overloads.get(name, ()))
    hit = _match_deny_list(index.scrubbed[fn.kw_offset : fn.body_start], body, words, idents)
    return hit, calls


def filter_state_dependent(record: FunctionRecord, index: SourceIndex) -> FilterDecision:
    """Decide whether a record is safe to keep as a completion task.

    Checks the function itself, then, breadth first, every same-file
    function it transitively calls against the deny-list; a call reaches
    every overload of the name it uses. Each function is scanned at most
    once per file, whichever record reaches it, and a walk that keeps its
    record marks every function it visited clean, so later walks stop there:
    a clean function's whole reach holds no hit, and no function with a hit
    in reach is found through one. Matches report a reason so
    exclusion counts can be bucketed. A record that is not a function of
    `index` raises ValueError.
    """
    own = index.find(record.name, *record.span)
    if own is None:
        raise ValueError(f"{record.task_id()}: no function {record.name!r} of {index.path} has this span")
    scans = index.scans
    visited = {own.body_start}
    queue = deque([own])
    while queue:
        fn = queue.popleft()
        scan = scans.get(fn.body_start)
        if scan is None:
            scan = scans[fn.body_start] = _scan(index, fn)
        hit, calls = scan
        if hit:
            return FilterDecision(False, hit[0], hit[1] if fn is own else f"via {fn.name}: {hit[1]}")
        for callee in calls:
            if callee.body_start not in visited:
                visited.add(callee.body_start)
                queue.append(callee)
    scans.update(dict.fromkeys(visited, _CLEAN))
    return _KEEP


@dataclass
class FilterReport(Record):
    """Bookkeeping for one corpus build.

    Invariant: retained + excluded_* + dedup_removed == total_extracted, and
    duplication_rate == dedup_removed / max(1, total_extracted - exclusions).
    """

    SCHEMA = STATS_SCHEMA

    total_extracted: int = 0
    excluded_no_comment: int = 0
    excluded_state_dependent: int = 0
    excluded_mint: int = 0
    retained: int = 0
    dedup_removed: int = 0
    duplication_rate: float = 0.0

    def exclusions(self) -> int:
        return (
            self.excluded_no_comment
            + self.excluded_state_dependent
            + self.excluded_mint
        )


def dedup_exact(
    records: Iterable[FunctionRecord],
) -> tuple[list[FunctionRecord], FilterReport]:
    """Drop exact duplicates (trailing whitespace ignored), keeping first seen."""
    records = list(records)
    seen: set[str] = set()
    kept: list[FunctionRecord] = []
    for record in records:
        key = record.dedup_key()
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    removed = len(records) - len(kept)
    report = FilterReport(
        total_extracted=len(records),
        retained=len(kept),
        dedup_removed=removed,
        duplication_rate=removed / max(1, len(records)),
    )
    return kept, report


def build_corpus(sources: Iterable[SourceIndex]) -> tuple[list[FunctionRecord], FilterReport]:
    """Extract, filter, and dedup across sources; return records plus counts."""
    report = FilterReport()
    pool: list[FunctionRecord] = []
    for index in sources:
        declared = count_function_declarations(index)
        records = extract_functions(index)
        report.total_extracted += declared
        report.excluded_no_comment += declared - len(records)
        for record in records:
            decision = filter_state_dependent(record, index)
            if decision.keep:
                pool.append(record)
            elif decision.reason == "mint":
                report.excluded_mint += 1
            else:
                report.excluded_state_dependent += 1
    kept, dedup_report = dedup_exact(pool)
    report.retained = len(kept)
    report.dedup_removed = dedup_report.dedup_removed
    report.duplication_rate = report.dedup_removed / max(1, len(pool))
    return kept, report


def write_task_file(records: Iterable[FunctionRecord], path: str | Path) -> int:
    """Write records as JSONL task rows; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_line())
            count += 1
    return count


def read_task_file(path: str | Path) -> list[FunctionRecord]:
    """Load the records of a JSONL task file, in row order.

    A row that does not make a record, whose id is not its record's
    `<source_path>#L<start>-<end>`, or whose id an earlier row holds raises
    ConfigError naming its line and, for a value of the wrong type, its key.
    """
    out: list[FunctionRecord] = []
    lines: dict[str, int] = {}
    for lineno, row in read_rows(path, "task"):
        try:
            record = FunctionRecord.from_json(row)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}, line {lineno}: bad task row: {exc}") from exc
        task_id = record.task_id()
        if row["id"] != task_id:
            raise ConfigError(
                f"{path}, line {lineno}: id {row['id']!r} should be {task_id!r} (<source_path>#L<start>-<end>)"
            )
        if lines.setdefault(task_id, lineno) != lineno:
            raise ConfigError(f"{path}, line {lineno}: id {task_id!r} repeats line {lines[task_id]}")
        out.append(record)
    return out
