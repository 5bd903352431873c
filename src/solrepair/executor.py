"""Verification executors and error handling.

A completed body is handed to a backend at its located target, as a
LocatedCompletion that builds the whole completed source only when asked:
either a compile-only adapter (solc) or a differential backend that checks
behavioural equivalence against the oracle. A scripted mock differential
backend ships here so the full loop runs offline; real fuzzers plug in
through a subprocess adapter contract.

Diagnostic line numbers are 1-based within the completed function body
(line 1 is the line holding the opening brace).
"""

from __future__ import annotations

import json
import operator
import random
import re
import subprocess
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from .corpus import (
    IndexedFunction,
    MalformedSourceError,
    SOLIDITY_KEYWORDS,
    SourceIndex,
    _DECLARATION_RE,
    _NOT_TYPES,
    _SCRUB_RE,
    _SIZED_TYPE_FIRST,
    _SIZED_TYPE_RE,
    _blank,
    _is_declaration,
    pair_braces,
    scrub,
)
from .rows import Record

STATUS_PASS = "pass"
STATUS_COMPILE_ERROR = "compile_error"
STATUS_FUNCTIONAL_MISMATCH = "functional_mismatch"
STATUS_EXECUTOR_UNAVAILABLE = "executor_unavailable"
STATUSES = (
    STATUS_PASS,
    STATUS_COMPILE_ERROR,
    STATUS_FUNCTIONAL_MISMATCH,
    STATUS_EXECUTOR_UNAVAILABLE,
)

MOCK_EXECUTOR_SCHEMA = "mock-executor@1"

DEFAULT_TIMEOUT = 60.0

ERROR_KINDS = (
    "UndeclaredIdentifier",
    "Member",
    "IdentifierNotUnique",
    "IndexedExpression",
    "ImplicitlyConvertible",
    "Other",
)

# First matching pattern wins; anything unmatched is Other, so the
# classification is total over arbitrary compiler output.
DEFAULT_ERROR_PATTERNS: tuple[tuple[str, str], ...] = (
    ("UndeclaredIdentifier", r"[Uu]ndeclared identifier"),
    ("Member", r"\bMember\b"),
    ("IdentifierNotUnique", r"not unique"),
    ("IndexedExpression", r"[Ii]ndexed expression"),
    ("ImplicitlyConvertible", r"implicitly convertible"),
)


@dataclass(frozen=True)
class Diagnostic(Record):
    """One executor finding, classified into the error taxonomy."""

    kind: str
    message: str
    line: int | None = None
    identifier: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown diagnostic kind {self.kind!r}")


@dataclass(frozen=True)
class ExecutionVerdict(Record):
    """Backend judgement on one completed source."""

    status: str
    diagnostics: tuple[Diagnostic, ...] = ()
    elapsed: float = 0.0
    backend: str = ""
    backend_version: str = ""
    backend_seed: int | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status == STATUS_PASS and self.diagnostics:
            raise ValueError("pass verdicts carry no diagnostics")
        if self.status == STATUS_COMPILE_ERROR and not self.diagnostics:
            raise ValueError("compile_error verdicts need at least one diagnostic")


def classify_error(message: str, line: int | None = None, identifier: str | None = None) -> Diagnostic:
    """Classify a compiler message; unmatched messages map to Other.

    Only the message's first line is read: a compiler's later lines quote
    source, whose strings and names are not the error's.
    """
    first = message.split("\n", 1)[0]
    kind = "Other"
    for candidate, pattern in DEFAULT_ERROR_PATTERNS:
        if re.search(pattern, first):
            kind = candidate
            break
    if identifier is None:
        m = re.search(r'"([^"]+)"', first)
        identifier = m.group(1) if m else None
    if line is None:
        m = re.search(r":(\d+):(\d+)", first)
        line = int(m.group(1)) if m else None
    return Diagnostic(kind=kind, message=message, line=line, identifier=identifier)


class LocatedCompletion(NamedTuple):
    """A completed body at its located target. With the index the target was
    located in, which every backend's verify is handed, it stands for the
    oracle source with the target's body replaced by body: everything
    outside the body is byte-identical to the oracle source."""

    target: IndexedFunction
    body: str

    def source_in(self, oracle: SourceIndex) -> str:
        """The whole completed source, built on each ask."""
        text, target = oracle.text, self.target
        return text[: target.body_start] + self.body + text[target.body_end + 1 :]

    def keeps_body_of(self, oracle: SourceIndex) -> bool:
        """True when body is the target's own body in oracle, compared where
        it stands."""
        target, body = self.target, self.body
        return len(body) == target.body_end + 1 - target.body_start and oracle.text.startswith(body, target.body_start)


def substitute_function(target: IndexedFunction, completed_body: str) -> LocatedCompletion:
    """completed_body in place of the target's body; O(1), since no text is
    copied until a backend asks for the whole source."""
    return LocatedCompletion(target, completed_body)


# ---------------------------------------------------------------------------
# The scripted differential backend. It reads a body's tokens: a recursive
# descent resolves its names, and the statements of its own block go to the
# evaluator, which models straight-line bodies: local declarations, then
# `return <expr>;`, over Solidity's integer and boolean operators. A body it
# cannot model is compared as text.
# ---------------------------------------------------------------------------


class _EvalError(ValueError):
    pass


_Evaluator = Callable[[dict], "int | bool"]

# A body nested past the interpreter's recursion limit fails to evaluate,
# as a body dividing by zero does: the body's failure, not the backend's.
_TOO_DEEP = "expression nested too deeply to evaluate"

# The most expression nodes on a path from an expression's root to a leaf,
# the leaf included, that is modelled: 127 nested operators over a name.
# Evaluating takes one frame per node, so it stays clear of the default
# recursion limit from a caller at half of it. Parentheses deepen the
# parser's recursion but not the tree, so they count only towards
# _MAX_PARSE_DEPTH.
_MAX_NESTING = 128
_MAX_PARSE_DEPTH = 2 * _MAX_NESTING

# Decimal (no leading zero) and hex literals with `_` between digits, names,
# operators, and any other single character, which no rule accepts.
_TOKEN_RE = re.compile(
    r"\s*(0x[0-9a-fA-F]+(?:_[0-9a-fA-F]+)*(?![\w$.])|(?:0|[1-9](?:_?[0-9])*)(?![\w$.])"
    r"|[A-Za-z_$][A-Za-z0-9_$]*|\*\*|<<|>>|<=|>=|==|!=|&&|\|\||\S)"
)


def _checked(op: Callable, message: str) -> Callable:
    def apply(a, b):
        if b == 0:
            raise _EvalError(message)
        return op(a, b)

    return apply


# A product or power sure to need more than 1024 bits, far wider than
# Solidity's 256, fails before it is computed: |x| >= 2**(bit_length - 1).
# Values stay integers: a negative exponent, which has no integer result,
# fails too.
def _product(a, b):
    if a and b and a.bit_length() + b.bit_length() - 2 >= 1024:
        raise _EvalError("product too large to evaluate")
    return a * b


def _power(base, exponent):
    if exponent < 0:
        raise _EvalError(f"negative exponent {exponent}")
    if (base.bit_length() - 1) * exponent >= 1024:
        raise _EvalError("power too large to evaluate")
    return base**exponent


def _shift(op: Callable, limit: float) -> Callable:
    def apply(value, amount):
        if not 0 <= amount <= limit:
            raise _EvalError(f"shift amount {amount} out of range")
        return op(value, amount)

    return apply


# Solidity's binary operators, loosest first, each with its function of the
# two values (`&&` and `||` take both); each row binds tighter than the one
# before it, and unary operators tighter than all: `-a ** 2` is (-a) ** 2.
_LEVELS: tuple[dict[str, Callable], ...] = (
    {"||": lambda a, b: bool(a or b)},
    {"&&": lambda a, b: bool(a and b)},
    {"==": operator.eq, "!=": operator.ne},
    {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge},
    {"|": operator.or_},
    {"^": operator.xor},
    {"&": operator.and_},
    {"<<": _shift(operator.lshift, 256), ">>": _shift(operator.rshift, float("inf"))},
    {"+": operator.add, "-": operator.sub},
    {
        "*": _product,
        "/": _checked(operator.floordiv, "division by zero"),
        "%": _checked(operator.mod, "modulo by zero"),
    },
    {"**": _power},
)
_BINARY = {token: (power, op) for power, level in enumerate(_LEVELS, 1) for token, op in level.items()}
_RELATIONAL = _LEVELS[3].keys()
_UNARY: dict[str, Callable[[_Evaluator], _Evaluator]] = {
    "-": lambda operand: lambda env: -operand(env),
    "!": lambda operand: lambda env: not operand(env),
}
_UNARY_POWER = len(_LEVELS) + 1


def _constant(value: int | bool) -> _Evaluator:
    return lambda env: value


def _parse_expression(text: str) -> tuple[_Evaluator, frozenset[str]] | None:
    """The evaluator of a Solidity expression and the names it reads, or None
    when the mock cannot model it: text outside the grammar, a relational
    comparison whose operand is an unparenthesized one (`a < b < 5`), or more
    than _MAX_NESTING nodes on some path. The one parse entry point: top-down
    operator precedence (Pratt, POPL 1973), emitting the evaluator directly.
    """
    tokens = _TOKEN_RE.findall(text)[::-1]
    reads: set[str] = set()

    def take(expected: str | None = None) -> str:
        if not tokens or expected is not None and tokens[-1] != expected:
            raise SyntaxError
        return tokens.pop()

    def expression(power: int, level: int) -> tuple[_Evaluator, int]:
        """The longest expression from here whose operators bind at least
        `power` (`?:` binds at 0), and its depth in nodes."""
        if level > _MAX_PARSE_DEPTH:
            raise SyntaxError
        token = take()
        if "0" <= token[0] <= "9":
            left, depth = _constant(int(token, 0)), 1
        elif token in ("true", "false"):
            left, depth = _constant(token == "true"), 1
        elif token[0].isascii() and (token[0].isalpha() or token[0] in "_$"):
            reads.add(token)
            left, depth = operator.itemgetter(token), 1
        elif token == "(":
            left, depth = expression(0, level + 1)
            take(")")
        elif token in _UNARY:
            operand, depth = expression(_UNARY_POWER, level + 1)
            left, depth = _UNARY[token](operand), depth + 1
        else:
            raise SyntaxError
        relational = False  # left is an unparenthesized relational comparison
        while depth <= _MAX_NESTING:
            token = tokens[-1] if tokens else None
            if token == "?" and power == 0:
                tokens.pop()
                then, then_depth = expression(0, level + 1)
                take(":")
                orelse, else_depth = expression(0, level + 1)
                left, depth = _conditional(left, then, orelse), 1 + max(depth, then_depth, else_depth)
            elif token in _BINARY and _BINARY[token][0] >= power:
                if relational and token in _RELATIONAL:
                    raise SyntaxError
                bind, op = _BINARY[tokens.pop()]
                # `**` is right-associative, every other operator left.
                right, right_depth = expression(bind if token == "**" else bind + 1, level + 1)
                left, depth = _binary(op, left, right), 1 + max(depth, right_depth)
                relational = token in _RELATIONAL
            else:
                return left, depth
        raise SyntaxError

    try:
        evaluate, _ = expression(0, 0)
    except SyntaxError:
        return None
    return None if tokens else (evaluate, frozenset(reads))


def _binary(op: Callable, left: _Evaluator, right: _Evaluator) -> _Evaluator:
    return lambda env: op(left(env), right(env))


def _conditional(test: _Evaluator, then: _Evaluator, orelse: _Evaluator) -> _Evaluator:
    return lambda env: then(env) if test(env) else orelse(env)


class _Step(NamedTuple):
    """One statement: a declaration of `name`, or `return` when name is None.

    evaluate gives the statement's value (0 for a declaration without an
    initializer) or raises what evaluating it raises; reads holds the names
    it reads.
    """

    name: str | None
    evaluate: _Evaluator
    reads: frozenset[str]


def evaluate_body(steps: Sequence[_Step], inputs: dict) -> int | bool | None:
    env = dict(inputs)
    try:
        for name, evaluate, _ in steps:
            value = evaluate(env)
            if name is None:
                return value
            env[name] = value
    except KeyError as exc:  # an input the caller left out
        raise _EvalError(f"unbound name {exc.args[0]!r}") from None
    except RecursionError:
        raise _EvalError(_TOO_DEEP) from None
    return None


def _param_names(signature: str) -> list[str]:
    """The last word of each part of the first parenthesized list in
    signature, split at its top-level commas, so that `mapping(K => V) m`
    is one part; [] when the list is not closed."""
    opening = signature.find("(")
    closing = signature.find(")", opening + 1)
    if opening != -1 and closing != -1 and "(" not in signature[opening + 1 : closing]:  # no list nested in it
        return [words[-1] for part in signature[opening + 1 : closing].split(",") if (words := part.split())]
    parts, depth, start = [], 0, 0
    for m in re.finditer(r"[(),]", signature):
        if m[0] == "(":
            depth += 1
            start = m.end() if depth == 1 else start
        elif m[0] == ")" and depth:
            depth -= 1
            if depth == 0:
                parts.append(signature[start : m.start()])
                return [words[-1] for part in parts if (words := part.split())]
        elif m[0] == "," and depth == 1:
            parts.append(signature[start : m.start()])
            start = m.end()
    return []


def _generated_cases(param_names: Sequence[str], seed_text: str, count: int = 8) -> list[dict]:
    # Positive operands keep integer division and subtraction semantics
    # aligned between the evaluator and unsigned Solidity arithmetic.
    # Each value is `rng.randrange(1, 100)`, drawn as CPython draws it: 7
    # random bits, drawn again while they are 99 or more.
    bits = random.Random(zlib.crc32(seed_text.encode("utf-8"))).getrandbits
    cases = []
    for _ in range(count):
        case = {}
        for p in param_names:
            value = bits(7)
            while value >= 99:
                value = bits(7)
            case[p] = value + 1
        cases.append(case)
    return cases


# `\bfunction\s+name` with the `f` moved before the word-boundary check, as
# a lookbehind on `\w` (as Unicode as `\b` is): led by a literal, the
# pattern lets `re` skip ahead to candidates. A function type (`function
# (uint256) ...`) has no name.
_NAMED_FUNCTION_RE = re.compile(r"f(?<!\wf)unction\s+([A-Za-z_$][A-Za-z0-9_$]*)")

_ASSEMBLY_RE = re.compile(r"\bassembly\b[^{};]*\{")


def _without_assembly(scrubbed: str) -> str:
    """scrubbed with each `assembly { ... }` block blanked, offsets kept.

    Yul declares names (function parameters and returns, `let`) and calls
    builtins in ways the name resolver does not model.
    """
    if "assembly" not in scrubbed:
        return scrubbed
    pieces, pos = [], 0
    closing: dict[int, int] = {}
    for m in _ASSEMBLY_RE.finditer(scrubbed):
        if m.start() < pos:
            continue
        opening = m.end() - 1
        if opening not in closing:
            # Pairs every brace from this block on; only an unmatched '}'
            # before a later block makes that block pair again.
            closing = pair_braces(scrubbed, opening)[0]
        end = closing.get(opening, len(scrubbed) - 1) + 1
        pieces += (scrubbed[pos : m.start()], " " * (end - m.start()))
        pos = end
    return "".join(pieces) + scrubbed[pos:]


# The tokens of a body that its reader reads: a name, which never starts
# right after a digit (`0x1f` and `1e18` are numbers; checked after the
# name's first character, so that `re` can skip ahead to candidates), one of
# `{ } ( ) ; , . :`, or Yul's `:=`. Operators and literals are skipped.
_LEX_RE = re.compile(r"[A-Za-z_$](?<!\d[A-Za-z_$])[A-Za-z0-9_$]*|:=|[{}();,.:]")
# The tokens a declaration may follow: it starts a statement, a `for` header's
# part, a tuple's component (`(T a, , T b) = ...`) or a clause's parameter.
_STARTS = ("{", "}", ";", "(", ",")
_PUNCTUATION = "{}();,.:"  # the first characters of the tokens that are not names
_NOT_NAMES = frozenset((*_PUNCTUATION, ":="))  # the tokens that are not names
# The tokens a statement's own block follows, as against the braces of call
# options or named arguments (`x.call{value: v}`, `f({a: 1})`).
_BLOCK_LEADS = (")", "else", "do", "unchecked", "catch")

# A statement of a body's own block, as the evaluator reads it: decl is the
# (type, name) of the declaration that leads it, and value the text from
# that name or from `return` in a `return` to its end; both None in any
# other, opaque statement.
_Statement = NamedTuple("_Statement", [("decl", "tuple[str, str] | None"), ("value", "str | None")])
_OPAQUE = _Statement(None, None)
# A use of a name that no local in scope declares, at its offset in the body.
_Use = NamedTuple("_Use", [("name", str), ("at", int)])


class _Reader:
    """Resolves the names of a body blanked (_blanked) by recursive descent
    over its tokens, `block(0)`, and keeps the uses of names that neither
    own nor a local in scope declares: a local's scope runs from the end of
    the statement declaring it to the end of its block, a `for` header's to
    the end of its loop, and a `try`/`catch` clause's parameters' over the
    clause's block. A body nested past _MAX_NESTING statements raises
    RecursionError."""

    def __init__(self, text: str, own: frozenset[str]) -> None:
        tokens = list(_LEX_RE.finditer(text))
        # Two sentinels, so that a look one token ahead never runs out.
        self.words = [m[0] for m in tokens] + ["}", "}"]
        self.at = [m.start() for m in tokens] + [len(text)] * 2
        self.text, self.own, self.i = text, own, 0
        self.scopes: list[set[str]] = []  # the names declared in each enclosing block or loop
        self.declared: set[int] = set()  # the offsets of the names that declarations declare
        self.free: list[_Use] = []

    def block(self, depth: int, scope: Iterable[str] = ()) -> None:
        if depth > _MAX_NESTING:
            raise RecursionError
        words = self.words
        self.i += 1  # its '{'
        self.scopes.append(set(scope))
        while words[self.i] != "}":
            self.block(depth + 1) if words[self.i] == "{" else self.flat(depth)
        self.scopes.pop()
        self.i += 1  # its '}'

    def flat(self, depth: int, in_header: bool = False) -> None:
        """Reads the statement from here, which runs to its ';', to the '}'
        of its block, or to the end of a block or loop nested in it that no
        `else` or `catch` follows (`if`, `while`, `try`); in a `for` header,
        one that the header's ')' may end too."""
        if depth > _MAX_NESTING:
            raise RecursionError
        words, at, own, scopes = self.words, self.at, self.own, self.scopes
        i = self.i
        decls: list[str] = []  # the names it declares, in scope after its ';'
        clause = False  # a `returns` or `catch` was read, whose block takes decls
        paren = 0
        while True:
            word, last = words[i], words[i - 1]
            if word == "}" or in_header and word == ")" and paren == 0:
                break
            if word == ";":
                i += 1
                scopes[-1].update(decls)
                if words[i] != "else":
                    break
                decls = []  # those of the branch before the `else`
            elif word == "{":
                scope = ()
                if clause and last == ")":
                    scope, decls, clause = decls, [], False
                self.i = i
                self.block(depth + 1, scope)
                i = self.i
                if paren == 0 and last in _BLOCK_LEADS and words[i] not in ("else", "catch"):
                    break
            elif word == "for" and words[i + 1] == "(":
                self.i = i + 2
                scopes.append(set())
                while words[self.i] not in (")", "}"):
                    self.flat(depth + 1, in_header=True)
                self.i += words[self.i] == ")"
                self.block(depth + 1) if words[self.i] == "{" else self.flat(depth + 1)
                scopes.pop()
                i = self.i
                if paren == 0 and words[i] != "else":
                    break
            elif word[0] in _PUNCTUATION:
                paren += (word == "(") - (word == ")")
                i += 1
            else:
                if last in _STARTS and (d := self.declaration(i)):
                    decls.append(d["name"])
                if (
                    word not in own and word not in SOLIDITY_KEYWORDS
                    and not any(word in names for names in scopes) and self.used(i)
                ):
                    self.free.append(_Use(word, at[i]))
                clause = clause or word in ("returns", "catch")
                i += 1
        self.i = i

    def declaration(self, i: int) -> re.Match | None:
        """The declaration that the name at i, which follows one of
        _STARTS, starts, if any; the offset of its name is kept."""
        word = self.words[i]
        d = None if word in _NOT_TYPES else _DECLARATION_RE.match(self.text, self.at[i])
        if not _is_declaration(d):
            return None
        self.declared.add(d.start("name"))
        return d

    def used(self, i: int) -> bool:
        """True when the name at i, which is no keyword, is a use: not the
        name of a declaration, a member, a named-argument key, an elementary
        type or the `Error` or `Panic` of a `catch`. A skipped operator
        between a name and its '.' or ':' parts them."""
        words, at, text = self.words, self.at, self.text
        word, last = words[i], words[i - 1]
        return not (
            at[i] in self.declared
            or last == "." and not text[at[i - 1] + 1 : at[i]].strip()
            or words[i + 1] == ":" and last in ("{", ",") and not text[at[i] + len(word) : at[i + 1]].strip()
            or word[0] in _SIZED_TYPE_FIRST and _SIZED_TYPE_RE.match(word)
            or last == "catch" and word in ("Error", "Panic")
        )

    def scan(self) -> list[_Use]:
        """The uses, in order, of names that neither own nor a declaration
        anywhere in the body declares: in place of the descent's free uses,
        for a body nested too deep to descend. It misses only a use out of
        its local's scope."""
        words, names = self.words[:-2], set(self.own)
        for i, word in enumerate(words):
            if words[i - 1] in _STARTS and word[0] not in _PUNCTUATION and (d := self.declaration(i)):
                names.add(d["name"])
        return [
            _Use(word, self.at[i]) for i, word in enumerate(words)
            if word[0] not in _PUNCTUATION and word not in names and word not in SOLIDITY_KEYWORDS and self.used(i)
        ]


def _read_statements(text: str) -> list[_Statement]:
    """The statements of the own block of text, a body blanked, empty ones
    aside, up to the first opaque one. A statement runs to its ';' or to the
    body's '}'; one that text outside the tokens leads (an operator or a
    literal), or that holds a block, is opaque, so that no block is
    descended into: no step holds one. In a body blanked, each ';' and '{'
    is a token of its own, and they are found in the text."""
    statements, pos, end = [], 1, len(text) - 1  # text[end] is the body's '}'
    while True:
        first = _LEX_RE.search(text, pos, end)
        start = end if first is None else first.start()
        if text[pos:start].strip():
            return [*statements, _OPAQUE]
        if first is None:
            return statements
        if first[0] == ";":
            pos = first.end()
            continue
        stop = text.find(";", start, end)
        stop = end if stop == -1 else stop
        if text.find("{", start, stop) != -1:
            return [*statements, _OPAQUE]
        if first[0] == "return":
            statements.append(_Statement(None, text[first.end() : stop]))
        elif first[0] not in _NOT_TYPES and _is_declaration(d := _DECLARATION_RE.match(text, start)):
            statements.append(_Statement((text[start : d.start("name")].strip(), d["name"]), text[d.end("name") : stop]))
        else:
            return [*statements, _OPAQUE]
        if stop == end:  # it runs to the body's '}'
            return statements
        pos = stop + 1


def _unterminated(text: str) -> bool:
    """True when the last statement of the own block of text, a body
    blanked, is a `return` with a value or a declaration that runs to the
    body's '}' without a ';'. Only that block's own statements are read:
    one nested in a block, or holding one, is not."""
    end, first, depth, paren = len(text) - 1, None, 0, 0
    if text[:end].rstrip().endswith(";"):  # most bodies, read without the walk below
        return False
    for m in _LEX_RE.finditer(text, 1, end):
        word = m[0]
        if first is None and depth == 0:
            first = m  # the first token of a statement of the own block
        if word == "{" or word == "}":
            depth += 1 if word == "{" else -1
            if depth == paren == 0:
                first = None
        elif word == "(" or word == ")":
            paren += 1 if word == "(" else -1
        elif word == ";" and depth == paren == 0:
            first = None
    if first is None or text.find(";", first.start(), end) != -1:
        return False
    if first[0] == "return":
        return bool(text[first.end() : end].strip())
    return first[0] not in _NOT_TYPES and _is_declaration(_DECLARATION_RE.match(text, first.start(), end))


# The elementary types of a local the evaluator models.
_VALUE_TYPE_RE = re.compile(r"u?int\d*|bool")


def _step(statement: _Statement) -> _Step | None:
    """statement as a step; None when it is neither a `return` nor a
    declaration of one integer or boolean local, or its expression is
    outside the grammar or nested past _MAX_NESTING."""
    (kind, name), value = statement.decl or (None, None), statement.value
    if value is None:
        return None
    if kind is not None:  # `T name`, then nothing or `= expression`
        rest = value.strip()
        expression = rest[1:].strip()
        if not _VALUE_TYPE_RE.fullmatch(kind) or rest[:1] not in ("", "=") or rest and not expression:
            return None
    else:  # `return`, whitespace, then the expression
        expression = value.strip()
        if not (value[:1].isspace() and expression):
            return None
    if not expression:
        return _Step(name, _constant(0), frozenset())
    parsed = _parse_expression(expression)
    return None if parsed is None else _Step(name, *parsed)


def _steps(
    statements: Sequence[_Statement] | None, params: Iterable[str], known: dict[_Statement, _Step | None]
) -> list[_Step] | None:
    """statements, a body's own (_statements), as steps; None when there
    are none, or when one is not a step (_step) or reads a name that is
    neither in params nor declared by a step before it.

    known maps statements to their steps, None for a statement that is not
    one: a statement found there is not parsed again, and one parsed here is
    added to it.
    """
    if statements is None:
        return None
    bound = set(params)
    steps = []
    for statement in statements:
        step = known[statement] if statement in known else known.setdefault(statement, _step(statement))
        if step is None or not step.reads <= bound:
            return None
        if step.name is not None:
            bound.add(step.name)
        steps.append(step)
    return steps


def _blanked(body: str) -> str | None:
    """body with comments, strings and Yul blanked, or None when it is not
    one balanced {...} block."""
    scrubbed = scrub(body)
    return _without_assembly(scrubbed) if _is_single_block(scrubbed) else None


def _statements(body: str, text: str, reads: dict) -> tuple[_Statement, ...] | None:
    """The statements of body's own block, up to the first opaque one, read
    from text, body blanked (_read_statements); None when the evaluator
    does not read body: it holds a string or `assembly`. A comment it reads
    as blanks, as the reader does.

    reads maps each text read, its whitespace collapsed, to its statements:
    a text found there is not read again, and one read here is added.
    """
    if not (text == body or text == _SCRUB_RE.sub(lambda m: m[0] if m[0][0] in "\"'" else _blank(m), body)):
        return None
    key = " ".join(text.split())
    return reads[key] if key in reads else reads.setdefault(key, tuple(_read_statements(key)))


def _free(text: str, own: frozenset[str]) -> list[_Use]:
    """The uses, in order, of names that neither own nor a local in scope
    declares in text, a body blanked."""
    names = set(_LEX_RE.findall(text)) - own - SOLIDITY_KEYWORDS - _NOT_NAMES
    if all(map(_SIZED_TYPE_RE.match, names)):
        return []  # every name is own, a keyword or an elementary type
    reader = _Reader(text, own)
    try:
        reader.block(0)
    except RecursionError:  # nested past _MAX_NESTING
        return reader.scan()
    return reader.free


def _normalized(body: str) -> str:
    return " ".join(body.split())


class _Body(NamedTuple):
    """One top-level function as verify compares it."""

    name: str
    text: str  # the body, braces included
    scrubbed: str  # the body with comments and strings blanked
    start: int  # offset of the body's '{' in its source
    params: tuple[str, ...]  # the parameter names in its signature
    own: frozenset[str]  # the parameter names, named returns and the function's own name


def _body(index: SourceIndex, fn: IndexedFunction) -> _Body:
    text, scrubbed = index.text, index.scrubbed
    # Read in the scrubbed header, so a comment in a parameter list adds no
    # name and its parentheses end no list.
    header = scrubbed[fn.kw_offset : fn.body_start]
    params = tuple(_param_names(header))
    returns = re.search(r"\breturns\b", header)
    named = _param_names(header[returns.end() :]) if returns else ()
    return _Body(
        fn.name,
        text[fn.body_start : fn.body_end + 1],
        scrubbed[fn.body_start : fn.body_end + 1],
        fn.body_start,
        params,
        frozenset((*params, *named, fn.name)),
    )


def _is_single_block(scrubbed: str) -> bool:
    """True when the text is one balanced {...}: its first brace opens at
    offset 0 and closes on the last character."""
    return pair_braces(scrubbed, 0)[0].get(0) == len(scrubbed) - 1


# The one diagnostic of the verdict on a body that is not one balanced
# block: a stray brace, text before or after the block, or an unterminated
# comment or string.
_NOT_ONE_BLOCK = "completed body is not one balanced {...} block"
# The one diagnostic of the verdict on a body whose last statement, a
# `return` or a declaration, runs to its '}' without a ';' (_unterminated).
_NO_SEMICOLON = "Expected ';' but got '}'"


class _Expected(NamedTuple):
    """The oracle's side of one function's generated cases."""

    steps: list[_Step] | None  # the oracle body's steps; None when uninterpretable
    cases: list[tuple[dict, int | bool | None]]  # generated inputs, the oracle's outputs
    failure: str | None  # why evaluating the oracle failed, when it did


class _Oracle:
    """One oracle text as verify sees it: its index, and what verify learns
    about it, once per run: each target's entry (its `_Body`) and each
    function's expected outputs, built on the first verify of their target.
    Bodies are read through `reads` (_statements) and their statements
    parsed through `steps` (_steps), which the backend shares between its
    oracles. The index tells what a function sees declared outside its
    body (`SourceIndex.visible`). Every entry is a pure function of its
    key, so threads racing to fill one only repeat work.

    Raises MalformedSourceError when the index is unbalanced.
    """

    def __init__(self, index: SourceIndex, reads: dict | None = None, steps: dict | None = None) -> None:
        index.check()
        self.index = index
        self.reads = {} if reads is None else reads
        self.steps = {} if steps is None else steps
        self._bodies: dict[int, _Body] = {}
        self._expected: dict[tuple[int, int], _Expected] = {}

    def body(self, fn: IndexedFunction) -> _Body:
        """The entry of fn, a function of the oracle."""
        found = self._bodies.get(fn.body_start)
        if found is None:
            found = self._bodies.setdefault(fn.body_start, _body(self.index, fn))
        return found

    def declares(self, fn: IndexedFunction, name: str) -> bool:
        """True when fn's body sees name declared outside it, or cannot tell.
        In a source that neither imports nor inherits, a name its text does
        not hold is undeclared, and the index's table is not read."""
        index = self.index
        if index.self_contained and name not in index.scrubbed:
            return False
        names = index.visible(fn.kw_offset)
        return names is None or name in names

    def expected(self, body: _Body, seed: int) -> _Expected:
        """The oracle function `body` evaluated on its generated cases."""
        key = (body.start, seed)
        found = self._expected.get(key)
        if found is None:
            found = self._expected.setdefault(key, self._evaluate(body, seed))
        return found

    def _evaluate(self, body: _Body, seed: int) -> _Expected:
        # An oracle body is one balanced block.
        steps = _steps(_statements(body.text, _without_assembly(body.scrubbed), self.reads), body.params, self.steps)
        if steps is None:
            return _Expected(None, [], None)
        cases = []
        for inputs in _generated_cases(body.params, f"{seed}:{body.name}"):
            try:
                cases.append((inputs, evaluate_body(steps, inputs)))
            except _EvalError as exc:
                return _Expected(steps, [], f"oracle evaluation failed: {exc}")
        return _Expected(steps, cases, None)


@dataclass(frozen=True)
class ExecutorCase(Record):
    inputs: dict[str, int]
    output: int | bool | None


@dataclass(frozen=True)
class ExecutorTable(Record):
    cases: tuple[ExecutorCase, ...]


@dataclass(frozen=True)
class ExecutorFixture(Record):
    """A scripted-executor fixture (mock-executor@1): the input/output cases
    of each function, by task id."""

    SCHEMA = MOCK_EXECUTOR_SCHEMA

    seed: int = 0
    functions: dict[str, ExecutorTable] = field(default_factory=dict)


# `json.dumps(inputs, sort_keys=True)`, for mismatch messages: json.dumps
# builds an encoder per call when given non-default arguments, and one
# encoder serves every call and thread.
_dump_inputs = json.JSONEncoder(sort_keys=True).encode


class ScriptedDifferentialBackend:
    """Differential verification against scripted or generated input tables.

    Straight-line bodies (declarations, then `return`) over Solidity's
    integer and boolean expressions are evaluated on the fixture's
    input/output cases (or deterministic generated inputs); any body outside
    that subset, or reading a name that is neither a parameter nor a local,
    is compared as whitespace-insensitive text. A name resolver models the
    compiler's scoping: a name a modified body uses where no declaration is
    in scope is a compile_error, unless the oracle imports or inherits from
    a contract it does not declare, where the scope cannot be decided.

    Only the completed body is read, at its target's location, so
    overloads never stand in for each other; a body that is not one
    balanced {...}, or that declares a named function outside `assembly`,
    is a compile_error. The backend prepares each oracle text once, on
    first use, from the index verify is handed, and keeps it for its own
    lifetime: each function's expected outputs are computed once, and each
    distinct body and statement, in whichever source, is read and parsed
    once.
    """

    name = "mock-diff"
    waits = False
    version = "mock-diff@10"

    def __init__(self, fixture: dict | None = None, seed: int = 0) -> None:
        fixture = fixture or {}
        declared = fixture.get("schema", MOCK_EXECUTOR_SCHEMA)
        if declared != MOCK_EXECUTOR_SCHEMA:
            raise ValueError(f"unsupported executor fixture schema {declared!r}")
        self.fixture = ExecutorFixture.from_json(fixture)
        self.seed = seed
        self._oracles: dict[str, _Oracle] = {}
        self._reads: dict[str, tuple[_Statement, ...] | None] = {}
        self._steps: dict[_Statement, _Step | None] = {}
        self._lock = threading.Lock()

    def _verdict(
        self, t0: float, status: str, diagnostics: Iterable[Diagnostic] = ()
    ) -> ExecutionVerdict:
        return ExecutionVerdict(
            status=status,
            diagnostics=tuple(diagnostics),
            elapsed=time.perf_counter() - t0,
            backend=self.name,
            backend_version=self.version,
            backend_seed=self.seed,
        )

    def _oracle(self, index: SourceIndex) -> _Oracle:
        with self._lock:
            oracle = self._oracles.get(index.text)
            if oracle is None:
                oracle = self._oracles[index.text] = _Oracle(index, self._reads, self._steps)
            return oracle

    def verify(
        self, oracle: SourceIndex, completed: LocatedCompletion, target_function_id: str
    ) -> ExecutionVerdict:
        t0 = time.perf_counter()
        try:
            prepared = self._oracle(oracle)
        except MalformedSourceError as exc:
            return self._verdict(t0, STATUS_COMPILE_ERROR, [Diagnostic("Other", str(exc))])
        if completed.keeps_body_of(oracle):
            return self._verdict(t0, STATUS_PASS)
        text, body = completed.body, _blanked(completed.body)
        if body is None:
            return self._verdict(t0, STATUS_COMPILE_ERROR, [Diagnostic("Other", _NOT_ONE_BLOCK)])
        old = prepared.body(completed.target)
        # Solidity declares no function in a function body; Yul does, inside
        # `assembly`.
        nested = _NAMED_FUNCTION_RE.search(body)
        if nested is not None:
            line = text.count("\n", 0, nested.start()) + 1
            message = f'Function "{nested[1]}" declared inside a function body.'
            return self._verdict(t0, STATUS_COMPILE_ERROR, [Diagnostic("Other", message, line)])
        if _unterminated(body):
            # solc's parser error, at the '}' where it expected the ';'.
            line = text.count("\n", 0, len(text) - 1) + 1
            return self._verdict(t0, STATUS_COMPILE_ERROR, [Diagnostic("Other", _NO_SEMICOLON, line)])
        use = next((u for u in _free(body, old.own) if not prepared.declares(completed.target, u.name)), None)
        if use is not None:
            line = text.count("\n", 0, use.at) + 1
            undeclared = Diagnostic("UndeclaredIdentifier", f'Undeclared identifier "{use.name}".', line, use.name)
            return self._verdict(t0, STATUS_COMPILE_ERROR, [undeclared])

        table = self.fixture.functions.get(target_function_id)
        completed_steps = _steps(_statements(text, body, prepared.reads), old.params, prepared.steps)
        oracle_run = None
        if completed_steps is not None and table is None:
            oracle_run = prepared.expected(old, self.seed)
        if completed_steps is None or (oracle_run is not None and oracle_run.steps is None):
            if _normalized(old.text) == _normalized(text):
                return self._verdict(t0, STATUS_PASS)
            return self._verdict(
                t0,
                STATUS_FUNCTIONAL_MISMATCH,
                [
                    Diagnostic(
                        "Other",
                        "completed body differs from the oracle and cannot be evaluated",
                    )
                ],
            )

        if table is not None:
            cases = [(case.inputs, case.output) for case in table.cases]
        elif oracle_run.failure is not None:
            return self._verdict(
                t0, STATUS_EXECUTOR_UNAVAILABLE, [Diagnostic("Other", oracle_run.failure)]
            )
        elif completed_steps == oracle_run.steps:
            # The oracle's own steps, on inputs it evaluated cleanly.
            return self._verdict(t0, STATUS_PASS)
        else:
            cases = oracle_run.cases
        for inputs, expected in cases:
            try:
                got = evaluate_body(completed_steps, inputs)
            except _EvalError as exc:
                return self._verdict(
                    t0,
                    STATUS_FUNCTIONAL_MISMATCH,
                    [
                        Diagnostic(
                            "Other",
                            f"evaluation failed for inputs "
                            f"{_dump_inputs(inputs)}: {exc}",
                        )
                    ],
                )
            if got != expected:
                return self._verdict(
                    t0,
                    STATUS_FUNCTIONAL_MISMATCH,
                    [
                        Diagnostic(
                            "Other",
                            f"output mismatch for inputs "
                            f"{_dump_inputs(inputs)}: "
                            f"expected {expected}, got {got}",
                        )
                    ],
                )
        return self._verdict(t0, STATUS_PASS)


_SOLC_SOURCE = "task.sol"


def _spanned(error: dict, encoded: bytes) -> tuple[int | None, str]:
    """The line and the text of the task source that a standard-JSON error's
    `sourceLocation` spans, in solc's byte offsets into the UTF-8 source;
    (None, "") when it spans none of it."""
    where = error.get("sourceLocation")
    if not isinstance(where, dict) or where.get("file") != _SOLC_SOURCE:
        return None, ""
    start, end = where.get("start"), where.get("end")
    if not (type(start) is int and type(end) is int and 0 <= start <= end <= len(encoded)):
        return None, ""
    return encoded.count(b"\n", 0, start) + 1, encoded[start:end].decode("utf-8", "replace")


class SolcCompileBackend:
    """Compile-only adapter over the solc binary (standard JSON interface).

    Warnings are ignored; a missing binary or a timeout yields
    executor_unavailable, never a model failure.
    """

    name = "solc"
    waits = True

    def __init__(self, solc_path: str = "solc", timeout: float = DEFAULT_TIMEOUT) -> None:
        self.solc_path = solc_path
        self.timeout = timeout
        self._version: str | None = None

    @property
    def version(self) -> str:
        if self._version is None:
            try:
                out = subprocess.run(
                    [self.solc_path, "--version"],
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
                m = re.search(r"Version:\s*(\S+)", out.stdout)
                self._version = m.group(1) if m else out.stdout.strip()
            except (OSError, subprocess.TimeoutExpired):
                self._version = "unavailable"
        return self._version

    def compile(self, source: str) -> ExecutionVerdict:
        t0 = time.perf_counter()
        request = {
            "language": "Solidity",
            "sources": {_SOLC_SOURCE: {"content": source}},
            "settings": {"outputSelection": {"*": {"*": []}}},
        }

        def unavailable(reason: str) -> ExecutionVerdict:
            return ExecutionVerdict(
                status=STATUS_EXECUTOR_UNAVAILABLE,
                diagnostics=(Diagnostic("Other", reason),),
                elapsed=time.perf_counter() - t0,
                backend=self.name,
                backend_version=self._version or "",
            )

        try:
            proc = subprocess.run(
                [self.solc_path, "--standard-json"],
                input=json.dumps(request),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except FileNotFoundError:
            return unavailable(f"compiler binary {self.solc_path!r} not found")
        except subprocess.TimeoutExpired:
            return unavailable(f"compiler timed out after {self.timeout}s")
        try:
            output = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return unavailable(f"compiler produced no JSON: {proc.stderr[:200]}")
        encoded = source.encode("utf-8")
        diagnostics = []
        for error in output.get("errors", []):
            if error.get("severity") != "error":
                continue
            message = error.get("formattedMessage") or error.get("message", "")
            # An undeclared identifier is the text the error spans, not a
            # name its message quotes ("Did you mean ...?").
            line, spanned = _spanned(error, encoded)
            diagnostic = classify_error(message, line=line)
            if spanned and diagnostic.kind == "UndeclaredIdentifier":
                diagnostic = replace(diagnostic, identifier=spanned)
            diagnostics.append(diagnostic)
        if diagnostics:
            return ExecutionVerdict(
                status=STATUS_COMPILE_ERROR,
                diagnostics=tuple(diagnostics),
                elapsed=time.perf_counter() - t0,
                backend=self.name,
                backend_version=self.version,
            )
        return ExecutionVerdict(
            status=STATUS_PASS,
            elapsed=time.perf_counter() - t0,
            backend=self.name,
            backend_version=self.version,
        )

    def verify(
        self, oracle: SourceIndex, completed: LocatedCompletion, target_function_id: str
    ) -> ExecutionVerdict:
        verdict = self.compile(completed.source_in(oracle))
        if verdict.status != STATUS_COMPILE_ERROR:
            return verdict
        return replace(verdict, diagnostics=self._rebase(verdict.diagnostics, oracle, completed))

    @staticmethod
    def _rebase(
        diagnostics: Sequence[Diagnostic], oracle: SourceIndex, completed: LocatedCompletion
    ) -> tuple[Diagnostic, ...]:
        """Rebase absolute source lines that fall on the completed body onto
        that body; every other line stays absolute, and so does every line
        when the body is the oracle's own.

        The body starts on the line of the target's '{', which the oracle's
        index holds, and spans as many more lines as it has newlines.
        """
        diagnostics = tuple(diagnostics)
        if all(d.line is None for d in diagnostics) or completed.keeps_body_of(oracle):
            return diagnostics
        first = oracle.line_of(completed.target.body_start)
        last = first + completed.body.count("\n")
        return tuple(
            replace(d, line=d.line - first + 1)
            if d.line is not None and first <= d.line <= last
            else d
            for d in diagnostics
        )


class SubprocessFuzzBackend:
    """Adapter for external differential fuzzers.

    Contract (documented in docs/formats.md): the command reads a
    fuzz-request@1 JSON object on stdin and writes a fuzz-report@1 JSON
    object on stdout, exiting 0. Any other behaviour is an infrastructure
    failure and maps to executor_unavailable.
    """

    name = "fuzz"
    waits = True

    def __init__(self, command: Sequence[str], timeout: float = DEFAULT_TIMEOUT) -> None:
        self.command = list(command)
        self.timeout = timeout
        self.version = " ".join(self.command)

    def verify(
        self, oracle: SourceIndex, completed: LocatedCompletion, target_function_id: str
    ) -> ExecutionVerdict:
        t0 = time.perf_counter()
        request = {
            "schema": "fuzz-request@1",
            "oracle_source": oracle.text,
            "completed_source": completed.source_in(oracle),
            "target_function_id": target_function_id,
        }

        def unavailable(reason: str) -> ExecutionVerdict:
            return ExecutionVerdict(
                status=STATUS_EXECUTOR_UNAVAILABLE,
                diagnostics=(Diagnostic("Other", reason),),
                elapsed=time.perf_counter() - t0,
                backend=self.name,
                backend_version=self.version,
            )

        try:
            proc = subprocess.run(
                self.command,
                input=json.dumps(request),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except FileNotFoundError:
            return unavailable(f"fuzz command {self.command[0]!r} not found")
        except subprocess.TimeoutExpired:
            return unavailable(f"fuzz command timed out after {self.timeout}s")
        if proc.returncode != 0:
            return unavailable(
                f"fuzz command exited {proc.returncode}: {proc.stderr[:200]}"
            )
        try:
            report = json.loads(proc.stdout)
            status = report["status"]
            diagnostics = tuple(
                Diagnostic.from_json(d) for d in report.get("diagnostics", [])
            )
            return ExecutionVerdict(
                status=status,
                diagnostics=diagnostics,
                elapsed=time.perf_counter() - t0,
                backend=self.name,
                backend_version=str(report.get("version", self.version)),
                backend_seed=report.get("seed"),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            return unavailable(f"fuzz report malformed: {exc}")


def differential_verify(
    oracle: SourceIndex, completed: LocatedCompletion, task_id: str, backend
) -> ExecutionVerdict:
    """Behavioural equivalence through a differential backend, whose verify
    takes the oracle's index, the located completion and the task id.

    Backend crashes are infrastructure failures (executor_unavailable), not
    model failures.
    """
    try:
        return backend.verify(oracle, completed, task_id)
    except Exception as exc:  # adapter bugs must not be charged to the model
        return ExecutionVerdict(
            status=STATUS_EXECUTOR_UNAVAILABLE,
            diagnostics=(
                Diagnostic("Other", f"backend {getattr(backend, 'name', '?')} raised: {exc}"),
            ),
            backend=getattr(backend, "name", "?"),
            backend_version=getattr(backend, "version", ""),
        )
