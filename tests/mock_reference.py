"""The mock backend's body readers as they were at mock-diff@8, before one
tree replaced them: the differential reference the tree's resolver and
evaluator must agree with.

Each reader read the completed body its own way: a regex token walk for the
names it uses, a split at ';' with one regex per statement form for the
evaluator. `reference_read` is the backend's reading path as it was built on
them, with the one later rule that changes which oracles are evaluated
(mock-diff@12); `reference_verify` puts before it the two rules that judge a
body before it is read (mock-diff@13). Both share every other part with
`solrepair.executor`.

`scopes` is the mock's own reading of what an oracle declares, as it was
before the source index's declaration table replaced it: the reference that
`SourceIndex.declarations` and `SourceIndex.visible` must agree with.
"""

from __future__ import annotations

import json
import re
import time
from typing import Iterable, Iterator, NamedTuple

from solrepair.corpus import (
    _DECLARATION_RE,
    _NAME,
    _NOT_TYPES,
    _PARENS,
    _SIZED_TYPE_RE,
    MalformedSourceError,
    SOLIDITY_KEYWORDS,
    SourceIndex,
    _is_declaration,
    pair_braces,
    scrub,
)
from solrepair.executor import (
    _NAMED_FUNCTION_RE,
    _NOT_ONE_BLOCK,
    ExecutorFixture,
    LocatedCompletion,
    _constant,
    _EvalError,
    _generated_cases,
    _is_single_block,
    _normalized,
    _Oracle,
    _parse_expression,
    _TOO_DEEP,
    _without_assembly,
)

# One token of a body walk: a name (group 2), led by the '.' of a member
# access (group 1) and followed by the ':' of a named argument (group 3)
# when it has either; or one of `{ } ( ) ; ,`. A name never starts right
# after a digit: `0x1f` and `1e18` are numbers.
_WALK_RE = re.compile(rf"(\.\s*)?(?<!\d)({_NAME})(\s*:(?!=))?|[{{}}();,]")


def unresolved(body: str, own: Iterable[str]) -> Iterator[re.Match]:
    """Each use of a name in body, a scrubbed block with Yul blanked, that
    neither own nor a local in scope declares, in order; the name is group 2.

    A declaration may follow a '{', '}', ';', '(' or ',': it starts a
    statement, a `for` header, a tuple's component (`(T a, , T b) = ...`) or
    a `try`/`catch` clause's parameter. Its names enter scope after its
    statement and leave at the end of their block, a `for` header's at the
    end of its loop; a clause's parameters are in scope in the block that
    follows the clause. The type names of a declaration are uses; members,
    named-argument keys, keywords, elementary types and the `Error` or
    `Panic` of a `catch` are not.
    """
    if all(map(_SIZED_TYPE_RE.match, set(re.findall(_NAME, body)).difference(own, SOLIDITY_KEYWORDS))):
        return  # every word is own, a keyword or an elementary type
    scopes: list[tuple[set[str], int | None]] = [(set(own), None)]  # names, and a loop's paren depth
    declared: dict[int, str] = {}  # the names the statement or clause being walked declares
    # Whether the statement being walked has reached a `returns` or `catch`:
    # the block that follows a clause's closing ')' takes its parameters.
    clause = False
    depth, last, start, ended = 0, "", False, False
    for m in _WALK_RE.finditer(body):
        name, token = m[2], m[0]
        if ended and name not in ("else", "catch"):  # the loops whose body the last statement ended
            while scopes[-1][1] == depth:
                scopes.pop()
        if name is not None:
            # A declaration starts with a name that may lead a type.
            if start and name not in _NOT_TYPES and _is_declaration(d := _DECLARATION_RE.match(body, m.start())):
                declared[d.start("name")] = d["name"]
            if not (
                m[1] or name in SOLIDITY_KEYWORDS or any(name in names for names, _ in scopes)
                or m.start(2) in declared or m[3] and last in ("{", ",") or _SIZED_TYPE_RE.match(name)
                or last == "catch" and name in ("Error", "Panic")
            ):
                yield m
            clause = clause or name in ("returns", "catch")
            token = name
        elif token == "{" and clause and last == ")":
            scopes.append((set(declared.values()), None))
            declared, clause = {}, False
        elif token == "{" or token == "(" and last == "for":
            scopes.append((set(), None if token == "{" else depth))
        elif token == "}" and len(scopes) > 1:
            scopes.pop()
        elif token == ";":
            scopes[-1][0].update(declared.values())
            declared, clause = {}, False
        depth += (token == "(") - (token == ")")
        start, ended, last = token in ("{", "}", ";", "(", ","), token in (";", "}"), token


_CHUNK_RE = re.compile(r"[^;{]*")
_MEMBER_RE = re.compile(
    rf"\s*(?:abstract\s+)?(contract|interface|library|struct|enum|function|modifier|event|error|type)\s+({_NAME})"
)


def members(scrubbed: str, start: int, end: int, closing: dict[int, int]) -> Iterator[tuple]:
    """(keyword, name, header, body) of each declaration directly in
    scrubbed[start:end], skipping the bodies in it: keyword is None for a
    variable, body the offset of the '{' or -1."""
    pos = start
    while pos < end:
        stop = _CHUNK_RE.match(scrubbed, pos, end).end()
        body = stop if scrubbed.startswith("{", stop, end) else -1
        if m := _MEMBER_RE.match(scrubbed, pos, stop):
            yield m[1], m[2], scrubbed[pos:stop], body
        elif _is_declaration(d := _DECLARATION_RE.match(scrubbed, pos, stop)):
            yield None, d["name"], scrubbed[pos:stop], -1
        pos = stop + 1 if body == -1 else closing[body] + 1


def scopes(index: SourceIndex) -> list[tuple[int, int, frozenset[str] | None]]:
    """The span of each contract, interface and library of index with the
    names a function in it sees from outside its body, then the whole text's
    span with the file-level names, which free functions see. The names are
    None where they cannot be decided: the text imports, or a base of the
    contract is not declared in it."""
    scrubbed = index.scrubbed
    if re.search(r"\bimport\b", scrubbed):
        return [(0, len(scrubbed), None)]
    closing = pair_braces(scrubbed, 0)[0]
    outer: set[str] = set()
    # Each contract's span, the names its functions see from it and its
    # bases, and the names it passes on to what inherits from it.
    contracts: dict[str, tuple] = {}
    for keyword, name, header, body in members(scrubbed, 0, len(scrubbed), closing):
        outer.add(name)
        if keyword in ("contract", "interface", "library") and body != -1:
            inside = list(members(scrubbed, body + 1, closing[body], closing))
            # solc takes a base only when it is declared before what inherits it.
            bases = re.split(r"\bis\b", re.sub(_PARENS, "", header), 1)[1:]
            above = [contracts.get(base.strip(), (None,) * 4)[3] for base in bases and bases[0].split(",")]
            visible = (m[1] for m in inside if not re.search(r"\bprivate\b", m[2]))
            passed = None if None in above else set().union(*above, visible)
            seen = None if passed is None else passed.union(m[1] for m in inside)
            contracts[name] = (body, closing[body], seen, passed)
    spans = [(s, e, None if seen is None else frozenset(outer | seen)) for s, e, seen, _ in contracts.values()]
    return [*spans, (0, len(scrubbed), frozenset(outer))]


def visible(index: SourceIndex, offset: int) -> frozenset[str] | None:
    """The names a function declared at offset sees from outside its body,
    read from scopes(index)."""
    return next(names for start, end, names in scopes(index) if start <= offset <= end)


DECL_STMT_RE = re.compile(r"^(?:uint\d*|int\d*|bool)\s+([A-Za-z_$][A-Za-z0-9_$]*)\s*(?:=\s*(.+))?$", re.S)
RETURN_STMT_RE = re.compile(r"^return\s+(.+)$", re.S)


class Step(NamedTuple):
    """One statement: a declaration of `name`, or `return` when name is None."""

    name: str | None
    evaluate: object
    reads: frozenset[str]


def parse_statement(stmt: str) -> Step | None:
    if decl := DECL_STMT_RE.match(stmt):
        name, expr = decl.groups()
    elif ret := RETURN_STMT_RE.match(stmt):
        name, expr = None, ret.group(1)
    else:
        return None
    if expr is None:
        return Step(name, _constant(0), frozenset())
    parsed = _parse_expression(expr)
    return None if parsed is None else Step(name, *parsed)


def interpret_body(body: str, params: Iterable[str] = ()) -> list[Step] | None:
    """The body's statements, split at ';', as steps; None when one is
    outside the grammar or reads a name neither in params nor declared by an
    earlier statement."""
    inner = body.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        return None
    bound = set(params)
    steps = []
    for stmt in filter(None, map(str.strip, inner[1:-1].split(";"))):
        step = parse_statement(stmt)
        if step is None or not step.reads <= bound:
            return None
        if step.name is not None:
            bound.add(step.name)
        steps.append(step)
    return steps


def statements(body: str) -> list[str]:
    """The statements of body, a block, as interpret_body splits them, each
    from its first token with its whitespace runs collapsed: two bodies
    whose lists are equal have the same steps."""
    return [re.sub(r"\s+", " ", stmt.lstrip()) for stmt in body.strip()[1:-1].split(";") if stmt.strip()]


def evaluate_body(steps: list[Step], inputs: dict):
    env = dict(inputs)
    try:
        for name, evaluate, _ in steps:
            value = evaluate(env)
            if name is None:
                return value
            env[name] = value
    except KeyError as exc:
        raise _EvalError(f"unbound name {exc.args[0]!r}") from None
    except RecursionError:
        raise _EvalError(_TOO_DEEP) from None
    return None


def _other(message: str, line: int | None = None) -> tuple:
    return (("Other", message, line, None),)


def reference_verify(
    oracle: SourceIndex, completed: LocatedCompletion, task_id: str, fixture: dict | None = None, seed: int = 0
) -> tuple[str, tuple]:
    """The status and the diagnostics, each as (kind, message, line,
    identifier), that verify gives (mock-diff@13): a body that holds a
    character outside ASCII but in comments and strings is a compile_error
    at its first such character, and one that is the oracle's body laid out
    otherwise passes unread where no table judges it; any other body gets
    reference_read's verdict."""
    try:
        prepared = _Oracle(oracle)
    except MalformedSourceError as exc:
        return "compile_error", _other(str(exc))
    if completed.keeps_body_of(oracle):
        return "pass", ()
    text = completed.body
    stray = next((i for i, char in enumerate(scrub(text)) if ord(char) > 127), None)
    if stray is not None:
        message = f"Invalid character U+{ord(text[stray]):04X} outside a comment or string literal."
        return "compile_error", _other(message, text.count("\n", 0, stray) + 1)
    table = ExecutorFixture.from_json(fixture or {}).functions.get(task_id)
    old = prepared.body(completed.target).text
    if table is None and text[:1] == "{" and text[-1:] == "}" and _normalized(text) == _normalized(old):
        return "pass", ()
    return reference_read(oracle, completed, task_id, fixture, seed)


def reference_read(
    oracle: SourceIndex, completed: LocatedCompletion, task_id: str, fixture: dict | None = None, seed: int = 0
) -> tuple[str, tuple]:
    """The status and the diagnostics that verify gave at mock-diff@8 to a
    body other than the oracle's own text, but that a body whose statements
    are the oracle's passes without the oracle being evaluated, as two
    identical bodies do in a differential run (mock-diff@12): the verdict of
    verify's reading path, below its identity checks."""
    prepared = _Oracle(oracle)
    scrubbed = scrub(completed.body)
    if not _is_single_block(scrubbed):
        return "compile_error", _other(_NOT_ONE_BLOCK)
    old, text = prepared.body(completed.target), completed.body
    body = _without_assembly(scrubbed)
    nested = _NAMED_FUNCTION_RE.search(body)
    if nested is not None:
        line = text.count("\n", 0, nested.start()) + 1
        return "compile_error", _other(f'Function "{nested[1]}" declared inside a function body.', line)
    use = next((u for u in unresolved(body, old.own) if not prepared.declares(completed.target, u[2])), None)
    if use is not None:
        line = text.count("\n", 0, use.start(2)) + 1
        return "compile_error", (("UndeclaredIdentifier", f'Undeclared identifier "{use[2]}".', line, use[2]),)
    table = ExecutorFixture.from_json(fixture or {}).functions.get(task_id)
    steps = interpret_body(text, old.params)
    oracle_steps = interpret_body(old.text, old.params) if table is None else []
    if steps is None or oracle_steps is None:
        if _normalized(old.text) == _normalized(text):
            return "pass", ()
        return "functional_mismatch", _other("completed body differs from the oracle and cannot be evaluated")
    if table is not None:
        cases = [(case.inputs, case.output) for case in table.cases]
    elif statements(text) == statements(old.text):
        return "pass", ()
    else:
        cases = []
        for inputs in _generated_cases(old.params, f"{seed}:{old.name}"):
            try:
                cases.append((inputs, evaluate_body(oracle_steps, inputs)))
            except _EvalError as exc:
                return "executor_unavailable", _other(f"oracle evaluation failed: {exc}")
    for inputs, expected in cases:
        shown = json.dumps(inputs, sort_keys=True)
        try:
            got = evaluate_body(steps, inputs)
        except _EvalError as exc:
            return "functional_mismatch", _other(f"evaluation failed for inputs {shown}: {exc}")
        if got != expected:
            return "functional_mismatch", _other(f"output mismatch for inputs {shown}: expected {expected}, got {got}")
    return "pass", ()


def read_verdict(backend, oracle: SourceIndex, completed: LocatedCompletion, task_id: str):
    """The verdict of backend's verify on completed from its reading path,
    below the identity checks that pass the oracle's own text and tokens
    unread."""
    table = backend.fixture.functions.get(task_id)
    return backend._read(time.perf_counter(), backend._oracle(oracle), completed, table)


def verdict_of(verdict) -> tuple[str, tuple]:
    """A verdict as reference_verify gives it."""
    return verdict.status, tuple((d.kind, d.message, d.line, d.identifier) for d in verdict.diagnostics)
