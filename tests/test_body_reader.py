"""The mock's one body tree against the readers it replaced
(tests/mock_reference.py): the same status and diagnostics on every fixture
body and on generated bodies, but for the bodies that mock-diff@9 evaluates
on purpose, which hold comments; and those changed cases on their own."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mock_reference import reference_verify, verdict_of
from solrepair import executor
from solrepair.corpus import _SCRUB_RE, SourceIndex, read_task_file
from solrepair.executor import ScriptedDifferentialBackend, scrub, substitute_function
from solrepair.repair import extract_code_block

FIXTURES = Path(__file__).parent / "fixtures"
SOURCES = sorted(
    path for name in ("e2e", "corpus20", "scope", "commented") for path in (FIXTURES / name).rglob("*.sol")
)
E2E_REPLIES = sorted(set(json.loads((FIXTURES / "e2e" / "mock_client.json").read_text())["completions"].values()))
SCOPE_COMPLETIONS = [json.loads(line)["body"] for line in (FIXTURES / "scope" / "completions.jsonl").open()]


def modelled(body: str) -> bool:
    """True when the evaluator reads each statement of body, whatever names
    the statements read."""
    text = executor._blanked(body)
    statements = None if text is None else executor._statements(body, text, {})
    return executor._steps(statements, re.findall(executor._NAME, body), {}) is not None


def evaluated_for_its_comments(body: str) -> bool:
    """True when mock-diff@9 evaluates body, which holds a comment, where
    the reference compared it as text."""
    return modelled(body) and any(m[0][0] == "/" for m in _SCRUB_RE.finditer(body))


def braces_in_a_loop_body(body: str) -> bool:
    """True when a `for` whose body has no braces of its own holds braces
    (call options, named arguments) before that body's `;`: the reference
    ended the loop's scope at their `}` (tests/test_body_reader.py pins what
    mock-diff@9 does instead)."""
    scrubbed = scrub(body)
    for m in re.finditer(r"\bfor\s*\(", scrubbed):
        depth, k = 1, m.end()
        while depth and k < len(scrubbed):
            depth += {"(": 1, ")": -1}.get(scrubbed[k], 0)
            k += 1
        rest = scrubbed[k:].lstrip()
        if not rest.startswith("{") and "{" in rest.split(";", 1)[0]:
            return True
    return False


def assert_reference_verdict(index: SourceIndex, fn, body: str, fixture: dict | None = None) -> None:
    completed = substitute_function(fn, body)
    got = ScriptedDifferentialBackend(fixture, seed=7).verify(index, completed, fn.name)
    if not (evaluated_for_its_comments(body) or braces_in_a_loop_body(body)):
        assert verdict_of(got) == reference_verify(index, completed, fn.name, fixture, seed=7), body


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_fixture_bodies_get_the_reference_verdicts(path):
    """Every function of the fixture sources judged against each of their
    bodies, respaced, and against the e2e replies and the scope probes."""
    index = SourceIndex.from_text(path.name, path.read_text(encoding="utf-8"))
    functions = [fn for fn in index.functions if fn.body_start >= 0]
    bodies = [index.text[fn.body_start : fn.body_end + 1] for fn in functions]
    candidates = [body.replace("\n", "\n  ") for body in bodies] + ["{ " + body[1:] for body in bodies]
    if path.parent.name == "sources" and path.parent.parent.name in ("e2e", "scope"):
        candidates += E2E_REPLIES + SCOPE_COMPLETIONS
    assert functions and candidates
    for fn in functions:
        for body in candidates:
            assert_reference_verdict(index, fn, body)


def test_fixture_bodies_read_the_same_with_the_executor_table():
    tasks = read_task_file(FIXTURES / "e2e" / "tasks.jsonl")
    fixture = json.loads((FIXTURES / "e2e" / "mock_executor.json").read_text())
    files = {}
    for task in tasks:
        index = files.get(task.source_path) or files.setdefault(
            task.source_path,
            SourceIndex.from_text(task.source_path, (FIXTURES / "e2e" / "sources" / task.source_path).read_text()),
        )
        fn = index.find(task.name, *task.span)
        for body in map(extract_code_block, E2E_REPLIES):
            completed = substitute_function(fn, body)
            got = ScriptedDifferentialBackend(fixture).verify(index, completed, task.task_id())
            assert not evaluated_for_its_comments(body)
            assert verdict_of(got) == reference_verify(index, completed, task.task_id(), fixture), body


# A contract whose target `f` sees parameters, a named return, state
# variables, a struct, an enum, an interface-typed variable and a function.
CONTRACT = """pragma solidity ^0.8.0;

interface IT {
    function get() external view returns (uint256);
}

contract C {
    struct S {
        uint256 x;
        uint256 y;
    }

    enum E { One, Two }

    uint256 total;
    uint256 constant LIMIT = 7;
    IT tok;

    /// Adds.
    function add(uint256 a, uint256 b) internal pure returns (uint256) {
        return a + b;
    }

    /// The target.
    function f(uint256 a, uint256 b) public view returns (uint256 r) {
        uint256 s = a + b;
        return s / 2;
    }
}
"""
INDEX = SourceIndex.from_text("c.sol", CONTRACT)
TARGET = next(fn for fn in INDEX.functions if fn.name == "f")

CANNOT = "completed body differs from the oracle and cannot be evaluated"

# Names: parameters, the named return, locals the bodies declare, members
# of the contract, and names declared nowhere.
NAMES = st.sampled_from(["a", "b", "a", "b", "r", "s", "t0", "t1", "i", "v", "ok", "total", "LIMIT", "add", "zz"])
ATOMS = st.one_of(NAMES, st.sampled_from(["1", "2", "0", "0x1f", "true", "1e18", "tok.get()", "S(a, b).x"]))
EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "%", ">", "<", "==", "&&"]), inner).map(" ".join),
        st.tuples(inner, inner, inner).map(lambda t: f"{t[0]} > 0 ? {t[1]} : {t[2]}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["add", "zz", "f"]), inner, inner).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    ),
    max_leaves=4,
)
LOCALS = st.sampled_from(["s", "t0", "t1", "v", "i"])
TYPES = st.sampled_from(["uint256", "uint256", "bool", "int8", "S memory", "uint256[] memory", "Missing", "IT"])
COMMENTS = st.sampled_from(["// note ; } {\n", "/* x; */", "/** ) ( */", "//\n"])


def statement(depth: int):
    simple = st.one_of(
        st.tuples(TYPES, LOCALS, EXPRESSIONS).map(lambda t: f"{t[0]} {t[1]} = {t[2]};"),
        st.tuples(TYPES, LOCALS).map(lambda t: f"{t[0]} {t[1]};"),
        EXPRESSIONS.map(lambda e: f"return {e};"),
        EXPRESSIONS.map(lambda e: f"return({e});"),
        EXPRESSIONS.map(lambda e: f"r = {e};"),
        st.tuples(LOCALS, LOCALS, EXPRESSIONS).map(lambda t: f"(uint256 {t[0]}, , uint256 {t[1]}) = ({t[2]}, 0, 1);"),
        st.tuples(LOCALS, EXPRESSIONS).map(lambda t: f"(bool {t[0]}, ) = payable(a).call{{value: {t[1]}}}(\"\");"),
        EXPRESSIONS.map(lambda e: f'require({e} > 0, "too small; {{");'),
        EXPRESSIONS.map(lambda e: f"r = add({{a: {e}, b: 1}});"),
        st.sampled_from(["assembly { let x := add(a, 1) mstore(0, x) }", ";", "revert();", "emit E(a);"]),
    )
    if depth >= 3:
        return simple
    inner = statement(depth + 1)
    block = st.lists(inner, max_size=3).map(lambda stmts: "{ " + " ".join(stmts) + " }")
    branch = st.one_of(inner, block)
    return st.one_of(
        simple,
        simple,
        block,
        st.tuples(EXPRESSIONS, branch, st.none() | branch).map(
            lambda t: f"if ({t[0]}) {t[1]}" + (f" else {t[2]}" if t[2] else "")
        ),
        st.tuples(LOCALS, EXPRESSIONS, branch).map(
            lambda t: f"for (uint256 {t[0]} = 0; {t[0]} < {t[1]}; {t[0]}++) {t[2]}"
        ),
        st.tuples(EXPRESSIONS, branch).map(lambda t: f"while ({t[0]}) {t[1]}"),
        st.tuples(block, EXPRESSIONS).map(lambda t: f"do {t[0]} while ({t[1]});"),
        block.map(lambda b: f"unchecked {b}"),
        st.tuples(LOCALS, block, LOCALS, block, block).map(
            lambda t: f"try tok.get() returns (uint256 {t[0]}) {t[1]} catch Error(string memory {t[2]}) {t[3]} "
            f"catch (bytes memory) {t[4]}"
        ),
    )


# Straight-line statements, weighted over the rest so that the evaluator
# is reached often.
STRAIGHT = st.one_of(
    st.tuples(st.sampled_from(["uint256", "bool", "int8", "uint"]), LOCALS, EXPRESSIONS).map(
        lambda t: f"{t[0]} {t[1]} = {t[2]};"
    ),
    EXPRESSIONS.map(lambda e: f"return {e};"),
    st.sampled_from(
        ["uint256 s = a + b;", "return s / 2;", "return b + a;", "uint256 t0;", "return a", "uint256 t1 =;", "7;", "+ return b;"]
    ),
)
BODIES = st.tuples(
    st.lists(st.one_of(STRAIGHT, STRAIGHT, statement(0), COMMENTS), max_size=5),
    st.sampled_from([" ", "\n        ", ""]),
).map(lambda t: "{" + t[1] + t[1].join(t[0]) + t[1] + "}")


@settings(max_examples=400, deadline=None)
@example("{ uint256 s = a + b; return s / 2; }", False)
@example("{ return a; // ; }\n}", False)
@example("{ for (uint256 i = 0; i < a; i++) if (i > 0) r += i; else r = i; return i; }", False)
@example("{ try tok.get() returns (uint256 v) { r = v; } catch { r = v; } }", False)
@example('{ (bool v, ) = payable(a).call{value: add(a, v > 0 ? 2 : b)}(""); }', False)
@example("{ 7; return b + a; }", False)
@example("{ return b + a; 7 }", False)
@example("{ r = add({a: v - 1, b: 0.5 ether}); }", False)
@given(body=BODIES, table=st.booleans())
def test_property_generated_bodies_get_the_reference_verdicts(body, table):
    fixture = {"functions": {"f": {"cases": [{"inputs": {"a": 3, "b": 4}, "output": 3}]}}} if table else None
    assert_reference_verdict(INDEX, TARGET, body, fixture)


@pytest.mark.parametrize(
    "inner", ["return zz;", "uint256 s = a; return s + b;", "{ uint256 s; } r = total + a;", "return a; } zz; {"]
)
def test_a_body_nested_past_the_bound_gets_the_reference_verdict(inner):
    """A body nested past the reader's bound is compared as text, and its
    names are resolved by a flat scan: a name declared nowhere is the
    compile_error that the reference (and solc) gives, on its line."""
    deep = "{\n" + "{" * 300 + "\n" + inner + "}" * 300 + "\n}"
    assert not modelled(deep)
    assert_reference_verdict(INDEX, TARGET, deep)


def test_past_the_bound_a_local_used_out_of_its_scope_is_not_caught():
    """The flat scan takes a name declared anywhere in the body for
    declared: past the bound, a local used outside its block is judged by
    the text, where the reference found it undeclared."""
    deep = "{" * 300 + "{ uint256 q; } return q;" + "}" * 300
    verdict = ScriptedDifferentialBackend().verify(INDEX, substitute_function(TARGET, deep), "f")
    assert (verdict.status, verdict.diagnostics[0].message) == ("functional_mismatch", CANNOT)
    assert reference_verify(INDEX, substitute_function(TARGET, deep), "f")[0] == "compile_error"


@pytest.mark.parametrize(
    "body,status,identifier",
    [
        ("{ for (uint256 i = 0; i < a; i++) tok.get{value: 1}(i); return a; }", "functional_mismatch", None),
        ('{ for (uint256 i = 0; i < a; i++) (bool ok, ) = payable(a).call{value: 1}(""); return ok ? a : b; }',
         "compile_error", "ok"),
    ],
    ids=["loop-local-after-call-options", "declaration-in-the-loop-body"],
)
def test_a_loop_body_without_braces_keeps_the_loop_scope_past_call_options(body, status, identifier):
    """A `for` body without braces of its own is in the loop's scope up to
    its `;`, braces of call options in it included: the loop's `i` is
    declared after them, and a local the body declares is out of scope
    after the loop. The reference ended the loop's scope at the options'
    `}`, so it took that `i` for undeclared and the local for declared."""
    assert braces_in_a_loop_body(body)
    verdict = ScriptedDifferentialBackend().verify(INDEX, substitute_function(TARGET, body), "f")
    assert (verdict.status, verdict.diagnostics[0].identifier) == (status, identifier)
    assert reference_verify(INDEX, substitute_function(TARGET, body), "f") != verdict_of(verdict)


@pytest.mark.parametrize("body", ["{ 7; return b + a; }", "{ + return b + a; }", "{ return b + a; 7 }", "{ 7 }"])
def test_text_that_no_token_holds_leaves_a_statement_opaque(body):
    """An operator or a literal before a statement's first token, or
    between the last `;` and the body's `}`, is a statement the evaluator
    does not model: the body is compared as text, as the reference did."""
    assert not modelled(body)
    assert_reference_verdict(INDEX, TARGET, body)


# mock-diff@9 on purpose: the evaluator reads a comment as blanks, as the
# tree does, and a parameter list runs to its matching ')'.
ADD_INDEX = SourceIndex.from_text(
    "add.sol", "contract A {\n    /// Adds.\n    function add(uint256 a, uint256 b) public pure returns (uint256) {\n"
    "        return a + b;\n    }\n}\n"
)
(ADD_FN,) = ADD_INDEX.functions


@pytest.mark.parametrize(
    "body,status,message",
    [
        ("{ return b + a; // sum\n}", "pass", None),
        ("{ return b /* x */ + a; }", "pass", None),
        ("{ /* first */ uint256 s = b + a; // then\n return s; }", "pass", None),
        ("{ return b - a; // difference\n}", "functional_mismatch", "output mismatch for inputs"),
        ('{ require(a > 0, "a"); return b + a; }', "functional_mismatch", CANNOT),
        ("{ return b + a; assembly { } }", "functional_mismatch", CANNOT),
    ],
    ids=["line-comment", "block-comment", "comments-around-statements", "wrong-body", "string", "assembly"],
)
def test_comments_are_blanks_to_the_evaluator_and_strings_are_not_modelled(body, status, message):
    verdict = ScriptedDifferentialBackend().verify(ADD_INDEX, substitute_function(ADD_FN, body), "add")
    assert verdict.status == status
    assert message is None or verdict.diagnostics[0].message.startswith(message)
    assert reference_verify(ADD_INDEX, substitute_function(ADD_FN, body), "add")[0] == "functional_mismatch"


@settings(max_examples=200, deadline=None)
@given(body=BODIES, data=st.data())
def test_property_comments_in_place_of_whitespace_change_no_evaluated_verdict(body, data):
    """A body without comments that the evaluator models gets the same
    verdict with a comment in place of any of its spaces (`/* c */`) and
    newlines (`// c`), which keep its lines."""
    if not modelled(body) or scrub(body) != body:
        return
    blanks = {" ": [" ", " /* c; } */ "], "\n": ["\n", " // c ; {\n"]}
    commented = "".join(data.draw(st.sampled_from(blanks[c])) if c in blanks else c for c in body)
    assert commented.count("\n") == body.count("\n")
    got = ScriptedDifferentialBackend(seed=7).verify(INDEX, substitute_function(TARGET, commented), "f")
    want = ScriptedDifferentialBackend(seed=7).verify(INDEX, substitute_function(TARGET, body), "f")
    assert verdict_of(got) == verdict_of(want), commented


@pytest.mark.parametrize(
    "signature,names",
    [
        ("function f(mapping(address => uint256) storage m, address who) internal", ["m", "who"]),
        ("function g(function (uint256) internal pure returns (uint256) f, uint256 a) internal", ["f", "a"]),
        ("function h(mapping(address => mapping(uint256 => bool)) storage seen, S calldata s)", ["seen", "s"]),
        ("function k(uint256 a, (uint256 b)", []),
    ],
    ids=["mapping", "function-type", "nested-mapping", "not-closed"],
)
def test_a_parameter_list_runs_to_its_matching_parenthesis(signature, names):
    assert executor._param_names(signature) == names
