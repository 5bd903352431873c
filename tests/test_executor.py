"""Error classification, body splicing, and the verification backends."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solrepair.corpus import (
    IndexedFunction,
    MalformedSourceError,
    SourceIndex,
    extract_functions,
    read_task_file,
)
from solrepair.executor import (
    Diagnostic,
    ExecutionVerdict,
    LocatedCompletion,
    ScriptedDifferentialBackend,
    SolcCompileBackend,
    SubprocessFuzzBackend,
    classify_error,
    differential_verify,
    evaluate_body,
    substitute_function,
)
from solrepair import corpus, executor
from solrepair.executor import ExecutorCase, ExecutorFixture, ExecutorTable, _EvalError, _Oracle
from solrepair.repair import extract_code_block
from solrepair.retrieval import Query, queries_for_method
from solrepair.rows import read_json

import mock_reference

ORACLE = """pragma solidity ^0.8.0;

contract Math {
    uint256 public total;

    /// Adds two numbers.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    /// Halves the sum.
    function avg(uint256 a, uint256 b) public pure returns (uint256) {
        uint256 s = a + b;
        return s / 2;
    }

    /// Sums 0..n-1.
    function loop(uint256 n) public pure returns (uint256) {
        uint256 acc = 0;
        for (uint256 i = 0; i < n; i++) { acc = acc + i; }
        return acc;
    }
}
"""

FILE = SourceIndex.from_text("math.sol", ORACLE)
ADD, AVG, LOOP = extract_functions(FILE)


def splice(index: SourceIndex, record, body: str) -> LocatedCompletion:
    """body in place of the body of the function that record names within
    its span, located as the harness locates a task's target."""
    return substitute_function(index.find(record.name, *record.span), body)


def completed_with(record, body: str) -> LocatedCompletion:
    return splice(FILE, record, body)


# The oracle itself, as a completion of add.
UNCHANGED = completed_with(ADD, ADD.body)


class TestClassifyError:
    @pytest.mark.parametrize(
        "message,kind,identifier,line",
        [
            ('task.sol:7:9: Error: Undeclared identifier "helper".', "UndeclaredIdentifier", "helper", 7),
            ('Member "push" not found or not visible after argument-dependent lookup.', "Member", "push", None),
            ("Identifier not found or not unique.", "IdentifierNotUnique", None, None),
            ("Indexed expression has to be a type, mapping or array (is function).", "IndexedExpression", None, None),
            ("Type uint256 is not implicitly convertible to expected type address.", "ImplicitlyConvertible", None, None),
            ("Stack too deep, try removing local variables.", "Other", None, None),
        ],
    )
    def test_taxonomy(self, message, kind, identifier, line):
        d = classify_error(message)
        assert d.kind == kind
        assert d.identifier == identifier
        assert d.line == line
        assert d.message == message

    def test_first_pattern_wins(self):
        d = classify_error('Undeclared identifier "Member".')
        assert d.kind == "UndeclaredIdentifier"
        assert d.identifier == "Member"

    def test_explicit_line_and_identifier_kept(self):
        d = classify_error("anything", line=3, identifier="x")
        assert (d.line, d.identifier) == (3, "x")

    def test_total_over_arbitrary_text(self):
        assert classify_error("").kind == "Other"
        assert classify_error("\x00 weird \n output").kind == "Other"


class TestVerdictTypes:
    def test_diagnostic_kind_validated(self):
        with pytest.raises(ValueError, match="diagnostic kind"):
            Diagnostic(kind="Meltdown", message="m")

    def test_pass_with_diagnostics_rejected(self):
        with pytest.raises(ValueError, match="no diagnostics"):
            ExecutionVerdict(status="pass", diagnostics=(Diagnostic("Other", "m"),))

    def test_compile_error_needs_diagnostics(self):
        with pytest.raises(ValueError, match="at least one"):
            ExecutionVerdict(status="compile_error")

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            ExecutionVerdict(status="maybe")

    def test_json_round_trip(self):
        v = ExecutionVerdict(
            status="compile_error",
            diagnostics=(Diagnostic("Member", 'Member "x".', line=2, identifier="x"),),
            elapsed=0.5,
            backend="mock-diff",
            backend_version="mock-diff@1",
            backend_seed=3,
        )
        assert ExecutionVerdict.from_json(json.loads(json.dumps(v.to_json()))) == v


class TestSubstitute:
    def test_splice_preserves_everything_else(self):
        new_body = "{ return b + a; }"
        completed = completed_with(ADD, new_body).source_in(FILE)
        start = ORACLE.index(ADD.body)
        assert completed[:start] == ORACLE[:start]
        assert completed[start : start + len(new_body)] == new_body
        assert completed[start + len(new_body) :] == ORACLE[start + len(ADD.body) :]

    def test_splice_reads_only_the_targets_offsets(self):
        # The harness located the target when it loaded the task: splice
        # looks nothing up, and neither the name nor the index's balance
        # enters it.
        target = FILE.find(ADD.name, *ADD.span)._replace(name="ghost")
        with mock.patch.object(SourceIndex, "find", side_effect=AssertionError), mock.patch.object(
            SourceIndex, "check", side_effect=AssertionError
        ):
            completed = substitute_function(target, "{ }")
        assert completed == LocatedCompletion(target, "{ }")
        assert completed.source_in(FILE) == ORACLE[: target.body_start] + "{ }" + ORACLE[target.body_end + 1 :]

    def test_round_trip_extraction(self):
        completed = completed_with(AVG, "{ return (a + b) / 2; }").source_in(FILE)
        again = extract_functions(SourceIndex.from_text("math.sol", completed))
        assert again[1].body == "{ return (a + b) / 2; }"
        assert again[0].body == ADD.body

    def test_same_name_disambiguated_by_span(self):
        src = (
            "contract A {\n"
            "    /// d\n"
            "    function f() public pure returns (uint256) { return 1; }\n"
            "}\n"
            "contract B {\n"
            "    /// d\n"
            "    function f() public pure returns (uint256) { return 2; }\n"
            "}\n"
        )
        file = SourceIndex.from_text("ab.sol", src)
        records = extract_functions(file)
        completed = splice(file, records[1], "{ return 9; }").source_in(file)
        assert "return 1" in completed
        assert "return 2" not in completed
        assert "return 9" in completed


# The parameters of the straight-line bodies below.
AB = ("a", "b")


def interpret_body(body: str, params=()):
    """The steps verify evaluates for body in a function of those
    parameters, or None when it compares the body as text."""
    text = executor._blanked(body)
    return None if text is None else executor._steps(executor._statements(body, text, {}), params, {})


class TestEvaluator:
    def test_decl_and_return(self):
        steps = interpret_body("{ uint256 s = a + b; return s / 2; }", params=AB)
        assert steps is not None
        assert evaluate_body(steps, {"a": 3, "b": 4}) == 3

    def test_ternary(self):
        steps = interpret_body("{ return a > b ? a - b : b - a; }", params=AB)
        assert evaluate_body(steps, {"a": 9, "b": 4}) == 5
        assert evaluate_body(steps, {"a": 4, "b": 9}) == 5

    def test_boolean_operators(self):
        steps = interpret_body("{ return a > 1 && b > 1; }", params=AB)
        assert evaluate_body(steps, {"a": 2, "b": 2}) is True
        assert evaluate_body(steps, {"a": 1, "b": 2}) is False

    def test_negation(self):
        steps = interpret_body("{ return !(a > b); }", params=AB)
        assert evaluate_body(steps, {"a": 1, "b": 2}) is True

    def test_modulo_and_floor_division(self):
        steps = interpret_body("{ return a % b + a / b; }", params=AB)
        assert evaluate_body(steps, {"a": 7, "b": 2}) == 1 + 3

    def test_division_by_zero_raises(self):
        steps = interpret_body("{ return a / b; }", params=AB)
        with pytest.raises(ValueError, match="division by zero"):
            evaluate_body(steps, {"a": 1, "b": 0})

    def test_loops_uninterpretable(self):
        assert interpret_body(LOOP.body, params=("n",)) is None

    def test_declaration_without_initializer_defaults_zero(self):
        steps = interpret_body("{ uint256 x; return x + a; }", params=AB)
        assert evaluate_body(steps, {"a": 5}) == 5

    def test_literals(self):
        steps = interpret_body("{ return 0x1_F + 1_000 + 0 + 0xff; }")
        assert evaluate_body(steps, {}) == 31 + 1000 + 255

    @pytest.mark.parametrize(
        "stmt",
        [
            "uint256 x = a +",
            "uint256 x = " + "-" * 20000 + "a",
            "uint256 x = a" + " + a" * 200000,
            "uint256 x = " + "(" * 300 + "a" + ")" * 300,
            "uint256 x = zz",
            "uint256 x = x + 1",
            "a = 1",
        ],
        ids=["unparsable", "deep-neg", "long-add-chain", "deep-parens", "unbound", "self-read", "assignment"],
    )
    def test_unmodelled_statement_goes_to_text(self, stmt):
        assert interpret_body(f"{{ {stmt}; return a; }}", AB) is None
        assert interpret_body(f"{{ return a; {stmt}; }}", AB) is None

    @pytest.mark.parametrize(
        "expr",
        [
            "balances[a]", "self.total", "f(a)", "uint8(a)", "a and b", "not a", "a if b else 1", "a // b",
            "True", "+a", "a < b < 5", "a >= b <= 1", "a > 0 && a < b < 5", "(a < b > 1)", "1e18", "1.5", "007", "1__0", "0x", "a ? b", "a b", "",
            "a ++ b", "'s'",
        ],
    )
    def test_text_outside_the_grammar_is_not_modelled(self, expr):
        assert interpret_body(f"{{ return {expr}; }}", params=AB) is None

    def test_names_read_must_be_parameters_or_declared_earlier(self):
        assert interpret_body("{ uint256 t = a; return t + b; }", params=AB) is not None
        assert interpret_body("{ return t + b; uint256 t = a; }", params=AB) is None
        assert interpret_body("{ uint256 t = a; return t + b; }", params=("a",)) is None
        # A name read only on a branch never taken is still read.
        assert interpret_body("{ return a > 0 ? a : zz; }", params=AB) is None

    def test_rejected_body_is_read_and_parsed_once(self):
        backend = ScriptedDifferentialBackend()
        completed = completed_with(ADD, "{ return a[b]; }")
        with mock.patch.object(executor, "_parse_expression", wraps=executor._parse_expression) as parse:
            for _ in range(3):
                assert backend.verify(FILE, completed, ADD.task_id()).status == "functional_mismatch"
        assert parse.call_count == 1
        assert list(backend._oracle(FILE).reads) == ["{ return a[b]; }"]

    def test_recursion_limit_while_evaluating_is_an_evaluation_failure(self):
        # The deepest modelled expression, from a caller near the limit.
        steps = interpret_body("{ return " + "-" * (executor._MAX_NESTING - 1) + "a; }", params=AB)

        def nested(depth: int):
            return nested(depth - 1) if depth else evaluate_body(steps, {"a": 1})

        def stack_depth() -> int:
            frame, depth = sys._getframe(1), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            return depth

        assert nested(0) == -1
        with pytest.raises(_EvalError, match=executor._TOO_DEEP):
            nested(sys.getrecursionlimit() - stack_depth() - executor._MAX_NESTING // 2)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "-" * n + "a",
            lambda n: "!" * (n - 1) + "(a > 0)",
            lambda n: "a" + " + a" * n,
            lambda n: "(a * " * n + "a" + ")" * n,
            lambda n: "(a / " * n + "1" + ")" * n,
            lambda n: "(a > 0 && " * (n - 1) + "a > 0" + ")" * (n - 1),
            lambda n: "(a > 0 || " * (n - 1) + "a > 0" + ")" * (n - 1),
            lambda n: "(a < " * n + "a" + ")" * n,
        ],
        ids=["neg", "not", "add-chain", "mul-nested", "div-nested", "and", "or", "compare"],
    )
    def test_nesting_bound_holds_from_a_deep_caller(self, shape):
        # n operators nest n + 1 expression nodes deep, the leaf included.
        shallow, inside, outside = (
            interpret_body(f"{{ return {shape(n)}; }}", params=AB)
            for n in (100, executor._MAX_NESTING - 1, executor._MAX_NESTING)
        )
        assert outside is None

        def nested(depth: int, steps):
            return nested(depth - 1, steps) if depth else evaluate_body(steps, {"a": 1})

        for depth in (0, sys.getrecursionlimit() // 2):
            nested(depth, shallow)
            nested(depth, inside)

    def test_deep_completion_is_the_bodys_failure_not_the_backends(self):
        completed = completed_with(ADD, "{ return " + "-" * 20000 + "a; }")
        v = differential_verify(FILE, completed, ADD.task_id(), ScriptedDifferentialBackend())
        assert v.status == "functional_mismatch"
        assert v.diagnostics[0].message == "completed body differs from the oracle and cannot be evaluated"

    def test_too_deep_completion_is_a_functional_mismatch(self):
        completed = completed_with(ADD, "{ return a" + " + a" * 1500 + "; }")
        v = differential_verify(FILE, completed, ADD.task_id(), ScriptedDifferentialBackend())
        assert v.status == "functional_mismatch"
        assert v.diagnostics[0].message == "completed body differs from the oracle and cannot be evaluated"

    def test_too_deep_oracle_is_compared_as_text(self):
        body = "{ return a" + " + b" * 1500 + "; }"
        file = SourceIndex.from_text("p.sol", straight_line_source(body))
        (record,) = extract_functions(file)
        oracle = file
        backend = ScriptedDifferentialBackend()
        v = differential_verify(oracle, splice(oracle, record, "{ return a; }"), record.task_id(), backend)
        assert v.status == "functional_mismatch"
        respaced = body.replace(" + ", "  +  ")
        assert differential_verify(oracle, splice(oracle, record, respaced), record.task_id(), backend).status == "pass"

    def test_each_expression_parsed_once_per_attempt(self):
        completed = completed_with(AVG, "{ uint256 t = b + a; return t / 2; }")
        with mock.patch.object(executor, "_parse_expression", wraps=executor._parse_expression) as parse:
            v = ScriptedDifferentialBackend().verify(FILE, completed, AVG.task_id())
        assert v.status == "pass"
        assert parse.call_count == 4  # two statements each in the oracle and the completion

    def test_power_and_shift_too_wide_fail_without_hanging(self):
        # In a child process, since a big-integer operation that hangs cannot
        # be interrupted from the process running it.
        script = (
            "import json, sys\n"
            "from solrepair.corpus import SourceIndex, extract_functions\n"
            "from solrepair.executor import ScriptedDifferentialBackend, substitute_function\n"
            "file, bodies = SourceIndex.from_text('p.sol', sys.argv[1]), json.loads(sys.argv[2])\n"
            "(record,), oracle = extract_functions(file), file\n"
            "backend = ScriptedDifferentialBackend()\n"
            "verdicts = [backend.verify(oracle, substitute_function(oracle.find(record.name, *record.span), b), record.task_id()) for b in bodies]\n"
            "print(json.dumps([[v.status, v.diagnostics[0].message] for v in verdicts]))\n"
        )
        bodies = ["{ return a ** b ** b; }", "{ return (a + 1) ** (b * 1000); }", "{ return a << (b + 257); }"]
        env = dict(os.environ, PYTHONPATH=str(Path(executor.__file__).parents[1]))
        oracle = straight_line_source("{ return a + b; }")
        child = subprocess.run(
            [sys.executable, "-c", script, oracle, json.dumps(bodies)], capture_output=True, text=True, env=env, timeout=20
        )
        verdicts = json.loads(child.stdout)
        assert len(verdicts) == len(bodies)
        for (status, message), want in zip(verdicts, ["power too large to evaluate"] * 2 + ["out of range"]):
            assert (status, message.endswith(want)) == ("functional_mismatch", True), message

    def test_repeated_squaring_fails_without_hanging(self):
        # Each declaration squares the one before it, so t30 would hold about
        # 2**30 times the bits of a * b; unbounded, this verify takes hours.
        squares = "".join(f"uint256 t{k} = t{k - 1} * t{k - 1}; " for k in range(1, 31))
        body = f"{{ uint256 t0 = a * b; {squares}return t30 - t30; }}"
        script = (
            "import sys\n"
            "from solrepair.corpus import SourceIndex, extract_functions\n"
            "from solrepair.executor import ScriptedDifferentialBackend, substitute_function\n"
            "file, body = SourceIndex.from_text('p.sol', sys.argv[1]), sys.argv[2]\n"
            "(record,), oracle = extract_functions(file), file\n"
            "v = ScriptedDifferentialBackend().verify(oracle, substitute_function(oracle.find(record.name, *record.span), body), record.task_id())\n"
            "print(v.status, v.diagnostics[0].message)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(executor.__file__).parents[1]))
        oracle = straight_line_source("{ return a + b; }")
        child = subprocess.run([sys.executable, "-c", script, oracle, body], capture_output=True, text=True, env=env, timeout=20)
        status, message = child.stdout.split(" ", 1)
        assert status == "functional_mismatch"
        assert message.rstrip().endswith("product too large to evaluate"), message

    @pytest.mark.parametrize(
        "expr,value",
        [("2 ** 511 * 2 ** 512", 2**1023), ("(0 - 2 ** 600) * 2 ** 423", -(2**1023)), ("0 * 2 ** 1023 * 2 ** 1023", 0)],
    )
    def test_products_within_bounds_evaluate(self, expr, value):
        assert evaluate_body(interpret_body(f"{{ return {expr}; }}"), {}) == value

    @pytest.mark.parametrize(
        "expr,message",
        [("2 ** 512 * 2 ** 512", "product too large to evaluate"), ("a ** (b - a)", "negative exponent -3"),
         ("(a ** (b - a)) & 1", "negative exponent -3")],
    )
    def test_product_too_wide_or_negative_exponent_fails(self, expr, message):
        with pytest.raises(_EvalError, match=message):
            evaluate_body(interpret_body(f"{{ return {expr}; }}", params=["a", "b"]), {"a": 5, "b": 2})

    @pytest.mark.parametrize(
        "expr,value",
        [
            ("2 ** 256 - 1", 2**256 - 1),
            ("2 ** 1023", 2**1023),
            ("0 ** 5000 + 1 ** 5000 + (0 - 1) ** 5001", 0),
            ("1 << 256", 2**256),
            ("2 ** 300 >> 299", 2),
        ],
    )
    def test_power_and_shift_within_bounds_evaluate(self, expr, value):
        assert evaluate_body(interpret_body(f"{{ return {expr}; }}"), {}) == value

    @pytest.mark.parametrize(
        "expr,message",
        [("2 ** 1024", "power too large to evaluate"), ("1 << 257", "shift amount 257 out of range"),
         ("1 << (0 - 1)", "shift amount -1 out of range"), ("8 >> (0 - 1)", "shift amount -1 out of range")],
    )
    def test_power_and_shift_out_of_bounds_fail(self, expr, message):
        with pytest.raises(_EvalError, match=message):
            evaluate_body(interpret_body(f"{{ return {expr}; }}"), {})


# The expression layer the parser replaced: each expression rewritten into
# Python text (one ternary regex, `&&` to `and`, `!` to `not`) and parsed by
# CPython's `ast`. With the tree walk below, it is the reference the
# parser's evaluators must agree with wherever both model an expression.
_TERNARY_RE = re.compile(r"^(.+?)\?(.+):(.+)$", re.S)


def _translate_expr(expr: str) -> str:
    m = _TERNARY_RE.match(expr)
    if m and "?" not in m.group(2) and "?" not in m.group(3):
        expr = f"(({m.group(2)}) if ({m.group(1)}) else ({m.group(3)}))"
    expr = expr.replace("&&", " and ").replace("||", " or ")
    expr = re.sub(r"!(?![=])", " not ", expr)
    expr = re.sub(r"\btrue\b", " True ", expr)
    expr = re.sub(r"\bfalse\b", " False ", expr)
    return expr


def reference_parse(expr: str) -> ast.expr | None:
    """The expression's tree; None where CPython cannot parse its translation."""
    try:
        return ast.parse(_translate_expr(expr).strip(), mode="eval").body
    except SyntaxError:
        return None


def reference_reads(tree: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - {"True", "False"}


# The tree walk that evaluated expressions before they were compiled into
# closures. It is the reference the closures must agree with.
def _eval_node(node: ast.AST, env: dict) -> int | bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, bool)):
        return node.value
    if isinstance(node, ast.Name):
        if node.id == "True":
            return True
        if node.id == "False":
            return False
        if node.id not in env:
            raise _EvalError(f"unbound name {node.id!r}")
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        value = _eval_node(node.operand, env)
        if isinstance(node.op, ast.USub):
            return -value
        if isinstance(node.op, ast.UAdd):
            return value
        if isinstance(node.op, ast.Not):
            return not value
        raise _EvalError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, env)
        right = _eval_node(node.right, env)
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if right == 0:
                raise _EvalError("division by zero")
            return left // right
        if isinstance(op, ast.Mod):
            if right == 0:
                raise _EvalError("modulo by zero")
            return left % right
        if isinstance(op, ast.Pow):
            return left**right
        raise _EvalError("unsupported binary operator")
    if isinstance(node, ast.BoolOp):
        values = [_eval_node(v, env) for v in node.values]
        return all(values) if isinstance(node.op, ast.And) else any(values)
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            right = _eval_node(comparator, env)
            ok = (
                left == right
                if isinstance(op, ast.Eq)
                else left != right
                if isinstance(op, ast.NotEq)
                else left < right
                if isinstance(op, ast.Lt)
                else left <= right
                if isinstance(op, ast.LtE)
                else left > right
                if isinstance(op, ast.Gt)
                else left >= right
                if isinstance(op, ast.GtE)
                else None
            )
            if ok is None:
                raise _EvalError("unsupported comparison")
            if not ok:
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        return (
            _eval_node(node.body, env)
            if _eval_node(node.test, env)
            else _eval_node(node.orelse, env)
        )
    raise _EvalError(f"unsupported expression node {type(node).__name__}")


# The per-case evaluation that verify used before it parsed each body once:
# every step's expression is translated and parsed again for every case. It
# is the reference the parse-once evaluator must agree with.
def reference_eval_expr(expr: str, env: dict):
    return _eval_node(reference_parse(expr), env)


def reference_interpret_body(body: str, params):
    """The body's steps, or None where the mock compares it as text: on the
    grammar the properties generate, a statement is modelled exactly when it
    parses and reads only parameters and names declared before it."""
    inner = body.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        return None
    bound = set(params)
    steps = []
    for stmt in (s.strip() for s in inner[1:-1].split(";")):
        if not stmt:
            continue
        decl = mock_reference.DECL_STMT_RE.match(stmt)
        ret = mock_reference.RETURN_STMT_RE.match(stmt)
        if decl:
            name, expr = decl.groups()
        elif ret:
            name, expr = None, ret.group(1)
        else:
            return None
        if expr is not None:
            tree = reference_parse(expr)
            if tree is None or not reference_reads(tree) <= bound:
                return None
        if name is None:
            steps.append(("return", expr))
        else:
            steps.append(("let", name, expr))
            bound.add(name)
    return steps


def reference_evaluate_body(steps, inputs: dict):
    env = dict(inputs)
    for step in steps:
        if step[0] == "let":
            env[step[1]] = reference_eval_expr(step[2], env) if step[2] is not None else 0
        else:
            return reference_eval_expr(step[1], env)
    return None


# Expressions both the translate-to-Python path and the parser model, less
# the shapes whose verdicts changed on purpose: a ternary only as the whole
# expression, never one inside another; no comparison directly under
# another; `!` only on an atom or a parenthesized operand, and only under
# `&&`, `||` or `!`; no `**` and no bitwise operators. Parentheses go where
# precedence needs them, and at random elsewhere. Each term is (text, power).
ATOM_POWER, UNARY_POWER, NOT_POWER = 13, 12, 2.5  # Python's `not` binds looser than comparisons
BINARY_POWERS = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">=": 4, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10}


def _binary(op: str, left, right):
    power = BINARY_POWERS[op]
    (lt, lp), (rt, rp) = left, right
    # Python chains comparisons; Solidity nests them.
    chained = power in (3, 4)
    if lp < power or (chained and lp in (3, 4)):
        lt = f"({lt})"
    if rp <= power or (chained and rp in (3, 4)):
        rt = f"({rt})"
    return f"{lt} {op} {rt}", power


def _unary(op: str, operand, power):
    text, inner = operand
    if not (inner >= UNARY_POWER or (op == "!" and inner == NOT_POWER)):
        text = f"({text})"
    return f"{op}{text}", power


# Operands repeat to weight them: "(a - a)" and "0" divide by zero, t0 and t1
# may be read before they are bound, and zz is bound nowhere.
ATOMS = st.sampled_from(
    ["a", "a", "b", "b", "1", "2", "7", "0", "(a - a)", "(b - b)", "true", "false", "t0", "t1", "zz"]
).map(lambda text: (text, ATOM_POWER))
TERMS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(BINARY_POWERS)), inner, inner).map(lambda t: _binary(*t)),
        inner.map(lambda e: _unary("!", e, NOT_POWER)),
        inner.map(lambda e: _unary("-", e, UNARY_POWER)),
        inner.map(lambda e: (f"({e[0]})", ATOM_POWER)),
    ),
    max_leaves=6,
)
EXPRS = st.one_of(
    TERMS.map(lambda e: e[0]),
    st.tuples(TERMS, TERMS, TERMS).map(lambda t: f"{t[0][0]} ? {t[1][0]} : {t[2][0]}"),
)
DECLARATIONS = st.tuples(st.sampled_from(["uint256", "bool", "int8"]), st.sampled_from(["t0", "t1"]), EXPRS).map(
    lambda t: f"{t[0]} {t[1]} = {t[2]}"
)
RETURNS = EXPRS.map(lambda e: f"return {e}")
# Branches repeat to weight them, as operands do.
STATEMENTS = st.one_of(
    DECLARATIONS,
    DECLARATIONS,
    RETURNS,
    RETURNS,
    st.sampled_from(["uint256 t0", "bool t1"]),
    st.sampled_from(["uint256 t1 = a +", "return (a", "return a b", "bool t0 = ? a", "t0 = 1"]),
    st.sampled_from(["return b / (a - a)", "uint256 t0 = a % 0", "return t1 % (b - b)"]),
)
STRAIGHT_LINE_BODIES = st.lists(STATEMENTS, min_size=1, max_size=4).map(
    lambda stmts: "{\n        " + ";\n        ".join(stmts) + ";\n    }"
)


def straight_line_source(body: str) -> str:
    return (
        "contract P {\n"
        "    /// Computes.\n"
        f"    function f(uint256 a, uint256 b) public pure returns (uint256) {body}\n"
        "}\n"
    )


@settings(max_examples=300, deadline=None)
@given(
    oracle_body=st.one_of(st.just("{ return a + b; }"), STRAIGHT_LINE_BODIES),
    completed_body=STRAIGHT_LINE_BODIES,
    table=st.booleans(),
)
def test_property_parse_once_verify_matches_per_case_reference(oracle_body, completed_body, table):
    file = SourceIndex.from_text("p.sol", straight_line_source(oracle_body))
    (record,) = extract_functions(file)
    oracle = file
    completed = splice(oracle, record, completed_body)
    fixture = None
    if table:
        cases = [{"inputs": {"a": 3, "b": b}, "output": 3 + b} for b in (0, 1, 5)]
        fixture = {"functions": {record.task_id(): {"cases": cases}}}
    got = ScriptedDifferentialBackend(fixture, seed=7).verify(oracle, completed, record.task_id())
    with mock.patch.multiple(mock_reference, interpret_body=reference_interpret_body, evaluate_body=reference_evaluate_body):
        want = mock_reference.reference_verify(oracle, completed, record.task_id(), fixture, seed=7)
    assert mock_reference.verdict_of(got) == want


ENVS = st.fixed_dictionaries(
    {"a": st.integers(0, 99), "b": st.integers(0, 99)},
    optional={"t0": st.integers(0, 9) | st.booleans(), "t1": st.integers(0, 9) | st.booleans()},
)


def outcome_of(evaluate, env: dict):
    """What evaluating gives: ("value", type, value) or ("raise", type, message)."""
    try:
        value = evaluate(env)
    except Exception as exc:
        return "raise", type(exc), str(exc)
    return "value", type(value), value


@settings(max_examples=300, deadline=None)
@given(expr=EXPRS, env=ENVS)
# Evaluation order: `&&` and `||` evaluate every operand, a conditional one
# branch.
@example(expr="false && zz", env={"a": 1, "b": 2})
@example(expr="true || zz", env={"a": 1, "b": 2})
@example(expr="a > b ? zz : 1", env={"a": 1, "b": 2})
@example(expr="!a && -(b - a) < 0 || (a - a) / 0", env={"a": 1, "b": 2})
def test_property_closures_match_tree_walk(expr, env):
    tree = reference_parse(expr)
    assert tree is not None, expr
    parsed = executor._parse_expression(expr)
    assert parsed is not None, expr
    evaluate, reads = parsed
    assert reads == reference_reads(tree)
    got = outcome_of(lambda e: evaluate_body([executor._Step(None, evaluate, reads)], e), env)
    assert got == outcome_of(lambda e: _eval_node(tree, e), env)


# Each shape whose verdict changed on purpose when the parser replaced the
# translate-to-Python path, with its value under Solidity's grammar.
@pytest.mark.parametrize(
    "expr,env,value",
    [
        ("a > 5 ? 1 : a > 2 ? 2 : 3", {"a": 6}, 1),
        ("a > 5 ? 1 : a > 2 ? 2 : 3", {"a": 3}, 2),
        ("a > 5 ? 1 : a > 2 ? 2 : 3", {"a": 1}, 3),
        ("a > 5 ? a > 7 ? 1 : 2 : 3", {"a": 6}, 2),
        ("(a > b ? a : b) + 1", {"a": 1, "b": 2}, 3),
        ("a & b == b", {"a": 6, "b": 2}, True),
        ("a | b ^ 1", {"a": 4, "b": 2}, 7),
        ("a << 2 >> 1", {"a": 6}, 12),
        ("-a ** 2", {"a": 3}, 9),
        ("a < b == true", {"a": 1, "b": 2}, True),
        ("a == b == true", {"a": 2, "b": 2}, True),
        ("!a == b", {"a": 1, "b": 2}, False),
        ("!a + b", {"a": 0, "b": 2}, 3),
    ],
)
def test_deliberate_changes_from_the_translate_to_python_path(expr, env, value):
    evaluate, _ = executor._parse_expression(expr)
    got = outcome_of(evaluate, env)
    assert got == ("value", type(value), value)
    tree = reference_parse(expr)
    assert tree is None or outcome_of(lambda e: _eval_node(tree, e), env) != got


# The nested-function pattern in its `\b`-led form, as it was before the
# keyword's first letter moved ahead of the boundary check.
WORD_BOUNDARY_FUNCTION_RE = re.compile(r"\bfunction\s+([A-Za-z_$][A-Za-z0-9_$]*)")


# Keywords and names, after what may precede a keyword's first letter: `$`,
# `_`, digits and non-ASCII letters.
KEYWORD_SOUP = st.lists(
    st.tuples(
        st.sampled_from(["", "", "$", "_", "9", "x", "é", "Ж", "\u00b2", "(", " "]),
        st.sampled_from(
            ["contract", "interface", "library", "struct", "enum", "event", "error", "modifier", "function",
             "con", "e", "x", "$y", "_z", "S"]
        ),
        st.sampled_from([" ", " ", "\n", "", "(", ";", "{"]),
    ).map("".join),
    max_size=12,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(text=KEYWORD_SOUP)
@example(text="écontract C; Жfunction f; \u00b2event E; $struct S; _enum E; 9error X; modifier m")
def test_property_literal_led_keyword_patterns_equal_word_boundary_forms(text):
    found = [(m.span(), m.groups()) for m in executor._NAMED_FUNCTION_RE.finditer(text)]
    assert found == [(m.span(), m.groups()) for m in WORD_BOUNDARY_FUNCTION_RE.finditer(text)]


MULTI = """contract M {
    /// Sums.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        uint256 s = a + b;
        return s;
    }

    /// Divides by a difference.
    function div(uint256 a, uint256 b) public pure returns (uint256) {
        return a / (b - b);
    }

    /// Halves.
    function half(uint256 a) public pure returns (uint256) {
        return a / 2;
    }
}
"""
MULTI_FILE = SourceIndex.from_text("m.sol", MULTI)
M_ADD, M_DIV, M_HALF = extract_functions(MULTI_FILE)
M_ADD_FN = MULTI_FILE.find(M_ADD.name, *M_ADD.span)
# MULTI after a user-defined value type, whose `is` inherits nothing.
PRICED = "type Price is uint256;\n\n" + MULTI
_, _, P_HALF = extract_functions(SourceIndex.from_text("p.sol", PRICED))


# The case generator before it drew 7 random bits itself: the reference its
# draws must equal.
def reference_generated_cases(param_names, seed_text: str, count: int = 8) -> list[dict]:
    rng = random.Random(zlib.crc32(seed_text.encode("utf-8")))
    return [{p: rng.randrange(1, 100) for p in param_names} for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(
    seed_text=st.text(max_size=16),
    param_names=st.lists(st.sampled_from(["a", "b", "c", "amount", "x_1", "é"]), max_size=6),
    count=st.integers(0, 12),
)
def test_property_generated_cases_equal_randrange_draws(seed_text, param_names, count):
    assert executor._generated_cases(param_names, seed_text, count) == reference_generated_cases(
        param_names, seed_text, count
    )


def reference_param_names(signature: str) -> list[str]:
    """_param_names as it was, through a regex."""
    m = re.search(r"\(([^)]*)\)", signature)
    if not m or not m.group(1).strip():
        return []
    return [part.strip().split()[-1] for part in m.group(1).split(",") if part.strip()]


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(
        st.sampled_from(
            ["a", "b", "uint256", "x_1", "$v", "é", " ", "\n", "\x1c", " ", ".", ",", "(", ")", "msg", "uint8",
             "5", "return", "assembly {", "}", ";"]
        ),
        max_size=14,
    ).map("".join)
)
def test_property_signature_scan_equals_its_reference(text):
    # Since mock-diff@9 a list runs to its matching ')', past nested ones
    # (tests/test_body_reader.py): the reference stops at the first ')'.
    opening = text.find("(")
    closing = text.find(")", opening + 1)
    assume(opening == -1 or closing == -1 or "(" not in text[opening + 1 : closing])
    assert executor._param_names(text) == reference_param_names(text)


class TestOracleMemo:
    def test_reverifying_parses_the_oracle_and_generates_cases_once(self):
        backend = ScriptedDifferentialBackend()
        oracle_body = MULTI_FILE.text[M_ADD_FN.body_start : M_ADD_FN.body_end + 1]
        oracle_exprs = ["a + b", "s"]
        parsed = []
        real_parse = executor._parse_expression

        def parse(text):
            parsed.append(text)
            return real_parse(text)

        bodies = ["{ uint256 s = b + a; return s; }", "{ return a - b; }", "{ return a * 1 + b; }", "{ uint256 s = a + b; return s + 0; }"]
        with mock.patch.object(executor, "_parse_expression", side_effect=parse), mock.patch.object(
            executor, "_read_statements", wraps=executor._read_statements
        ) as read, mock.patch.object(executor, "_generated_cases", wraps=executor._generated_cases) as generated:
            statuses = [
                backend.verify(MULTI_FILE, splice(MULTI_FILE, M_ADD, body), M_ADD.task_id()).status
                for body in bodies * 2
            ]
            assert generated.call_count == 1
            # Each distinct body, its whitespace collapsed, is read for its
            # statements once, and each distinct expression parsed once,
            # however often it recurs.
            read_once = {" ".join(body.split()) for body in [oracle_body, *bodies]}
            assert sorted(call.args[0] for call in read.call_args_list) == sorted(read_once)
            assert len(parsed) == len(set(parsed))
            for expr in oracle_exprs:
                assert parsed.count(expr) == 1, expr
            # Nothing is shared between backends.
            ScriptedDifferentialBackend().verify(MULTI_FILE, splice(MULTI_FILE, M_ADD, bodies[1]), M_ADD.task_id())
            assert generated.call_count == 2
            assert parsed.count("a + b") == 2
        assert statuses == ["pass", "functional_mismatch", "pass", "pass"] * 2

    def test_a_body_is_read_once_across_oracles(self):
        backend = ScriptedDifferentialBackend()
        with mock.patch.object(executor, "_parse_expression", wraps=executor._parse_expression) as parse:
            for index, record in ((FILE, ADD), (MULTI_FILE, M_ADD), (OVERLOADS_FILE, F2)):
                assert backend.verify(index, splice(index, record, "{ return b + a; }"), record.task_id()).status == "pass"
        assert [call.args[0] for call in parse.call_args_list].count("b + a") == 1

    def test_failing_oracle_gives_the_same_message_on_every_attempt(self):
        backend = ScriptedDifferentialBackend()
        messages = set()
        with mock.patch.object(executor, "_generated_cases", wraps=executor._generated_cases) as generated:
            for body in ("{ return a; }", "{ return b; }", "{ return a; }", "{ return a / (b - b); }"):
                v = backend.verify(MULTI_FILE, splice(MULTI_FILE, M_DIV, body), M_DIV.task_id())
                assert v.status == "executor_unavailable"
                messages.add(v.diagnostics)
        assert messages == {(Diagnostic("Other", "oracle evaluation failed: division by zero"),)}
        assert generated.call_count == 1

    def test_oracle_steps_pass_without_a_second_evaluation(self):
        backend = ScriptedDifferentialBackend()
        completed = splice(MULTI_FILE, M_HALF, "{\n        return a / 2;   }")
        assert completed.source_in(MULTI_FILE) != MULTI
        backend.verify(MULTI_FILE, completed, M_HALF.task_id())
        with mock.patch.object(executor, "evaluate_body", side_effect=AssertionError("evaluated")):
            assert backend.verify(MULTI_FILE, completed, M_HALF.task_id()).status == "pass"

    def test_fixture_table_judges_even_the_oracle_own_steps(self):
        # The table disagrees with the oracle: it, not the oracle, decides.
        table = {"cases": [{"inputs": {"a": 4}, "output": 3}]}
        backend = ScriptedDifferentialBackend({"functions": {M_HALF.task_id(): table}})
        completed = splice(MULTI_FILE, M_HALF, "{ return a / 2; }")
        assert completed.source_in(MULTI_FILE) != MULTI
        for _ in range(2):
            v = backend.verify(MULTI_FILE, completed, M_HALF.task_id())
            assert v.status == "functional_mismatch"
            assert v.diagnostics[0].message == 'output mismatch for inputs {"a": 4}: expected 3, got 2'

    def test_shared_memo_under_threads_gives_serial_verdicts(self):
        jobs = [
            (record, body)
            for record, bodies in (
                (M_ADD, ["{ uint256 s = a + b; return s; }", "{ return b + a; }", "{ return a - b; }", "{ return zz; }",
                         "{ return (a | b) + (a & b); }", "{ return a > b ? b + a : a > 0 ? a + b : 0; }",
                         "{ return a < b < 5 ? a : a + b; }"]),
                (M_DIV, ["{ return a; }", "{ return a / (b - b); }"]),
                (M_HALF, ["{ return a / 2; }", "{ return a >> 1; }", "{ return a / 3; }", "{ uint256 q = a / 2; return q; }",
                          "{ return -a ** 2 / (2 * a) * -1; }"]),
            )
            for body in bodies
        ] * 25

        def run(backend, job):
            record, body = job
            v = backend.verify(MULTI_FILE, splice(MULTI_FILE, record, body), record.task_id())
            return v.status, v.diagnostics

        expected = [run(ScriptedDifferentialBackend(seed=3), job) for job in jobs]
        backend = ScriptedDifferentialBackend(seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: run(backend, job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert len({status for status, _ in got}) == 4


PROBES = """contract Token {
    mapping(uint256 => uint256) balances;
    uint256 _totalSupply;

    /// Balance of a.
    function balanceOf(uint256 a, uint256 b) public view returns (uint256) {
        return balances[a];
    }

    /// Total supply.
    function totalSupply(uint256 a, uint256 b) public view returns (uint256) {
        return _totalSupply;
    }

    /// Bucket of a.
    function bucket(uint256 a, uint256 b) public pure returns (uint256) {
        return a > 5 ? 1 : a > 2 ? 2 : 3;
    }
}
"""
PROBES_FILE = SourceIndex.from_text("probes.sol", PROBES)
PROBE_RECORDS = extract_functions(PROBES_FILE)


# Oracles whose every differing completion used to be executor_unavailable,
# which dropped their task from pass@k and ended the run with exit 3.
@pytest.mark.parametrize(
    "index,respaced,different",
    [
        (0, "{\n        return   balances[a];\n    }", "{ return balances[b]; }"),
        (1, "{  return _totalSupply;\t}", "{ return _totalSupply + 1; }"),
        (2, "{ return a>5?1:a>2?2:3; }", "{ return a > 5 ? 2 : a > 2 ? 2 : 3; }"),
    ],
    ids=["mapping", "state-variable", "nested-ternary"],
)
class TestProbeOracles:
    def test_completions_get_verdicts_of_their_own(self, index, respaced, different):
        record, backend = PROBE_RECORDS[index], ScriptedDifferentialBackend()
        for body, status in ((respaced, "pass"), (different, "functional_mismatch"), ("{ }", "functional_mismatch")):
            v = backend.verify(PROBES_FILE, splice(PROBES_FILE, record, body), record.task_id())
            assert v.status == status, body

    def test_run_over_the_task_exits_ok(self, index, respaced, different, tmp_path):
        from solrepair.corpus import write_task_file
        from solrepair.harness import EXIT_OK, RunConfig, cmd_run

        (tmp_path / "probes.sol").write_text(PROBES, encoding="utf-8")
        write_task_file([PROBE_RECORDS[index]], tmp_path / "tasks.jsonl")
        client = {"schema": "mock-client@1", "strict": False, "completions": {}}
        (tmp_path / "client.json").write_text(json.dumps(client), encoding="utf-8")
        config = RunConfig(
            task_file=str(tmp_path / "tasks.jsonl"),
            out_dir=str(tmp_path / "out"),
            source_root=str(tmp_path),
            mock_client=str(tmp_path / "client.json"),
            max_rounds=0,
        )
        manifest, code = cmd_run(config)
        assert (code, manifest.status, manifest.tasks_completed) == (EXIT_OK, "complete", 1)


class TestScriptedBackend:
    def backend(self, fixture=None, seed=0):
        return ScriptedDifferentialBackend(fixture=fixture, seed=seed)

    def test_identical_source_passes(self):
        v = self.backend().verify(FILE, UNCHANGED, ADD.task_id())
        assert v.status == "pass"
        assert v.diagnostics == ()
        assert v.backend == "mock-diff"
        assert v.backend_version == "mock-diff@10"
        assert v.backend_seed == 0

    def test_equivalent_rewrite_passes_by_evaluation(self):
        completed = completed_with(ADD, "{ return b + a; }")
        assert self.backend().verify(FILE, completed, ADD.task_id()).status == "pass"

    def test_wrong_arithmetic_mismatch_names_inputs(self):
        completed = completed_with(ADD, "{ return a - b; }")
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert v.status == "functional_mismatch"
        assert "output mismatch for inputs" in v.diagnostics[0].message

    def test_undeclared_identifier_compile_error_with_body_line(self):
        completed = completed_with(ADD, "{\n        return helperX(a, b);\n    }")
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert v.status == "compile_error"
        d = v.diagnostics[0]
        assert d.kind == "UndeclaredIdentifier"
        assert d.identifier == "helperX"
        assert d.message == 'Undeclared identifier "helperX".'
        assert d.line == 2

    def test_declared_function_name_not_a_compile_error(self):
        completed = completed_with(ADD, "{ return avg(a, b); }")
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert v.status == "functional_mismatch"
        assert "cannot be evaluated" in v.diagnostics[0].message

    def test_member_access_identifiers_skipped(self):
        body = "{ if (msg.sender == tx.origin) { return a; } return b; }"
        completed = completed_with(ADD, body)
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert v.status == "functional_mismatch"
        assert "cannot be evaluated" in v.diagnostics[0].message

    def test_fixture_table_overrides_oracle(self):
        table = {"functions": {ADD.task_id(): {"cases": [{"inputs": {"a": 2, "b": 3}, "output": 6}]}}}
        completed = completed_with(ADD, "{ return a * b; }")
        v = self.backend(fixture=table).verify(FILE, completed, ADD.task_id())
        assert v.status == "pass"

    def test_fixture_table_mismatch_message(self):
        table = {"functions": {ADD.task_id(): {"cases": [{"inputs": {"a": 2, "b": 3}, "output": 6}]}}}
        completed = completed_with(ADD, "{ return a + b; }")
        v = self.backend(fixture=table).verify(FILE, completed, ADD.task_id())
        assert v.status == "functional_mismatch"
        assert 'inputs {"a": 2, "b": 3}' in v.diagnostics[0].message
        assert "expected 6, got 5" in v.diagnostics[0].message

    def test_unbalanced_completed_is_compile_error(self):
        completed = completed_with(ADD, ADD.body.replace("return a + b;", "return a + b; {"))
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert v.status == "compile_error"
        assert v.diagnostics[0].kind == "Other"

    def test_uninterpretable_equal_modulo_whitespace_passes(self):
        reformatted = "{\n        uint256 acc = 0;\n        for (uint256 i = 0; i < n; i++) {   acc = acc + i; }\n        return acc;\n    }"
        completed = completed_with(LOOP, reformatted)
        v = self.backend().verify(FILE, completed, LOOP.task_id())
        assert v.status == "pass"

    def test_uninterpretable_difference_is_mismatch(self):
        changed = LOOP.body.replace("acc = acc + i", "acc = acc + i + 1")
        completed = completed_with(LOOP, changed)
        v = self.backend().verify(FILE, completed, LOOP.task_id())
        assert v.status == "functional_mismatch"
        assert "cannot be evaluated" in v.diagnostics[0].message

    def test_multiple_modified_functions_rejected(self):
        # A body running on into a second function is not one block.
        completed = completed_with(ADD, "{ return b + a; }\n    function extra() public pure { }")
        v = self.backend().verify(FILE, completed, ADD.task_id())
        assert (v.status, v.diagnostics) == NOT_ONE_BLOCK

    def test_verification_statement_is_behaviour_preserving(self):
        completed = completed_with(ADD, "{ uint256 this_is_a_test_variable; return a + b; }")
        assert self.backend().verify(FILE, completed, ADD.task_id()).status == "pass"

    def test_seed_recorded(self):
        v = self.backend(seed=41).verify(FILE, UNCHANGED, ADD.task_id())
        assert v.backend_seed == 41

    def test_fixture_loaded_from_path(self, tmp_path):
        path = tmp_path / "fixture.json"
        case = {"inputs": {"a": 1}, "output": None}
        path.write_text(json.dumps({"seed": 3, "functions": {"f": {"cases": [case]}}}))
        backend = ScriptedDifferentialBackend(read_json(path, "executor fixture"))
        assert backend.fixture == ExecutorFixture(3, {"f": ExecutorTable((ExecutorCase({"a": 1}, None),))})

    @pytest.mark.parametrize(
        "fixture,complaint",
        [
            ({"functions": {"f": 5}}, "ExecutorTable: expected a JSON object, got int at key 'functions.f'"),
            ({"functions": {"f": {"cases": [{"inputs": {}}]}}}, "missing 1 required positional argument: 'output' at key 'functions.f.cases[0]'"),
            ({"functions": {"f": {"cases": [{"inputs": {"a": 1.5}, "output": 1}]}}}, "expected int, got float at key 'functions.f.cases[0].inputs.a'"),
            ({"functions": {"f": {"cases": [{"inputs": {}, "output": "1"}]}}}, "expected int or bool or None, got str at key 'functions.f.cases[0].output'"),
            ({"seed": "0"}, "expected int, got str at key 'seed'"),
        ],
        ids=["table-not-object", "case-without-output", "float-input", "str-output", "str-seed"],
    )
    def test_fixture_decoded_strictly(self, fixture, complaint):
        with pytest.raises(TypeError) as info:
            ScriptedDifferentialBackend(fixture)
        assert str(info.value).endswith(complaint)

    def test_foreign_fixture_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported executor fixture schema"):
            ScriptedDifferentialBackend(fixture={"schema": "mock-executor@9"})


OVERLOADS = """contract O {
    /// One argument.
    function f(uint256 a) public pure returns (uint256) {
        return a;
    }

    /// Two arguments.
    function f(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }
}
"""
OVERLOADS_FILE = SourceIndex.from_text("o.sol", OVERLOADS)
F1, F2 = extract_functions(OVERLOADS_FILE)

NESTED = """contract N {
    /// Doubles y.
    function outer(uint256 y) public pure returns (uint256 r) {
        assembly {
            function helper(y) -> r { r := y }
            r := helper(y)
        }
    }
}
"""
NESTED_FILE = SourceIndex.from_text("n.sol", NESTED)
(OUTER,) = extract_functions(NESTED_FILE)


class TestLocationKeyed:
    def test_overload_wrong_body_is_mismatch(self):
        completed = splice(OVERLOADS_FILE, F1, "{ return 12345; }")
        v = ScriptedDifferentialBackend().verify(OVERLOADS_FILE, completed, F1.task_id())
        assert v.status == "functional_mismatch"
        assert "output mismatch" in v.diagnostics[0].message

    def test_overload_equivalent_body_passes(self):
        for record, body in ((F1, "{ return a * 1; }"), (F2, "{ return b + a; }")):
            completed = splice(OVERLOADS_FILE, record, body)
            v = ScriptedDifferentialBackend().verify(OVERLOADS_FILE, completed, record.task_id())
            assert v.status == "pass"

    def test_rebase_with_overloads(self):
        completed = splice(OVERLOADS_FILE, F1, "{\n        return helperX(a);\n    }")
        source = completed.source_in(OVERLOADS_FILE)
        body_line = source[: source.index("{\n        return helperX")].count("\n") + 1
        diag = Diagnostic("UndeclaredIdentifier", "m", line=body_line + 1, identifier="helperX")
        assert SolcCompileBackend._rebase((diag,), OVERLOADS_FILE, completed)[0].line == 2

    def test_nested_function_is_part_of_its_parent(self):
        backend = ScriptedDifferentialBackend()
        changed = splice(NESTED_FILE, OUTER, OUTER.body.replace("r := y }", "r := helper(y) }"))
        v = backend.verify(NESTED_FILE, changed, OUTER.task_id())
        assert v.status == "functional_mismatch"
        assert "cannot be evaluated" in v.diagnostics[0].message
        reformatted = splice(NESTED_FILE, OUTER, OUTER.body.replace("r := y }", "r :=  y }"))
        assert backend.verify(NESTED_FILE, reformatted, OUTER.task_id()).status == "pass"

    def test_yul_names_are_not_undeclared_identifiers(self):
        oracle = (
            "contract Y {\n"
            "    /// Returns a.\n"
            "    function f(uint256 a) public pure returns (uint256) {\n"
            "        assembly { function helper(v) -> z { z := add(v, 1) } }\n"
            "        return a;\n"
            "    }\n"
            "}\n"
        )
        file = SourceIndex.from_text("y.sol", oracle)
        (f,) = extract_functions(file)
        completed = splice(file, f, f.body.replace("return a;", "return a + 0;"))
        v = ScriptedDifferentialBackend().verify(file, completed, f.task_id())
        assert v.status == "functional_mismatch"
        assert "cannot be evaluated" in v.diagnostics[0].message
        outside = splice(file, f, f.body.replace("return a;", "return v;"))
        v = ScriptedDifferentialBackend().verify(file, outside, f.task_id())
        assert (v.status, v.diagnostics[0].identifier) == ("compile_error", "v")

    def test_dropped_or_added_function_is_not_one_block(self):
        backend = ScriptedDifferentialBackend()
        # A comment opened after add's body runs on to the one closing after avg.
        source = ORACLE.replace("    /// Sums 0..n-1.", "    /* helpers end */\n    /// Sums 0..n-1.")
        file = SourceIndex.from_text("math.sol", source)
        add = extract_functions(file)[0]
        dropped = splice(file, add, add.body + " /*")
        v = backend.verify(file, dropped, add.task_id())
        assert (v.status, v.diagnostics) == NOT_ONE_BLOCK
        added = completed_with(ADD, ADD.body + "\n\n    function extra() public pure { }")
        v = backend.verify(FILE, added, ADD.task_id())
        assert (v.status, v.diagnostics) == NOT_ONE_BLOCK

    def test_straddling_declaration_leaves_the_body_judged_alone(self):
        # g's unterminated header runs across f's body, so a new body for f
        # changes how g parses in the whole completed source; only f's body
        # is judged.
        oracle = (
            "contract S {\n"
            "    function g(uint256 a\n"
            "    /// d\n"
            "    function f(uint256 a, uint256 b) public pure returns (uint256) { return a + b; }\n"
            "    ;\n"
            "}\n"
        )
        file = SourceIndex.from_text("s.sol", oracle)
        (f,) = extract_functions(file)
        completed = splice(file, f, "{ ) { } }")
        assert executor._blanked(completed.body) is not None
        v = ScriptedDifferentialBackend().verify(file, completed, f.task_id())
        assert (v.status, v.diagnostics) == mismatch("completed body differs from the oracle and cannot be evaluated")
        # The whole-source parse found g changed instead.
        assert reference_verify(file, completed, f.task_id()) == mismatch("function 'g' has no oracle counterpart")
        equivalent = splice(file, f, "{ return b + a; }")
        assert ScriptedDifferentialBackend().verify(file, equivalent, f.task_id()).status == "pass"

    def test_header_running_past_the_body_is_judged_in_the_body(self):
        # In the whole completed source, g's header in add's new body runs on
        # to avg's '{': that parse gives avg's body to g, finds add with no
        # counterpart, and no scope around add's body declares g. The body
        # alone declares g, which no function body may.
        completed = completed_with(ADD, "{ function g(a) }")
        assert header_runs_past(FILE, completed)
        v = ScriptedDifferentialBackend().verify(FILE, completed, ADD.task_id())
        assert (v.status, v.diagnostics) == nested_function("g", 1)
        undeclared = Diagnostic("UndeclaredIdentifier", 'Undeclared identifier "g".', 1, "g")
        assert reference_verify(FILE, completed, ADD.task_id()) == ("compile_error", (undeclared,))

    def test_self_contained_bodies_take_the_body_only_path(self):
        for body in ("{ return b + a; }", "{\n  return 1; // x\n}", "{ /* } */ return 1; }", "{ function g() {} }"):
            assert executor._blanked(body) is not None, body
        for body in ("{ /* }", '{ "}', "{ } }", " { }", "{ return 1; } // x", "{ return 1; }\n"):
            assert executor._blanked(body) is None, body


def nested_function(name: str, line: int) -> tuple[str, tuple[Diagnostic, ...]]:
    return "compile_error", (Diagnostic("Other", f'Function "{name}" declared inside a function body.', line),)


class TestNestedFunctionDeclaration:
    """Solidity declares no function inside a function body, so a completed
    body that does, outside `assembly`, is a compile_error."""

    @pytest.mark.parametrize(
        "body,line",
        [
            ("{ function g(a) }", 1),
            ("{ function g() public {} }", 1),
            ("{ return a + b; function g() public {} }", 1),
            ("{\n        function g() internal pure returns (uint256) { return 1; }\n        return a + b;\n    }", 2),
            ("{\n        assembly { let x := 1 }\n        function g() public {}\n        return a + b;\n    }", 3),
        ],
        ids=["header-runs-past", "public", "after-return", "second-line", "after-assembly"],
    )
    def test_named_function_in_body_is_a_compile_error(self, body, line):
        v = ScriptedDifferentialBackend().verify(FILE, completed_with(ADD, body), ADD.task_id())
        assert (v.status, v.diagnostics) == nested_function("g", line)

    @pytest.mark.parametrize(
        "body",
        [
            "{ function (uint256, uint256) internal pure returns (uint256) op = add; return op(a, b); }",
            "{ assembly { function h(x) -> y { y := x } } return a + b; }",
            "{ /* function g() {} */ return a + b; }",
            '{ string memory s = "function g()"; return a + b; }',
        ],
        ids=["function-type-local", "yul-function", "comment", "string"],
    )
    def test_function_types_yul_comments_and_strings_declare_no_function(self, body):
        v = ScriptedDifferentialBackend().verify(FILE, completed_with(ADD, body), ADD.task_id())
        # Since mock-diff@9 the commented body is evaluated: it returns a + b.
        assert v.status == ("pass" if "/*" in body else "functional_mismatch")
        assert not any("declared inside a function body" in d.message for d in v.diagnostics)


def test_oracle_cache_shared_across_threads():
    """Workers share one backend: each oracle is prepared once, from the
    index verify is handed, which is never rebuilt, and every verdict equals
    the one a fresh backend given a fresh index gives."""
    indexes = {text: SourceIndex(text) for text in (ORACLE, OVERLOADS, NESTED)}
    jobs = [
        (ORACLE, ADD, "{ return b + a; }"),
        (ORACLE, AVG, "{ return a - b; }"),
        (OVERLOADS, F1, "{ return 12345; }"),
        (OVERLOADS, F2, "{ return helperX(a); }"),
        (NESTED, OUTER, OUTER.body.replace("r := y }", "r := helper(y) }")),
    ] * 40

    def run(backend, job, index):
        _, record, body = job
        completed = splice(index, record, body)
        verdict = backend.verify(index, completed, record.task_id())
        return verdict.status, verdict.diagnostics

    expected = [run(ScriptedDifferentialBackend(), job, SourceIndex(job[0])) for job in jobs]
    backend = ScriptedDifferentialBackend()
    prepared: list[SourceIndex] = []
    indexed: list[str] = []
    real_init, real_index_init = _Oracle.__init__, SourceIndex.__init__

    def counting_init(self, index, *steps):
        prepared.append(index)
        real_init(self, index, *steps)

    def counting_index_init(self, text, path="<source>"):
        indexed.append(text)
        real_index_init(self, text, path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(_Oracle, "__init__", counting_init), mock.patch.object(
            SourceIndex, "__init__", counting_index_init
        ):
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: run(backend, job, indexes[job[0]]), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(map(id, prepared)) == sorted(map(id, indexes.values()))
    assert indexed == []  # no source, oracle or completed, is indexed again
    assert got == expected


class TestHandedIndex:
    def test_backend_prepares_the_index_it_is_handed(self):
        completed = completed_with(ADD, "{ return b + a; }")
        backend = ScriptedDifferentialBackend()
        with mock.patch.object(SourceIndex, "__init__", side_effect=AssertionError("indexed")):
            assert backend.verify(FILE, completed, ADD.task_id()).status == "pass"
        assert backend._oracle(FILE).index is FILE
        # Keyed by text: another index of the same text finds the first one's preparation.
        assert backend._oracle(SourceIndex(ORACLE)).index is FILE

    def test_unbalanced_oracle_is_a_compile_error_naming_its_path(self):
        unbalanced = SourceIndex("contract C {\n", "bad.sol")
        completed = substitute_function(IndexedFunction("f", 0, 11, 11, 11, 0), "{ }")
        v = ScriptedDifferentialBackend().verify(unbalanced, completed, "t")
        assert v.status == "compile_error"
        assert v.diagnostics[0].message == "bad.sol: unmatched '{' at line 1, column 12"

    def test_rebase_builds_no_index(self):
        completed = completed_with(ADD, "{\n        return helperX(a, b);\n    }")
        source = completed.source_in(FILE)
        body_line = source[: source.index("{\n        return helperX")].count("\n") + 1
        diags = (
            Diagnostic("UndeclaredIdentifier", "m", line=body_line + 1, identifier="helperX"),
            Diagnostic("Other", "m", line=1),
            Diagnostic("Other", "m"),
        )
        with mock.patch.object(SourceIndex, "__init__", side_effect=AssertionError("indexed")), mock.patch.object(
            LocatedCompletion, "source_in", lambda self, oracle: pytest.fail("whole source built")
        ):
            rebased = SolcCompileBackend._rebase(diags, FILE, completed)
        assert [d.line for d in rebased] == [2, 1, None]
        assert rebased == SolcCompileBackend._rebase(diags, SourceIndex(ORACLE), completed)

    def test_three_parameter_backend_gets_the_index_positionally(self):
        calls = []

        class ThreeParameters:
            def verify(self, oracle, completed, target, /):
                calls.append((oracle, completed, target))
                return ExecutionVerdict(status="pass")

        assert differential_verify(FILE, UNCHANGED, ADD.task_id(), ThreeParameters()).status == "pass"
        assert calls == [(FILE, UNCHANGED, ADD.task_id())]
        assert calls[0][0] is FILE


def _top_level(index: SourceIndex) -> list[IndexedFunction]:
    """Body-bearing functions outside any other function's body, in source order."""
    return [fn for fn in index.functions if fn.has_body and not fn.depth]


class _Change(NamedTuple):
    """The top-level functions a completed source changes, aligned with the
    oracle's by location, the new ones' declarations in the completed
    source, and the resolver's scopes of that source."""

    old: tuple
    new: tuple
    functions: tuple
    scopes: list

    def declares(self, fn: IndexedFunction, name: str) -> bool:
        """Whether fn, a function of the completed source, sees name
        declared outside its body, read from the built scopes alone."""
        names = next(names for start, end, names in self.scopes if start <= fn.kw_offset <= end)
        return names is None or name in names


def reference_change(oracle: _Oracle, completed_source: str) -> _Change:
    """What a whole-source parse finds changed: index the whole completed
    source and align its top-level functions with the oracle's in source
    order (the mock's second path until mock-diff@4).

    Raises MalformedSourceError when the completed source is unbalanced.
    """
    completed = SourceIndex(completed_source, "<completed>")
    old, new = _top_level(oracle.index), _top_level(completed)
    old_text = oracle.index.text

    def same(a: IndexedFunction, b: IndexedFunction) -> bool:
        """Same name, signature and body."""
        return (
            a.name == b.name
            and a.body_start - a.kw_offset == b.body_start - b.kw_offset
            and old_text[a.kw_offset : a.body_end + 1] == completed_source[b.kw_offset : b.body_end + 1]
        )

    shorter = min(len(old), len(new))
    head = 0
    while head < shorter and same(old[head], new[head]):
        head += 1
    tail = 0
    while tail < shorter - head and same(old[-1 - tail], new[-1 - tail]):
        tail += 1
    changed = new[head : len(new) - tail]
    return _Change(
        tuple(map(oracle.body, old[head : len(old) - tail])),
        tuple(executor._body(completed, fn) for fn in changed),
        changed,
        mock_reference.scopes(completed),
    )


def reference_rebase(diagnostics, oracle: SourceIndex, source: str) -> tuple[Diagnostic, ...]:
    """solc's lines as a whole-source parse rebases them: those on the one
    top-level body the completed source changes count from its '{'; with no
    such body, every line stays absolute."""
    diagnostics = tuple(diagnostics)
    try:
        change = reference_change(_Oracle(oracle), source)
    except MalformedSourceError:
        return diagnostics
    if len(change.new) != 1:
        return diagnostics
    first = source.count("\n", 0, change.new[0].start) + 1
    last = first + change.new[0].text.count("\n")
    return tuple(
        dataclasses.replace(d, line=d.line - first + 1) if d.line is not None and first <= d.line <= last else d
        for d in diagnostics
    )


def mismatch(message: str) -> tuple[str, tuple[Diagnostic, ...]]:
    return "functional_mismatch", (Diagnostic("Other", message),)


def reference_verify(oracle: SourceIndex, completed: LocatedCompletion, task_id: str) -> tuple:
    """The status and diagnostics that indexing the whole completed source
    gives: one changed pair is judged as the backend judges a located body,
    against the scope the resolver builds over the whole completed source,
    with no shortcut for names the oracle lacks; anything else gets the
    verdicts the whole-source path gave."""
    try:
        change = reference_change(_Oracle(oracle), completed.source_in(oracle))
    except MalformedSourceError as exc:
        return "compile_error", (Diagnostic("Other", str(exc)),)
    if len(change.old) == len(change.new) == 1 and change.old[0].name == change.new[0].name:
        (fn,) = change.functions
        with mock.patch.object(_Oracle, "declares", lambda self, _, name: change.declares(fn, name)):
            v = ScriptedDifferentialBackend().verify(oracle, completed, task_id)
        return v.status, v.diagnostics
    if not change.new:
        if not change.old:
            return "pass", ()
        return mismatch(f"oracle functions missing from the completed source: {sorted(b.name for b in change.old)}")
    for new, fn in zip(change.new, change.functions):
        for use in executor._free(executor._blanked(new.text), new.own):
            if use.name not in new.own and not change.declares(fn, use.name):
                line = new.text.count("\n", 0, use.at) + 1
                return "compile_error", (
                    Diagnostic("UndeclaredIdentifier", f'Undeclared identifier "{use.name}".', line, use.name),
                )
    if len(change.new) > 1:
        return mismatch(f"multiple functions differ from oracle: {sorted(b.name for b in change.new)}")
    return mismatch(f"function {change.new[0].name!r} has no oracle counterpart")


NOT_ONE_BLOCK = ("compile_error", (Diagnostic("Other", "completed body is not one balanced {...} block"),))


def header_runs_past(oracle: SourceIndex, completed: LocatedCompletion) -> bool:
    """True when a function declared in the completed body has its header or
    body run on past the body's closing brace in the whole completed source
    (`{ function g(a) }`): parsing that source then realigns the functions
    after the body."""
    start = completed.target.body_start
    end = start + len(completed.body)
    return any(start < fn.kw_offset < end <= fn.end for fn in SourceIndex(completed.source_in(oracle)).functions)


def check_against_reference(oracle: SourceIndex, completed: LocatedCompletion, task_id: str) -> tuple:
    """The backend's status and diagnostics, checked against those it should
    give: the whole-source reference's for a body that is one balanced block,
    the not-one-block compile_error for any other, and the nested-function
    compile_error for a block that declares a named function outside
    `assembly`, which Solidity rejects wherever it stands. Where a header in the
    block runs past it, the reference judges realigned functions instead of
    the body, and only the status is the same."""
    v = ScriptedDifferentialBackend().verify(oracle, completed, task_id)
    got = v.status, v.diagnostics
    declared = WORD_BOUNDARY_FUNCTION_RE.search(executor._without_assembly(executor.scrub(completed.body)))
    if not (completed.keeps_body_of(oracle) or executor._is_single_block(executor.scrub(completed.body))):
        assert got == NOT_ONE_BLOCK
    elif declared and not completed.keeps_body_of(oracle):
        assert got == nested_function(declared[1], completed.body.count("\n", 0, declared.start()) + 1)
    elif header_runs_past(oracle, completed):
        assert got[0] == reference_verify(oracle, completed, task_id)[0]
    else:
        assert got == reference_verify(oracle, completed, task_id)
    return got


BODY_PARTS = st.sampled_from(
    [
        "{", "}", "/*", "*/", "//", "\n", '"', "'", "\\", " ", ";", "(", ")",
        "return a + b;", "return b + a;", "return 12345;", "uint256 t = a;", "return t;", "return s;", "acc",
        "helperX(a)", "avg(a, b)", "msg.sender", "function", "function g() public {}",
        "assembly { function h(x) -> y { y := x } }",
    ]
)
TARGETS = (
    (FILE, ADD), (FILE, AVG), (FILE, LOOP),
    (OVERLOADS_FILE, F1), (OVERLOADS_FILE, F2), (NESTED_FILE, OUTER),
)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(BODY_PARTS, max_size=10),
    wrap=st.booleans(),
    target=st.sampled_from(TARGETS),
)
def test_property_body_only_verify_matches_whole_source(parts, wrap, target):
    """A body that is one balanced block gets the whole-source reference's
    verdict; any other body gets the not-one-block compile_error."""
    oracle, record = target
    body = "".join(parts)
    if wrap:
        body = "{ " + body + " }"
    check_against_reference(oracle, splice(oracle, record, body), record.task_id())


BLOCK_STATEMENTS = st.sampled_from(
    [
        "return a + b;", "return b + a;", "return a - b;", "return 12345;", "uint256 t = a;", "return t;",
        "return helperX(a);", "return total;", "return zz;", "return add(a, b);", "if (a > b) { return a; }",
        "require(a > 0);", "return s / 2;",
    ]
)
# Each well-formed block's statements, then something hostile in it or
# after it: a stray brace, an unterminated string or comment, an extra
# function.
HOSTILE = st.sampled_from(["", "{", "}", '"', "'", "/*", "//", "function g() public {}", "assembly { let x := 1 }"])
# Text after the block, which makes any body but the bare block not one block.
TAILS = st.sampled_from(
    [
        "", "\n", " // x\n", " // x", " /* x */", " /* x", "\t/** } { */\n", ' "s"', " }", " {", " x", " /*/",
        "\n    function extra() public pure { }",
        "\n    function add(uint256 a) public pure returns (uint256) { return a; }",
    ]
)


@settings(max_examples=200, deadline=None)
@example(["return b + a;"], "", False, True, " /* x", (FILE, ADD))
@example([], "", False, False, "\n    function add(uint256 a) public pure returns (uint256) { return a; }", (FILE, ADD))
@given(
    statements=st.lists(BLOCK_STATEMENTS, max_size=3),
    hostile=HOSTILE,
    inside=st.booleans(),
    newlines=st.booleans(),
    tail=TAILS,
    target=st.sampled_from((*TARGETS, (MULTI_FILE, M_HALF))),
)
def test_property_located_verify_matches_whole_source_reference(statements, hostile, inside, newlines, tail, target):
    """A body that is one balanced block gets the verdict and diagnostics
    that indexing its whole completed source gives, and solc's lines rebased
    as that parse rebases them; any other body gets the not-one-block
    compile_error. Either way, the lines on the body's span count from its
    first line. A hostile piece outside the block is part of the tail."""
    oracle, record = target
    sep = "\n        " if newlines else " "
    block = "{" + sep + sep.join(statements + ([hostile] if inside and hostile else [])) + sep + "}"
    body = block + ("" if inside else hostile) + tail
    completed = splice(oracle, record, body)
    got = check_against_reference(oracle, completed, record.task_id())
    balanced = not hostile or inside and (hostile.startswith(("assembly", "function")) or hostile == "//" and newlines)
    if balanced and not tail:
        assert executor._blanked(body) is not None, body
    # solc's absolute lines, one on each line of the completed source.
    source = completed.source_in(oracle)
    lines = [Diagnostic("Other", "m", line=n) for n in range(1, source.count("\n") + 2)]
    rebased = SolcCompileBackend._rebase(lines, oracle, completed)
    first = source.count("\n", 0, completed.target.body_start) + 1
    assert [d.line for d in rebased] == [
        n - first + 1 if first <= n <= first + body.count("\n") else n for n in range(1, len(lines) + 1)
    ]
    if got != NOT_ONE_BLOCK and not header_runs_past(oracle, completed):
        assert rebased == reference_rebase(lines, oracle, source)


# `base` is declared in a contract this source imports, not in the source.
INHERITED_FILE = SourceIndex.from_text(
    "i.sol",
    'import "./Base.sol";\ncontract I is Base {\n    /// Adds the base.\n'
    "    function plus(uint256 a) public view returns (uint256) {\n        return base + a;\n    }\n}\n",
)
(PLUS,) = extract_functions(INHERITED_FILE)


@pytest.mark.parametrize("tail", ["", " // x", "\n/* y */\n"])
@pytest.mark.parametrize("index,record", [(FILE, AVG), (INHERITED_FILE, PLUS)], ids=["avg", "inherited"])
def test_oracle_body_passes_whatever_comments_follow_it(index, record, tail):
    """The oracle's own block changes nothing, even where it reads a name
    that the source never declares, once the reply is read as run and verify
    read one (extract_code_block); handed over unread, a tail makes the body
    not one block. Another block reading a name declared nowhere is faulted
    for it, unless the source imports: what it sees cannot be decided then."""
    read = splice(index, record, extract_code_block(record.body + tail))
    assert ScriptedDifferentialBackend().verify(index, read, record.task_id()).status == "pass"
    got = check_against_reference(index, splice(index, record, record.body + tail), record.task_id())
    assert got == (NOT_ONE_BLOCK if tail else ("pass", ()))
    other = splice(index, record, "{ return base; }")
    status = ScriptedDifferentialBackend().verify(index, other, record.task_id()).status
    assert status == ("compile_error" if index is FILE else "functional_mismatch")


def test_single_block_verdicts_build_no_completed_source():
    """A body that is one balanced block is judged without building,
    indexing or comparing a whole completed source, and so is one that is
    not."""
    jobs = [
        (FILE, ADD, "{ return b + a; }", "pass", None),
        (FILE, ADD, "{ return a - b; }", "functional_mismatch", None),
        (FILE, LOOP, LOOP.body.replace("acc + i", "acc + i + 1"), "functional_mismatch", None),
        (FILE, AVG, "{\n        return helperX(a); // x\n    }", "compile_error", 2),
        (MULTI_FILE, M_HALF, "{\n\n        return zz; /* done */ }", "compile_error", 3),
        (MULTI_FILE, M_HALF, "{ return a / 2;  }", "pass", None),
        (MULTI_FILE, M_HALF, "{ return a / 2; } // x", "compile_error", None),
    ]
    backend = ScriptedDifferentialBackend()
    fail = mock.Mock(side_effect=AssertionError("whole source"))
    with mock.patch.object(LocatedCompletion, "source_in", fail), mock.patch.object(
        SourceIndex, "__init__", fail
    ):
        for oracle, record, body, status, line in jobs:
            v = backend.verify(oracle, splice(oracle, record, body), record.task_id())
            assert v.status == status, body
            assert line is None or v.diagnostics[0].line == line
    assert fail.call_count == 0


FIXTURE_SOURCES = sorted((Path(__file__).parent / "fixtures").glob("*/**/*.sol"))


@pytest.mark.parametrize("path", FIXTURE_SOURCES, ids=lambda p: f"{p.parts[-3]}/{p.parts[-2]}/{p.name}")
def test_fixture_records_splice_back_exactly(path):
    file = SourceIndex.from_text(str(path), path.read_text(encoding="utf-8"))
    backend = ScriptedDifferentialBackend()
    records = extract_functions(file)
    assert records
    for record in records:
        completed = splice(file, record, record.body)
        assert completed.source_in(file) == file.text
        assert backend.verify(file, completed, record.task_id()).status == "pass"
        reindented = splice(file, record, "{ " + record.body[1:].replace("\n", "\n  "))
        assert executor._blanked(reindented.body) is not None
        check_against_reference(file, reindented, record.task_id())


@pytest.mark.parametrize("path", FIXTURE_SOURCES, ids=lambda p: f"{p.parts[-3]}/{p.parts[-2]}/{p.name}")
def test_every_fixture_body_resolves_in_its_own_scope(path):
    """A name a fixture function's own body reads is undeclared only when it
    occurs nowhere in the source outside that body: locals, the contract's
    members, in-file bases' and file-level names cover every other use. A
    respaced copy of the body gets the verdict of that walk."""
    file = SourceIndex.from_text(str(path), path.read_text(encoding="utf-8"))
    oracle = _Oracle(file)
    backend = ScriptedDifferentialBackend()
    for fn in (fn for fn in file.functions if fn.body_start >= 0):
        body = oracle.body(fn)
        uses = executor._free(executor._blanked(body.text), body.own)
        undeclared = [u.name for u in uses if u.name not in body.own and not oracle.declares(fn, u.name)]
        outside = file.scrubbed[: fn.body_start] + " " + file.scrubbed[fn.body_end + 1 :]
        assert not [name for name in undeclared if re.search(rf"(?<![\w$]){re.escape(name)}(?![\w$])", outside)]
        verdict = backend.verify(file, substitute_function(fn, "{ " + body.text[1:]), fn.name)
        if undeclared:
            assert (verdict.status, verdict.diagnostics[0].identifier) == ("compile_error", undeclared[0])
        else:
            assert verdict.status != "compile_error", (fn.name, verdict.diagnostics)


@contextmanager
def counted_tables():
    """The index of each build of a declaration table, in order, whichever
    thread builds it."""
    table = SourceIndex.__dict__["declarations"]
    real, built, lock = table.func, [], threading.Lock()

    def counting(index):
        with lock:
            built.append(index)
        return real(index)

    with mock.patch.object(table, "func", counting):
        yield built


class TestDeclarationTable:
    """An oracle's declaration table (`SourceIndex.declarations`) is built
    only for a name that a completion does not declare itself and that
    occurs in its self-contained oracle, and then once per index. Each test
    indexes its oracles afresh, since an index keeps its table."""

    def test_completions_using_only_locals_build_no_table(self):
        backend = ScriptedDifferentialBackend()
        multi = SourceIndex(MULTI, "m.sol")
        bodies = [
            "{ uint256 s = a + b; return s; }",
            "{ return b + a; }",
            "{ uint256 t; return add(t, a); }",
            "{ return a - b; } // not one block",
        ]
        with counted_tables() as built:
            statuses = [backend.verify(multi, splice(multi, M_ADD, body), M_ADD.task_id()).status for body in bodies]
        assert statuses == ["pass", "pass", "functional_mismatch", "compile_error"]
        assert executor._blanked(bodies[-1]) is None
        assert built == []
        assert "declarations" not in vars(multi)

    def test_non_local_identifier_builds_the_table_once_per_oracle(self):
        backend = ScriptedDifferentialBackend()
        file, multi = SourceIndex(ORACLE, "math.sol"), SourceIndex(MULTI, "m.sol")
        jobs = [
            (file, ADD, "{ return total + a; }", "functional_mismatch"),
            (file, AVG, "{ return helperX(a); }", "compile_error"),
            (file, AVG, "{ return total; }", "functional_mismatch"),
            (multi, M_ADD, "{ return zz; }", "compile_error"),
            (multi, M_HALF, "{ return a / 2; }", "pass"),
            (multi, M_HALF, "{ return zz; } // x", "compile_error"),
        ] * 3
        with counted_tables() as built:
            for oracle, record, body, status in jobs:
                assert backend.verify(oracle, splice(oracle, record, body), record.task_id()).status == status
        # `zz` and `helperX` occur nowhere in their oracles: no table is built
        # for them, and no other name sends the multi oracle's to a build.
        assert built == [file]

    @pytest.mark.parametrize("name", ["uniswapV2Router07", "accrueAaveRouter", "zz"])
    @pytest.mark.parametrize(
        "text,record", [(ORACLE, ADD), (MULTI, M_HALF), (PRICED, P_HALF)], ids=["math", "multi", "value-type"]
    )
    def test_name_absent_from_the_oracle_scans_only_the_new_body(self, text, record, name):
        source = SourceIndex(text)
        body = f"{{ return {name}(a); }}"
        completed = splice(source, record, body)
        backend = ScriptedDifferentialBackend()
        with counted_tables() as built, mock.patch.object(executor, "_free", wraps=executor._free) as walks:
            verdict = backend.verify(source, completed, record.task_id())
        assert (verdict.status, verdict.diagnostics[0].identifier) == ("compile_error", name)
        assert built == []
        assert [call.args[0] for call in walks.call_args_list] == [executor.scrub(body)]

    def test_tables_under_threads_give_serial_verdicts(self):
        jobs = [
            (0, ADD, "{ return total + a; }"),
            (0, AVG, "{ return helperX(a); }"),
            (0, AVG, "{ return total; }"),
            (0, ADD, "{ return b + a; }"),
            (1, M_ADD, "{ return zz; }"),
            (1, M_HALF, "{ uint256 q = a / 2; return q; }"),
            (1, M_DIV, "{ return add(a, b); }"),
            (1, M_DIV, "{ return b - a; }"),
        ] * 25

        def run(backend, oracles, job):
            which, record, body = job
            oracle = oracles[which]
            v = backend.verify(oracle, splice(oracle, record, body), record.task_id())
            return v.status, v.diagnostics

        serial = (SourceIndex(ORACLE, "math.sol"), SourceIndex(MULTI, "m.sol"))
        expected = [run(ScriptedDifferentialBackend(seed=3), serial, job) for job in jobs]
        assert len({status for status, _ in expected}) == 4
        backend = ScriptedDifferentialBackend(seed=3)
        oracles = (SourceIndex(ORACLE, "math.sol"), SourceIndex(MULTI, "m.sol"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counted_tables() as built:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda job: run(backend, oracles, job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        # Each oracle's table is built, at most once per racing thread.
        builds = Counter(index.text for index in built)
        assert set(builds) == {ORACLE, MULTI}
        assert all(1 <= n <= 8 for n in builds.values()), builds


SCOPE = Path(__file__).parent / "fixtures" / "scope"
SCOPE_FILE = SourceIndex.from_text("pool.sol", (SCOPE / "sources" / "pool.sol").read_text(encoding="utf-8"))
SCOPE_TASKS = {record.task_id(): record for record in read_task_file(SCOPE / "tasks.jsonl")}
SCOPE_PROBES = [
    pytest.param(json.loads(completion), json.loads(expected), id=json.loads(expected)["probe"])
    for completion, expected in zip(
        (SCOPE / "completions.jsonl").read_text(encoding="utf-8").splitlines(),
        (SCOPE / "expected.jsonl").read_text(encoding="utf-8").splitlines(),
        strict=True,
    )
]


@pytest.mark.parametrize("completion,expected", SCOPE_PROBES)
def test_scope_probe_gets_its_expected_verdict(completion, expected):
    """Each row of tests/fixtures/scope: a name is undeclared exactly where
    no declaration is in scope, and the whole-source reference agrees."""
    record = SCOPE_TASKS[completion["task_id"]]
    completed = splice(SCOPE_FILE, record, completion["body"])
    status, diagnostics = check_against_reference(SCOPE_FILE, completed, record.task_id())
    identifier = diagnostics[0].identifier if status == "compile_error" else None
    assert (status, identifier) == (expected["status"], expected["identifier"])


def test_scope_probes_pair_no_whole_oracle_again():
    """While the scope probes are verified, no oracle's braces are paired
    again: its index paired them once, and what it declares is read from
    the index's table."""
    oracle = SourceIndex(SCOPE_FILE.text, "pool.sol")
    backend = ScriptedDifferentialBackend()
    paired = []
    real = corpus.pair_braces

    def spy(scrubbed, start):
        paired.append(scrubbed)
        return real(scrubbed, start)

    with mock.patch.object(corpus, "pair_braces", spy), mock.patch.object(executor, "pair_braces", spy):
        for completion, _ in (param.values for param in SCOPE_PROBES):
            record = SCOPE_TASKS[completion["task_id"]]
            backend.verify(oracle, splice(oracle, record, completion["body"]), record.task_id())
    assert "declarations" in vars(oracle)
    assert paired and oracle.scrubbed not in paired


# A contract whose names are known by construction: `f`'s body sees the
# names of ALWAYS_IN_SCOPE and the types of TYPES_IN_SCOPE wherever it
# stands, and never the names of NEVER_IN_SCOPE (another function's local, a
# base's private member, a name declared nowhere) or the type `Missing`.
SCOPE_CONTRACT = """pragma solidity ^0.8.0;

interface IT {
    function get() external view returns (uint256);
}

contract Base {
    uint256 internal baseShared;
    uint256 private basePrivate;
}

contract C is Base {
    struct S {
        uint256 x;
        uint256 y;
    }

    enum E { One, Two }

    uint256 constant LIMIT = 7;
    uint256[] arr;
    IT tok;

    /// Reads its own local.
    function other(uint256 a) internal pure returns (uint256) {
        uint256 otherLocal = a;
        return otherLocal;
    }

    /// The target.
    function f(uint256 a, uint256 b) public view returns (uint256 r) {
        r = a + b;
    }
}
"""
SCOPE_CONTRACT_FILE = SourceIndex.from_text("c.sol", SCOPE_CONTRACT)
SCOPE_TARGET = next(fn for fn in SCOPE_CONTRACT_FILE.functions if fn.name == "f")
ALWAYS_IN_SCOPE = ("a", "b", "r", "baseShared", "LIMIT", "arr", "tok", "other", "f")
TYPES_IN_SCOPE = ("S", "E", "IT")
NEVER_IN_SCOPE = ("otherLocal", "basePrivate", "nowhere")
# A local's type, the rest of the declaration before the name, and the
# initializer, `{}` standing for each use in it. A type that is not
# elementary is a use too.
LOCAL_TYPES = (
    ("uint256", "", "{}"), ("S", " memory", "S({}, {})"), ("S", " memory", "S({{x: {}, y: {}}})"), ("E", "", "E.One"),
    ("uint256", "[] memory", "new uint256[]({})"), ("IT", "", "tok"), ("Missing", " memory", "Missing({})"),
)
# The clauses of a `try` after its first, each with the parameter `{}`,
# which is in scope in the clause's block only.
CATCH_CLAUSES = ("catch Error(string memory {}) {{", "catch Panic(uint256 {}) {{", "catch (bytes memory {}) {{")


class ScopedBody:
    """A body drawn statement by statement, tracking which names are in
    scope and the first use of one that is not, with its line."""

    def __init__(self, data) -> None:
        self.data = data
        self.lines: list[str] = []
        self.scopes: list[set[str]] = [set()]
        self.ever: set[str] = set()
        self.first_undeclared: tuple[str, int] | None = None

    def in_scope(self) -> set[str]:
        return set(ALWAYS_IN_SCOPE).union(TYPES_IN_SCOPE, *self.scopes)

    def fresh(self) -> str:
        name = f"v{len(self.ever)}"
        self.ever.add(name)
        return name

    def use(self, name: str | None = None) -> str:
        """A use on the line being drawn, of name or of a drawn name."""
        if name is None:
            # Locals whose scope has ended, first of all.
            out = sorted(self.ever - self.in_scope()) * 3 + list(NEVER_IN_SCOPE)
            inside = sorted(self.in_scope() - set(TYPES_IN_SCOPE))
            name = self.data.draw(st.sampled_from(out if out and self.data.draw(st.integers(0, 5)) == 0 else inside))
        if name not in self.in_scope() and self.first_undeclared is None:
            self.first_undeclared = (name, len(self.lines) + 2)  # line 1 holds the body's '{'
        return name

    def declaration(self, name: str) -> str:
        type_name, rest, init = self.data.draw(st.sampled_from(LOCAL_TYPES))
        if type_name != "uint256":
            self.use(type_name)
        uses = [self.use() for _ in range(init.count("{}"))]
        return f"{type_name}{rest} {name} = {init.format(*uses)}"

    def block(self, depth: int) -> None:
        kinds = ["declare", "use", "shadow", "tuple"] + (["block", "for", "try"] if depth < 3 else [])
        for _ in range(self.data.draw(st.integers(0, 3))):
            kind = self.data.draw(st.sampled_from(kinds))
            if kind in ("declare", "shadow"):
                outer = sorted(set().union(*self.scopes[:-1], ("baseShared", "LIMIT", "tok")) - self.scopes[-1])
                name = self.data.draw(st.sampled_from(outer)) if kind == "shadow" and outer else self.fresh()
                self.lines.append(self.declaration(name) + ";")
                self.scopes[-1].add(name)
            elif kind == "tuple":
                first, second = self.fresh(), self.fresh()
                self.lines.append(f"(uint256 {first}, , uint256 {second}) = ({self.use()}, 0, {self.use()});")
                self.scopes[-1] |= {first, second}
            elif kind == "use":
                self.lines.append(f"r += {self.use()} * {self.use()};")
            elif kind == "try":
                catches = self.data.draw(st.lists(st.sampled_from(CATCH_CLAUSES), min_size=1, max_size=3, unique=True))
                for i, clause in enumerate(["try tok.get() returns (uint256 {}) {{", *catches]):
                    param = self.fresh()
                    self.lines.append(("} " if i else "") + clause.format(param))
                    self.scopes.append({param})
                    self.block(depth + 1)
                    self.scopes.pop()
                self.lines.append("}")
            else:
                loop = self.fresh() if kind == "for" else None
                self.scopes.append({loop} if loop else set())
                if loop:
                    self.lines.append(f"for (uint256 {loop} = 0; {self.use(loop)} < {self.use()}; {loop}++) {{")
                    self.scopes.append(set())
                else:
                    self.lines.append("{")
                self.block(depth + 1)
                self.lines.append("}")
                del self.scopes[-2 if loop else -1 :]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_a_use_is_undeclared_iff_out_of_scope(data):
    """Over bodies that nest blocks, `for` loops and `try`/`catch` clauses,
    shadow names and declare struct-, enum-, array- and contract-typed
    locals in a contract with an in-file base: the first use of a name the
    body leaves out of scope is the one UndeclaredIdentifier, at its line;
    with none, no name is undeclared."""
    body = ScopedBody(data)
    body.block(0)
    text = "{\n" + "\n".join(body.lines) + "\n}"
    v = ScriptedDifferentialBackend().verify(SCOPE_CONTRACT_FILE, substitute_function(SCOPE_TARGET, text), "c.sol#f")
    if body.first_undeclared is None:
        assert v.status != "compile_error", (text, v.diagnostics)
    else:
        name, line = body.first_undeclared
        undeclared = Diagnostic("UndeclaredIdentifier", f'Undeclared identifier "{name}".', line, name)
        assert (v.status, v.diagnostics) == ("compile_error", (undeclared,)), text


class TestSolcBackend:
    def test_missing_binary_is_unavailable(self):
        backend = SolcCompileBackend(solc_path="solc-definitely-not-here")
        v = backend.compile("contract C { }")
        assert v.status == "executor_unavailable"
        assert "not found" in v.diagnostics[0].message

    def test_missing_binary_version_string(self):
        backend = SolcCompileBackend(solc_path="solc-definitely-not-here")
        assert backend.version == "unavailable"

    def test_rebase_moves_line_into_body(self):
        completed = completed_with(ADD, "{\n        return helperX(a, b);\n    }")
        source = completed.source_in(FILE)
        body_line = source[: source.index("{\n        return helperX")].count("\n") + 1
        diag = Diagnostic("UndeclaredIdentifier", "m", line=body_line + 1, identifier="helperX")
        (rebased,) = SolcCompileBackend._rebase((diag,), FILE, completed)
        assert rebased.line == 2

    def test_rebase_leaves_outside_lines_alone(self):
        completed = completed_with(ADD, "{ return 1; }")
        diag = Diagnostic("Other", "m", line=1)
        assert SolcCompileBackend._rebase((diag,), FILE, completed)[0].line == 1

    @pytest.mark.parametrize("record", [ADD, AVG, LOOP], ids=lambda r: r.name)
    def test_verify_rebases_a_stubbed_compilers_absolute_lines(self, record):
        body = "{\n        uint256 q = a;\n        return helperX(q);\n    }"
        completed = completed_with(record, body)
        source = completed.source_in(FILE)
        first = source[: source.index(body)].count("\n") + 1
        compiled = []

        def compile(self, text):
            compiled.append(text)
            diagnostics = [
                Diagnostic("UndeclaredIdentifier", f"task.sol:{first + 2}:16: m", line=first + 2, identifier="helperX"),
                Diagnostic("Other", "first body line", line=first),
                Diagnostic("Other", "last body line", line=first + 3),
                Diagnostic("Other", "before the body", line=first - 1),
                Diagnostic("Other", "after the body", line=first + 4),
                Diagnostic("Other", "no line"),
            ]
            return ExecutionVerdict("compile_error", tuple(diagnostics), backend="solc", backend_version="stub")

        with mock.patch.object(SolcCompileBackend, "compile", compile), mock.patch.object(
            SourceIndex, "__init__", side_effect=AssertionError("indexed")
        ):
            v = SolcCompileBackend().verify(FILE, completed, record.task_id())
        assert compiled == [source]
        assert v.status == "compile_error"
        assert [d.line for d in v.diagnostics] == [3, 1, 4, first - 1, first + 4, None]
        assert v.diagnostics[0].message == f"task.sol:{first + 2}:16: m"

    @pytest.mark.parametrize(
        "body,spanned",
        [
            # Every line the body spans counts from its first, whatever the
            # body holds, unless it is the oracle's own.
            ("{\n        return helperX(a);\n    } // x\n", 4),
            ("{\n        return a;\n    }\n\n    function extra() public pure { }", 5),
            (ADD.body, 0),
            ("{\n        return a;\n", 3),
        ],
        ids=["trailing-comment", "extra-function", "oracle-body", "unbalanced"],
    )
    def test_lines_are_rebased_only_onto_the_one_changed_body(self, body, spanned):
        completed = completed_with(ADD, body)
        source = completed.source_in(FILE)
        first = source[: source.index(body)].count("\n") + 1
        diagnostics = [Diagnostic("Other", "m", line=n) for n in range(1, source.count("\n") + 2)]
        with mock.patch.object(
            SolcCompileBackend, "compile", return_value=ExecutionVerdict("compile_error", tuple(diagnostics))
        ):
            v = SolcCompileBackend().verify(FILE, completed, ADD.task_id())
        moved = [(was.line, d.line) for d, was in zip(v.diagnostics, diagnostics) if d != was]
        assert moved == [(first + k, k + 1) for k in range(spanned)]

    @staticmethod
    def stub_solc(errors_for):
        """A subprocess.run stand-in for solc: `--version` names a stub
        version, and `--standard-json` answers with errors_for(source)."""
        requests = []

        def run(argv, **kwargs):
            if argv[1:] == ["--version"]:
                return subprocess.CompletedProcess(argv, 0, stdout="solc\nVersion: 0.8.26+stub\n", stderr="")
            assert argv[1:] == ["--standard-json"]
            source = json.loads(kwargs["input"])["sources"]["task.sol"]["content"]
            requests.append(source)
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps({"errors": errors_for(source)}), stderr="")

        return run, requests

    @staticmethod
    def undeclared(source: str, name: str, message: str = "Undeclared identifier.") -> dict:
        """A standard-JSON error as solc reports an undeclared `name`: byte
        offsets, and a formattedMessage that quotes the source line."""
        start = source.index(name)
        offset = len(source[:start].encode("utf-8"))
        line = source.count("\n", 0, start) + 1
        text = source.split("\n")[line - 1]
        column = start - source.rfind("\n", 0, start)
        formatted = (
            f"DeclarationError: {message}\n --> task.sol:{line}:{column}:\n  |\n{line} | {text}\n"
            f"  | {' ' * (column - 1)}{'^' * len(name)}\n\n"
        )
        return {
            "component": "general",
            "errorCode": "7576",
            "formattedMessage": formatted,
            "message": message,
            "severity": "error",
            "sourceLocation": {"file": "task.sol", "start": offset, "end": offset + len(name.encode("utf-8"))},
            "type": "DeclarationError",
        }

    @pytest.mark.parametrize(
        "body,name,message",
        [
            # The excerpt quotes a string on the error's line.
            ('{\n        require(a > 0, "fee too high"); return helperX(a, b);\n    }', "helperX", "Undeclared identifier."),
            # The message suggests another name.
            ("{\n        return balanceof(a) + b;\n    }", "balanceof", 'Undeclared identifier. Did you mean "balanceOf"?'),
        ],
        ids=["quoted-string-in-excerpt", "did-you-mean"],
    )
    def test_undeclared_identifier_is_the_spanned_source_text(self, body, name, message):
        # A non-ASCII comment above the body makes byte and character offsets differ.
        oracle = SourceIndex(ORACLE.replace("    /// Adds two numbers.", "    /// Adds two numbers (é, €)."))
        completed = substitute_function(oracle.find(ADD.name, *ADD.span), body)
        source = completed.source_in(oracle)
        run, requests = self.stub_solc(lambda text: [self.undeclared(text, name, message)])
        with mock.patch.object(subprocess, "run", run):
            compiled = SolcCompileBackend().compile(source)
            verified = SolcCompileBackend().verify(oracle, completed, ADD.task_id())
        assert requests == [source, source]
        (d,) = compiled.diagnostics
        assert (compiled.status, d.kind, d.identifier) == ("compile_error", "UndeclaredIdentifier", name)
        assert d.line == source.count("\n", 0, source.index(name)) + 1
        assert d.message == self.undeclared(source, name, message)["formattedMessage"]
        # verify counts the same line from the body's "{".
        assert verified.diagnostics[0].line == 2
        assert compiled.backend_version == "0.8.26+stub"

    def test_errors_without_a_source_location_read_the_first_line(self):
        errors = [
            {"severity": "warning", "formattedMessage": 'Warning: "unused"', "message": "unused"},
            {"severity": "error", "formattedMessage": 'task.sol:3:5: TypeError: Member "push" not found.\n  | x "y"\n'},
            {"severity": "error", "message": 'Undeclared identifier "zz".', "sourceLocation": {"file": "other.sol", "start": 0, "end": 2}},
            {"severity": "error", "message": "Stack too deep.", "sourceLocation": {"file": "task.sol", "start": -1, "end": -1}},
        ]
        run, _ = self.stub_solc(lambda text: errors)
        with mock.patch.object(subprocess, "run", run):
            v = SolcCompileBackend().compile(ORACLE)
        assert [(d.kind, d.identifier, d.line) for d in v.diagnostics] == [
            ("Member", "push", 3),
            ("UndeclaredIdentifier", "zz", None),
            ("Other", None, None),
        ]

    def test_excerpt_lines_are_not_classified(self):
        message = 'TypeError: Stack too deep.\n --> task.sol:9:3:\n  |\n9 | revert("Undeclared identifier \\"x\\"");\n'
        d = classify_error(message)
        assert (d.kind, d.identifier, d.line) == ("Other", None, None)

    def test_verify_passes_a_clean_compile_through(self):
        clean = ExecutionVerdict("pass", backend="solc", backend_version="stub")
        with mock.patch.object(SolcCompileBackend, "compile", return_value=clean):
            assert SolcCompileBackend().verify(FILE, UNCHANGED, ADD.task_id()) is clean

    @pytest.mark.skipif(shutil.which("solc") is None, reason="solc binary not installed")
    def test_real_compile_pass(self):
        v = SolcCompileBackend().compile(ORACLE)
        assert v.status == "pass"

    @pytest.mark.skipif(shutil.which("solc") is None, reason="solc binary not installed")
    def test_real_compile_undeclared(self):
        completed = completed_with(ADD, "{ return helperX(a, b); }")
        v = SolcCompileBackend().verify(FILE, completed, ADD.task_id())
        assert v.status == "compile_error"
        assert v.diagnostics[0].kind == "UndeclaredIdentifier"


def write_stub(tmp_path, name: str, body: str) -> list[str]:
    script = tmp_path / name
    script.write_text(body)
    return [sys.executable, str(script)]


class TestFuzzAdapter:
    def test_pass_report(self, tmp_path):
        cmd = write_stub(
            tmp_path,
            "fuzz_pass.py",
            (
                "import json, sys\n"
                "req = json.load(sys.stdin)\n"
                "assert req['schema'] == 'fuzz-request@1'\n"
                f"assert req['oracle_source'] == {ORACLE!r}\n"
                f"assert req['completed_source'] == {ORACLE!r}\n"
                "assert list(req) == ['schema', 'oracle_source', 'completed_source', 'target_function_id']\n"
                f"assert req['target_function_id'] == {ADD.task_id()!r}\n"
                "json.dump({'schema': 'fuzz-report@1', 'status': 'pass', 'seed': 7,"
                " 'version': 'stub-1'}, sys.stdout)\n"
            ),
        )
        v = SubprocessFuzzBackend(cmd).verify(FILE, UNCHANGED, ADD.task_id())
        assert v.status == "pass"
        assert v.backend_seed == 7
        assert v.backend_version == "stub-1"

    def test_mismatch_report_with_diagnostics(self, tmp_path):
        cmd = write_stub(
            tmp_path,
            "fuzz_fail.py",
            (
                "import json, sys\n"
                "sys.stdin.read()\n"
                "json.dump({'schema': 'fuzz-report@1', 'status': 'functional_mismatch',"
                " 'diagnostics': [{'kind': 'Other', 'message': 'diverged at input 3'}]},"
                " sys.stdout)\n"
            ),
        )
        v = SubprocessFuzzBackend(cmd).verify(FILE, UNCHANGED, ADD.task_id())
        assert v.status == "functional_mismatch"
        assert v.diagnostics[0].message == "diverged at input 3"

    def test_nonzero_exit_is_unavailable(self, tmp_path):
        cmd = write_stub(tmp_path, "fuzz_crash.py", "import sys\nsys.exit(3)\n")
        v = SubprocessFuzzBackend(cmd).verify(FILE, UNCHANGED, ADD.task_id())
        assert v.status == "executor_unavailable"
        assert "exited 3" in v.diagnostics[0].message

    def test_garbage_stdout_is_unavailable(self, tmp_path):
        cmd = write_stub(tmp_path, "fuzz_garbage.py", "print('not json')\n")
        v = SubprocessFuzzBackend(cmd).verify(FILE, UNCHANGED, ADD.task_id())
        assert v.status == "executor_unavailable"

    def test_missing_command_is_unavailable(self):
        v = SubprocessFuzzBackend(["fuzzer-not-installed"]).verify(FILE, UNCHANGED, "t")
        assert v.status == "executor_unavailable"
        assert "not found" in v.diagnostics[0].message


class TestDispatchHelpers:
    def test_differential_verify_wraps_backend_crash(self):
        class Broken:
            name = "broken"
            version = "0"

            def verify(self, *a):
                raise RuntimeError("segfault")

        v = differential_verify(FILE, UNCHANGED, ADD.task_id(), Broken())
        assert v.status == "executor_unavailable"
        assert "raised" in v.diagnostics[0].message
        assert v.backend == "broken"


class TestQueryBuilding:
    def test_identifier_precedence(self):
        diagnostics = (Diagnostic("UndeclaredIdentifier", "m", line=1, identifier="helperX"),)
        queries = queries_for_method("lcs", diagnostics, "{ return helperX(a); }")
        assert [q.text for q in queries] == ["helperX"]

    def test_identifiers_deduplicated(self):
        diagnostics = (
            Diagnostic("UndeclaredIdentifier", "m", identifier="x"),
            Diagnostic("Member", "m", identifier="x"),
            Diagnostic("Member", "m", identifier="y"),
        )
        assert [q.text for q in queries_for_method("lcs", diagnostics, "{}")] == ["x", "y"]

    def test_faulty_line_counts_newlines_only(self):
        body = "{\n        // step\x0cone\n        return a + missingThing;\n    }"
        v = ScriptedDifferentialBackend().verify(FILE, completed_with(ADD, body), ADD.task_id())
        assert (v.status, v.diagnostics[0].line) == ("compile_error", 3)
        assert queries_for_method("bm25", v.diagnostics, body) == [Query("return a + missingThing;")]

    def test_method_lcs_uses_identifiers(self):
        diagnostics = (Diagnostic("UndeclaredIdentifier", "m", identifier="helperX"),)
        queries = queries_for_method("lcs", diagnostics, "{}")
        assert [q.text for q in queries] == ["helperX"]

    def test_method_lcs_falls_back_to_line_identifiers(self):
        diagnostics = (Diagnostic("Other", "m", line=2),)
        queries = queries_for_method("lcs", diagnostics, "{\n    total = alpha;\n}")
        assert [q.text for q in queries] == ["total", "alpha"]

    def test_method_lcs_falls_back_to_body_identifiers(self):
        diagnostics = (Diagnostic("Other", "m"),)
        queries = queries_for_method("lcs", diagnostics, "{ return alpha; }")
        assert [q.text for q in queries] == ["alpha"]

    def test_method_bm25_uses_faulty_line(self):
        diagnostics = (Diagnostic("Other", "boom", line=2),)
        queries = queries_for_method("bm25", diagnostics, "{\n    total = a;\n}")
        assert [q.text for q in queries] == ["total = a;"]

    def test_method_bm25_falls_back_to_message(self):
        diagnostics = (Diagnostic("Other", "parser exploded"),)
        queries = queries_for_method("dense", diagnostics, "{}")
        assert [q.text for q in queries] == ["parser exploded"]
