"""SourceIndex against the implementation it replaced, and splice-back on
generated sources."""

from __future__ import annotations

import gc
import re
import tempfile
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from solrepair.corpus import (
    SourceIndex,
    build_corpus,
    scrub,
    write_task_file,
    _FUNCTION_DECL_RE,
)
from solrepair.executor import STATUS_PASS, ScriptedDifferentialBackend, substitute_function
from solrepair.harness import RunConfig, load_tasks

FIXTURES = Path(__file__).parent / "fixtures"
_SIGNATURE_END_RE = re.compile(r"[;{]")


@dataclass(frozen=True, slots=True)
class ReferenceFunction:
    name: str
    kw_offset: int
    sig_end: int
    body_start: int
    body_end: int
    depth: int

    @property
    def has_body(self) -> bool:
        return self.body_start != -1


class ReferenceIndex:
    """SourceIndex as it was before its scans moved into `str` methods: a
    regex match per newline and per brace, a regex walk over the header
    stops, and a dataclass per declaration."""

    def __init__(self, text: str, path: str = "<source>") -> None:
        self.text = text
        self.path = path
        self.scrubbed = scrub(text)
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        self.error: str | None = None
        closing: dict[int, int] = {}
        stack: list[int] = []
        for m in re.finditer(r"[{}]", self.scrubbed):
            if m.group() == "{":
                stack.append(m.start())
            elif stack:
                closing[stack.pop()] = m.start()
            else:
                self.error = self._unmatched("}", m.start())
                break
        if stack and self.error is None:
            self.error = self._unmatched("{", stack[0])
        self._functions = () if self.error else self._scan_functions(closing)
        self._by_end_line: dict[int, list[ReferenceFunction]] = {}
        for fn in self._functions:
            if fn.has_body:
                self._by_end_line.setdefault(self.line_of(fn.body_end), []).append(fn)

    def line_of(self, offset: int) -> int:
        return bisect_right(self.line_starts, offset)

    def _unmatched(self, brace: str, offset: int) -> str:
        line = self.line_of(offset)
        col = offset - self.line_starts[line - 1] + 1
        return f"{self.path}: unmatched '{brace}' at line {line}, column {col}"

    def _scan_functions(self, closing: dict[int, int]) -> tuple[ReferenceFunction, ...]:
        scrubbed = self.scrubbed
        found: list[ReferenceFunction] = []
        open_bodies: list[int] = []
        for decl in _FUNCTION_DECL_RE.finditer(scrubbed):
            kw = decl.start()
            while open_bodies and open_bodies[-1] < kw:
                open_bodies.pop()
            sig_end = len(scrubbed)
            pos, depth = decl.end() - 1, 0
            for stop in _SIGNATURE_END_RE.finditer(scrubbed, pos):
                end = stop.start()
                depth += scrubbed.count("(", pos, end) - scrubbed.count(")", pos, end)
                if depth == 0:
                    sig_end = end
                    break
                pos = end
            if sig_end < len(scrubbed) and scrubbed[sig_end] == "{":
                body = (sig_end, closing[sig_end])
            else:
                body = (-1, -1)
            found.append(ReferenceFunction(decl.group(1), kw, sig_end, *body, len(open_bodies)))
            if body[1] != -1:
                open_bodies.append(body[1])
        return tuple(found)


def fields(index) -> dict:
    """Every field of an index, functions as plain tuples."""
    as_tuple = lambda fn: (fn.name, fn.kw_offset, fn.sig_end, fn.body_start, fn.body_end, fn.depth)
    return {
        "text": index.text,
        "path": index.path,
        "scrubbed": index.scrubbed,
        "line_starts": index.line_starts,
        "error": index.error,
        "functions": [as_tuple(fn) for fn in index._functions],
        "by_end_line": {line: [as_tuple(fn) for fn in fns] for line, fns in index._by_end_line.items()},
    }


def assert_same_index(text: str, path: str = "<source>") -> SourceIndex:
    index = SourceIndex(text, path)
    assert fields(index) == fields(ReferenceIndex(text, path))
    return index


INDEX_SOUP = st.sampled_from(
    [
        "{", "}", "(", ")", ";", '"', "'", "\\", "//", "/*", "*/", "function f(", "function g (", "function",
        "\n", "\r", "\r\n", " ", "x", "é", "Ж", "\u2028", "€", " returns ", "assembly",
    ]
)


@settings(max_examples=1500, deadline=None)
@given(text=st.lists(INDEX_SOUP, max_size=40).map("".join))
@example(text="function f(( ; function g() ; x ;")
@example(text="function f() { } function g() { ; }")
@example(text="}{")
@example(text="{ } } {")
@example(text="{\n{ }")
@example(text="{ }\n  {")
@example(text="a\rb\r\nc\n")
@example(text='function f() { "}" } function g(;)')
def test_property_index_equals_reference(text):
    """Every field, the error string for unbalanced text included."""
    assert_same_index(text, "p.sol")


def test_fixture_sources_index_as_before():
    paths = sorted(FIXTURES.rglob("*.sol"))
    assert len(paths) >= 20
    for path in paths:
        assert_same_index(path.read_text(encoding="utf-8"), str(path))


def test_bodiless_declarations_index_in_linear_time():
    # The two sizes are timed in turn, so that a burst of load on the host
    # slows both alike; each keeps its best of five.
    sizes = (25_000, 50_000)
    texts = {
        n: "interface I {\n"
        + "".join(f"    function f{i}(uint256 a, bytes calldata b) external returns (uint256);\n" for i in range(n))
        + "}\n"
        for n in sizes
    }
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(5):
        for n in sizes:
            started = time.perf_counter()
            index = SourceIndex(texts[n])
            best[n] = min(best[n], time.perf_counter() - started)
            assert len(index.functions) == n
    assert best[50_000] < 3 * best[25_000]


def test_verify_runs_in_linear_time_on_long_and_deeply_nested_bodies():
    """verify's time grows linearly with the body: a straight-line body of
    n declarations, evaluated on every case; n/50 groups of blocks nested 50
    deep, each reading names in scope at every level; and one body nested
    10n deep, past the reader's bound, whose names a flat scan resolves.
    Timed as the index test above is."""
    source = "contract C {\n    /// Adds.\n    function f(uint256 a, uint256 b) public pure returns (uint256) {\n        return a + b;\n    }\n}\n"
    index = SourceIndex(source)
    (target,) = index.functions
    shapes = {
        "long": lambda n: "{ uint256 t0 = a; " + "".join(f"uint256 t{k} = t{k - 1} + b; " for k in range(1, n)) + f"return t{n - 1}; }}",
        "nested": lambda n: "{ " + ("if (a > b) { uint256 c = a; " * 50 + "b = c; }" * 50) * (n // 50) + " return a; }",
        "too-deep": lambda n: "{ " + "{ uint256 c = a; c; " * (10 * n) + "}" * (10 * n) + " }",
    }
    sizes = (1_000, 2_000)
    for name, shape in shapes.items():
        bodies = {n: shape(n) for n in sizes}
        best = dict.fromkeys(sizes, float("inf"))
        # The collector's pauses grow with the heap the rest of the suite
        # leaves, not with the body.
        gc.disable()
        try:
            for _ in range(5):
                for n in sizes:
                    completed = substitute_function(target, bodies[n])
                    backend = ScriptedDifferentialBackend()
                    started = time.perf_counter()
                    verdict = backend.verify(index, completed, "f")
                    best[n] = min(best[n], time.perf_counter() - started)
                    assert verdict.status in ("pass", "functional_mismatch"), (name, verdict.diagnostics)
        finally:
            gc.enable()
        assert best[2_000] < 3 * best[1_000], (name, best)


# Pieces of generated sources: doc comments (some holding braces and
# parentheses), and the function shapes that tell declarations apart.
DOCS = st.sampled_from(
    [
        "    /// Returns the result.\n",
        "    // note: } { ( ;\n    /// Computes.\n",
        "    /* function ghost( { */\n",
        "    /**\n     * @dev closes } early; opens ( late\n     */\n",
        "",
    ]
)
NAMES = st.sampled_from(["total", "scale", "mix"])
PARAMS = st.sampled_from(["uint256 a", "uint256 a, uint256 b", "uint256 a, uint256 b, uint256 c"])


def pure_function(name: str, params: str, op: str) -> str:
    used = [p.split()[1] for p in params.split(", ")]
    return (
        f"    function {name}({params}) public pure returns (uint256) {{\n"
        f"        return {f' {op} '.join(used)};\n"
        "    }\n"
    )


def string_function(name: str, params: str, literal: str) -> str:
    return (
        f"    function {name}({params}) public pure returns (uint256) {{\n"
        f"        string memory s = {literal}; // {{ unmatched in a comment\n"
        "        return bytes(s).length + a;\n"
        "    }\n"
    )


def yul_function(name: str, params: str, _: str) -> str:
    return (
        f"    function {name}({params}) public pure returns (uint256 r) {{\n"
        "        assembly {\n"
        "            function helper(v) -> z { z := add(v, v) }\n"
        "            r := helper(a)\n"
        "        }\n"
        "    }\n"
    )


def bodiless_function(name: str, params: str, _: str) -> str:
    return f"    function {name}({params}) public virtual returns (uint256);\n"


SHAPES = st.sampled_from(
    [
        (pure_function, st.sampled_from(["+", "*", "-"])),
        (string_function, st.sampled_from(['"}{"', "'{'", '"a\\"}"', '"/* {"'])),
        (yul_function, st.just("")),
        (bodiless_function, st.just("")),
    ]
)


@st.composite
def generated_sources(draw) -> str:
    parts = ["// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n\n"]
    if draw(st.booleans()):
        parts.append("interface IThing {\n")
        for name in draw(st.lists(NAMES, min_size=1, max_size=4)):
            parts.append(draw(DOCS) + f"    function {name}({draw(PARAMS)}) external returns (uint256);\n")
        parts.append("}\n\n")
    parts.append('abstract contract Gen {\n    string constant OPEN = "{ (";\n\n')
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        shape, extra = draw(SHAPES)
        parts.append(draw(DOCS) + shape(draw(NAMES), draw(PARAMS), draw(extra)) + "\n")
    parts.append("}\n")
    return "".join(parts)


@settings(max_examples=150, deadline=None)
@given(source=generated_sources())
def test_property_oracle_bodies_splice_back_and_pass(source):
    """Each built task's oracle body, spliced back at the target that
    load_tasks locates, gives the source byte for byte, and the mock
    executor passes it; so it does the body with a space added before its
    closing brace, which it must locate and compare in a source that
    differs from the oracle."""
    file = SourceIndex.from_text("gen.sol", source)
    assert fields(file) == fields(ReferenceIndex(source, "gen.sol"))
    records, _ = build_corpus([file])
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "gen.sol").write_text(source, encoding="utf-8")
        write_task_file(records, Path(root) / "tasks.jsonl")
        tasks = load_tasks(RunConfig(task_file=str(Path(root) / "tasks.jsonl"), out_dir=root, source_root=root))
    assert [task.record for task in tasks] == records
    backend = ScriptedDifferentialBackend()
    for task in tasks:
        spliced = substitute_function(task.target, task.record.body)
        assert spliced.source_in(task.oracle) == source
        verdict = backend.verify(task.oracle, spliced, task.task_id)
        assert verdict.status == STATUS_PASS, verdict
        spaced = substitute_function(task.target, task.record.body[:-1] + " }")
        verdict = backend.verify(task.oracle, spaced, task.task_id)
        assert verdict.status == STATUS_PASS, verdict
