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

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mock_reference

from solrepair.corpus import (
    SourceIndex,
    build_corpus,
    scrub,
    write_task_file,
    _FUNCTION_DECL_RE,
)
from solrepair.executor import STATUS_PASS, ScriptedDifferentialBackend, substitute_function
from solrepair.harness import RunConfig, cmd_build, load_tasks

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
    # Timed on the calling thread's CPU clock, which load beside the suite
    # does not add to; the two sizes are timed in turn and each keeps its
    # best of five.
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
            started = time.thread_time()
            index = SourceIndex(texts[n])
            best[n] = min(best[n], time.thread_time() - started)
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
                    started = time.thread_time()
                    verdict = backend.verify(index, completed, "f")
                    best[n] = min(best[n], time.thread_time() - started)
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


# Declarations of a generated file, by kind: the line each writes, from
# its name and whether it is private. A "variable" is one no keyword leads.
MEMBER_LINES = {
    "variable": lambda n, private: [f"uint256 {'private' if private else 'public'} {n};"],
    "mapping": lambda n, private: [f"mapping(address => uint256){' private' if private else ''} {n};"],
    "constant": lambda n, private: [f"uint256 constant {n} = 7; // {{ not a body"],
    "struct": lambda n, private: [f"struct {n} {{", "    uint256 size;", "    address owner;", "}"],
    "enum": lambda n, private: [f"enum {n} {{ Low, High }}"],
    "event": lambda n, private: [f"event {n}(address indexed who, uint256 amount);"],
    "error": lambda n, private: [f"error {n}(uint256 code);"],
    "modifier": lambda n, private: [f"modifier {n}() {{", "    _;", "}"],
    "function": lambda n, private: [
        f"function {n}(uint256 a) {'private' if private else 'public'} pure returns (uint256) {{",
        '    string memory s = "}; {";',
        "    return a;",
        "}",
    ],
    "bodiless": lambda n, private: [f"function {n}(uint256 a) external returns (uint256);"],
    "type": lambda n, private: [f"type {n} is uint256;"],
}
KIND_OF = {"mapping": "variable", "constant": "variable", "bodiless": "function"}
# Lines that declare nothing the table holds.
NOISE = ["constructor() {}", "receive() external payable {}", "using Math for uint256;", "/// a; { comment"]
CONTAINER_MEMBERS = {
    "contract": ["variable", "mapping", "constant", "struct", "enum", "event", "error", "modifier", "function"],
    "interface": ["struct", "enum", "event", "error", "bodiless"],
    "library": ["constant", "struct", "enum", "error", "function"],
}
FILE_LEVEL = ["constant", "struct", "enum", "event", "error", "type", "function"]


@st.composite
def declared_files(draw) -> tuple[str, list[tuple[str, str, str | None, int, bool]]]:
    """A source and the declarations it was built from, each as (kind,
    name, enclosing contract, line of its header, whether it has a body).
    Contract bases are drawn from the containers declared before, after,
    and nowhere (`Ext`); the source may import."""
    lines = ["// SPDX-License-Identifier: MIT", "pragma solidity ^0.8.0;"]
    if draw(st.integers(0, 4)) == 0:
        lines.append('import "./Ext.sol";')
    table = []
    containers = [f"K{i}" for i in range(draw(st.integers(0, 4)))]
    fresh = iter(range(10**6))

    def declare(kind: str, contract: str | None, indent: str) -> None:
        name = f"{kind[0]}{next(fresh)}"
        private = contract is not None and draw(st.booleans())
        body = MEMBER_LINES[kind](name, private)
        if draw(st.booleans()):
            lines.append(indent + draw(st.sampled_from(["/// Doc { (", "/* ; } */"])))
        table.append((KIND_OF.get(kind, kind), name, contract, len(lines) + 1, "{" in body[0].split("//")[0]))
        lines.extend(indent + line for line in body)

    for item in draw(st.lists(st.sampled_from(["container", *FILE_LEVEL]), max_size=8)) + ["container"] * len(containers):
        if item != "container":
            declare(item, None, "")
            continue
        if not containers:
            continue
        name = containers.pop(0)
        kind = draw(st.sampled_from(sorted(CONTAINER_MEMBERS)))
        before = [f"K{i}" for i in range(int(name[1:]))]
        drawn_from = draw(st.sampled_from(["none", "before", "any"]))
        if drawn_from == "before" and before:
            bases = draw(st.lists(st.sampled_from(before), min_size=1, max_size=2, unique=True))
        elif drawn_from == "any":
            bases = draw(st.lists(st.sampled_from([f"K{i}" for i in range(5)] + ["Ext"]), min_size=1, max_size=2, unique=True))
        else:
            bases = []
        lead = "abstract contract" if kind == "contract" and draw(st.booleans()) else kind
        heritage = f" is {', '.join(b + ('(1)' if b == 'Ext' else '') for b in bases)}" if bases else ""
        table.append((kind, name, None, len(lines) + 1, True))
        lines.append(f"{lead} {name}{heritage} {{")
        # Each ends with a function, at which what it sees is read.
        last = "bodiless" if kind == "interface" else "function"
        for member in draw(st.lists(st.sampled_from(CONTAINER_MEMBERS[kind] + ["noise"]), max_size=6)) + [last]:
            if member == "noise":
                lines.append("    " + draw(st.sampled_from(NOISE)))
            else:
                declare(member, name, "    ")
        lines.append("}")
    return "\n".join(lines) + "\n", table


@settings(max_examples=150, deadline=None)
@given(declared_files())
def test_property_declaration_table_is_what_the_file_declares(generated):
    """The table holds the file's declarations and nothing else, and the
    names each function sees equal the mock's former reading (`scopes`)."""
    source, declared = generated
    index = SourceIndex(source, "gen.sol")
    table = [(d.kind, d.name, d.contract, index.line_of(d.header), d.body != -1) for d in index.declarations]
    assert table == declared
    for d in index.declarations:
        assert d.body == -1 or index.scrubbed[d.body] == "{"
    for fn in index.functions:
        assert index.visible(fn.kw_offset) == mock_reference.visible(index, fn.kw_offset), fn.name


def test_fixture_sources_see_what_the_former_reading_saw():
    for path in sorted(FIXTURES.rglob("*.sol")):
        index = SourceIndex(path.read_text(encoding="utf-8"), str(path))
        for fn in index.functions:
            assert index.visible(fn.kw_offset) == mock_reference.visible(index, fn.kw_offset), (path, fn.name)


def test_build_load_and_fast_verify_build_no_declaration_table(tmp_path):
    """The table is built on first read only: not by `build`, not by
    loading tasks, and not by a verify whose names the oracle's text does
    not hold."""
    e2e = FIXTURES / "e2e"
    with mock.patch.object(SourceIndex.__dict__["declarations"], "func") as built:
        cmd_build(e2e / "sources", tmp_path / "tasks.jsonl")
        tasks = load_tasks(RunConfig(task_file=str(e2e / "tasks.jsonl"), out_dir=str(tmp_path), source_root=str(e2e / "sources")))
        backend = ScriptedDifferentialBackend()
        for task in tasks[:10]:
            for body in (task.record.body, "{ return a + b + zzUnknown; }"):
                backend.verify(task.oracle, substitute_function(task.target, body), task.task_id)
    assert built.call_count == 0
    assert not any("declarations" in vars(task.oracle) for task in tasks)
