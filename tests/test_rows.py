"""The record codec and the JSONL reader and writer in solrepair.rows."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solrepair import rows
from solrepair.corpus import FilterReport, FunctionRecord
from solrepair.executor import (
    ERROR_KINDS,
    STATUS_COMPILE_ERROR,
    STATUS_PASS,
    STATUSES,
    Diagnostic,
    ExecutionVerdict,
    ExecutorCase,
    ExecutorFixture,
    ExecutorTable,
)
from solrepair.harness import RunConfig, RunManifest
from solrepair.metrics import CostBreakdown, TaskOutcome
from solrepair.repair import Attempt, ClientFixture, RepairSession
from solrepair.retrieval import METHODS, RetrievalConfig, RetrievedSnippet
from solrepair.rows import ConfigError, Record, dump_row, read_json, read_records, read_rows

DOCS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

text = st.text(max_size=12)
ints = st.integers(-(2**53), 2**53)
counts = st.integers(0, 10**6)
floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | ints | floats | text
json_objects = st.dictionaries(text, scalars, max_size=4)

diagnostics = st.builds(
    Diagnostic,
    kind=st.sampled_from(ERROR_KINDS),
    message=text,
    line=st.none() | counts,
    identifier=st.none() | text,
)


@st.composite
def verdicts(draw) -> ExecutionVerdict:
    status = draw(st.sampled_from(STATUSES))
    low = 1 if status == STATUS_COMPILE_ERROR else 0
    high = 0 if status == STATUS_PASS else 3
    return ExecutionVerdict(
        status=status,
        diagnostics=tuple(draw(st.lists(diagnostics, min_size=low, max_size=high))),
        elapsed=draw(floats),
        backend=draw(text),
        backend_version=draw(text),
        backend_seed=draw(st.none() | ints),
    )


snippets = st.builds(
    RetrievedSnippet,
    line_index=counts,
    text=text,
    score=floats,
    matched_fragment=st.none() | text,
)

attempts = st.builds(
    Attempt,
    stage=text,
    prompt=text,
    completion=text,
    body=text,
    prompt_tokens=counts,
    completion_tokens=counts,
    verdict=st.none() | verdicts(),
    snippets=st.lists(snippets, max_size=3).map(tuple),
    explanation_prompt=text,
    explanation=text,
    explanation_prompt_tokens=counts,
    explanation_completion_tokens=counts,
)


@st.composite
def sessions(draw) -> RepairSession:
    tried = tuple(draw(st.lists(attempts, min_size=1, max_size=3)))
    return RepairSession(
        task_id=draw(text),
        strategy=draw(text),
        max_rounds=draw(st.integers(len(tried) - 1, len(tried) + 2)),
        attempts=tried,
        sample=draw(counts),
    )


@st.composite
def outcomes(draw) -> TaskOutcome:
    n = draw(st.integers(1, 50))
    c = draw(st.integers(0, n))
    return TaskOutcome(
        task_id=draw(text),
        n=n,
        c=c,
        c_compile=draw(st.integers(c, n)),
        prompt_tokens=draw(counts),
        completion_tokens=draw(counts),
        unavailable=draw(st.booleans()),
        context_budget=draw(st.none() | counts),
    )


executor_cases = st.builds(
    ExecutorCase,
    inputs=st.dictionaries(text, ints, max_size=3),
    output=st.none() | st.booleans() | ints,
)
executor_tables = st.builds(ExecutorTable, cases=st.lists(executor_cases, max_size=3).map(tuple))

STRATEGIES = {
    Diagnostic: diagnostics,
    ExecutionVerdict: verdicts(),
    RetrievedSnippet: snippets,
    Attempt: attempts,
    RepairSession: sessions(),
    TaskOutcome: outcomes(),
    CostBreakdown: st.builds(
        CostBreakdown,
        prompt_tokens=st.dictionaries(text, counts, max_size=3),
        completion_tokens=st.dictionaries(text, counts, max_size=3),
        cost_usd=st.dictionaries(text, floats, max_size=3),
        total_usd=floats,
    ),
    FilterReport: st.builds(
        FilterReport,
        **{name: counts for name in (
            "total_extracted", "excluded_no_comment", "excluded_state_dependent",
            "excluded_mint", "retained", "dedup_removed",
        )},
        duplication_rate=floats,
    ),
    FunctionRecord: st.builds(
        FunctionRecord,
        source_path=text, comment=text.filter(str.strip), signature=text, body=text,
        span=st.tuples(st.integers(1, 10**6), counts).map(lambda s: (s[0], s[0] + s[1])),
        contract_type=st.none() | text,
    ),
    RunConfig: st.builds(
        RunConfig,
        task_file=text, out_dir=text, source_root=text, context_budget=ints, counter=text,
        strategy=text, max_rounds=ints, max_tokens=ints, n_samples=ints, workers=ints,
        seed=ints, retrieval=st.none() | json_objects, executor=text,
        mock_executor=st.none() | text, solc_path=text, fuzz_command=st.lists(text, max_size=3),
        executor_timeout=floats, mock_client=st.none() | text, endpoint=st.none() | text,
        model=text, api_key_env=text, rate_limit_per_minute=ints,
        k_values=st.lists(ints, max_size=3), prompt_usd_per_million=floats,
        completion_usd_per_million=floats,
    ),
    RetrievalConfig: st.builds(
        RetrievalConfig,
        method=st.sampled_from(METHODS), window_lines=st.integers(1, 10**6),
        step_lines=st.integers(1, 10**6), max_snippets=st.integers(1, 10**6),
        bm25_k1=st.floats(0, 1e6), bm25_b=st.floats(0, 1), endpoint=st.none() | text,
        dimension=st.integers(1, 10**6),
    ),
    ClientFixture: st.builds(ClientFixture, completions=st.dictionaries(text, text, max_size=3), strict=st.booleans()),
    ExecutorCase: executor_cases,
    ExecutorTable: executor_tables,
    ExecutorFixture: st.builds(
        ExecutorFixture, seed=ints, functions=st.dictionaries(text, executor_tables, max_size=2)
    ),
    RunManifest: st.builds(
        RunManifest,
        config=json_objects, started_at=text, finished_at=text, harness_version=text,
        backend_name=text, backend_version=text, client_name=text, tasks_total=counts,
        tasks_completed=counts, incomplete_task_ids=st.lists(text, max_size=3), status=text,
    ),
}


def test_every_record_class_has_a_strategy():
    ours = {c for c in Record.__subclasses__() if c.__module__.startswith("solrepair.")}
    assert ours == set(STRATEGIES)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
def test_round_trip_through_json_text(cls):
    @settings(max_examples=60, deadline=None)
    @given(STRATEGIES[cls])
    def check(record):
        assert cls.from_json(json.loads(json.dumps(record.to_json()))) == record

    check()


JSON_VALUES = st.sampled_from([None, True, False, 0, 7, 1.5, "x", "", [], [1], {}, {"a": 1}])
KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "dict": (dict,), "list": (list,), "tuple": (list,)}


def allowed(annotation: str, value) -> bool:
    """Whether a JSON value has a type a field so annotated takes, its
    elements aside; a record field takes an object."""
    members = annotation.split(" | ")
    if value is None:
        return "None" in members
    return any(type(value) in KINDS.get(m.split("[")[0], (dict,)) for m in members)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
def test_wrong_typed_value_is_rejected_naming_its_key(cls):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}

    @settings(max_examples=60, deadline=None)
    @given(STRATEGIES[cls], st.sampled_from(sorted(fields)), JSON_VALUES)
    def check(record, key, value):
        row = json.loads(json.dumps(record.to_json()))
        row[key] = value
        if allowed(fields[key], value):
            return
        with pytest.raises(TypeError, match=rf"got {type(value).__name__} at key '{key}'$"):
            cls.from_json(row)

    check()


@pytest.mark.parametrize(
    "edit,complaint",
    [
        (lambda row: row["attempts"][0].update(prompt_tokens="x"), "expected int, got str at key 'attempts[0].prompt_tokens'"),
        (lambda row: row["attempts"][0].update(prompt_tokens=True), "expected int, got bool at key 'attempts[0].prompt_tokens'"),
        (lambda row: row["attempts"][0]["verdict"].update(elapsed="1"), "expected float, got str at key 'attempts[0].verdict.elapsed'"),
        (
            lambda row: row["attempts"][0]["verdict"]["diagnostics"].append({"kind": "Other", "message": 3}),
            "expected str, got int at key 'attempts[0].verdict.diagnostics[0].message'",
        ),
        (lambda row: row["attempts"][0].update(snippets=[None]), "RetrievedSnippet: expected a JSON object, got NoneType at key 'attempts[0].snippets[0]'"),
        (lambda row: row.update(attempts={}), "expected list, got dict at key 'attempts'"),
    ],
    ids=["str-for-int", "bool-for-int", "str-for-float", "nested-diagnostic", "null-snippet", "object-for-list"],
)
def test_nested_wrong_type_names_its_path(edit, complaint):
    verdict = ExecutionVerdict("functional_mismatch")
    row = json.loads(json.dumps(RepairSession("t", "self_edit", 0, (Attempt("completion", "p", "c", "b", 1, 2, verdict),)).to_json()))
    edit(row)
    with pytest.raises(TypeError) as info:
        RepairSession.from_json(row)
    assert str(info.value) == complaint


def test_float_fields_take_ints_and_containers_check_their_elements():
    assert RetrievedSnippet.from_json({"line_index": 0, "text": "t", "score": 1}).score == 1
    with pytest.raises(TypeError, match=r"expected int, got float at key 'k_values\[1\]'"):
        RunConfig.from_json({"task_file": "t", "out_dir": "o", "k_values": [1, 2.0]})
    with pytest.raises(TypeError, match=r"expected float, got str at key 'cost_usd.repair'"):
        CostBreakdown.from_json({"prompt_tokens": {}, "completion_tokens": {}, "cost_usd": {"repair": "1"}, "total_usd": 0})


def _doc_fields(section: str, label: str) -> set[str]:
    """Backticked names after `label` in a docs section, up to the next
    blank line or list item, outside parentheses."""
    body = DOCS.read_text(encoding="utf-8").split(f"\n## {section}", 1)[1].split("\n## ", 1)[0]
    start = body.index(label) + len(label)
    end = re.compile(r"\n\s*\n|\n- ").search(body, start)
    listed = re.sub(r"\([^()]*\)", "", body[start : end.start() if end else None])
    return set(re.findall(r"`([a-z_][a-z0-9_]*)`", listed))


@pytest.mark.parametrize(
    "cls,section,label",
    [
        (FilterReport, "Corpus stats", "Fields:"),
        (RepairSession, "Session log", "Row:"),
        (Attempt, "Session log", "Attempt:"),
        (RetrievedSnippet, "Session log", "Snippet:"),
        (ExecutionVerdict, "Session log", "Verdict:"),
        (Diagnostic, "Session log", "Diagnostic:"),
        (TaskOutcome, "Outcome log", "Row:"),
        (RunManifest, "Run manifest", "Fields:"),
        (RunConfig, "Run config", "Fields:"),
        (RetrievalConfig, "Run config", "`retrieval` keys:"),
        (CostBreakdown, "Report", "- `cost`:"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_json_keys_match_docs(cls, section, label):
    documented = _doc_fields(section, label)

    @settings(max_examples=5, deadline=None)
    @given(STRATEGIES[cls])
    def check(record):
        assert set(record.to_json()) == documented

    check()


def test_plan_is_built_once_per_class(tmp_path):
    @settings(max_examples=5, deadline=None)
    @given(sessions())
    def check(session):
        path = tmp_path / "sessions.jsonl"
        path.write_text(dump_row(session.to_json()) * 20, encoding="utf-8")
        rows._plan.cache_clear()
        assert read_records(RepairSession, path, "sessions") == [session] * 20
        # The session and the records nested in it, however many rows.
        assert rows._plan.cache_info().misses <= 5

    check()


def test_missing_optional_key_takes_the_default():
    assert TaskOutcome.from_json({"task_id": "t", "n": 1, "c": 0, "c_compile": 0}) == TaskOutcome("t", 1, 0, 0)
    assert ExecutionVerdict.from_json({"status": "pass"}) == ExecutionVerdict(STATUS_PASS)


def test_schema_written_and_ignored_on_read():
    report = FilterReport(total_extracted=3, retained=3)
    payload = report.to_json()
    assert payload["schema"] == "corpus-stats@1"
    assert FilterReport.from_json(payload) == report
    assert FilterReport.from_json({k: v for k, v in payload.items() if k != "schema"}) == report
    with pytest.raises(TypeError, match="'schema'"):
        TaskOutcome.from_json({"task_id": "t", "n": 1, "c": 0, "c_compile": 0, "schema": "x"})


def test_plain_field_types_pass_through():
    @dataclass(frozen=True)
    class Plain(Record):
        names: tuple[str, ...]
        tags: list[str]
        maybe: int | None = None

    assert Plain(("a",), ["b"]).to_json() == {"names": ["a"], "tags": ["b"], "maybe": None}
    assert Plain.from_json({"names": ["a"], "tags": ["b"]}) == Plain(("a",), ["b"])


def test_dump_row_is_sorted_compact_and_ends_the_line():
    assert dump_row({"b": 1, "a": [1, "é"]}) == '{"a":[1,"\\u00e9"],"b":1}\n'


@pytest.mark.parametrize(
    "content,complaint",
    [
        (None, "cannot read outcomes file {path}: "),
        (b"\xff\n", "cannot read outcomes file {path}: "),
        (b'{"a": 1}\n\n{"a"\n', "{path}, line 3: malformed JSON: "),
        (b'{"a": 1}\n' + b"[" * 100_000 + b"\n", "{path}, line 2: malformed JSON: "),
        (b'"row"\n', "{path}, line 1: expected a JSON object"),
    ],
    ids=["missing", "not-utf8", "malformed", "too-deep", "not-an-object"],
)
def test_read_rows_errors_name_file_and_line(tmp_path, content, complaint):
    path = tmp_path / "outcomes.jsonl"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        list(read_rows(path, "outcomes"))
    assert str(info.value).startswith(complaint.format(path=path))


@pytest.mark.parametrize(
    "content,complaint",
    [
        (None, "cannot read config file {path}: "),
        (b"\xff{}", "cannot read config file {path}: "),
        (b"{not json", "cannot read config file {path}: "),
        (b"[" * 100_000, "cannot read config file {path}: "),
        (b"[]", "config file {path}: expected a JSON object"),
    ],
    ids=["missing", "not-utf8", "malformed", "too-deep", "not-an-object"],
)
def test_read_json_errors_name_the_file(tmp_path, content, complaint):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        read_json(path, "config")
    assert str(info.value).startswith(complaint.format(path=path))


def test_read_json_returns_the_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"a": [1, "é"]}', encoding="utf-8")
    assert read_json(path, "config") == {"a": [1, "é"]}


PACKAGE = Path(rows.__file__).parent


def test_importing_the_cli_loads_no_http_stack():
    # In a child process: this one may have imported them already.
    script = "import sys, solrepair.cli; print(sorted({'urllib.request', 'http.client', 'ssl', 'requests'} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


def test_package_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M), "pyproject.toml declares runtime dependencies"


def test_read_rows_numbers_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\r\n', encoding="utf-8")
    assert list(read_rows(path, "rows")) == [(1, {"a": 1}), (4, {"b": 2})]
