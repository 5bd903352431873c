"""The record codec and the JSONL reader and writer in solrepair.rows."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
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
from solrepair.harness import RunConfig, RunManifest, VerifiedBody
from solrepair.metrics import CostBreakdown, TaskOutcome
from solrepair.repair import STAGES, Attempt, ClientFixture, RepairSession
from solrepair.retrieval import METHODS, RetrievalConfig, RetrievedSnippet
from solrepair.rows import ConfigError, Record, read_json, read_records, read_rows

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
    stage=st.sampled_from(STAGES),
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
        context_budget=draw(st.integers(0, 2**20)),
        attempts=tried,
    )


@st.composite
def outcomes(draw) -> TaskOutcome:
    c = draw(st.integers(0, 1))
    return TaskOutcome(
        task_id=draw(text),
        n=1,
        c=c,
        c_compile=draw(st.integers(c, 1)),
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
        strategy=text, max_rounds=ints, max_tokens=ints, workers=ints,
        seed=ints, retrieval=st.none() | json_objects, executor=text,
        mock_executor=st.none() | text, solc_path=text, fuzz_command=st.lists(text, max_size=3),
        executor_timeout=floats, mock_client=st.none() | text, endpoint=st.none() | text,
        model=text, api_key_env=text, rate_limit_per_minute=ints,
        prompt_usd_per_million=floats, completion_usd_per_million=floats,
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
    VerifiedBody: st.builds(VerifiedBody, task_id=text, verdict=verdicts()),
}

# The row writer before each class had a line writer of its own, and the
# differential reference for `Record.to_line`: a record's JSON tree, walked
# field by field over the field types as `to_json` once built it, encoded by
# json with sorted keys and compact separators.
_reference_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_row(row) -> str:
    return _reference_encode(row) + "\n"


def reference_tree(record: Record) -> dict:
    """Each field under its name, nested records as objects, then the
    derived keys and the schema."""
    hints = typing.get_type_hints(type(record))
    row = {f.name: _reference_value(hints[f.name], getattr(record, f.name)) for f in dataclasses.fields(record)}
    row.update((name, getattr(record, name)) for name in record.DERIVED)
    if record.SCHEMA is not None:
        row["schema"] = record.SCHEMA
    return row


def _reference_value(tp, value):
    if isinstance(tp, type) and issubclass(tp, Record):
        return reference_tree(value)
    inner = rows._optional(tp)
    if inner is not None:
        return None if value is None else _reference_value(inner, value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        return [_reference_value(args[0], item) for item in value]
    if origin is dict:
        return {key: _reference_value(args[1], item) for key, item in value.items()}
    return value


def reference_line(record: Record) -> str:
    return dump_row(reference_tree(record))


def test_every_record_class_has_a_strategy():
    ours = {c for c in Record.__subclasses__() if c.__module__.startswith("solrepair.")}
    assert ours == set(STRATEGIES)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
def test_round_trip_through_json_text(cls):
    @settings(max_examples=60, deadline=None)
    @given(STRATEGIES[cls])
    def check(record):
        assert cls.from_json(json.loads(json.dumps(record.to_json()))) == record
        assert record.to_json() == json.loads(reference_line(record))

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
    row = json.loads(json.dumps(RepairSession("t", "self_edit", 0, 2048, (Attempt("completion", "p", "c", "b", 1, 2, verdict),)).to_json()))
    edit(row)
    with pytest.raises(TypeError) as info:
        RepairSession.from_json(row)
    assert str(info.value) == complaint


def test_float_fields_take_ints_and_containers_check_their_elements():
    assert RetrievedSnippet.from_json({"line_index": 0, "text": "t", "score": 1}).score == 1
    task = {"id": "t#L1-2", "source_path": "t", "comment": "//", "signature": "function f()", "body": "{}"}
    with pytest.raises(TypeError, match=r"expected int, got float at key 'span\[1\]'"):
        FunctionRecord.from_json({**task, "span": [1, 2.0]})
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


def test_decoder_is_built_once_per_class(tmp_path):
    @settings(max_examples=5, deadline=None)
    @given(sessions())
    def check(session):
        path = tmp_path / "sessions.jsonl"
        path.write_text(session.to_line() * 20, encoding="utf-8")
        rows._decoder.cache_clear()
        assert read_records(RepairSession, path, "sessions") == [session] * 20
        # The session and the four records nested in it, however many rows.
        assert rows._decoder.cache_info().misses == 5

    check()


def _reference_each(items, decode, step: str) -> list:
    out = []
    for key, item in items:
        try:
            out.append(decode(item))
        except rows._WrongType as exc:
            exc.path = step.format(key) + exc.path
            raise
    return out


def _reference_decode(tp):
    """The checked decode of a field type that is not a scalar."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_json
    scalar = rows._scalar(tp)
    if scalar is not None:
        allowed, expected = scalar

        def check(v):
            if type(v) not in allowed:
                raise rows._WrongType(f"expected {expected}, got {type(v).__name__}")
            return v

        return check
    inner = rows._optional(tp)
    if inner is not None:
        dec = _reference_decode(inner)
        return lambda v: None if v is None else dec(v)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        dec = _reference_decode(args[1])

        def decode(v):
            if type(v) is not dict:
                raise rows._WrongType(f"expected dict, got {type(v).__name__}")
            return dict(zip(v, _reference_each(v.items(), dec, ".{}")))

        return decode
    dec = _reference_decode(args[0])

    def decode(v):
        if type(v) is not list:
            raise rows._WrongType(f"expected list, got {type(v).__name__}")
        return origin(_reference_each(enumerate(v), dec, "[{}]"))

    return decode


def reference_from_json(cls, payload):
    """The generic checked walk that the generated decoders replace, kept as
    their reference: scalar values checked in row order, nested values
    decoded in field order, then the constructor; "schema" and derived keys
    are dropped. Nested records decode through `from_json`, so with this
    installed as `Record.from_json` every level, FunctionRecord's override
    included, takes this walk."""
    if not isinstance(payload, dict):
        raise rows._WrongType(f"{cls.__name__}: expected a JSON object, got {type(payload).__name__}")
    hints = typing.get_type_hints(cls)
    scalars = {f.name: rows._scalar(hints[f.name]) for f in dataclasses.fields(cls)}
    nested = [(name, _reference_decode(hints[name])) for name, scalar in scalars.items() if scalar is None]
    for key, value in payload.items():
        scalar = scalars.get(key)
        if scalar is not None and type(value) not in scalar[0]:
            raise rows._WrongType(f"expected {scalar[1]}, got {type(value).__name__}", f".{key}")
    payload = dict(payload)
    if cls.SCHEMA is not None:
        payload.pop("schema", None)
    for key in cls.DERIVED:
        payload.pop(key, None)
    for name, dec in nested:
        if name in payload:
            try:
                payload[name] = dec(payload[name])
            except rows._WrongType as exc:
                exc.path = f".{name}{exc.path}"
                raise
    try:
        return cls(**payload)
    except TypeError as exc:
        raise rows._WrongType(str(exc)) from exc


def _decoded(cls, payload):
    """What `cls.from_json` makes of payload: the record's type, repr and
    key order, or the exception's type and text."""
    try:
        record = cls.from_json(payload)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return type(record), repr(record), list(vars(record))


def _places(value, slots: list, objects: list) -> None:
    """Collect every (container, key) below value, and every object."""
    if isinstance(value, dict):
        objects.append(value)
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for key, item in items:
        slots.append((value, key))
        _places(item, slots, objects)


NON_OBJECTS = st.sampled_from([None, True, 0, 1.5, "x", [], [{}]])


@st.composite
def edited_rows(draw, cls):
    """A record's JSON row after one edit: a value replaced by another of
    any JSON type, nested ones included; a key dropped; a key added; or the
    row itself replaced by a value that is no object."""
    row = json.loads(json.dumps(draw(STRATEGIES[cls]).to_json()))
    slots, objects = [], []
    _places(row, slots, objects)
    edit = draw(st.sampled_from(["retype", "drop", "add", "non-object"]))
    if edit == "retype" and slots:
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(JSON_VALUES | NON_OBJECTS)
    elif edit == "drop" and any(objects):
        target = draw(st.sampled_from([o for o in objects if o]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "add":
        draw(st.sampled_from(objects))[draw(text)] = draw(JSON_VALUES)
    elif edit == "non-object":
        return draw(NON_OBJECTS)
    return row


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
def test_decoder_matches_the_reference_walk(cls):
    @settings(max_examples=40, deadline=None)
    @given(edited_rows(cls))
    def check(row):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Record, "from_json", classmethod(reference_from_json))
            want = _decoded(cls, json.loads(json.dumps(row)))
        assert _decoded(cls, row) == want
        if not isinstance(row, dict):
            # The reference runs a class's own override too; every class,
            # whatever it overrides, names itself and the payload's type.
            assert want == (rows._WrongType, f"{cls.__name__}: expected a JSON object, got {type(row).__name__}")

    check()


def test_derived_keys_are_written_and_ignored_on_read():
    session = RepairSession("t", "self_edit", 0, 2048, (Attempt("completion", "p", "c", "{ }", 1, 1),))
    row = session.to_json()
    assert row["final_status"] == "executor_unavailable"
    for final_status in ("pass", 5, None, [], {}):
        assert RepairSession.from_json(row | {"final_status": final_status}) == session
    del row["final_status"]
    assert RepairSession.from_json(row) == session
    with pytest.raises(TypeError, match="unexpected keyword argument 'id'"):
        RepairSession.from_json(row | {"id": "t"})

    record = FunctionRecord("a.sol", "/// c\n", "function f() public", "{ }", (1, 3))
    row = record.to_json()
    assert row["id"] == "a.sol#L1-3"
    # Any string: read_task_file checks it against the record's task_id().
    assert FunctionRecord.from_json(row | {"id": "other"}) == record
    with pytest.raises(TypeError, match="^expected str, got int at key 'id'$"):
        FunctionRecord.from_json(row | {"id": 7})
    del row["id"]
    with pytest.raises(TypeError, match="^missing key 'id'$"):
        FunctionRecord.from_json(row)


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


def test_to_line_is_sorted_compact_and_ends_the_line():
    assert Diagnostic("Other", "é", 3).to_line() == '{"identifier":null,"kind":"Other","line":3,"message":"\\u00e9"}\n'


# Per scalar field type, values that json.dumps writes in a way of its own:
# strings with quotes, backslashes, control characters, non-ASCII text and
# lone surrogates; integers longer than 64 bits and bools in int fields;
# -0.0, subnormals, NaN, ±inf and ints in float fields.
HOSTILE = {
    str: st.text(st.sampled_from('"\\/\x00\n\x1f\x7fé\u2028\ud800\udfff😀') | st.characters(), max_size=8),
    int: ints | st.integers(-(2**200), 2**200) | st.booleans(),
    float: (
        st.floats() | st.integers(-(2**70), 2**70)
        | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf])
    ),
    bool: st.booleans(),
}


def _hostile(draw, tp, value):
    """value, of field type tp, with each scalar in it kept or swapped for
    one of HOSTILE, and an optional value kept or made None."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return draw(hostile(value))
    if tp in HOSTILE:
        return draw(st.just(value) | HOSTILE[tp])
    inner = rows._optional(tp)
    if inner is not None:
        return None if value is None or draw(st.booleans()) else _hostile(draw, inner, value)
    if typing.get_origin(tp) is tuple:
        return tuple(_hostile(draw, typing.get_args(tp)[0], item) for item in value)
    return value


@st.composite
def hostile(draw, record: Record) -> Record:
    """record with its values edited by _hostile, at any depth. The copy
    skips `__post_init__`, which rejects some of them."""
    hints = typing.get_type_hints(type(record))
    copy = object.__new__(type(record))
    object.__setattr__(copy, "__dict__", {k: _hostile(draw, hints[k], v) for k, v in vars(record).items()})
    return copy


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
def test_line_writer_matches_the_reference(cls):
    """Every byte of a row is json's, whatever its values; a row class
    (tasks, sessions, outcomes, verify's verdicts) and every other."""

    @settings(max_examples=150, deadline=None)
    @given(STRATEGIES[cls].flatmap(hostile))
    def check(record):
        assert record.to_line() == reference_line(record)

    check()


def test_line_writer_is_built_once_per_class():
    @settings(max_examples=5, deadline=None)
    @given(sessions())
    def check(session):
        rows._writer.cache_clear()
        assert [session.to_line() for _ in range(20)] == [reference_line(session)] * 20
        # The session and the four records nested in it, however many rows.
        assert rows._writer.cache_info().misses == 5

    check()


def test_a_dict_whose_keys_are_not_all_strings_is_written_by_json():
    cost = CostBreakdown({"b": 1, "a": 2}, {1: 3, 0: 4}, {"x": math.inf}, 0.5)
    assert cost.to_line() == reference_line(cost)
    assert cost.to_json()["completion_tokens"] == {"0": 4, "1": 3}


def test_a_value_json_cannot_write_raises_its_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        Diagnostic("Other", object()).to_line()


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


JSON_WHITESPACE = " \t\r\n"
# What str.strip() and str.isspace() take but JSON does not.
OTHER_WHITESPACE = "\x0b\x0c\x1c\x85\xa0\u2028\u3000"
json_texts = st.recursive(
    scalars | st.sampled_from(["\ud800", "\udfff", "a\udc00b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
).flatmap(
    lambda value: st.sampled_from([
        json.dumps(value),
        json.dumps(value, ensure_ascii=False),
        json.dumps(value, separators=(",", ":")),
        dump_row(value)[:-1],
    ])
)


@st.composite
def edited_lines(draw) -> str:
    """A JSON text, or arbitrary text, after up to three edits: whitespace
    of either kind or a BOM at either end, a NaN or ±Infinity, deep
    nesting, an integer longer than CPython converts, a lone surrogate
    escape, trailing garbage or a second value."""
    line = draw(json_texts | text)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["pad-left", "pad-right", "bom", "constant", "deep", "long-int", "surrogate", "garbage", "second"]
        ))
        if edit in ("pad-left", "pad-right"):
            pad = draw(st.text(st.sampled_from(JSON_WHITESPACE + OTHER_WHITESPACE), min_size=1, max_size=3))
            line = pad + line if edit == "pad-left" else line + pad
        elif edit == "bom":
            line = "\ufeff" + line
        elif edit == "constant":
            constant = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
            line = draw(st.sampled_from([constant, f"[{line}, {constant}]", f'{{"x": {constant}}}']))
        elif edit == "deep":
            depth = draw(st.sampled_from([50, 100_000]))
            line = "[" * depth + line + "]" * draw(st.sampled_from([depth, 0]))
        elif edit == "long-int":
            line = f'{{"n": {"7" * draw(st.sampled_from([4300, 4301, 5000]))}}}'
        elif edit == "surrogate":
            line = draw(st.sampled_from(['"\\ud800"', '["\\udc00x"]', '{"\\udbff": 1}', '"\\ud83d\\ude00"']))
        elif edit == "garbage":
            line += draw(st.sampled_from(["x", "}", "]", ",", '"', "\\", "\x00"]))
        else:
            line += draw(st.sampled_from(["", " ", ","])) + draw(json_texts)
    return line


def _canonical(value):
    """A JSON value's type and JSON form, NaN and lone surrogates included."""
    return type(value), json.dumps(value)


def _parsed(text: str) -> list:
    """What parse_jsonl makes of text: (line number, start, end, value) per
    row, then the line number, type and text of the error it stops at."""
    out = []
    try:
        for lineno, start, end, value in rows.parse_jsonl(text):
            out.append((lineno, start, end, _canonical(value)))
    except rows.UnparsedLine as exc:
        out.append((exc.lineno, type(exc.error), str(exc.error)))
    return out


def _split_and_loads(text: str) -> list:
    """_parsed's reference: text split at `\n`, each non-blank line given
    to json.loads, up to the first that it rejects."""
    out, start = [], 0
    for lineno, line in enumerate(text.split("\n"), 1):
        if line and not line.isspace():
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return [*out, (lineno, type(exc), str(exc))]
            out.append((lineno, start, start + len(line), _canonical(value)))
        start += len(line) + 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(edited_lines(), max_size=4), st.sampled_from(["", "\n", "\n\n"]))
def test_parse_jsonl_agrees_with_json_loads_on_every_line(lines, tail):
    text = "\n".join(lines) + tail
    assert _parsed(text) == _split_and_loads(text)


@pytest.mark.parametrize(
    "line",
    ['{"a": NaN}', " {}", "{} ", "{}\r", "\ufeff{}", "{}{}", "[" * 100_000, '"\\ud800"', "7" * 4301, "\x0b{}",
     "[1,", "[1,\n2]", ""],
    ids=["nan", "lead-space", "trail-space", "cr", "bom", "two-values", "too-deep", "lone-surrogate", "long-int", "vt",
         "torn", "value-across-lines", "empty"],
)
def test_parse_jsonl_agrees_with_json_loads_on_the_edges(line):
    # Each edge case as the only line, then between two rows.
    for text in (line, f'{{"a": 1}}\n{line}\n{{"b": 2}}\n'):
        assert _parsed(text) == _split_and_loads(text)


def test_read_rows_names_the_line_of_an_over_long_integer(tmp_path):
    path = tmp_path / "outcomes.jsonl"
    path.write_text('{"a": 1}\n{"n": ' + "1" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 2: malformed JSON: Exceeds the limit"):
        list(read_rows(path, "outcomes"))


def test_read_rows_numbers_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n\t\n\u3000\n \x0b\x85\n{"b": 2}\r\n', encoding="utf-8")
    assert list(read_rows(path, "rows")) == [(1, {"a": 1}), (7, {"b": 2})]
