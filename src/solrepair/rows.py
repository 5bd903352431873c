"""One JSON codec for every persisted record, and one JSONL reader and writer.

A record's dataclass fields are its JSON format: `to_line` writes each field
under its own name and `from_json` reads them back, so a missing key takes
the field's default, and a missing required key or an unknown key raises
the constructor's TypeError. Fields that hold records nest as objects,
`X | None` as an object or null, and `tuple[X, ...]` as a list. `from_json`
checks each value against its field's type (a float field takes an int, an
int field no bool).

Each class's decoder is generated once, on first use, from its fields and
their types, as dataclasses generates `__init__`: straight-line code that
checks the row, decodes nested values by calling their class's decoder,
fills the instance dict and runs `__post_init__`. A row with several faults
is named by the first of: a wrongly typed scalar value, in row order; a
fault in a record, list or dict field, in field order; a missing or
unknown key; what `__post_init__` rejects.

A key derived from the other fields (a class's `DERIVED`, each read from
the property of its name, as the task row's `id`) and a standalone file's
"schema" are written but ignored on read.

A JSONL row is written by `to_line`, whose bytes are those of `json.dumps`
of the record's JSON tree with sorted keys and compact separators, and a
`\n`; `to_json` is that line parsed, so there is one encoder. Each class's
line writer is generated once, on first use, from the same walk over
fields and types as its decoder: straight-line code that reads each field,
derived keys included, in sorted key order and writes its JSON text, with
no dict tree in between. A string is escaped by json's C
`encode_basestring_ascii`; an int, a finite float, a bool and None are
written as json writes them; a nested record, `X | None`, `tuple[X, ...]`
and `dict[str, X]` (in sorted key order) are written inline. Any other
value, such as a bool in an int field, NaN, or a bare dict field, goes to
json's C encoder, so every byte is json's.

JSONL text is split at `\n` only and parsed by `parse_jsonl`, once per line:
a line that holds one value and nothing else is parsed in place by
`raw_decode`, and any other line (leading or trailing whitespace, a BOM, a
second value, an error) by `json.loads`, so every value and every error is
json.loads's. A line that does not parse is one that json.loads rejects
with ValueError (malformed JSON, or an integer literal longer than
`sys.get_int_max_str_digits()`) or RecursionError.

Input errors are `ConfigError`s naming the file and, for a bad row, its line
(exit code 2). `read_json` reads every standalone JSON input file, and
`post_json` is the one HTTP call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import ClassVar, Iterator, TypeVar

R = TypeVar("R", bound="Record")


class ConfigError(ValueError):
    """Invalid run configuration or unusable input files (exit code 2)."""


class _WrongType(TypeError):
    """A value whose type its field does not allow. `path` locates it in the
    row: each enclosing value prepends its key or index as the error leaves it."""

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        message = super().__str__()
        return f"{message} at key {self.path.lstrip('.')!r}" if self.path else message


# The JSON types each scalar field type takes: type(), not isinstance(), so
# a bool is no int; a float field takes an int. Bare dict and list fields
# are checked as containers only.
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,), dict: (dict,), list: (list,)}


def _optional(tp):
    """X when tp is `X | None`, else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


def _scalar(tp) -> tuple[tuple[type, ...], str] | None:
    """(the types a JSON value may have, their name) for a field type that
    its value's type alone checks, a union of scalars and None included;
    None for any other."""
    if tp in _SCALARS:
        return _SCALARS[tp], tp.__name__
    members = typing.get_args(tp) if typing.get_origin(tp) in (typing.Union, types.UnionType) else ()
    if members and all(m in _SCALARS or m is type(None) for m in members):
        allowed = tuple(t for m in members for t in _SCALARS.get(m, (m,)))
        return allowed, " or ".join("None" if m is type(None) else m.__name__ for m in members)
    return None


# The value `row.get` returns for a key the row does not hold.
_ABSENT = object()


def _bind(env: dict, value) -> str:
    """A fresh name for value in a decoder's globals."""
    name = f"_c{len(env)}"
    env[name] = value
    return name


def _type_test(var: str, allowed: tuple[type, ...], env: dict) -> str:
    """An expression that is true when var's type is not one of allowed."""
    if len(allowed) == 1:
        return f"type({var}) is not {_bind(env, allowed[0])}"
    return f"type({var}) not in {_bind(env, allowed)}"


def _emit(tp, var: str, path: str, env: dict, depth: int) -> list[str]:
    """Lines, indented for `depth`, that check the JSON value in `var`
    against field type tp and leave the field's value in it. `path` is
    f-string text for the value's key path in its row; a _WrongType raised
    below a nested record gains it as it leaves."""
    pad = "    " * depth
    scalar = _scalar(tp)
    if scalar is not None:
        allowed, expected = scalar
        return [
            f"{pad}if {_type_test(var, allowed, env)}:",
            f"{pad}    raise _WrongType(f'expected {expected}, got {{type({var}).__name__}}', f'{path}')",
        ]
    if isinstance(tp, type) and issubclass(tp, Record):
        # Its class's decoder, not a `from_json` override: the one class
        # that overrides it (task rows) is never nested.
        return [
            f"{pad}try:",
            f"{pad}    {var} = {_bind(env, _decoder(tp))}({var})",
            f"{pad}except _WrongType as exc:",
            f"{pad}    exc.path = f'{path}' + exc.path",
            f"{pad}    raise",
        ]
    inner = _optional(tp)
    if inner is not None:
        return [f"{pad}if {var} is not None:", *_emit(inner, var, path, env, depth + 1)]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    item, out = f"item{depth}", f"out{depth}"
    if origin is list or (origin is tuple and len(args) == 2 and args[1] is Ellipsis):
        index = f"i{depth}"
        return [
            f"{pad}if type({var}) is not list:",
            f"{pad}    raise _WrongType(f'expected list, got {{type({var}).__name__}}', f'{path}')",
            f"{pad}{out} = []",
            f"{pad}for {index}, {item} in enumerate({var}):",
            *_emit(args[0], item, f"{path}[{{{index}}}]", env, depth + 1),
            f"{pad}    {out}.append({item})",
            f"{pad}{var} = {'tuple(' + out + ')' if origin is tuple else out}",
        ]
    if origin is dict:
        key = f"k{depth}"
        return [
            f"{pad}if type({var}) is not dict:",
            f"{pad}    raise _WrongType(f'expected dict, got {{type({var}).__name__}}', f'{path}')",
            f"{pad}{out} = {{}}",
            f"{pad}for {key}, {item} in {var}.items():",
            *_emit(args[1], item, f"{path}.{{{key}}}", env, depth + 1),
            f"{pad}    {out}[{key}] = {item}",
            f"{pad}{var} = {out}",
        ]
    raise TypeError(f"no JSON form for field type {tp!r}")


def _scalar_fault(row: dict, scalars: dict) -> _WrongType:
    """The error for the first value, in row order, that its scalar field
    does not take."""
    return next(
        _WrongType(f"expected {scalars[key][1]}, got {type(value).__name__}", f".{key}")
        for key, value in row.items()
        if key in scalars and type(value) not in scalars[key][0]
    )


def _ignored(cls: type) -> frozenset[str]:
    """The keys cls writes but does not read back."""
    return frozenset(cls.DERIVED) | ({"schema"} if cls.SCHEMA is not None else set())


def _key_fault(cls: type, row: dict) -> typing.NoReturn:
    """Raise the constructor's TypeError, as a _WrongType, for a row that
    lacks a required key or holds an unknown one."""
    ignored = _ignored(cls)
    row = {k: v for k, v in row.items() if k not in ignored}
    try:
        cls(**row)
    except TypeError as exc:
        raise _WrongType(str(exc)) from exc


@cache
def _decoder(cls: type):
    """cls's row decoder, built once per class on first use, as dataclasses
    builds `__init__`: straight-line code over the fields that checks each
    scalar value, decodes each nested one, checks the keys, then fills the
    instance dict and runs `__post_init__`."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    env = {
        "_WrongType": _WrongType, "_ABSENT": _ABSENT, "_scalar_fault": _scalar_fault,
        "_key_fault": _key_fault, "_new": object.__new__, "_setattr": object.__setattr__, "cls": cls,
    }
    lines = [
        "def decode(row):",
        "    if not isinstance(row, dict):",
        f"        raise _WrongType(f'{cls.__name__}: expected a JSON object, got {{type(row).__name__}}')",
        *(f"    v{i} = row.get({f.name!r}, _ABSENT)" for i, f in enumerate(fields)),
    ]
    scalars, tests, nested = {}, [], []
    for i, f in enumerate(fields):
        scalar = _scalar(hints[f.name])
        if scalar is None:
            nested += [f"    if v{i} is not _ABSENT:", *_emit(hints[f.name], f"v{i}", f".{f.name}", env, 2)]
        else:
            scalars[f.name] = scalar
            tests.append(f"({_type_test(f'v{i}', scalar[0], env)} and v{i} is not _ABSENT)")
    if tests:
        lines += [f"    if {' or '.join(tests)}:", f"        raise _scalar_fault(row, {_bind(env, scalars)})"]
    lines += nested
    keys = {f.name for f in fields} | _ignored(cls)
    faults = [
        *(f"v{i} is _ABSENT" for i, f in enumerate(fields) if f.default is f.default_factory is dataclasses.MISSING),
        f"not row.keys() <= {_bind(env, frozenset(keys))}",
    ]
    lines += [f"    if {' or '.join(faults)}:", "        _key_fault(cls, row)"]
    for i, f in enumerate(fields):
        if f.default is not dataclasses.MISSING:
            lines.append(f"    if v{i} is _ABSENT: v{i} = {_bind(env, f.default)}")
        elif f.default_factory is not dataclasses.MISSING:
            lines.append(f"    if v{i} is _ABSENT: v{i} = {_bind(env, f.default_factory)}()")
    values = ", ".join(f"{f.name!r}: v{i}" for i, f in enumerate(fields))
    lines += ["    self = _new(cls)", f"    _setattr(self, '__dict__', {{{values}}})"]
    if hasattr(cls, "__post_init__"):
        # As from the constructor, a TypeError it raises reads as a wrong type.
        lines += [
            "    try:",
            "        self.__post_init__()",
            "    except TypeError as exc:",
            "        raise _WrongType(str(exc)) from exc",
        ]
    lines.append("    return self")
    exec(compile("\n".join(lines), f"<decoder of {cls.__qualname__}>", "exec"), env)
    return env["decode"]


# The encoder of a row's values that its line writer does not write itself:
# json.dumps's, with sorted keys and compact separators. json.dumps builds
# an encoder per call when given non-default arguments; an encoder keeps no
# state between calls, so one serves every thread. A field's value is a
# tree of records and JSON, which holds no cycle to check for.
_encode_value = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _write(tp, var: str, env: dict, depth: int) -> str:
    """An expression for the JSON text of `var`, a value of field type tp,
    as json.dumps writes it. A value outside tp, and a value of a type not
    written inline, goes to _encode_value."""
    if tp is str:
        return f"(_esc({var}) if type({var}) is str else _enc({var}))"
    if tp is int:  # a bool is no int: json writes it `true` or `false`
        return f"(_int({var}) if type({var}) is int else _enc({var}))"
    if tp is float:  # json writes NaN and ±inf as `NaN` and `±Infinity`
        return f"(_float({var}) if type({var}) is float and _finite({var}) else _enc({var}))"
    if tp is bool:
        return f"('true' if {var} is True else 'false' if {var} is False else _enc({var}))"
    if isinstance(tp, type) and issubclass(tp, Record):
        return f"({_bind(env, _writer(tp))}({var}) if type({var}) is {_bind(env, tp)} else _enc({var}))"
    inner = _optional(tp)
    if inner is not None:
        return f"('null' if {var} is None else {_write(inner, var, env, depth)})"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list or (origin is tuple and len(args) == 2 and args[1] is Ellipsis):
        item = f"x{depth}"
        return (
            f"('[' + ','.join([{_write(args[0], item, env, depth + 1)} for {item} in {var}]) + ']'"
            f" if type({var}) is {origin.__name__} else _enc({var}))"
        )
    if origin is dict:  # its items in json's sorted key order; a key that is no str goes to json too
        key, item = f"k{depth}", f"x{depth}"
        return (
            f"('{{' + ','.join([_esc({key}) + ':' + {_write(args[1], item, env, depth + 1)}"
            f" for {key}, {item} in sorted({var}.items())]) + '}}'"
            f" if type({var}) is dict and all([type({key}) is str for {key} in {var}]) else _enc({var}))"
        )
    # Bare containers and unions of several types: their JSON tree.
    return f"_enc({var})"


@cache
def _writer(cls: type):
    """cls's writer of its JSON text, as json.dumps writes the record's
    tree with sorted keys and compact separators; built once per class, on
    first use, as _decoder is. It reads each field and derived key, in
    sorted key order, and formats their texts into one string."""
    hints = typing.get_type_hints(cls)
    # Per key, the attribute that holds its value and the value's type.
    keys = {f.name: (f.name, hints[f.name]) for f in dataclasses.fields(cls)}
    for name in cls.DERIVED:  # a derived key's type is its property's
        keys[name] = (name, typing.get_type_hints(getattr(cls, name).fget)["return"])
    if cls.SCHEMA is not None:
        keys["schema"] = ("SCHEMA", str)
    env = {"_esc": encode_basestring_ascii, "_enc": _encode_value, "_int": int.__repr__,
           "_float": float.__repr__, "_finite": math.isfinite}
    lines, parts = ["def write(self):"], []
    for i, key in enumerate(sorted(keys)):
        attribute, tp = keys[key]
        lines += [f"    v = self.{attribute}", f"    e{i} = {_write(tp, 'v', env, 0)}"]
        parts.append(f"{encode_basestring_ascii(key)}:{{e{i}}}")
    # The keys are names, so the f-string needs no escape but its braces.
    lines.append("    return f'{{" + ",".join(parts) + "}}'")
    exec(compile("\n".join(lines), f"<writer of {cls.__qualname__}>", "exec"), env)
    return env["write"]


class Record:
    """Mixin for dataclasses whose fields are their JSON format.

    A class that sets `SCHEMA` writes it under "schema" and ignores that key
    on read; standalone JSON files carry one, JSONL rows do not. `DERIVED`
    names the keys it writes from the other fields, each the value of the
    property of its name: the decoder ignores them too.
    """

    SCHEMA: ClassVar[str | None] = None
    DERIVED: ClassVar[tuple[str, ...]] = ()

    def to_json(self) -> dict:
        """The JSON object of the record's line (`to_line`), parsed in place
        as `parse_jsonl` parses a row."""
        return _raw_decode(self.to_line())[0]

    def to_line(self) -> str:
        """The record's JSONL line: its JSON text with sorted keys and
        compact separators, then `\\n`, written by its class's writer
        (_writer)."""
        return _writer(type(self))(self) + "\n"

    @classmethod
    def from_json(cls: type[R], payload: dict) -> R:
        """The record a JSON object holds. A value of the wrong type raises a
        TypeError naming its key; a missing or unknown key, the TypeError of
        the constructor."""
        return _decoder(cls)(payload)


def from_json_at(key: str, cls: type[R], payload: dict) -> R:
    """`cls.from_json(payload)` for the object held under `key` of an
    enclosing one: a wrongly typed value is named by its key path from
    there, as `key.<field>`."""
    try:
        return cls.from_json(payload)
    except _WrongType as exc:
        exc.path = f".{key}{exc.path}"
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """A standalone JSON file: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: str | Path, kind: str) -> dict:
    """The JSON object a standalone input file holds. An unreadable file,
    text that is not UTF-8 or not JSON, or a value that is not an object
    raises ConfigError naming the file ("cannot read config file …")."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{kind} file {path}: expected a JSON object")
    return payload


def post_json(url: str, payload, timeout: float, headers: dict | None = None) -> tuple[int, bytes]:
    """POST `payload` as JSON; (status, body) of any reply, 4xx and 5xx
    included. A request that gets no reply (refused, reset, timed out, or a
    garbled status line) raises OSError. The HTTP stack is imported on first
    use, so that a run that calls no endpoint does not load it."""
    import http.client
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    try:
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()
    except (http.client.HTTPException, ValueError) as exc:
        raise ConnectionError(f"no usable HTTP reply from {url}: {exc!r}") from exc


_raw_decode = json.JSONDecoder().raw_decode


class UnparsedLine(Exception):
    """The line of JSONL text, by number, at which `parse_jsonl` stopped;
    `error` is what json.loads raised for it."""

    def __init__(self, lineno: int, error: Exception) -> None:
        super().__init__(lineno, error)
        self.lineno = lineno
        self.error = error


def parse_jsonl(text: str) -> Iterator[tuple[int, int, int, object]]:
    """(line number, start, end, value) for each non-blank line
    text[start:end], split at `\n` only, where value is what
    `json.loads(line)` gives. The first line that json.loads rejects
    (ValueError or RecursionError) raises UnparsedLine.

    A line that holds one value and nothing else, as `to_line` writes
    them, is parsed once and in place: `raw_decode(text, start)`, accepted
    when the value ends where the line does. Any other line is copied out
    and given to json.loads, so every value and every error is json.loads's.
    """
    start, size, lineno = 0, len(text), 0
    while start < size:
        lineno += 1
        end = text.find("\n", start)
        if end < 0:
            end = size
        try:
            value, stop = _raw_decode(text, start)
        except (ValueError, RecursionError):
            stop = -1
        if stop != end:
            line = text[start:end]
            if not line or line.isspace():  # blank, which json.loads rejects
                start = end + 1
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise UnparsedLine(lineno, exc) from exc
        yield lineno, start, end, value
        start = end + 1


def read_rows(path: str | Path, kind: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file.

    `kind` names the file in the error for an unreadable one ("cannot read
    outcomes file …"); a row that does not parse or is not a JSON object
    names its line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        for lineno, _, _, row in parse_jsonl(text):
            if not isinstance(row, dict):
                raise ConfigError(f"{path}, line {lineno}: expected a JSON object")
            yield lineno, row
    except UnparsedLine as exc:
        raise ConfigError(f"{path}, line {exc.lineno}: malformed JSON: {exc.error}") from exc.error


def read_records(cls: type[R], path: str | Path, kind: str) -> list[R]:
    """Every row of a JSONL file decoded by cls's decoder, which is
    `cls.from_json` for every class but FunctionRecord: task files are
    read by `corpus.read_task_file`."""
    decode = _decoder(cls)
    records = []
    for lineno, row in read_rows(path, kind):
        try:
            records.append(decode(row))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    return records
