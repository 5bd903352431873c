"""One JSON codec for every persisted record, and one JSONL reader and writer.

A record's dataclass fields are its JSON format: `to_json` writes each field
under its own name and `from_json` reads them back with `cls(**row)`, so a
missing key takes the field's default, and a missing required key or an
unknown key raises. Fields that hold records nest as objects, `X | None` as
an object or null, and `tuple[X, ...]` as a list. `from_json` checks each
value against its field's type (a float field takes an int, an int field no
bool). Input errors are `ConfigError`s naming the file and, for a bad row,
its line (exit code 2). `read_json` reads every standalone JSON input file,
and `post_json` is the one HTTP call.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from functools import cache
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


def _each(items, decode, step: str) -> list:
    """decode applied to each (key, item); a _WrongType names the item's key."""
    out = []
    for key, item in items:
        try:
            out.append(decode(item))
        except _WrongType as exc:
            exc.path = step.format(key) + exc.path
            raise
    return out


def _codec(tp):
    """(encode, decode) for a field type that is not a scalar: encode is None
    when the value is plain JSON; decode checks a JSON value and returns the
    field's value."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.to_json, tp.from_json
    scalar = _scalar(tp)
    if scalar is not None:
        allowed, expected = scalar

        def check(v):
            if type(v) not in allowed:
                raise _WrongType(f"expected {expected}, got {type(v).__name__}")
            return v

        return None, check
    inner = _optional(tp)
    if inner is not None:
        enc, dec = _codec(inner)
        return (None if enc is None else lambda v: None if v is None else enc(v)), (
            lambda v: None if v is None else dec(v)
        )
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list or (origin is tuple and len(args) == 2 and args[1] is Ellipsis):
        enc, dec = _codec(args[0])

        def decode(v):
            if type(v) is not list:
                raise _WrongType(f"expected list, got {type(v).__name__}")
            return origin(_each(enumerate(v), dec, "[{}]"))

        if enc is None:
            return (list if origin is tuple else None), decode
        return (lambda v: list(map(enc, v))), decode
    if origin is dict:
        enc, dec = _codec(args[1])

        def decode(v):
            if type(v) is not dict:
                raise _WrongType(f"expected dict, got {type(v).__name__}")
            return dict(zip(v, _each(v.items(), dec, ".{}")))

        return (None if enc is None else lambda v: {k: enc(x) for k, x in v.items()}), decode
    raise TypeError(f"no JSON form for field type {tp!r}")


@cache
def _plan(cls: type) -> tuple[tuple, dict, tuple]:
    """Per class, once: (name, encode) for each field that is not plain JSON;
    (allowed types, their name) by name for each scalar field; and (name,
    decode) for each other field."""
    hints = typing.get_type_hints(cls)
    encoders, scalars, nested = [], {}, []
    for f in dataclasses.fields(cls):
        scalar = _scalar(hints[f.name])
        if scalar is not None:
            scalars[f.name] = scalar
            continue
        enc, dec = _codec(hints[f.name])
        if enc is not None:
            encoders.append((f.name, enc))
        nested.append((f.name, dec))
    return tuple(encoders), scalars, tuple(nested)


class Record:
    """Mixin for dataclasses whose fields are their JSON format.

    A class that sets `SCHEMA` writes it under "schema" and ignores that key
    on read; standalone JSON files carry one, JSONL rows do not.
    """

    SCHEMA: ClassVar[str | None] = None

    def to_json(self) -> dict:
        # A record's instance dict holds exactly its fields, and copying it
        # is the fastest way to read them.
        row = vars(self).copy()
        for name, enc in _plan(type(self))[0]:
            row[name] = enc(row[name])
        if self.SCHEMA is not None:
            row["schema"] = self.SCHEMA
        return row

    @classmethod
    def from_json(cls: type[R], payload: dict) -> R:
        """The record a JSON object holds. A value of the wrong type raises a
        TypeError naming its key; a missing or unknown key, the TypeError of
        the constructor."""
        if not isinstance(payload, dict):
            raise _WrongType(f"{cls.__name__}: expected a JSON object, got {type(payload).__name__}")
        _, scalars, nested = _plan(cls)
        for key, value in payload.items():
            scalar = scalars.get(key)
            if scalar is not None and type(value) not in scalar[0]:
                raise _WrongType(f"expected {scalar[1]}, got {type(value).__name__}", f".{key}")
        if nested or cls.SCHEMA is not None:
            payload = dict(payload)
            if cls.SCHEMA is not None:
                payload.pop("schema", None)
            for name, dec in nested:
                if name in payload:
                    try:
                        payload[name] = dec(payload[name])
                    except _WrongType as exc:
                        exc.path = f".{name}{exc.path}"
                        raise
        try:
            return cls(**payload)
        except TypeError as exc:  # a missing or unknown key, named by where it sits
            raise _WrongType(str(exc)) from exc


def from_json_at(key: str, cls: type[R], payload: dict) -> R:
    """`cls.from_json(payload)` for the object held under `key` of an
    enclosing one: a wrongly typed value is named by its key path from
    there, as `key.<field>`."""
    try:
        return cls.from_json(payload)
    except _WrongType as exc:
        exc.path = f".{key}{exc.path}"
        raise


# json.dumps builds an encoder per call when given non-default arguments;
# an encoder keeps no state between calls, so one serves every thread.
_encode_row = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dump_row(row: dict) -> str:
    """One JSONL line: sorted keys, compact separators, `\\n`; the sorted keys
    make outcome files byte-reproducible."""
    return _encode_row(row) + "\n"


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


def read_rows(path: str | Path, kind: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file.

    `kind` names the file in the error for an unreadable one ("cannot read
    outcomes file …"); a row that is not a JSON object names its line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}, line {lineno}: malformed JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise ConfigError(f"{path}, line {lineno}: expected a JSON object")
        yield lineno, row


def read_records(cls: type[R], path: str | Path, kind: str) -> list[R]:
    """Every row of a JSONL file decoded by `cls.from_json`."""
    records = []
    for lineno, row in read_rows(path, kind):
        try:
            records.append(cls.from_json(row))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    return records
