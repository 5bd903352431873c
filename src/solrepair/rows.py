"""One JSON codec for every persisted record, and one JSONL reader and writer.

A record's dataclass fields are its JSON format: `to_json` writes each field
under its own name and `from_json` reads them back with `cls(**row)`, so a
missing key takes the field's default, and a missing required key or an
unknown key raises. Fields that hold records nest as objects, `X | None` as
an object or null, and `tuple[X, ...]` as a list. Input errors are
`ConfigError`s naming the file and, for a bad row, its line (exit code 2).
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


def _codec(tp):
    """(encode, decode) for one field type, or None when the value is plain JSON."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.to_json, tp.from_json
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _codec(args[0] if args[1] is type(None) else args[1])
        if inner is None:
            return None
        enc, dec = inner
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0]) or (None, None)
        if enc is None:
            return list, tuple
        return (lambda v: list(map(enc, v))), (lambda v: tuple(map(dec, v)))
    return None


@cache
def _plan(cls: type) -> tuple:
    """Per class, once: (name, encode, decode) for each field that is not plain JSON."""
    hints = typing.get_type_hints(cls)
    fields = (f.name for f in dataclasses.fields(cls))
    return tuple((n, *codec) for n in fields if (codec := _codec(hints[n])))


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
        for name, enc, _ in _plan(type(self)):
            row[name] = enc(row[name])
        if self.SCHEMA is not None:
            row["schema"] = self.SCHEMA
        return row

    @classmethod
    def from_json(cls: type[R], payload: dict) -> R:
        if not isinstance(payload, dict):
            raise TypeError(f"{cls.__name__}: expected a JSON object, got {type(payload).__name__}")
        nested = _plan(cls)
        if nested or cls.SCHEMA is not None:
            payload = dict(payload)
            if cls.SCHEMA is not None:
                payload.pop("schema", None)
            for name, _, dec in nested:
                if name in payload:
                    payload[name] = dec(payload[name])
        return cls(**payload)


def dump_row(row: dict) -> str:
    """One JSONL line: sorted keys, compact separators, `\\n`; the sorted keys
    make outcome files byte-reproducible."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    """A standalone JSON file: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
