"""The JSON form of every run file: one writer, `to_json`, and one reader, `from_json`.

A record is a dataclass written as one JSON object, its fields in key order.
A field's `key` metadata, if any, is its JSON key; its type comes from the
annotation and its default from the field, and a field without a default is
required. A `Path` is a string. A string must be valid Unicode: no lone
surrogate, which a "\ud800" escape decodes to and UTF-8 cannot encode; a
`RawText` field is the one exception.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import MISSING
from pathlib import Path
from typing import Literal

from .corpus import LONE_SURROGATE


class RawText(str):
    """A field type: a string kept verbatim, a lone surrogate included, as an
    LLM reply may hold one. It reads as a plain `str`."""


# Type -> (the JSON values it takes, its name in errors). A float keeps an
# integer as written. A bool is an int to isinstance, so only a bool takes one.
_ACCEPTS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    RawText: (str, "a string"),
    Path: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "a JSON object"),
}


def key(f: dataclasses.Field) -> str:
    """A field's JSON key."""
    return f.metadata.get("key", f.name)


@functools.cache
def _schema(cls) -> dict[str, tuple[dataclasses.Field, object]]:
    """The fields of dataclass `cls` by JSON key, each with its type."""
    hints = typing.get_type_hints(cls)
    return {key(f): (f, hints[f.name]) for f in dataclasses.fields(cls)}


def to_json(value):
    """The JSON form of a record, or of a value inside one; from_json reads it back."""
    if isinstance(value, (str, int, float)) or value is None:  # most values: test them first
        return value
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [to_json(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {k: to_json(getattr(value, f.name)) for k, (f, _) in _schema(type(value)).items()}
    if isinstance(value, Path):
        return str(value)
    return value


def from_json(cls, value, where: str, error: type[Exception], base_dir: Path | None = None):
    """The record of dataclass `cls` whose JSON form is `value`; `error` naming
    `where`, and the key, if it is not one, or if the record's `__post_init__`
    raises ValueError. A missing key reads as the JSON form of its default."""

    def name(at: str) -> str:
        return f"{where} key {at}" if at else where

    def record(cls, raw: dict, at: str):
        prefix = f"{at}." if at else ""
        schema = _schema(cls)
        unknown = [k for k in raw if k not in schema]
        if unknown:
            raise error(f"{where} has unknown key {prefix}{unknown[0]}")
        values = {}
        for k, (f, hint) in schema.items():
            if k not in raw and f.default is MISSING and f.default_factory is MISSING:
                raise error(f"{where} is missing key {prefix}{k}")
            item = raw[k] if k in raw else to_json(f.default_factory() if f.default is MISSING else f.default)
            values[f.name] = read(hint, item, prefix + k)
        try:
            return cls(**values)
        except ValueError as exc:
            raise error(f"invalid {name(at)}: {exc}") from exc

    def read(hint, value, at: str):
        if type(None) in typing.get_args(hint):
            if value is None:
                return None
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        args = typing.get_args(hint)
        kind = dict if dataclasses.is_dataclass(hint) else typing.get_origin(hint) or hint
        if kind is Literal:
            if value not in args:
                raise error(f"{name(at)} must be one of {list(args)}, got {value!r:.60}")
            return value
        accepted, what = _ACCEPTS[kind]
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
            raise error(f"{name(at)} must be {what}, got {value!r:.60}")
        if accepted is str and kind is not RawText and not value.isascii() and LONE_SURROGATE.search(value):
            raise error(f"{name(at)} must be valid Unicode, got {value!r:.60}")
        if dataclasses.is_dataclass(hint):
            return record(hint, value, at)
        if kind is list:
            return [read(args[0], v, f"{at}[{i}]") for i, v in enumerate(value)]
        if kind is dict and args:
            return {k: read(args[1], v, f"{at}.{k}") for k, v in value.items()}
        if kind is Path:
            return Path(value) if base_dir is None else base_dir / value  # an absolute value stays
        return value

    return read(cls, value, "")
