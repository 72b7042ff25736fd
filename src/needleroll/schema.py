"""decode, the one read-and-check step of every versioned pipeline file
(manifest, episode or trial line, model), and check_json, the one type
check of a decoded JSON value, a config file's too, against a dataclass.
A per-step Column of a line is checked here to be a string;
needleroll.dataset decodes it."""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing

import numpy as np

# the hint of a per-step column of an episode or trial line: an ndarray in
# memory, a base64 string on disk, which needleroll.dataset decodes
Column = typing.NewType("Column", np.ndarray)


@functools.cache
def _fields(cls) -> dict:
    """{name: (type hint, required)} for a dataclass's fields."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {f.name: (hints[f.name],
                     f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)}


def _is_number(value) -> bool:
    """A JSON number a float can hold: no bool, no int past float range."""
    return type(value) is float or (
        type(value) is int and abs(value) <= sys.float_info.max)


def check_json(value, hint, where: str = "") -> None:
    """Raise ValueError naming the first part of a decoded JSON value that
    does not fit hint. Ints are no floats and bools no ints, floats take
    ints a float can hold, tuples are lists, an np.ndarray is a flat list
    of such numbers, a Column is a string, only `X | None` takes null, and
    a dataclass is an object whose keys are its fields, each checked the
    same way; a field may be absent only when it has a default. `where`
    names value in the message."""
    if typing.get_origin(hint) in (types.UnionType, typing.Union):  # X | None
        if value is not None:
            check_json(value, typing.get_args(hint)[0], where)
    elif dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{where or 'the top level'} is not a JSON object")
        prefix = f"{where}: " if where else ""
        fields = _fields(hint)
        unknown = value.keys() - fields.keys()
        if unknown:
            raise ValueError(f"{prefix}unknown keys {sorted(unknown)}")
        for name, (field_hint, required) in fields.items():
            if name in value:
                check_json(value[name], field_hint,
                           f"{where}[{name!r}]" if where else repr(name))
            elif required:
                raise ValueError(f"{prefix}missing field {name!r}")
    elif hint is Column:
        if type(value) is not str:
            raise ValueError(f"{where} must be a base64 string")
    elif hint is np.ndarray:
        # one C-level pass over a column of floats; numpy itself would read
        # "0.5" and true as numbers
        if not (isinstance(value, list) and (set(map(type, value)) <= {float}
                                             or all(map(_is_number, value)))):
            raise ValueError(f"{where} must hold only numbers")
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {json.dumps(value)}")
        for i, item in enumerate(value):
            check_json(item, typing.get_args(hint)[0], f"{where}[{i}]")
    elif not (_is_number(value) if hint is float else
              hint is bool if isinstance(value, bool) else isinstance(value, hint)):
        raise ValueError(f"{where} must be {hint.__name__}, got {json.dumps(value)}")


def decode(text: str, cls, version: int, what: str) -> dict:
    """The JSON object in text less its schema_version, which must be
    version, checked against cls by check_json; `what` names the file kind
    in the version message. Every fault is a ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the top level is not a JSON object")
    got = doc.pop("schema_version", None)
    if type(got) is not int or got != version:
        raise ValueError(f"unsupported {what} schema {got!r}")
    check_json(doc, cls)
    return doc
