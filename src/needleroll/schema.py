"""replacing, the one way a file a command writes lands: whole or not at
all. encode or save_json writes, and decode reads and checks, every
versioned pipeline file (episode or trial line, model; manifest, config);
load_json and check_json, its one JSON parse and one type check against a
dataclass, a config file's too. A Column (a line's per-step column, a
model parameter) is on disk the strict base64 of its little-endian
float64 bytes, row-major: every value round-trips bit for bit, flat."""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import json
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

# the hint of a float array: an ndarray in memory, a base64 string on disk
Column = typing.NewType("Column", np.ndarray)


@functools.cache
def _fields(cls) -> dict:
    """{name: (type hint, required)} for a dataclass's fields."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {f.name: (hints[f.name],
                     f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)}


@functools.cache
def _columns(cls) -> tuple:
    """The names of a dataclass's Column fields, `Column | None` too."""
    return tuple(name for name, (hint, _) in _fields(cls).items()
                 if Column in (hint, *typing.get_args(hint)))


def encode_column(values) -> str:
    """The strict base64 of a float array's little-endian float64 bytes,
    row-major."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_column(text: str, name: str) -> np.ndarray:
    """encode_column's array back, flat and read-only; a text that is not
    strict base64 of whole 8-byte values is a ValueError naming name."""
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), "<f8")
    except ValueError as exc:  # binascii.Error is one, numpy's size fault too
        raise ValueError(f"{name!r} is not strict base64 of float64 bytes "
                         f"({exc})") from None


def check_json(value, hint, where: str = "") -> None:
    """Raise ValueError naming the first part of a decoded JSON value that
    does not fit hint. Ints are no floats and bools no ints, floats take
    ints a float can hold, tuples are lists, a Column is a string, only
    `X | None` takes null, and a dataclass is an object whose keys are its
    fields, each checked the same way; a field may be absent only when it
    has a default. `where` names value in the message."""
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
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {json.dumps(value)}")
        for i, item in enumerate(value):
            check_json(item, typing.get_args(hint)[0], f"{where}[{i}]")
    # a float takes a JSON number it can hold: no bool, no int past its range
    elif not ((type(value) is float or type(value) is int
               and abs(value) <= sys.float_info.max) if hint is float else
              hint is bool if isinstance(value, bool) else isinstance(value, hint)):
        raise ValueError(f"{where} must be {hint.__name__}, got {json.dumps(value)}")


def load_json(text: str):
    """json.loads(text); a nesting too deep for it is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


@contextlib.contextmanager
def replacing(path):
    """Yield a text handle on path.tmp, in path's directory (made first),
    that os.replace moves onto path when the block ends; if anything raises
    in it, path.tmp goes and a file at path keeps its bytes. newline="" so
    a csv writer's \r\n row ends and every other \n are written as given."""
    partial = Path(f"{path}.tmp")
    partial.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(partial, "w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def save_json(path, obj, version: int) -> None:
    """Write a dataclass instance through replacing as the sorted JSON of
    its asdict plus schema_version, indented 2, then a newline."""
    doc = dict(dataclasses.asdict(obj), schema_version=version)
    with replacing(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def encode(obj, version: int) -> str:
    """The compact sorted JSON text of a dataclass instance: every field
    that is not None plus schema_version, each Column field by
    encode_column and each nested dataclass as its asdict."""
    columns = _columns(type(obj))
    doc = {"schema_version": version}
    for name in _fields(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            doc[name] = (encode_column(value) if name in columns else
                         dataclasses.asdict(value)
                         if dataclasses.is_dataclass(value) else value)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def decode(text: str, cls, version: int, what: str) -> dict:
    """The JSON object in text less its schema_version, which must be
    version, checked against cls by check_json, each Column field decoded
    by decode_column; `what` names the file kind in the version message.
    Every fault is a ValueError."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ValueError("the top level is not a JSON object")
    got = doc.pop("schema_version", None)
    if type(got) is not int or got != version:
        raise ValueError(f"unsupported {what} schema {got!r}")
    check_json(doc, cls)
    for name in _columns(cls):
        if doc.get(name) is not None:  # a null optional column is absent
            doc[name] = decode_column(doc[name], name)
    return doc
