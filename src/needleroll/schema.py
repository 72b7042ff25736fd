"""The one type check of a decoded JSON file (config, dataset manifest,
model) against the dataclass it loads into."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing


@functools.cache
def _fields(cls) -> dict:
    """{name: (type hint, required)} for a dataclass's fields."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {f.name: (hints[f.name],
                     f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)}


def check_json(value, hint, where: str = "", only=None) -> None:
    """Raise ValueError naming the first part of a decoded JSON value that
    does not fit hint. Ints are no floats and bools no ints, floats take
    ints, tuples are lists, only `X | None` takes null, and a dataclass is
    an object whose keys are its fields, each checked the same way; a field
    may be absent only when it has a default. `where` names value in the
    message; `only` checks just those fields and lets other keys pass."""
    if isinstance(hint, types.UnionType):  # X | None
        if value is not None:
            check_json(value, typing.get_args(hint)[0], where)
    elif dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{where or 'the top level'} is not a JSON object")
        prefix = f"{where}: " if where else ""
        fields = _fields(hint)
        unknown = set() if only else value.keys() - fields.keys()
        if unknown:
            raise ValueError(f"{prefix}unknown keys {sorted(unknown)}")
        for name in only or fields:
            field_hint, required = fields[name]
            if name in value:
                check_json(value[name], field_hint,
                           f"{where}[{name!r}]" if where else repr(name))
            elif required:
                raise ValueError(f"{prefix}missing field {name!r}")
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {json.dumps(value)}")
        for i, item in enumerate(value):
            check_json(item, typing.get_args(hint)[0], f"{where}[{i}]")
    elif not (hint is bool if isinstance(value, bool) else
              isinstance(value, (int, float) if hint is float else hint)):
        raise ValueError(f"{where} must be {hint.__name__}, got {json.dumps(value)}")
