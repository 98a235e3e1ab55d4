"""The input boundary: one type check for the fields of the config and
record dataclasses, and one way that file bytes become text and JSON.

``check_fields(obj)`` raises ``TypeError("<field> must be ..., got ...")`` for
the first field of ``obj`` whose value does not match its annotation:
``int``, ``float`` and ``bool`` (numpy scalars pass, a bool never passes as a
number), ``str``, or a fixed-length ``tuple[...]`` of those, which takes a
list or tuple of that length and is stored back as a tuple. Any other
annotation is a ``TypeError`` too, so no field goes unchecked. Annotations
are resolved once per class.

``read_text(path)`` decodes a file as UTF-8, whatever the locale, and
``parse_json(text, where)`` parses JSON; bytes that are not UTF-8 and malformed
or too deeply nested JSON are a ``ValueError`` naming the file (and the line).
"""

from __future__ import annotations

import json
import numbers
import typing
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

_SCALARS = {
    int: ("an integer",
          lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a real number",
            lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    bool: ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _rule(hint):
    """(description, test) for one annotation."""
    if typing.get_origin(hint) is tuple:
        items = [_rule(h) for h in typing.get_args(hint)]
        desc = f"a list of {len(items)} values ({', '.join(d for d, _ in items)})"
        return desc, lambda v: (isinstance(v, (list, tuple)) and len(v) == len(items)
                                and all(test(x) for (_, test), x in zip(items, v)))
    if hint not in _SCALARS:
        raise TypeError(f"no field check for annotation {hint!r}")
    return _SCALARS[hint]


@cache
def _rules(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, *_rule(hints[f.name])) for f in fields(cls)]


def check_fields(obj) -> None:
    for name, desc, test in _rules(type(obj)):
        value = getattr(obj, name)
        if not test(value):
            raise TypeError(f"{name} must be {desc}, got {value!r}")
        if isinstance(value, list):  # only a tuple field takes a list
            object.__setattr__(obj, name, tuple(value))


def read_text(path: str | Path) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 "
                         f"({exc.reason} at byte {exc.start})") from exc


def parse_json(text: str, where: object) -> object:
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
