"""The file boundary: one type check for the fields of the config and
record dataclasses, one way that file bytes become text and JSON, and one way
that tables become CSV text.

``check_fields(obj)`` raises ``TypeError("<field> must be ..., got ...")`` for
the first field of ``obj`` whose value does not match its annotation:
``int``, ``float`` and ``bool`` (numpy scalars pass, a bool never passes as a
number), ``str``, or a fixed-length ``tuple[...]`` of those, which takes a
list or tuple of that length and is stored back as a tuple. Any other
annotation is a ``TypeError`` too, so no field goes unchecked. Annotations
are resolved once per class. ``check_count(name, value, least)`` raises a
``ValueError`` naming ``name`` for a count below ``least`` or of 2**62 or
more, which no float32 array fits in a 64-bit address space, so numpy is
never handed a length it would overflow.

``read_text(path)`` decodes a file as UTF-8, whatever the locale, and drops
one leading byte order mark; ``parse_json(text, where)`` parses JSON. Bytes
that are not UTF-8 and malformed or too deeply nested JSON are a
``ValueError`` naming the file (and the line).

``write_csv`` writes every CSV table rirkit makes: UTF-8, LF line ends,
``# <comment>`` lines first and a row whose first field starts with ``#``
quoted, so that each row reads back through ``corpus.read_pool_csv``.
"""

from __future__ import annotations

import csv
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


def check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value >= 2**62:
        raise ValueError(f"{name} must be < 2**62, got {value}")


def read_text(path: str | Path) -> str:
    data = Path(path).read_bytes()
    try:  # a leading byte order mark (as Excel writes) is not content
        return data.decode("utf-8").removeprefix("\ufeff")
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


def write_csv(path: str | Path, header: list[str], rows: typing.Iterable[typing.Sequence],
              comments: typing.Iterable[str] = ()) -> None:
    """Refuse a field or comment that ``str.splitlines`` would break, or that
    UTF-8 cannot encode (a lone surrogate, such as the ``\udcff`` Python
    decodes a non-UTF-8 file name byte to), with a ValueError naming ``path``,
    before the file is opened."""
    rows, comments = [header, *rows], list(comments)
    for value in (*comments, *(v for row in rows for v in row)):
        text = f"{value}"
        if len(f"{text}.".splitlines()) > 1:  # the "." makes a trailing break count
            raise ValueError(f"{path}: a CSV field or comment may not hold a line "
                             f"break, got {value!r}")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: a CSV field or comment must be text UTF-8 "
                             f"can encode, got {value!r}") from None
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(f"# {c}\n" for c in comments)
        plain, quoted = (csv.writer(f, lineterminator="\n", quoting=q)
                         for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
        for row in rows:  # quoted, a leading "#" is not read as a comment
            (quoted if str(row[0]).startswith("#") else plain).writerow(row)
