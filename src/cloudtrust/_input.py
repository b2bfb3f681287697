"""The package's JSON module: the one reader of its documents (scenario
configs, graph fixtures and entity store snapshots), and the array
layout its two writers share.

Every value is read through `read`, so one rule holds for all three: a
bool passes only where a bool is asked for, a key given a default takes
it when absent or null, and a list element is checked like a key.  A
location (`where`) is a path string such as "config" or a (location,
key) pair; it becomes text like "config.entities[0].sla" only when an
error is raised, so reading a valid document builds no strings.

The writers lay out graph and store documents byte for byte as
`json.dumps(document, indent=2)` does, but with one `%`-template per
record, since the json module's C encoder is used only without
`indent`.  They quote strings with `json.encoder.encode_basestring_ascii`
and write numbers with `repr`, which is what `json.dumps` does for a
finite int or float that is not a bool; the readers and the
constructors of the written records admit no other number.
"""
from __future__ import annotations

import json

NUMBER = (int, float)
MISSING = object()  # an absent key, and the default of a key that must be given


def load_object(text: str, error: type[ValueError], what: str) -> dict:
    """Parse `text` as a JSON object; every failure raises `error`."""
    try:
        document = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to parse
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} is nested too deeply to parse") from None
    if not isinstance(document, dict):
        raise error(f"{what} root must be a JSON object")
    return document


def place(where) -> str:
    if isinstance(where, str):
        return where
    parent, key = where
    return f"{place(parent)}[{key}]" if isinstance(key, int) else f"{place(parent)}.{key}"


def read(obj, key, kind, where, error: type[ValueError], default=MISSING):
    """`obj[key]` checked to be of `kind`, a type or a tuple of types;
    `obj` is an object, or a list read by index, found at `where`."""
    try:
        value = obj[key]
    except KeyError:
        value = MISSING
    if isinstance(value, kind) and (kind is bool or value.__class__ is not bool):
        return value
    if default is not MISSING and (value is None or value is MISSING):
        return default
    problem = "is missing" if value is MISSING else f"has the wrong type: {value!r}"
    raise error(f"{place((where, key))} {problem}")


def read_items(obj, key, kind, where, error: type[ValueError]):
    """Each element of the list `obj[key]`, read as `kind`, with its location."""
    values = read(obj, key, list, where, error)
    where = (where, key)
    for i in range(len(values)):
        yield (where, i), read(values, i, kind, where, error)


def array(items: list[str], indent: str) -> str:
    """A JSON array of already-indented `items` closed at `indent`, as
    `json.dumps(..., indent=2)` lays it out."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"
