"""JSON mapping of the binding IR and the reports, read from dataclass annotations.

A dataclass maps to an object keyed by its field names in camelCase.  Each
value follows its field's annotation: ``QName`` in Clark notation
(``{namespace}local``), ``ParticlePath`` through ``render``/``parse``,
enums by value, lists and tuples as arrays, sets as sorted arrays, dicts as
objects whose keys convert like values, and nested dataclasses as objects.
An optional field holding None is null.  A field whose metadata is :data:`SKIP`
is bookkeeping: it is never written and keeps its default when read.  A
field whose metadata is :data:`SHARED` holds a value that many objects
share: it is written as the value's index in a table the caller writes
once, or null when the value is empty.  Each type's converters are built
once, on first use.

:func:`dumps` is the one writer of every JSON file slimbind writes.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from enum import Enum
from functools import cache

from .model import ParticlePath, QName

SKIP = {"json": False}  # metadata of a field the mapping leaves out
SHARED = {"json": "shared"}  # metadata of a field written as an index into a shared table

# One line of JSON, keys sorted, by the C encoder (it is used only without an indent).
_line = json.JSONEncoder(sort_keys=True).encode


def encode(obj, shared=None):
    """JSON data of a dataclass instance.

    ``shared`` maps the ``id`` of each value a :data:`SHARED` field holds
    to the value's index, so no value is hashed per field.
    """
    return _converters(type(obj))[0](obj, shared)


def decode(cls, data, shared=None):
    """The ``cls`` instance whose :func:`encode` gives ``data``.

    ``shared`` lists the values that :data:`SHARED` fields hold, by index.
    """
    return _converters(cls)[1](data, shared)


def loads(cls, text: str):
    """The ``cls`` instance whose :func:`encode` gives the JSON ``text``."""
    return decode(cls, json.loads(text))


def dumps(obj, shared=None, **members) -> str:
    """The text of every JSON file slimbind writes.

    ``obj`` is a dataclass instance, mapped as :func:`encode` maps it, or a
    dict of JSON data; ``members`` adds top-level members.  The top level
    has one member a line, in key order, and a member holding a non-empty
    array or object one item a line.  Every other value is one line from
    the C encoder, keys sorted; but the members of an object that hold
    arrays of objects follow its other members, one object a line.  The
    items of a top-level array of dataclass instances are encoded one at a
    time, as they are written, so the file is never held as JSON data.
    """
    if isinstance(obj, dict):
        members.update(obj)
    else:
        for attr, key, enc, _dec in _fields(type(obj)):
            value = getattr(obj, attr)
            if not (isinstance(value, list) and value and dataclasses.is_dataclass(value[0])):
                value = value if enc is None else enc(value, shared)
            members[key] = value
    return "".join(_document(sorted(members.items()), shared))


def _document(members, shared):
    yield "{\n"
    for n, (key, value) in enumerate(members, 1):
        end = ",\n" if n < len(members) else "\n"
        if value and isinstance(value, dict):
            yield f"  {_line(key)}: {{\n"
            yield ",\n".join(f"    {_line(k)}: {_value(v, '    ')}"
                             for k, v in sorted(value.items()))
            yield "\n  }" + end
        elif value and isinstance(value, list):
            yield f"  {_line(key)}: [\n"
            for i, item in enumerate(value, 1):
                if dataclasses.is_dataclass(item):
                    item = encode(item, shared)
                yield "    " + _value(item, "    ") + (",\n" if i < len(value) else "\n")
            yield "  ]" + end
        else:
            yield f"  {_line(key)}: {_line(value)}" + end
    yield "}\n"


def _value(data, pad) -> str:
    """``data`` as one line, but for the arrays of objects an object holds."""
    if type(data) is not dict:
        return _line(data)
    blocks = sorted(k for k, v in data.items()
                    if type(v) is list and v and type(v[0]) is dict)
    if not blocks:
        return _line(data)
    inner = pad + "  "
    head = _line({k: v for k, v in data.items() if k not in blocks})[:-1]
    tails = [f"{_line(k)}: [\n"
             + ",\n".join(inner + _value(item, inner) for item in data[k])
             + f"\n{pad}]" for k in blocks]
    return head + (", " if len(head) > 1 else "") + ", ".join(tails) + "}"


def _parse_clark(text: str) -> QName:
    if text.startswith("{"):
        ns, _, local = text[1:].partition("}")
        return QName(ns, local)
    return QName("", text)


def _text_form(write, read):
    return (lambda v, _shared: write(v)), (lambda d, _shared: read(d))


_TEXT_FORMS = {
    QName: _text_form(str, _parse_clark),
    ParticlePath: _text_form(ParticlePath.render, ParticlePath.parse),
}


def _same(value, _shared):
    return value


@cache
def _converters(tp):
    """``(encode, decode)`` for annotation ``tp``; None means unchanged.

    Each takes the value and the ``shared`` argument of :func:`encode` or
    :func:`decode`.
    """
    if tp in (str, int, float, bool):
        return None, None
    if tp in _TEXT_FORMS:
        return _TEXT_FORMS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _text_form(lambda v: v.value, tp)
    if dataclasses.is_dataclass(tp):
        return _object_converters(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):
        enc, dec = _converters(args[0])
        if enc is None:
            return None, None
        return ((lambda v, s: None if v is None else enc(v, s)),
                (lambda d, s: None if d is None else dec(d, s)))
    if origin in (list, tuple, set):
        assert origin is not tuple or args[1:] == (Ellipsis,), f"{tp!r}: use tuple[X, ...]"
        enc, dec = _converters(args[0])
        write = sorted if origin is set else list
        if enc is None:
            return (lambda v, _s: write(v)), (lambda d, _s: origin(d))
        return ((lambda v, s: write([enc(x, s) for x in v])),
                (lambda d, s: origin([dec(x, s) for x in d])))
    if origin is dict:
        kenc, kdec, venc, vdec = (c or _same for c in (*_converters(args[0]),
                                                       *_converters(args[1])))
        return ((lambda v, s: {kenc(k, s): venc(x, s) for k, x in v.items()}),
                (lambda d, s: {kdec(k, s): vdec(x, s) for k, x in d.items()}))
    raise TypeError(f"no JSON mapping for {tp!r}")


def _shared_index(value, shared):
    return shared[id(value)] if value else None


def _shared_value(index, shared):
    return () if index is None else shared[index]


@cache
def _fields(cls) -> tuple:
    """``(attribute, key, encode, decode)`` of each field of ``cls`` the mapping writes."""
    hints = typing.get_type_hints(cls)
    rows = []
    for f in dataclasses.fields(cls):
        mapped = f.metadata.get("json", True)
        if mapped:
            head, *rest = f.name.split("_")
            convs = ((_shared_index, _shared_value) if mapped == "shared"
                     else _converters(hints[f.name]))
            rows.append((f.name, head + "".join(w[:1].upper() + w[1:] for w in rest), *convs))
    return tuple(rows)


def _object_converters(cls):
    rows = _fields(cls)

    def encode(obj, shared):
        out = {}
        for attr, key, enc, _dec in rows:
            value = getattr(obj, attr)
            out[key] = value if enc is None else enc(value, shared)
        return out

    def decode(data, shared):
        return cls(**{attr: data[key] if dec is None else dec(data[key], shared)
                      for attr, key, _enc, dec in rows})

    return encode, decode
