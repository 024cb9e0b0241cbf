"""JSON mapping of the binding IR and the reports, read from dataclass annotations.

A dataclass maps to an object keyed by its field names in camelCase.  Each
value follows its field's annotation: ``QName`` in Clark notation
(``{namespace}local``), ``ParticlePath`` through ``render``/``parse``,
enums by value, lists and tuples as arrays, sets as sorted arrays, dicts as
objects whose keys convert like values, and nested dataclasses as objects.
A field holding None is null.  A field whose metadata is :data:`SKIP`
is bookkeeping: it is never written and keeps its default when read.  Each
type's converters are built once, on first use.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from enum import Enum
from functools import cache

from .model import ParticlePath, QName

SKIP = {"json": False}  # metadata of a field the mapping leaves out


def encode(obj):
    """JSON data of a dataclass instance."""
    return _converters(type(obj))[0](obj)


def dumps(data) -> str:
    """The text of every JSON file slimbind writes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def loads(cls, text: str):
    """The ``cls`` instance whose :func:`encode` gives the JSON ``text``."""
    return _converters(cls)[1](json.loads(text))


def _parse_clark(text: str) -> QName:
    if text.startswith("{"):
        ns, _, local = text[1:].partition("}")
        return QName(ns, local)
    return QName("", text)


_TEXT_FORMS = {
    QName: (str, _parse_clark),
    ParticlePath: (ParticlePath.render, ParticlePath.parse),
}


def _same(value):
    return value


@cache
def _converters(tp):
    """``(encode, decode)`` for annotation ``tp``; None means unchanged."""
    if tp in (str, int, float, bool):
        return None, None
    if tp in _TEXT_FORMS:
        return _TEXT_FORMS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda v: v.value), tp
    if dataclasses.is_dataclass(tp):
        return _object_converters(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):
        return _converters(args[0])  # a field's null passes unchanged
    if origin in (list, tuple, set):
        assert origin is not tuple or args[1:] == (Ellipsis,), f"{tp!r}: use tuple[X, ...]"
        enc, dec = _converters(args[0])
        if origin is set:
            write = sorted if enc is None else (lambda v: sorted(map(enc, v)))
        else:
            write = list if enc is None else (lambda v: list(map(enc, v)))
        return write, (origin if dec is None else (lambda d: origin(map(dec, d))))
    if origin is dict:
        kenc, kdec, venc, vdec = (c or _same for c in (*_converters(args[0]),
                                                       *_converters(args[1])))
        return ((lambda v: {kenc(k): venc(x) for k, x in v.items()}),
                (lambda d: {kdec(k): vdec(x) for k, x in d.items()}))
    raise TypeError(f"no JSON mapping for {tp!r}")


def _object_converters(cls):
    hints = typing.get_type_hints(cls)
    rows = []  # (attribute, key, encode, decode) of each mapped field
    for f in dataclasses.fields(cls):
        if f.metadata.get("json", True):
            head, *rest = f.name.split("_")
            rows.append((f.name, head + "".join(w[:1].upper() + w[1:] for w in rest),
                         *_converters(hints[f.name])))

    def encode(obj):
        out = {}
        for attr, key, enc, _dec in rows:
            value = getattr(obj, attr)
            out[key] = value if enc is None or value is None else enc(value)
        return out

    def decode(data):
        return cls(**{attr: data[key] if dec is None or data[key] is None
                      else dec(data[key]) for attr, key, _enc, dec in rows})

    return encode, decode
