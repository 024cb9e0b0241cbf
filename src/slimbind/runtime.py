"""Namespace-aware XML reading over expat, and the tolerance policy.

Every reader shares one expat set-up, ``_ExpatSource``, which enforces XML
1.0 plus Namespaces: expat normalizes line ends and attribute whitespace,
and decodes byte input by its BOM or declared encoding.

* Generated parsers bind records straight from expat's callbacks
  (:func:`parse_root`), on expat's own names: no event and no QName is
  built between expat and the record.  The corpus analyzer reads its
  documents the same way.
* :class:`ParseContext` is a pull interface over the same callbacks, for
  code that wants events.  It coalesces text into one TEXT event across
  comments, processing instructions and CDATA sections.
* :func:`read_tree` builds a whole tree in the callbacks, for the schema
  loader.

:func:`xsi_type_name` is the one reader of ``xsi:type`` values, for the
generated parsers and the analyzer alike.

The DTD never changes what a reader sees.  Entity declarations, attribute
defaults, and documents that need an external subset or parameter
entities (unless ``standalone="yes"``) are refused, so nothing beyond the
five built-in entities and character references is ever expanded.

The module also holds all the parsing code generated packages use.  A
generated package writes each of its tables as one string, a line per
entry: each distinct field row once in its ``_ROWS`` table, one line per
record class in ``_CLASSES``, and its dispatch tables.  A line names a
namespace by its index into the package's ``_NS`` table, and a row
leaves out a slot named like its key.  Once the package has defined
every table it makes one call, :func:`bind_parsers`, which makes the
record classes, binds them and returns ``parse_document``.  A record
class is its own parser: it holds its field rows as indices into
``_ROWS``, expanded into lookup tables on the class, keyed by expat's names.
Value conversion, ``xsi:nil`` and ``xsi:type`` handling and table dispatch
live here too, so packages carry no copies.
"""

from __future__ import annotations

import codecs
import re
import sys
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Optional
from xml.parsers import expat

from .errors import (
    BadSimpleValueError,
    MalformedXmlError,
    MissingRequiredError,
    UnexpectedTextError,
    UnknownElementError,
)
from .model import QName, XML_NAMESPACE, XSI_NAMESPACE


class EventKind(Enum):
    START_ELEMENT = "start"
    TEXT = "text"
    END_ELEMENT = "end"
    END_DOCUMENT = "end-document"


@dataclass(slots=True)
class XmlEvent:
    kind: EventKind
    name: Optional[QName] = None
    attributes: tuple = ()  # of (QName, str)
    text: str = ""
    line: int = 0
    col: int = 0

    def attr(self, namespace: str, local: str) -> Optional[str]:
        for qn, value in self.attributes:
            if qn.local == local and qn.namespace == namespace:
                return value
        return None


class Violation(Enum):
    UNKNOWN_ELEMENT = "UNKNOWN_ELEMENT"
    MISSING_REQUIRED = "MISSING_REQUIRED"
    BAD_SIMPLE_VALUE = "BAD_SIMPLE_VALUE"
    UNEXPECTED_TEXT = "UNEXPECTED_TEXT"


# Each strict error's code names its violation.
_STRICT_ERROR = {Violation(error.code): error for error in (
    UnknownElementError, MissingRequiredError, BadSimpleValueError, UnexpectedTextError)}


@dataclass
class ParseWarning:
    line: int
    col: int
    code: str
    message: str
    source: str = "<input>"

    def format(self) -> str:
        return f"WARN {self.source}:{self.line}:{self.col} {self.code} {self.message}"


class _Tolerance:
    """The tolerance policy of one parse: strict raises, lenient warns."""

    def __init__(self, mode, source_name):
        if mode not in ("strict", "lenient"):
            raise ValueError(f"mode must be strict or lenient, got {mode!r}")
        self.mode = mode
        self.source_name = source_name
        self.warnings: list = []

    def violation(self, kind: Violation, message: str, line=None, col=None):
        """Apply the tolerance policy for one validation violation.

        Without a position it is reported where the reader stands.
        """
        if line is None:
            line, col = self._position()
        if self.mode == "strict":
            raise _STRICT_ERROR[kind](message, line=line, col=col, source=self.source_name)
        self.warnings.append(ParseWarning(line or 0, col or 0, kind.value, message,
                                          self.source_name))


_CHUNK = 1 << 16  # bytes handed to expat per Parse call by chunked readers
_XML_SPACE = " \t\r\n"  # XML's whitespace (the S production); str.strip() takes more
_XML_SCOPE = {"xml": XML_NAMESPACE}
# The namespace-declaration handlers come last: a source not asked to keep
# the scope installs none of them.
_HANDLERS = ("StartElementHandler", "EndElementHandler", "CharacterDataHandler",
             "StartCdataSectionHandler", "EntityDeclHandler", "AttlistDeclHandler",
             "SkippedEntityHandler", "NotStandaloneHandler", "StartNamespaceDeclHandler",
             "EndNamespaceDeclHandler")
_START = EventKind.START_ELEMENT
_TEXT = EventKind.TEXT
_END = EventKind.END_ELEMENT


def expat_name(namespace, local):
    """The name expat reports for ``local`` in ``namespace``.

    That is ``"namespace local"``, or ``"local"`` in no namespace.  A local
    name holds no space, so :func:`_split` reads the two parts back.
    """
    return f"{namespace} {local}" if namespace else local


def _split(name):
    """``(namespace, local)`` of an expat name."""
    namespace, _, local = name.rpartition(" ")
    return namespace, local


def _qname(name):
    """The QName of an expat name."""
    return QName(*_split(name))


class _QNames(dict):
    """Expat name to QName, built once each."""

    def __missing__(self, raw):
        qn = self[raw] = _qname(raw)
        return qn


# Leading bytes that fix the encoding: (signature, expat name, bytes of BOM).
_SIGNATURES = (
    (codecs.BOM_UTF8, "UTF-8", 3),
    (codecs.BOM_UTF16_LE, "UTF-16LE", 2),
    (codecs.BOM_UTF16_BE, "UTF-16BE", 2),
    (b"<\x00", "UTF-16LE", 0),
    (b"\x00<", "UTF-16BE", 0),
)


def _expat_input(source):
    """Bytes to feed expat and their encoding, or None to let expat read it.

    A BOM is stripped because expat would count it as a column of line 1.
    """
    if isinstance(source, str):
        return source.encode("utf-8").removeprefix(codecs.BOM_UTF8), "UTF-8"
    data = bytes(source)
    for signature, encoding, bom in _SIGNATURES:
        if data.startswith(signature):
            return data[bom:], encoding
    return data, None


class _ExpatSource:
    """One expat parser over one document, set up the way every reader needs.

    It refuses entity declarations, attribute defaults and documents that
    need an external subset or parameter entities, and decodes the source
    by its BOM or declared encoding.  Unless ``scoped`` is false it keeps
    the namespace scope: ``scopes[-1]`` is the prefix-to-URI dict in force
    at the element expat reports, never changed afterwards, so it may be
    kept.  Without it no namespace-declaration handler is installed and
    ``scopes`` is None.  ``start_element``,
    ``end``, ``characters`` and ``start_cdata`` are installed as expat's own
    handlers, so names are expat's: ``"uri local"``, or ``"local"`` in no
    namespace, and attributes a flat list ``[name, value, ...]`` in document
    order.
    """

    def __init__(self, source, source_name, start_element, end, characters,
                 start_cdata=None, scoped=True):
        try:
            self.data, self.encoding = _expat_input(source)
        except UnicodeEncodeError as exc:  # a str holding lone surrogates
            raise MalformedXmlError(f"unencodable input: {exc}", source=source_name)
        self.source_name = source_name
        self.parser = parser = expat.ParserCreate(self.encoding, " ")
        parser.ordered_attributes = True
        parser.specified_attributes = True
        parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_NEVER)

        def refuse(message):
            raise MalformedXmlError(message, line=parser.CurrentLineNumber,
                                    col=parser.CurrentColumnNumber + 1)

        def entity_decl(name, is_parameter, *_):
            refuse(f"entity declaration '{'%' if is_parameter else ''}{name}' refused: "
                   "entities are never expanded")

        def attlist_decl(element, attribute, _type, default, _required):
            if default is not None:
                refuse(f"default for attribute '{attribute}' of '{element}' refused: "
                       "the DTD may not add attributes")

        def skipped_entity(name, is_parameter):
            refuse(f"reference to undeclared entity '{name}'")

        handlers = (start_element, end, characters, start_cdata, entity_decl,
                    attlist_decl, skipped_entity,
                    lambda: 0)  # NotStandalone: refuse an external subset or PE refs
        self.scopes = None
        if scoped:
            # Expat reports an element's declarations just before its start and
            # ends them just after its end tag: one scope per declaration open.
            self.scopes = scopes = [_XML_SCOPE]

            def start_namespace(prefix, uri):
                scope = dict(scopes[-1])
                scope[prefix or ""] = uri or ""  # None stands for xmlns / xmlns=""
                scopes.append(scope)

            def end_namespace(_prefix):
                scopes.pop()

            handlers += (start_namespace, end_namespace)
        for name, handler in zip(_HANDLERS, handlers):
            setattr(parser, name, handler)

    def feed(self, at, stop) -> bool:
        """Parse ``data[at:stop]``; True when that was the end of the data.

        Expat's errors, and those of handlers, surface as
        :class:`MalformedXmlError` with the source name.  When parsing ends,
        by an error or at the end of the data, the handlers are unset: they
        refer to the parser, and the cycle would hold expat's buffers until
        the next garbage collection.
        """
        final = stop >= len(self.data)
        ended = True
        try:
            self.parser.Parse(self.data[at:stop], final)
            ended = final
        except expat.ExpatError as exc:
            message = expat.ErrorString(exc.code)
            if exc.code == expat.errors.codes[expat.errors.XML_ERROR_SYNTAX]:
                message = self._spaced_uri() or message
            raise MalformedXmlError(message, line=exc.lineno, col=exc.offset + 1,
                                    source=self.source_name) from None
        except MalformedXmlError as exc:  # refused, or raised by a reader's node
            if exc.source is None:
                exc.source = exc.info["source"] = self.source_name
            raise
        finally:
            if ended:
                for name in _HANDLERS:
                    setattr(self.parser, name, None)
        return final

    def _spaced_uri(self):
        """Why expat refused a start tag as a syntax error, if it binds a URI holding a space.

        Expat (2.4.5 on) refuses a namespace URI that holds its separator, a
        space here.  The data is read again without namespace processing.
        """
        at, parser = self.parser.ErrorByteIndex, expat.ParserCreate(self.encoding)

        def start(_name, attrs):
            spaced = [uri for name, uri in attrs.items()
                      if " " in uri and name.partition(":")[0] == "xmlns"]
            if spaced and parser.CurrentByteIndex == at:
                raise MalformedXmlError(f"namespace URI '{spaced[0]}' holds a space, the "
                                        "separator expat puts between a namespace and "
                                        "a local name")

        parser.StartElementHandler = start
        try:
            parser.Parse(self.data, True)
        except MalformedXmlError as exc:
            return exc.args[0]
        except expat.ExpatError:
            return None


class _QNameSource(_ExpatSource):
    """An expat source for readers that take names as QNames.

    Each element's start goes to ``start(name, attributes, scope, line,
    col)``: its name, a tuple of ``(name, value)`` pairs, the scope in force
    at it and the position of its '<'.  ``names`` maps an expat name to its
    QName, built once each.
    """

    def __init__(self, source, source_name, start, end, characters, start_cdata=None):
        self.names = names = _QNames()

        def start_element(raw, attrs):
            if attrs:
                pairs = iter(attrs)
                attrs = tuple([(names[n], v) for n, v in zip(pairs, pairs)])
            else:
                attrs = ()
            start(names[raw], attrs, scopes[-1], parser.CurrentLineNumber,
                  parser.CurrentColumnNumber + 1)

        super().__init__(source, source_name, start_element, end, characters, start_cdata)
        parser, scopes = self.parser, self.scopes


class ParseContext(_Tolerance):
    """One streaming parse of one document; not shareable across threads.

    Expat pushes and callers pull: whenever the queue runs dry, one chunk of
    the source is fed to expat, whose callbacks append events to
    ``_events`` (and the namespace scope of each START to ``_scopes``).
    """

    def __init__(self, source, mode="strict", source_name="<input>"):
        super().__init__(mode, source_name)
        self._last_event: Optional[XmlEvent] = None
        self._ns_stack = [_XML_SCOPE]  # scopes of the open elements the caller has read
        self._events: deque = deque()
        self._scopes: deque = deque()
        self._offset = 0
        self._failure = None  # (class, message, info) of the error that ended the input
        self._done = False
        self._source = self._open(source)

    # ------------------------------------------------------------ event stream

    def next_event(self) -> XmlEvent:
        events = self._events
        if not events:
            self._fill()
        ev = events.popleft()
        self._last_event = ev
        if ev.kind is _START:
            self._ns_stack.append(self._scopes.popleft())
        elif ev.kind is _END:
            self._ns_stack.pop()
        return ev

    def skip_subtree(self) -> int:
        """Consume events through the END matching the current START.

        Returns the number of elements skipped, including the subtree root.
        Builds no objects.
        """
        last = self._last_event
        if last is None or last.kind is not _START:
            raise MalformedXmlError("skip_subtree requires a current START_ELEMENT",
                                    source=self.source_name)
        count = 1
        depth = 1
        while depth:
            kind = self.next_event().kind
            if kind is _START:
                count += 1
                depth += 1
            elif kind is _END:
                depth -= 1
        return count

    # ------------------------------------------------------------ tolerance

    def _position(self):
        last = self._last_event
        return (None, None) if last is None else (last.line, last.col)

    def active_namespaces(self) -> dict:
        """Prefix-to-URI bindings in scope at the element the caller is in."""
        return dict(self._ns_stack[-1])

    # ------------------------------------------------------------ internals

    def _fill(self):
        """Feed expat chunks until an event is queued; errors wait their turn.

        The error that ends the input is kept as its parts and raised anew
        each time, so no traceback refers back to this context.
        """
        events = self._events
        while not events:
            if self._failure is not None:
                error, message, info = self._failure
                raise error(message, **info)
            if self._done:
                raise MalformedXmlError("read past END_DOCUMENT", source=self.source_name)
            at = self._offset
            self._offset = at + _CHUNK
            try:
                self._done = self._source.feed(at, self._offset)
            except MalformedXmlError as exc:
                self._failure = type(exc), exc.args[0], exc.info
                continue
            if self._done:
                parser = self._source.parser
                events.append(XmlEvent(EventKind.END_DOCUMENT,
                                       line=parser.CurrentLineNumber,
                                       col=parser.CurrentColumnNumber + 1))

    def _open(self, source):
        """The expat source whose callbacks queue this context's events."""
        events = self._events
        append = events.append
        add_scope = self._scopes.append
        text = []
        text_line = text_col = 0

        def flush_text():
            append(XmlEvent(_TEXT, None, (), "".join(text), text_line, text_col))
            text.clear()

        def start(name, attributes, scope, line, col):
            if text:
                flush_text()
            add_scope(scope)
            append(XmlEvent(_START, name, attributes, "", line, col))

        def end(raw):
            if text:
                flush_text()
            if events and events[-1].kind is _START:
                # Content-free: an empty-element tag's END shares its START position.
                at = parser.CurrentByteIndex
                if data[at - len(close):at] == close:
                    opened = events[-1]
                    append(XmlEvent(_END, opened.name, (), "", opened.line, opened.col))
                    return
            append(XmlEvent(_END, names[raw], (), "", parser.CurrentLineNumber,
                            parser.CurrentColumnNumber + 1))

        def characters(chunk):
            nonlocal text_line, text_col
            if not text:
                text_line = parser.CurrentLineNumber
                text_col = parser.CurrentColumnNumber + 1
            text.append(chunk)

        def start_cdata():
            if not text:
                characters("")  # a run that opens with CDATA starts at '<![CDATA['

        expat_source = _QNameSource(source, self.source_name, start, end, characters,
                                    start_cdata)
        parser, data, names = expat_source.parser, expat_source.data, expat_source.names
        close = "/>".encode(expat_source.encoding or "ascii")
        return expat_source


# ---------------------------------------------------------------- document trees

def read_tree(source, source_name, node_class):
    """Root of a document's element tree, built straight from expat's callbacks.

    ``node_class(name, attributes, scope, line, col)`` makes the node of
    one element from what its START event would carry, with a false
    ``children`` and ``has_text``.  The reader gives a node a ``children``
    list at its first child, so a leaf keeps the value it was made with,
    and sets ``has_text`` when the element directly holds non-whitespace
    text.  A :class:`MalformedXmlError` that ``node_class`` raises gets the
    source name.  The input is checked as :class:`ParseContext` checks it.
    """
    document = _Document()
    open_nodes = [document]
    push, pop = open_nodes.append, open_nodes.pop

    def start(name, attributes, scope, line, col):
        node = node_class(name, attributes, scope, line, col)
        parent = open_nodes[-1]
        kids = parent.children
        if kids:
            kids.append(node)
        else:
            parent.children = [node]
        push(node)

    def end(_raw):
        pop()

    def characters(chunk):
        if chunk.strip(_XML_SPACE):
            open_nodes[-1].has_text = True

    expat_source = _QNameSource(source, source_name, start, end, characters)
    expat_source.feed(0, len(expat_source.data))
    return document.children[0]


class _Document:
    """Holds the root while :func:`read_tree` reads; expat reports no text here."""

    __slots__ = ("children",)

    def __init__(self):
        self.children = ()


# ---------------------------------------------------------------- generated-code support
#
# Generated parser packages call these instead of carrying copies.  Every
# name a package matches on is spelt as expat reports it (see
# :func:`expat_name`), so :func:`parse_root` looks up expat's own strings.
# A dispatch table maps an element's expat name to a target
# ``(cls, conv, by_type)``: ``cls`` is the element's :class:`Record` class,
# or None for simple content read with ``conv``; ``by_type``, when not
# None, maps the expat name of an ``xsi:type`` to the target that overrides
# this one.
#
# A generated package holds the tuple ``_NS`` of the namespaces it names,
# and each of its tables as one packed string: ``_ROWS``, the field rows,
# each distinct row once in order of first use; ``_CLASSES``, one line per
# class, a base before the classes derived from it; the dispatch tables
# ``_D0``, ``_D1``, ...; and the root table ``_ROOTS``.  A packed table has
# one line per entry, each ended by a newline, and the items of a line are
# joined by ``|``, which no name, occurs mark or index holds.  A line
# writes a name in a namespace as ``"<index into _NS> <local>"`` and a
# name in none as ``"local"``: a namespace may hold any character, so only
# ``_NS`` spells one.
#
# A ``_CLASSES`` line is ``name|base|rows``: ``name`` is an ASCII identifier
# starting with a capital, as the binder names classes, so it takes no name
# the package binds otherwise; ``base`` names an earlier line, or is empty;
# and ``rows`` holds the space-separated indices into ``_ROWS`` of the
# class's rows, one per field it parses, in field order.  A class's rows
# cover its base's fields first, so :func:`bind_parsers` gives it the slots
# of the rows after its base's, and ``_rows``, a tuple of ints.  A flattened
# class shares its base's rows, and a shared element's row serves every
# class holding it.  For example ``CartType||0 1 2``.
#
# A dispatch line is ``key|class|conversion|xsi:type table``, empty items
# meaning None and trailing empty items left out; :func:`bind_parsers`
# builds each table's dict once.  For example ``0 card|PayType``.
#
# A row's items are ``key``, ``slot``, ``occurs``, ``read`` and
# ``target``, an empty item meaning None; :func:`_split_row` expands its
# names to expat names.  For example ``0 sku||*|simple|string``, with
# ``_NS[0]`` the namespace of ``sku``:
#
# * ``key`` -- the name of the element or attribute the field
#   matches; for a ``"dispatch"`` row, the name of its dispatch table, whose
#   keys are what it matches; None for the text row and for an ignored
#   dispatch field, but ``"*"`` for an ignored wildcard.  The row's ``read``
#   says which: a table name and a no-namespace element name may be the
#   same string.
# * ``slot`` -- the record attribute the value goes to; empty when it is
#   the local name of ``key``.
# * ``occurs`` -- ``"1"`` required, ``"?"`` optional, ``"*"`` a list.
# * ``read`` and ``target`` -- how the value is read:
#   ``"attribute"``, ``"simple"`` (text-only element) and ``"text"`` (the
#   element's own text) convert with the conversion ``target`` names (a key
#   of ``CONVERSIONS``); ``"mixed"`` joins the text of mixed content;
#   ``"class"`` parses the element as class ``target``; ``"dispatch"`` reads
#   it through the key's table, ``target`` being the field's element name,
#   or None for a wildcard;
#   ``"collapse"`` unwraps the inner elements: its ``target`` is the read
#   of the innermost element, ``"class"`` or ``"simple"``, and further
#   items follow, that read's target and then the names of the inner
#   elements in order; ``"ignore"`` skips the subtree and builds
#   nothing, ``target`` being None, or for a dispatch field the name of the
#   table whose keys it matches.
#
# The first row matching an element wins, but element fields take
# precedence over wildcards, so :func:`_bind` binds a class's wildcard rows
# after its others.  Unknown attributes are ignored.
#
# A package passes :func:`bind_parsers` the number of the format above it
# was written in; a change of the format bumps it.
PACKAGE_FORMAT = 2


class Record:
    """Base of every generated record class.

    A record class declares its own fields as ``__slots__`` and its field
    rows (see above) as ``_rows``.  :func:`bind_parsers` makes it from the
    package's ``_CLASSES`` and sets the other attributes below on the
    class itself, from its rows and its base's fields, before the first
    record is made.
    """

    __slots__ = ()
    _rows = ()
    _fields = ()  # every slot in field order, base class fields first
    _lists = frozenset()  # the slots of the "*" rows
    # What parse_root reads of the class, once per record:
    # (presets, lists, attributes, elements, required, text).
    # * presets -- (slot, None or _ABSENT) for each slot that is not a list
    # * lists -- the list slots, each a fresh [] in a new record
    # * attributes -- expat name -> (slot, conversion, label)
    # * elements -- expat name -> action, for each child element (see _bind)
    # * required -- (slot, label), in row order: the field is reported as
    #   "missing required {label} in {class name}"
    # * text -- None, or (slot, conversion or None for mixed content, label)
    _binding = ((), (), {}, {}, (), None)

    def __init__(self, **values):
        """Every field not given is None, or a fresh ``[]`` for a list."""
        for name in self._fields:
            if name in values:
                setattr(self, name, values.pop(name))
            else:
                setattr(self, name, [] if name in self._lists else None)
        if values:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(values))!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __repr__(self):
        values = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({values})"

    def to_dict(self):
        """Nested dicts and lists of the field values, records included."""
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


# One line of _ROWS, of _CLASSES and of a dispatch table (see above); a
# collapse row's inner read, its target and its wrappers follow "collapse".
_ROW_LINE = re.compile(r"([^|]*)\|([^|]*)\|([1?*])\|((?:attribute|simple|text|mixed|class"
                       r"|dispatch|ignore)\|[^|]*|collapse\|(?:class|simple)(?:\|[^|]+){2,})")
_CLASS_LINE = re.compile(r"([A-Z][0-9A-Za-z_]*)\|([^|]*)\|([^|]*)")
_TABLE_LINE = re.compile(r"((?:[0-9]+ )?[^| ]+)(?:\|([^|]*)(?:\|([^|]*)(?:\|([^|]*))?)?)?")
_TABLE_NAME = re.compile(r"_D[0-9]+|_ROOTS")


def _table(names, name, what, kind=str):
    """The table ``name`` of a package; a missing one, or one not a ``kind``, is refused."""
    table = names.get(name)
    if isinstance(table, kind):
        return table
    raise _regenerate(f"has no {what} {name}" if table is None else
                      f"has a {what} {name} that is a {type(table).__name__}")


def _lines(names, name, what):
    """The lines of the packed table ``name``, the last ended by a newline too."""
    *lines, end = _table(names, name, what).split("\n")
    if end:
        raise _regenerate(f"has a line {end!r} of {name} with no line end")
    return lines


def bind_parsers(names, package_format=None):
    """Make and bind every record class of a generated package; returns its ``parse_document``.

    The package calls this once, after its last table, with its namespace
    and the :data:`PACKAGE_FORMAT` it was written in, so a line may name
    any class and recursive types need no cycle.  Every line of every
    table is checked, and each ``_ROWS`` line split once
    (:func:`_split_row`), before any class is made: a package in another
    format, or with a line that breaks its table's format or names what
    the package does not hold, is refused with an :class:`ImportError`
    that says to regenerate it.  Each ``_CLASSES`` line (see above)
    becomes a :class:`Record` subclass bound to its name in ``names``:
    derived from the class of its base's line, or from :class:`Record`,
    its ``__module__`` the package's, and its ``__slots__`` the slots of
    its rows after as many as its base has.  The package's tables are
    read, never changed.  Namespace declarations are tracked in a parse
    only when some dispatch table, ``_ROOTS`` included, has an
    ``xsi:type`` table, for nothing else reads them.
    """
    if package_format != PACKAGE_FORMAT:
        raise _regenerate(f"is in package format {package_format!r}, "
                          f"but this runtime reads format {PACKAGE_FORMAT}")
    namespaces = _table(names, "_NS", "namespace table", tuple)
    table = _lines(names, "_ROWS", "row table")
    rows = [_split_row(row, namespaces) for row in table]
    entries = {}  # class name -> (base, indices)
    for line in _lines(names, "_CLASSES", "class table"):
        match = _CLASS_LINE.fullmatch(line)
        if match is None:
            raise _regenerate(f"has a class line {line!r} that is not name|base|rows")
        name, base, text = match.groups()
        tokens = text.split(" ") if text else ()
        digits = text.isascii() and all(map(str.isdigit, tokens))
        indices = tuple(map(int, tokens)) if digits else None
        if indices is None or indices and max(indices) >= len(rows):
            bad = next(token for token in tokens if not (
                token.isascii() and token.isdigit() and int(token) < len(rows)))
            raise _regenerate(f"has a field row {bad!r} in {name} that is not an index into _ROWS")
        if name in entries:
            raise _regenerate(f"has a class line {line!r} whose name is taken")
        if base and base not in entries:
            raise _regenerate(f"has a class {name} whose base {base!r} "
                              "is not an earlier entry of _CLASSES")
        entries[name] = base, indices
    _table(names, "_ROOTS", "root table")
    targets = _Targets(names, {name: name for name in entries}, namespaces)
    reads = [targets.read(row, line) for row, line in zip(rows, table)]
    for name in targets.packed:
        targets.table(name, "", "")
    module, classes = names["__name__"], {}
    for name, (base, indices) in entries.items():
        parent = classes[base] if base else Record
        names[name] = classes[name] = type(name, (parent,), {
            "__module__": module, "_rows": indices,
            "__slots__": tuple([rows[index][1] for index in indices[len(parent._rows):]])})
    targets.resolve(classes)
    last = {index for index, row in enumerate(rows) if _binds_last(row)}
    for cls in classes.values():
        _bind(cls, rows, reads, last)
    roots, scoped = targets.tables["_ROOTS"], targets.typed

    def parse_document(source, mode="strict", source_name="<input>"):
        """Parse one document; returns (typed object, warnings)."""
        return parse_root(roots, source, mode, source_name, scoped)

    parse_document.__module__, parse_document.__qualname__ = module, "parse_document"
    return parse_document


def _regenerate(what):
    return ImportError(f"this parser package {what}; regenerate it with 'slimbind generate'")


class _Targets:
    """What the lines of one package name: its classes, conversions and tables.

    Each dispatch table's dict is built at its first use, so a table may
    name a table defined after it.  A lookup that fails names the ``line``
    of the table ``where`` that asked for it.  ``classes`` maps each class
    name to what a target holds for it: its name, until :meth:`resolve`
    puts the class made for it in its place.  ``typed`` tells whether a
    table built so far names an ``xsi:type`` table.
    """

    def __init__(self, names, classes, namespaces):
        self.classes, self.namespaces = classes, namespaces
        self.packed = {name: names[name] for name in names if _TABLE_NAME.fullmatch(name)}
        self.tables = {}  # each table by name; a class field's own by (key, class)
        self.typed = False

    def read(self, row, line):
        """What :func:`_bind` reads the value of a split ``_ROWS`` line with.

        The conversion of an attribute or the element's own text; the keys
        an ignored field matches; the table a dispatch field reads through;
        or the one-entry table of any other element's target.
        """
        key, _slot, _occurs, read, target = row[:5]
        if read == "mixed":
            return None
        if read in ("text", "attribute"):
            return _known(CONVERSIONS, "conversion", target, line, "_ROWS")
        if read == "ignore":
            return self.table(target, line, "_ROWS") if target else (key,)
        if read == "dispatch":
            return self.table(key, line, "_ROWS")
        if read == "class":
            return self.tables.setdefault((key, target), {
                key: (_known(self.classes, "class", target, line, "_ROWS"), None, None)})
        return {key: (None, _known(CONVERSIONS, "conversion", target, line, "_ROWS"), None)}

    def table(self, name, line, where):
        """The dict of the dispatch table ``name``."""
        built = self.tables.get(name)
        if built is not None:
            return built
        _known(self.packed, "table", name, line, where)
        built = self.tables[name] = {}
        for entry in _lines(self.packed, name, "dispatch table"):
            match = _TABLE_LINE.fullmatch(entry)
            if match is None:
                raise _regenerate(f"has a line {entry!r} of {name} that is not "
                                  "key|class|conversion|xsi:type table")
            key, cls, conv, by_type = match.groups()
            if by_type:
                self.typed = True
            built.setdefault(_expand(key, self.namespaces, entry, name)[0], (
                _known(self.classes, "class", cls, entry, name) if cls else None,
                _known(CONVERSIONS, "conversion", conv, entry, name) if conv else None,
                self.table(by_type, entry, name) if by_type else None))
        return built

    def resolve(self, classes):
        """Put in each target the class of ``classes`` it names."""
        for targets in self.tables.values():
            for key, (cls, conv, by_type) in targets.items():
                if cls is not None:
                    targets[key] = classes[cls], conv, by_type


def _known(table, what, name, line, where):
    """``table[name]``; a name ``table`` does not hold is refused, naming the ``line``."""
    if name not in table:
        raise _regenerate(f"has a line {line!r} of {where} that names an unknown {what} {name!r}")
    return table[name]


def _split_row(row, namespaces):
    """``(key, slot, occurs, read, target, chain, required)`` of a ``_ROWS`` line.

    Names are expanded to expat names through ``namespaces``, the
    package's ``_NS``, and an empty slot to the local name of the key.  The
    slot name is interned: a split-out string is not, and ``setattr`` would
    look it up in the interned names on every record.  A collapse row reads
    as its inner read and target, ``chain`` holding the expat names of its
    wrappers; ``chain`` is None for every other row.  ``required`` is
    ``(slot, label)`` for a required field that is reported when missing,
    else None.
    """
    match = _ROW_LINE.fullmatch(row)
    if match is None:
        raise _regenerate(f"has a field row {row!r} that is not key|slot|occurs|read|target")
    key, slot, occurs, items = match.groups()
    read, target, *chain = items.split("|")
    key, local = _expand(key, namespaces, row)
    slot = sys.intern(slot or local)
    if not slot.isidentifier() or slot in vars(Record):
        raise _regenerate(f"has a field row {row!r} whose slot {slot!r} is not a field name")
    if read == "collapse":  # the inner read, its target, then the chain
        read, target, *chain = target, *chain
        chain = [_expand(name, namespaces, row)[0] for name in chain]
    if occurs != "1" or read in ("text", "mixed", "ignore"):
        required = None  # never reported missing
    elif read == "dispatch":
        required = (slot, f"element {target or 'matching xs:any'}")
    else:
        required = (slot, f"{'attribute' if read == 'attribute' else 'element'} {local}")
    return key, slot, occurs, read, target, tuple(chain) if chain else None, required


def _binds_last(row):
    """Whether a split row is a wildcard's, whose elements bind after the other rows'.

    That is a dispatch row with no element name, or an ignored row keyed ``"*"``.
    """
    read = row[3]
    return row[0] == "*" if read == "ignore" else read == "dispatch" and not row[4]


def _expand(name, namespaces, line, table="_ROWS"):
    """``(expat name, local name)`` of a name ``line`` writes as ``"<index into _NS> <local>"``.

    A name in no namespace is written ``"local"``.
    """
    index, space, local = name.partition(" ")
    if not space:
        return name, name
    if not (index.isascii() and index.isdigit() and int(index) < len(namespaces)):
        line = f"field row {line!r}" if table == "_ROWS" else f"line {line!r} of {table}"
        raise _regenerate(f"has a {line} whose namespace {index!r} is not an index into _NS")
    return expat_name(namespaces[int(index)], local), local


_ABSENT = object()  # a required slot's value until its field is read
_new = object.__new__  # makes every record; looked up per record, so a test can count them
_IGNORE = ()  # the action of an ignored field's element


def _bind(cls, rows, reads, last):
    """Set the attributes :class:`Record` declares on ``cls``, from its rows.

    ``rows`` holds the package's ``_ROWS`` split by :func:`_split_row`,
    and ``cls._rows`` indexes it; the rows whose indices are in ``last``
    bind after the class's others.  The base is bound first, so the
    class's ``_fields`` are the base's, then its own slots not among them.
    ``reads`` holds what each row reads its value with
    (:meth:`_Targets.read`).  A child element's action is ``_IGNORE``, or
    ``(cls, conv, by_type, what, slot, many, chain)``: a dispatch target
    (see above), the label of its warnings, and where its value goes,
    appended to a list when ``many``.  ``chain``, when not None, holds the
    expat names of the collapsed wrappers the target's element sits in.
    """
    name = cls.__name__
    indices = cls._rows
    if not last.isdisjoint(indices):
        indices = sorted(indices, key=last.__contains__)
    elements, attributes, required, lists, text = {}, {}, [], set(), None
    for index in indices:
        key, slot, occurs, read, _target, chain, need = rows[index]
        found = reads[index]
        what = f"{name}.{slot}"
        many = occurs == "*"
        if many:
            lists.add(slot)
        if need is not None:
            required.append(need)
        if read in ("text", "mixed"):
            text = (slot, found, what)
        elif read == "attribute":
            attributes.setdefault(key, (slot, found, what))
        elif read == "ignore":
            # A dispatch field matches its table's keys, even when ignored.
            for k in found:
                elements.setdefault(k, _IGNORE)
        else:
            for k, t in found.items():
                elements.setdefault(k, (*t, what, slot, many, chain))
    cls._fields = fields = tuple(dict.fromkeys(cls.__base__._fields + cls.__slots__))
    absent = {slot for slot, _label in required}
    cls._lists = frozenset(lists)
    cls._binding = (
        tuple([(slot, _ABSENT if slot in absent else None)
               for slot in fields if slot not in lists]),
        tuple([slot for slot in fields if slot in lists]),
        attributes, elements, tuple(required), text)


class _Binding(_Tolerance):
    """What conversions see of one :func:`parse_root` parse.

    A violation with no position of its own is reported where
    ``position()`` says: at the START whose attributes are being
    converted, or else at the END being handled.  Both are read from the
    parser only then.  The document's value is stored in ``result``.
    """

    def __init__(self, mode, source_name):
        super().__init__(mode, source_name)
        self.position = None
        self.result = None

    def _position(self):
        return self.position()


class _Collapse:
    """One collapsed field being read: the wrapper names, the next one to open."""

    __slots__ = ("chain", "cls", "conv", "what", "next", "result")

    def __init__(self, chain, cls, conv, what):
        self.chain, self.cls, self.conv, self.what = chain, cls, conv, what
        self.next = 0
        self.result = None


class _Stop(Exception):
    """Ends a parse at an unknown document root; nothing after its START is read."""


_XSI_NIL = expat_name(XSI_NAMESPACE, "nil")
_XSI_TYPE = expat_name(XSI_NAMESPACE, "type")
_UNKNOWN = Violation.UNKNOWN_ELEMENT
_MISSING = Violation.MISSING_REQUIRED
_STRAY_TEXT = Violation.UNEXPECTED_TEXT
# The kinds of frame on parse_root's stack.
_RECORD, _SIMPLE, _COLLAPSED, _SKIPPED, _DOCUMENT = (
    "record", "simple", "collapsed", "skipped", "document")
_SKIP = (_SKIPPED,)  # the frame of each element of a skipped subtree


def _attribute(attrs, name):
    """The value of attribute ``name`` in expat's flat ``[name, value, ...]`` list."""
    for at in range(0, len(attrs), 2):
        if attrs[at] == name:
            return attrs[at + 1]
    return None


def _is_nil(attrs):
    return (_attribute(attrs, _XSI_NIL) or "").strip(_XML_SPACE) in ("true", "1")


def resolve_qname(value, scope):
    """``(namespace, local)`` of the QName ``value``, in documents and schemas alike.

    ``scope`` maps each declared prefix, ``""`` the default, to its namespace.
    An undeclared prefix raises :class:`KeyError`, and a value that is no QName
    (an empty part, as in ``:T``, a second colon, a space) :class:`ValueError`,
    each holding ``value`` stripped of XML whitespace.
    """
    value = value.strip(_XML_SPACE)
    prefix, colon, local = value.partition(":")
    if not colon:
        prefix, local = "", value
    elif prefix and prefix not in scope:
        raise KeyError(value)
    if local and (prefix or not colon) and ":" not in local and local.split() == [local]:
        return scope.get(prefix, ""), local
    raise ValueError(value)


def xsi_type_name(value, scope, line, col):
    """The expat name of the type an ``xsi:type`` attribute value names.

    ``scope`` is the namespace scope in force at the element and
    ``line``, ``col`` the position of its '<'.  A value whose prefix is not
    declared there, or that is not a QName (see :func:`resolve_qname`), is
    malformed at the element in either mode.
    """
    try:
        return expat_name(*resolve_qname(value, scope))
    except KeyError as undeclared:
        message = f"xsi:type uses undeclared prefix '{undeclared.args[0].partition(':')[0]}'"
    except ValueError as malformed:
        message = f"xsi:type '{malformed}' is not a QName"
    raise MalformedXmlError(message, line=line, col=col)


def parse_root(roots, source, mode="strict", source_name="<input>", scoped=True):
    """Parse one document through the root table ``roots``; (object, warnings).

    Records are bound in expat's callbacks, on expat's own names: the
    tables are keyed by them (see above), and a QName is built only for a
    warning.  ``stack`` holds a frame per open element, and each frame's
    value goes to ``slot`` of ``owner`` when its element ends, appended to
    a list when ``many``:

    * ``(_RECORD, elements, record, text parts or None, owner, slot, many,
      binding)``, ``binding`` being the ``_binding`` of the record's class,
      read once at its START, and ``elements`` its element table
    * ``(_SIMPLE, conv, what, nil, parts, owner, slot, many)``, ``parts``
      being the text chunks read before an unexpected child, or None
    * ``(_COLLAPSED, state, owner, slot, many)``: pushed for the field's
      element and again for each wrapper, whose content is the field's.
    * ``_SKIP`` for each element of a skipped subtree, ``_DOCUMENT`` below
      the root.

    Text is gathered in ``text`` and handed to the open frame at the next
    START or END, so a run spans comments, processing instructions and
    CDATA sections, and is reported at its first chunk, as a TEXT event of
    :class:`ParseContext` would be.  A START is reported at its '<'; an END
    at the parser's position, or at its START's for an empty-element tag
    (:func:`_empty_tag_start`).  Positions are read from the parser only
    for a violation, but a text run's where it may be reported, that is
    outside a ``_SIMPLE`` frame.

    The namespace scope is read only where an ``xsi:type`` table applies,
    and kept only when ``scoped`` is true: :func:`bind_parsers` passes
    whether ``roots`` or any table it reaches has an ``xsi:type`` table.
    """
    ctx = _Binding(mode, source_name)
    stack = [(_DOCUMENT,)]
    push, pop = stack.append, stack.pop
    text = []
    text_line = text_col = 0
    fresh = False  # nothing since the START of the element now open

    def flush(frame):
        """Hand the text run gathered since the last START or END to ``frame``."""
        nonlocal fresh
        fresh = False
        kind = frame[0]
        if kind is _RECORD:
            if frame[3] is not None:
                frame[3].extend(text)
            elif "".join(text).strip(_XML_SPACE):
                ctx.violation(_STRAY_TEXT, f"unexpected text in {type(frame[2]).__name__}",
                              text_line, text_col)
        elif kind is _SIMPLE:  # before a child: the open frame keeps the text so far
            if frame[4] is None:
                stack[-1] = (*frame[:4], text[:], *frame[5:])
            else:
                frame[4].extend(text)
        elif kind is _COLLAPSED and "".join(text).strip(_XML_SPACE):
            ctx.violation(_STRAY_TEXT, f"unexpected text in {frame[1].what}",
                          text_line, text_col)
        text.clear()

    def start(name, attrs):
        nonlocal fresh
        frame = stack[-1]
        if text:
            flush(frame)
        kind = frame[0]
        if kind is _SKIPPED:
            push(_SKIP)
            return
        fresh = True
        if kind is _RECORD:
            action = frame[1].get(name)
            if not action:
                if action is None:
                    ctx.violation(_UNKNOWN, f"unexpected element {_qname(name)} in "
                                  f"{type(frame[2]).__name__}", *here())
                push(_SKIP)
                return
            cls, conv, by_type, what, slot, many, chain = action
            owner = frame[2]
            if chain is not None:
                push((_COLLAPSED, _Collapse(chain, cls, conv, what), owner, slot, many))
                return
        elif kind is _SIMPLE:
            ctx.violation(_UNKNOWN, f"unexpected element {_qname(name)} in {frame[2]}",
                          *here())
            push(_SKIP)
            return
        elif kind is _COLLAPSED:
            state = frame[1]
            chain = state.chain
            at = state.next
            if at >= len(chain) or name != chain[at]:
                ctx.violation(_UNKNOWN, f"unexpected element {_qname(name)} in {state.what}",
                              *here())
                state.next = len(chain)
                push(_SKIP)
                return
            state.next = at + 1
            if at + 1 < len(chain):
                push(frame)
                return
            cls, conv, by_type, what = state.cls, state.conv, None, state.what
            owner, slot, many = state, "result", False
        else:
            target = roots.get(name)
            if target is None:
                ctx.violation(_UNKNOWN, f"unknown document root {_qname(name)}", *here())
                raise _Stop
            cls, conv, by_type = target
            what, owner, slot, many = f"root {_split(name)[1]}", ctx, "result", False
        if by_type is not None:
            raw = _attribute(attrs, _XSI_TYPE)
            typed = None if raw is None else by_type.get(
                xsi_type_name(raw, scopes[-1], *here()))
            if typed is not None:
                cls, conv, _ = typed
        if cls is not None:
            # A C-level ``in`` first: few elements carry xsi:nil.
            if _XSI_NIL in attrs and _is_nil(attrs):
                if many:
                    getattr(owner, slot).append(None)
                else:
                    setattr(owner, slot, None)
                push(_SKIP)
                return
            binding = cls._binding
            presets, lists, fields, elements, _required, text_row = binding
            record = _new(cls)
            for slot_name, value in presets:
                setattr(record, slot_name, value)
            for slot_name in lists:
                setattr(record, slot_name, [])
            if attrs:
                ctx.position = here
                for at in range(0, len(attrs), 2):
                    field = fields.get(attrs[at])
                    if field is not None:
                        slot_name, conv, what = field
                        setattr(record, slot_name, conv(ctx, attrs[at + 1], what))
                ctx.position = end_position
            push((_RECORD, elements, record, None if text_row is None else [],
                  owner, slot, many, binding))
        elif conv is not None:
            push((_SIMPLE, conv, what, _XSI_NIL in attrs and _is_nil(attrs), None,
                  owner, slot, many))
        else:
            ctx.violation(_UNKNOWN, f"no dispatch match for {_qname(name)} in {what}",
                          *here())
            push(_SKIP)

    def end(_name):
        nonlocal fresh
        frame = pop()
        kind = frame[0]
        if kind is _SIMPLE:
            _, conv, what, nil, parts, owner, slot, many = frame
            if parts is not None:
                parts += text
                raw = "".join(parts)
            else:
                raw = "".join(text)
            if text:
                fresh = False
                text.clear()
            if nil:
                value = None
            elif conv is conv_string:
                value = raw
            else:
                value = conv(ctx, raw, what)
        else:
            if text:
                flush(frame)
            if kind is _RECORD:
                _, _, value, parts, owner, slot, many, binding = frame
                _presets, _lists, _attributes, _elements, required, text_row = binding
                for name, label in required:
                    if getattr(value, name) is _ABSENT:
                        setattr(value, name, None)
                        ctx.violation(_MISSING, f"missing required {label} "
                                      f"in {type(value).__name__}")
                if parts is not None:
                    name, conv, what = text_row
                    if conv is None:
                        setattr(value, name, "".join(parts) if parts else None)
                    else:
                        setattr(value, name, conv(ctx, "".join(parts), what))
            elif kind is _COLLAPSED:
                _, state, owner, slot, many = frame
                if state.next < len(state.chain):
                    ctx.violation(_MISSING, f"missing collapsed element "
                                  f"{_split(state.chain[state.next])[1]} in {state.what}")
                    state.next = len(state.chain)
                if stack[-1] is frame:  # a wrapper ended, not the field's element
                    fresh = False
                    return
                value = state.result
            else:  # skipped
                fresh = False
                return
        fresh = False
        if many:
            getattr(owner, slot).append(value)
        else:
            setattr(owner, slot, value)

    def characters(chunk):
        nonlocal text_line, text_col
        if not text and stack[-1][0] is not _SIMPLE:
            text_line = expat_parser.CurrentLineNumber
            text_col = expat_parser.CurrentColumnNumber + 1
        text.append(chunk)

    def start_cdata():
        if not text:
            characters("")  # a run that opens with CDATA starts at '<![CDATA['

    def here():
        """Where the parser stands: in a START handler, at the START's '<'."""
        return expat_parser.CurrentLineNumber, expat_parser.CurrentColumnNumber + 1

    def end_position():
        """Where the END being handled is reported."""
        line, col = expat_parser.CurrentLineNumber, expat_parser.CurrentColumnNumber
        if fresh:
            at = expat_parser.CurrentByteIndex
            close = "/>".encode(encoding or "ascii")
            if data[at - len(close):at] == close:
                return _empty_tag_start(data, encoding, at, line, col)
        return line, col + 1

    expat_source = _ExpatSource(source, source_name, start, end, characters, start_cdata,
                                scoped)
    expat_parser, data, scopes = expat_source.parser, expat_source.data, expat_source.scopes
    encoding = expat_source.encoding
    ctx.position = end_position
    try:
        expat_source.feed(0, len(data))
    except _Stop:
        return None, ctx.warnings
    return ctx.result, ctx.warnings


# The declared encoding of a document whose bytes expat reads without a BOM.
_DECLARED = re.compile(rb"<\?xml[^>]*?[ \t\r\n]encoding[ \t\r\n]*=[ \t\r\n]*[\"']([^\"']*)")
_LINE_WINDOW = 256  # bytes decoded first when looking back for a line break


def _empty_tag_start(data, encoding, at, line, col):
    """``(line, col)`` of the '<' of the empty-element tag whose END expat reports.

    Expat reports that END just past the tag's ``/>``, which is byte
    ``at`` of ``data``, at ``line`` and 0-based column ``col``; it counts
    columns in characters, and CRLF, a lone CR and LF each end one line.
    The tag holds no '<', so the last one before ``at`` opens it.  Only the
    tag is decoded, and, when it spans lines, the bytes before its '<' in
    windows of doubling size until one holds a line break, so never much
    more than the tag's first line.  ``encoding`` is the one the parser
    was made with; with None expat reads the declared encoding: UTF-8, or
    any other one byte per character, as pyexpat refuses multi-byte ones.
    """
    if encoding is None:
        declared = _DECLARED.match(data)
        utf8 = declared is None or declared.group(1).lower() == b"utf-8"
        encoding = "utf-8" if utf8 else "latin-1"
    opener = "<".encode(encoding)
    unit = len(opener)  # 2 in UTF-16, whose characters start at even bytes
    lt = data.rfind(opener, 0, at)
    while lt % unit:
        lt = data.rfind(opener, 0, lt + unit - 1)
    tag = data[lt:at].decode(encoding)
    breaks = tag.count("\n") + tag.count("\r") - tag.count("\r\n")
    if not breaks:
        return line, col - len(tag) + 1
    size = _LINE_WINDOW
    while True:
        begin = max(0, lt - size)
        # A window may cut a character at its start, never after its last line break.
        head = data[begin:lt].decode(encoding, "replace")
        after = max(head.rfind("\r"), head.rfind("\n"))
        if after >= 0 or not begin:
            return line - breaks, len(head) - after
        size *= 2


def conv_string(ctx, raw, what):
    return raw


# Numbers are read by the lexical rules of XSD 1.0 Part 2, not Python's:
# integer (3.3.13), decimal (3.2.3), double (3.2.5).  Python also takes
# "1_000", non-ASCII digits, "1e5" as a decimal and "inf" as a double.
_INTEGER = re.compile(r"[+-]?[0-9]+").fullmatch
# The spec's grouping has one way to match, so a long digit run that ends
# in a bad character fails in linear time.
_DECIMAL_LEXICAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_DECIMAL = re.compile(_DECIMAL_LEXICAL).fullmatch
_DOUBLE = re.compile(_DECIMAL_LEXICAL + r"(?:[Ee][+-]?[0-9]+)?|-?INF|NaN").fullmatch


def conv_integer(ctx, raw, what):
    s = raw.strip(_XML_SPACE)
    # ASCII digits alone, the common form, need no regex.
    if s.isdigit() and s.isascii() or _INTEGER(s):
        try:
            return int(s)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad integer {raw!r} in {what}")
    return None


def conv_decimal(ctx, raw, what):
    s = raw.strip(_XML_SPACE)
    if _DECIMAL(s):
        return Decimal(s)
    ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad decimal {raw!r} in {what}")
    return None


def conv_double(ctx, raw, what):
    s = raw.strip(_XML_SPACE)
    # ASCII digits with at most one '.' among them, the common form, need no regex.
    if s.isascii() and s.replace(".", "", 1).isdigit() or _DOUBLE(s):
        return float(s)
    ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad double {raw!r} in {what}")
    return None


def conv_boolean(ctx, raw, what):
    s = raw.strip(_XML_SPACE)
    if s in ("true", "1"):
        return True
    if s in ("false", "0"):
        return False
    ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad boolean {raw!r} in {what}")
    return None


CONVERSIONS = {
    "string": conv_string,
    "integer": conv_integer,
    "decimal": conv_decimal,
    "double": conv_double,
    "boolean": conv_boolean,
}
