"""Namespace-aware XML reading over expat, and the tolerance policy.

Three readers share one expat set-up, ``_ExpatSource``, which enforces XML
1.0 plus Namespaces: expat normalizes line ends and attribute whitespace,
and decodes byte input by its BOM or declared encoding.

* Generated parsers bind records straight from expat's callbacks
  (:func:`parse_root`): no event is built between expat and the record.
* :class:`ParseContext` is a pull interface over the same callbacks, for
  code that wants events.  It coalesces text into one TEXT event across
  comments, processing instructions and CDATA sections.
* The schema loader and the corpus analyzer need whole trees, so
  :func:`read_tree` builds them in the callbacks too.

The DTD never changes what a reader sees.  Entity declarations, attribute
defaults, and documents that need an external subset or parameter
entities (unless ``standalone="yes"``) are refused, so nothing beyond the
five built-in entities and character references is ever expanded.

The module also holds all the parsing code generated packages use.  A
generated class is data, field rows that :class:`RecordParser` turns into
lookup tables; :func:`bind_parsers` resolves the names the rows mention
once the package has defined them all.  Value conversion, ``xsi:nil`` and
``xsi:type`` handling and table dispatch live here too, so packages carry
no copies.
"""

from __future__ import annotations

import codecs
import re
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


_STRICT_ERROR = {
    Violation.UNKNOWN_ELEMENT: UnknownElementError,
    Violation.MISSING_REQUIRED: MissingRequiredError,
    Violation.BAD_SIMPLE_VALUE: BadSimpleValueError,
    Violation.UNEXPECTED_TEXT: UnexpectedTextError,
}


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


_CHUNK = 1 << 16  # bytes handed to expat per Parse call by ParseContext
_XML_SCOPE = {"xml": XML_NAMESPACE}
_HANDLERS = ("StartNamespaceDeclHandler", "EndNamespaceDeclHandler", "StartElementHandler",
             "EndElementHandler", "CharacterDataHandler", "StartCdataSectionHandler",
             "EntityDeclHandler", "AttlistDeclHandler", "SkippedEntityHandler",
             "NotStandaloneHandler")
_START = EventKind.START_ELEMENT
_TEXT = EventKind.TEXT
_END = EventKind.END_ELEMENT


class _QNames(dict):
    """Expat name (``"uri local"`` or ``"local"``) to QName, built once each."""

    def __missing__(self, raw):
        namespace, _, local = raw.rpartition(" ")
        qn = self[raw] = QName(namespace, local)
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
    need an external subset or parameter entities, decodes the source by
    its BOM or declared encoding, interns element and attribute names, and
    keeps the namespace scope.  Each element's start goes to ``start(name,
    attributes, scope, line, col)``: its name, a tuple of ``(name, value)``
    pairs, the prefix-to-URI dict in force at it (never changed afterwards,
    so it may be kept) and the position of its '<'.  A name is what
    ``names`` maps expat's name to, a QName unless the reader gives its own
    mapping.  ``end``, ``characters`` and ``start_cdata`` are installed as
    expat's own handlers.
    """

    def __init__(self, source, source_name, start, end, characters, start_cdata=None,
                 names=None):
        try:
            self.data, self.encoding = _expat_input(source)
        except UnicodeEncodeError as exc:  # a str holding lone surrogates
            raise MalformedXmlError(f"unencodable input: {exc}", source=source_name)
        self.source_name = source_name
        self.names = names = _QNames() if names is None else names
        self.parser = parser = expat.ParserCreate(self.encoding, " ")
        parser.ordered_attributes = True
        parser.specified_attributes = True
        parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_NEVER)
        scope = _XML_SCOPE
        declared = []
        outer = []  # the scope to restore, once per declaration still open

        def start_namespace(prefix, uri):
            declared.append((prefix or "", uri or ""))  # None stands for xmlns / xmlns=""

        def end_namespace(_prefix):
            # Expat ends an element's declarations right after its end tag.
            nonlocal scope
            scope = outer.pop()

        def start_element(raw, attrs):
            nonlocal scope
            if declared:
                outer.extend([scope] * len(declared))
                scope = dict(scope)
                scope.update(declared)
                declared.clear()
            if attrs:
                pairs = iter(attrs)
                attrs = tuple([(names[n], v) for n, v in zip(pairs, pairs)])
            else:
                attrs = ()
            start(names[raw], attrs, scope, parser.CurrentLineNumber,
                  parser.CurrentColumnNumber + 1)

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

        handlers = (start_namespace, end_namespace, start_element, end, characters,
                    start_cdata, entity_decl, attlist_decl, skipped_entity,
                    lambda: 0)  # NotStandalone: refuse an external subset or PE refs
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
            raise MalformedXmlError(expat.ErrorString(exc.code), line=exc.lineno,
                                    col=exc.offset + 1, source=self.source_name) from None
        except MalformedXmlError as exc:  # refused, or raised by a reader's node
            if exc.source is None:
                exc.source = exc.info["source"] = self.source_name
            raise
        finally:
            if ended:
                for name in _HANDLERS:
                    setattr(self.parser, name, None)
        return final


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

        expat_source = _ExpatSource(source, self.source_name, start, end, characters,
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
        if chunk.strip():
            open_nodes[-1].has_text = True

    expat_source = _ExpatSource(source, source_name, start, end, characters)
    expat_source.feed(0, len(expat_source.data))
    return document.children[0]


class _Document:
    """Holds the root while :func:`read_tree` reads; expat reports no text here."""

    __slots__ = ("children",)

    def __init__(self):
        self.children = ()


# ---------------------------------------------------------------- generated-code support
#
# Generated parser packages call these instead of carrying copies.  A
# dispatch table maps an element's ``(namespace, local)`` to a target
# ``(parser, conv, by_type)``: ``parser`` is the :class:`RecordParser` of the
# element's class, or None for simple content read with ``conv``;
# ``by_type``, when not None, maps an ``xsi:type`` name to the target that
# overrides this one.
#
# A generated package holds, per class, its record class, a :class:`Record`
# subclass, and the field rows of its :class:`RecordParser`.  A row is
# ``(key, slot, occurs, read, target)``:
#
# * ``key`` -- the ``(namespace, local)`` the field matches; for a dispatch
#   field, the name of its dispatch table, whose keys are what it matches;
#   None for the text row.
# * ``slot`` -- the record attribute the value goes to.
# * ``occurs`` -- ``"1"`` required, ``"?"`` optional, ``"*"`` a list.
# * ``read`` and ``target`` -- how the value is read:
#   ``"attribute"``, ``"simple"`` (text-only element) and ``"text"`` (the
#   element's own text) convert with the conversion ``target`` names (a key
#   of ``CONVERSIONS``); ``"mixed"`` joins the text of mixed content;
#   ``"class"`` parses the element as class ``target``; ``"dispatch"`` reads
#   it through the key's table, ``target`` being the field's element name,
#   or None for a wildcard;
#   ``"collapse"`` unwraps ``target = (chain, read, target)``: the inner
#   names, then the innermost element read as ``"class"`` or ``"simple"``;
#   ``"ignore"`` skips the subtree and builds nothing.
#
# Rows come in match order: the first row matching an element wins, and
# wildcard fields come last.  Unknown attributes are ignored.


class Record:
    """Base of every generated record class.

    A record class declares its own fields as ``__slots__`` and its list
    fields once as ``_lists``.  Creating the class sets ``_fields`` to every
    slot in field order, base class fields first, and widens ``_lists`` to
    the list slots of its bases too.
    """

    __slots__ = ()
    _fields = ()
    _lists = frozenset()

    def __init_subclass__(cls):
        fields, lists = {}, set()
        for klass in reversed(cls.__mro__):
            fields.update(dict.fromkeys(vars(klass).get("__slots__", ())))
            lists.update(vars(klass).get("_lists", ()))
        cls._fields = tuple(fields)
        cls._lists = frozenset(lists)

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


def bind_parsers(names):
    """Build the lookup tables of every record parser in a generated package.

    The package calls this with its namespace, which maps each
    ``parse_<Class>`` and dispatch table name to its value, once all are
    defined; so rows can name any class and recursive types need no cycle.
    """
    for parser in names.values():
        if isinstance(parser, RecordParser):
            parser.bind(names)


_ABSENT = object()  # a required slot's value until its field is read
_LIST = object()  # a list slot's initial value: a fresh []
_new = object.__new__  # makes every record; looked up per record, so a test can count them
_IGNORE = ()  # the action of an ignored field's element


class RecordParser:
    """The parser of one :class:`Record` class, built from its field rows (see above).

    The package names it ``parse_<Class>`` right after its class, so
    dispatch tables can hold it; :func:`bind_parsers` builds its lookup
    tables, which :func:`parse_root` reads, before the first parse.
    """

    __slots__ = ("cls", "name", "rows", "initial", "elements", "attributes", "required",
                 "text")

    def __init__(self, cls, rows):
        self.cls = cls
        self.name = cls.__name__
        self.rows = rows
        self.initial = ()  # (slot, None or _ABSENT or _LIST), in field order
        self.elements = {}  # (namespace, local) -> action (see bind)
        self.attributes = {}  # (namespace, local) -> (slot, conversion, label)
        self.required = ()  # (slot, message), in row order
        self.text = None  # (slot, conversion or None for mixed content, label)

    def bind(self, names):
        """Build the lookup tables; ``names`` holds every parser and table.

        A child element's action is ``_IGNORE``, or ``(parser, conv,
        by_type, what, slot, many, chain)``: a dispatch target (see above),
        the label of its warnings, and where its value goes, appended to a
        list when ``many``.  ``chain``, when not None, names the collapsed
        wrappers the target's element sits in.
        """
        name = self.name
        elements, attributes, required = {}, {}, []
        for key, slot, occurs, read, target in self.rows:
            what = f"{name}.{slot}"
            if read in ("text", "mixed"):
                self.text = (slot, CONVERSIONS.get(target), what)
                continue
            if read == "attribute":
                attributes.setdefault(key, (slot, CONVERSIONS[target], what))
                if occurs == "1":
                    required.append((slot, f"missing required attribute {key[1]} in {name}"))
                continue
            # A dispatch field matches its table's keys, even when ignored.
            if read == "ignore":
                for k in names[key] if isinstance(key, str) else (key,):
                    elements.setdefault(k, _IGNORE)
                continue
            if isinstance(key, str):
                targets = names[key]
                element = "matching xs:any" if target is None else target
            else:
                targets = {key: _target(read, target, names)}
                element = key[1]
            chain = target[0] if read == "collapse" else None
            for k, t in targets.items():
                elements.setdefault(k, (*t, what, slot, occurs == "*", chain))
            if occurs == "1":
                required.append((slot, f"missing required element {element} in {name}"))
        self.elements, self.attributes, self.required = elements, attributes, tuple(required)
        absent = {slot for slot, _message in required}
        lists = self.cls._lists
        self.initial = tuple(
            (slot, _LIST if slot in lists else _ABSENT if slot in absent else None)
            for slot in self.cls._fields)


def _target(read, target, names):
    """The dispatch target an element row reads its (innermost) element as."""
    if read == "collapse":
        _chain, read, target = target
    if read == "class":
        return names[f"parse_{target}"], None, None
    if read == "simple":
        return None, CONVERSIONS[target], None
    raise ValueError(f"unknown field read {read!r}")


class _Binding(_Tolerance):
    """What conversions see of one :func:`parse_root` parse.

    A violation with no position of its own is reported at the START whose
    attributes are being converted (``at``), or else at the END being
    handled, whose position ``end_position()`` reads from the parser.  The
    document's value is stored in ``result``.
    """

    def __init__(self, mode, source_name):
        super().__init__(mode, source_name)
        self.at = None
        self.end_position = None
        self.result = None

    def _position(self):
        return self.at or self.end_position()


class _Collapse:
    """One collapsed field being read: the wrapper names, the next one to open."""

    __slots__ = ("chain", "parser", "conv", "what", "next", "result")

    def __init__(self, chain, parser, conv, what):
        self.chain, self.parser, self.conv, self.what = chain, parser, conv, what
        self.next = 0
        self.result = None


class _Keys(dict):
    """Expat name to the ``(namespace, local)`` key of the lookup tables."""

    def __missing__(self, raw):
        namespace, _, local = raw.rpartition(" ")
        key = self[raw] = (namespace, local)
        return key


class _Stop(Exception):
    """Ends a parse at an unknown document root; nothing after its START is read."""


_XSI_NIL = (XSI_NAMESPACE, "nil")
_XSI_TYPE = (XSI_NAMESPACE, "type")
_UNKNOWN = Violation.UNKNOWN_ELEMENT
_MISSING = Violation.MISSING_REQUIRED
_STRAY_TEXT = Violation.UNEXPECTED_TEXT
# The kinds of frame on parse_root's stack.
_RECORD, _SIMPLE, _COLLAPSED, _SKIPPED, _DOCUMENT = (
    "record", "simple", "collapsed", "skipped", "document")
_SKIP = (_SKIPPED,)  # the frame of each element of a skipped subtree


def _attribute(attributes, key):
    for name, value in attributes:
        if name == key:
            return value
    return None


def _is_nil(attributes):
    return (_attribute(attributes, _XSI_NIL) or "").strip() in ("true", "1")


def _xsi_type(attributes, scope):
    """The ``(namespace, local)`` an element's ``xsi:type`` names, or None."""
    raw = _attribute(attributes, _XSI_TYPE)
    if raw is None:
        return None
    raw = raw.strip()
    if ":" in raw:
        prefix, _, local = raw.partition(":")
        return (scope.get(prefix, ""), local)
    return (scope.get("", ""), raw)


def parse_root(roots, source, mode="strict", source_name="<input>"):
    """Parse one document through the root table ``roots``; (object, warnings).

    Records are bound in expat's callbacks.  ``stack`` holds a frame per
    open element, and each frame's value goes to ``slot`` of ``owner`` when
    its element ends, appended to a list when ``many``:

    * ``(_RECORD, parser, record, text parts or None, owner, slot, many)``
    * ``(_SIMPLE, conv, what, nil, text parts, owner, slot, many)``
    * ``(_COLLAPSED, state, owner, slot, many)``: pushed for the field's
      element and again for each wrapper, whose content is the field's.
    * ``_SKIP`` for each element of a skipped subtree, ``_DOCUMENT`` below
      the root.

    Text is gathered in ``text`` and handed to the open frame at the next
    START or END, so a run spans comments, processing instructions and
    CDATA sections, and is reported at its first chunk, as a TEXT event of
    :class:`ParseContext` would be.  A START is reported at its '<'; an END
    at the parser's position, or at its START's for an empty-element tag.
    """
    ctx = _Binding(mode, source_name)
    stack = [(_DOCUMENT,)]
    push, pop = stack.append, stack.pop
    text = []
    text_line = text_col = start_line = start_col = 0
    fresh = False  # nothing since the START of the element now open

    def flush(frame):
        """Hand the text run gathered since the last START or END to ``frame``."""
        nonlocal fresh
        fresh = False
        kind = frame[0]
        if kind is _RECORD:
            if frame[3] is not None:
                frame[3].extend(text)
            elif "".join(text).strip():
                ctx.violation(_STRAY_TEXT, f"unexpected text in {frame[1].name}",
                              text_line, text_col)
        elif kind is _SIMPLE:
            frame[4].extend(text)
        elif kind is _COLLAPSED and "".join(text).strip():
            ctx.violation(_STRAY_TEXT, f"unexpected text in {frame[1].what}",
                          text_line, text_col)
        text.clear()

    def start(key, attributes, scope, line, col):
        nonlocal start_line, start_col, fresh
        frame = stack[-1]
        if text:
            flush(frame)
        start_line = line
        start_col = col
        fresh = True
        kind = frame[0]
        if kind is _RECORD:
            parser = frame[1]
            action = parser.elements.get(key)
            if not action:
                if action is None:
                    ctx.violation(_UNKNOWN, f"unexpected element {QName(*key)} in "
                                  f"{parser.name}", line, col)
                push(_SKIP)
                return
            parser, conv, by_type, what, slot, many, chain = action
            owner = frame[2]
            if chain is not None:
                push((_COLLAPSED, _Collapse(chain, parser, conv, what), owner, slot, many))
                return
        elif kind is _SKIPPED:
            push(_SKIP)
            return
        elif kind is _SIMPLE:
            ctx.violation(_UNKNOWN, f"unexpected element {QName(*key)} in {frame[2]}",
                          line, col)
            push(_SKIP)
            return
        elif kind is _COLLAPSED:
            state = frame[1]
            chain = state.chain
            at = state.next
            if at >= len(chain) or key != chain[at]:
                ctx.violation(_UNKNOWN, f"unexpected element {QName(*key)} in {state.what}",
                              line, col)
                state.next = len(chain)
                push(_SKIP)
                return
            state.next = at + 1
            if at + 1 < len(chain):
                push(frame)
                return
            parser, conv, by_type, what = state.parser, state.conv, None, state.what
            owner, slot, many = state, "result", False
        else:
            target = roots.get(key)
            if target is None:
                ctx.violation(_UNKNOWN, f"unknown document root {QName(*key)}", line, col)
                raise _Stop
            parser, conv, by_type = target
            what, owner, slot, many = f"root {key[1]}", ctx, "result", False
        if by_type is not None:
            typed = by_type.get(_xsi_type(attributes, scope))
            if typed is not None:
                parser, conv, _ = typed
        if parser is not None:
            if attributes and _is_nil(attributes):
                if many:
                    getattr(owner, slot).append(None)
                else:
                    setattr(owner, slot, None)
                push(_SKIP)
                return
            record = _new(parser.cls)
            for name, value in parser.initial:
                setattr(record, name, [] if value is _LIST else value)
            if attributes:
                fields = parser.attributes
                ctx.at = (line, col)
                for name, raw in attributes:
                    field = fields.get(name)
                    if field is not None:
                        name, conv, what = field
                        setattr(record, name, conv(ctx, raw, what))
                ctx.at = None
            push((_RECORD, parser, record, None if parser.text is None else [],
                  owner, slot, many))
        elif conv is not None:
            push((_SIMPLE, conv, what, bool(attributes) and _is_nil(attributes), [],
                  owner, slot, many))
        else:
            ctx.violation(_UNKNOWN, f"no dispatch match for {QName(*key)} in {what}",
                          line, col)
            push(_SKIP)

    def end(_raw):
        nonlocal fresh
        frame = pop()
        if text:
            flush(frame)
        kind = frame[0]
        if kind is _SIMPLE:
            _, conv, what, nil, parts, owner, slot, many = frame
            value = None if nil else conv(ctx, "".join(parts), what)
        elif kind is _RECORD:
            _, parser, value, parts, owner, slot, many = frame
            for name, message in parser.required:
                if getattr(value, name) is _ABSENT:
                    setattr(value, name, None)
                    ctx.violation(_MISSING, message)
            if parts is not None:
                name, conv, what = parser.text
                if conv is None:
                    setattr(value, name, "".join(parts) if parts else None)
                else:
                    setattr(value, name, conv(ctx, "".join(parts), what))
        elif kind is _COLLAPSED:
            _, state, owner, slot, many = frame
            if state.next < len(state.chain):
                ctx.violation(_MISSING, f"missing collapsed element "
                              f"{state.chain[state.next][1]} in {state.what}")
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
        if not text:
            text_line = expat_parser.CurrentLineNumber
            text_col = expat_parser.CurrentColumnNumber + 1
        text.append(chunk)

    def start_cdata():
        if not text:
            characters("")  # a run that opens with CDATA starts at '<![CDATA['

    def end_position():
        if fresh:
            at = expat_parser.CurrentByteIndex
            if data[at - len(close):at] == close:
                return start_line, start_col
        return expat_parser.CurrentLineNumber, expat_parser.CurrentColumnNumber + 1

    expat_source = _ExpatSource(source, source_name, start, end, characters, start_cdata,
                                _Keys())
    expat_parser, data = expat_source.parser, expat_source.data
    close = "/>".encode(expat_source.encoding or "ascii")
    ctx.end_position = end_position
    try:
        expat_source.feed(0, len(data))
    except _Stop:
        return None, ctx.warnings
    return ctx.result, ctx.warnings


def conv_string(ctx, raw, what):
    return raw


# Numbers are read by the lexical rules of XSD 1.0 Part 2, not Python's:
# integer (3.3.13), decimal (3.2.3), double (3.2.5).  Python also takes
# "1_000", non-ASCII digits, "1e5" as a decimal and "inf" as a double.
_XML_SPACE = " \t\r\n"
_INTEGER = re.compile(r"[+-]?[0-9]+").fullmatch
# The spec's grouping has one way to match, so a long digit run that ends
# in a bad character fails in linear time.
_DECIMAL_LEXICAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_DECIMAL = re.compile(_DECIMAL_LEXICAL).fullmatch
_DOUBLE = re.compile(_DECIMAL_LEXICAL + r"(?:[Ee][+-]?[0-9]+)?|-?INF|NaN").fullmatch


def conv_integer(ctx, raw, what):
    s = raw.strip(_XML_SPACE)
    if _INTEGER(s):
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
    if _DOUBLE(s):
        return float(s)
    ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad double {raw!r} in {what}")
    return None


def conv_boolean(ctx, raw, what):
    s = raw.strip()
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
