"""Namespace-aware XML reading over expat, and the tolerance policy.

Generated parsers read XML through :class:`ParseContext`, a pull interface
over the stdlib expat parser.  The schema loader and the corpus analyzer
need whole trees, so :func:`read_tree` builds them straight from expat's
callbacks, with no events in between.  Both set expat up in one place,
``_ExpatSource``, which enforces XML 1.0 plus Namespaces: expat normalizes
line ends and attribute whitespace, and decodes byte input by its BOM or
declared encoding.  ParseContext coalesces text into one TEXT event across
comments, processing instructions and CDATA sections.

The DTD never changes what a reader sees.  Entity declarations, attribute
defaults, and documents that need an external subset or parameter
entities (unless ``standalone="yes"``) are refused, so nothing beyond the
five built-in entities and character references is ever expanded.

The module also holds all the parsing code generated packages use.  A
generated class module is data, field rows that :class:`RecordParser`
interprets over a ParseContext; :func:`bind_parsers` resolves the names
the rows mention once the package is loaded.  Value conversion,
simple-content and collapsed-wrapper reading, ``xsi:nil``/``xsi:type``
handling and table dispatch live here too, so packages carry no copies.
"""

from __future__ import annotations

import codecs
from collections import deque
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
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


class Recovery(Enum):
    SKIP_SUBTREE = "skip-subtree"
    LEAVE_ABSENT = "leave-absent"
    KEEP_RAW = "keep-raw"
    DISCARD_TEXT = "discard-text"


_RECOVERY = {
    Violation.UNKNOWN_ELEMENT: Recovery.SKIP_SUBTREE,
    Violation.MISSING_REQUIRED: Recovery.LEAVE_ABSENT,
    Violation.BAD_SIMPLE_VALUE: Recovery.KEEP_RAW,
    Violation.UNEXPECTED_TEXT: Recovery.DISCARD_TEXT,
}

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
    attributes, scope, line, col)``: its QName, a tuple of ``(QName,
    value)`` pairs, the prefix-to-URI dict in force at it (never changed
    afterwards, so it may be kept) and the position of its '<'.  ``end``,
    ``characters`` and ``start_cdata`` are installed as expat's own handlers.
    """

    def __init__(self, source, source_name, start, end, characters, start_cdata=None):
        try:
            self.data, self.encoding = _expat_input(source)
        except UnicodeEncodeError as exc:  # a str holding lone surrogates
            raise MalformedXmlError(f"unencodable input: {exc}", source=source_name)
        self.source_name = source_name
        self.names = names = _QNames()
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


class ParseContext:
    """One streaming parse of one document; not shareable across threads.

    Expat pushes and callers pull: whenever the queue runs dry, one chunk of
    the source is fed to expat, whose callbacks append events to
    ``_events`` (and the namespace scope of each START to ``_scopes``).
    """

    def __init__(self, source, mode="strict", source_name="<input>"):
        if mode not in ("strict", "lenient"):
            raise ValueError(f"mode must be strict or lenient, got {mode!r}")
        self.mode = mode
        self.source_name = source_name
        self.warnings: list = []
        self._last_event: Optional[XmlEvent] = None
        self._ns_stack = [_XML_SCOPE]  # scopes of the open elements the caller has read
        self._events: deque = deque()
        self._scopes: deque = deque()
        self._offset = 0
        self._failure: Optional[MalformedXmlError] = None
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

    def violation(self, kind: Violation, message: str, line=None, col=None) -> Recovery:
        """Apply the tolerance policy for one validation violation."""
        if line is None and self._last_event is not None:
            line, col = self._last_event.line, self._last_event.col
        if self.mode == "strict":
            raise _STRICT_ERROR[kind](message, line=line, col=col, source=self.source_name)
        self.warnings.append(ParseWarning(line or 0, col or 0, kind.value, message,
                                          self.source_name))
        return _RECOVERY[kind]

    def active_namespaces(self) -> dict:
        """Prefix-to-URI bindings in scope at the element the caller is in."""
        return dict(self._ns_stack[-1])

    # ------------------------------------------------------------ internals

    def _fill(self):
        """Feed expat chunks until an event is queued; errors wait their turn."""
        events = self._events
        while not events:
            if self._failure is not None:
                raise self._failure
            if self._done:
                raise MalformedXmlError("read past END_DOCUMENT", source=self.source_name)
            at = self._offset
            self._offset = at + _CHUNK
            try:
                self._done = self._source.feed(at, self._offset)
            except MalformedXmlError as exc:
                self._failure = exc
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
# ``(parse, conv, by_type)``: ``parse`` is a class parser ``parse(ctx,
# start)``, or None for simple content read with ``conv``; ``by_type``, when
# not None, maps an ``xsi:type`` name to the target that overrides this one.
#
# A class module holds its record class and the field rows that
# :class:`RecordParser` reads.  A row is ``(key, slot, occurs, read,
# target)``:
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
#   it through the key's table, ``target`` being the field's element name;
#   ``"collapse"`` unwraps ``target = (chain, read, target)``: the inner
#   names, then the innermost element read as ``"class"`` or ``"simple"``;
#   ``"ignore"`` skips the subtree and builds nothing.
#
# Rows come in match order: the first row matching an element wins, and
# wildcard fields come last.  Unknown attributes are ignored.


def bind_parsers(modules, tables):
    """Resolve the rows of every class parser in a generated package.

    The dispatch module calls this once every class module is loaded, so
    recursive and mutually recursive types need no import cycle.  ``tables``
    maps each dispatch table's name to the table.
    """
    names = dict(tables)
    for module in modules:
        names.update((k, v) for k, v in vars(module).items() if k.startswith("parse_"))
    for parse in names.values():
        record = getattr(parse, "__self__", None)
        if isinstance(record, RecordParser):
            record.bind(names)


_ABSENT = object()  # a required slot's value until its field is read


class RecordParser:
    """Parses elements of one record class by its field rows (see above).

    A class module binds ``parse_<Class>`` to the ``parse`` method as soon
    as it is loaded, so dispatch tables can hold it; :func:`bind_parsers`
    resolves the names the rows mention before the first parse.
    """

    __slots__ = ("cls", "name", "rows", "elements", "attributes", "required", "text")

    def __init__(self, cls, rows):
        self.cls = cls
        self.name = cls.__name__
        self.rows = rows
        self.elements = {}  # (namespace, local) -> (read(ctx, start) or None, slot, is list)
        self.attributes = {}  # (namespace, local) -> (slot, conversion, label)
        self.required = ()  # (slot, message), in row order
        self.text = None  # (slot, conversion or None for mixed content, label)

    def bind(self, names):
        """Build the lookup dicts; ``names`` holds every parser and table."""
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
            if isinstance(key, str):  # a dispatch field matches its table's keys
                matched = names[key]
                local = target
            else:
                matched = (key,)
                local = key[1]
            if read == "ignore":
                action = (None, slot, False)
            else:
                action = (_reader(read, target, what, names, key), slot, occurs == "*")
                if occurs == "1":
                    required.append((slot, f"missing required element {local} in {name}"))
            for k in matched:
                elements.setdefault(k, action)
        self.elements, self.attributes, self.required = elements, attributes, tuple(required)

    def parse(self, ctx, start):
        if is_nil(start):
            ctx.skip_subtree()
            return None
        obj = self.cls()
        required = self.required
        for slot, _message in required:
            setattr(obj, slot, _ABSENT)
        if start.attributes:
            attributes = self.attributes
            for qn, raw in start.attributes:
                field = attributes.get((qn.namespace, qn.local))
                if field is not None:
                    slot, conv, what = field
                    setattr(obj, slot, conv(ctx, raw, what))
        elements = self.elements
        text = self.text
        parts = [] if text is not None else None
        next_event = ctx.next_event
        while True:
            ev = next_event()
            kind = ev.kind
            if kind is _END:
                break
            if kind is _TEXT:
                if parts is not None:
                    parts.append(ev.text)
                elif ev.text.strip():
                    ctx.violation(Violation.UNEXPECTED_TEXT, f"unexpected text in {self.name}")
                continue
            qn = ev.name
            action = elements.get((qn.namespace, qn.local))
            if action is None:
                ctx.violation(Violation.UNKNOWN_ELEMENT,
                              f"unexpected element {qn} in {self.name}")
                ctx.skip_subtree()
                continue
            read, slot, many = action
            if read is None:
                ctx.skip_subtree()
            elif many:
                getattr(obj, slot).append(read(ctx, ev))
            else:
                setattr(obj, slot, read(ctx, ev))
        for slot, message in required:
            if getattr(obj, slot) is _ABSENT:
                setattr(obj, slot, None)
                ctx.violation(Violation.MISSING_REQUIRED, message)
        if text is not None:
            slot, conv, what = text
            if conv is None:
                setattr(obj, slot, "".join(parts) if parts else None)
            else:
                setattr(obj, slot, conv(ctx, "".join(parts), what))
        return obj


def _reader(read, target, what, names, key):
    """``read(ctx, start)`` for an element row."""
    if read == "class":
        return names[f"parse_{target}"]
    if read == "simple":
        conv = CONVERSIONS[target]
        return lambda ctx, start: read_simple(ctx, start, conv, what)
    if read == "dispatch":
        table = names[key]
        return lambda ctx, start: read_dispatched(ctx, start, table, what)
    if read == "collapse":
        chain, final, inner = target
        parse = names[f"parse_{inner}"] if final == "class" else None
        conv = CONVERSIONS[inner] if final == "simple" else None
        return lambda ctx, _start: read_collapsed(ctx, chain, parse, conv, what)
    raise ValueError(f"unknown field read {read!r}")


def is_nil(start):
    return start.attr(XSI_NAMESPACE, "nil") in ("true", "1")


def xsi_type_of(ctx, ev):
    """The ``(namespace, local)`` an element's ``xsi:type`` names, or None."""
    raw = ev.attr(XSI_NAMESPACE, "type")
    if raw is None:
        return None
    raw = raw.strip()
    nsmap = ctx.active_namespaces()
    if ":" in raw:
        prefix, _, local = raw.partition(":")
        return (nsmap.get(prefix, ""), local)
    return (nsmap.get("", ""), raw)


def read_simple(ctx, start, conv, what):
    """Parse an element with text-only content; consumes through its end tag."""
    nil = is_nil(start)
    parts = []
    while True:
        ev = ctx.next_event()
        if ev.kind is _TEXT:
            parts.append(ev.text)
        elif ev.kind is _END:
            break
        else:
            ctx.violation(Violation.UNKNOWN_ELEMENT,
                          f"unexpected element {ev.name} in {what}")
            ctx.skip_subtree()
    if nil:
        return None
    return conv(ctx, "".join(parts), what)


def read_dispatched(ctx, start, table, what):
    """Parse a child through its field's dispatch table (see above)."""
    target = table.get((start.name.namespace, start.name.local))
    if target is not None:
        parse, conv, by_type = target
        if by_type is not None:
            typed = by_type.get(xsi_type_of(ctx, start))
            if typed is not None:
                parse, conv, _ = typed
        if parse is not None:
            return parse(ctx, start)
        if conv is not None:
            return read_simple(ctx, start, conv, what)
    ctx.violation(Violation.UNKNOWN_ELEMENT,
                  f"no dispatch match for {start.name} in {what}")
    ctx.skip_subtree()
    return None


def read_collapsed(ctx, chain, parse, conv, what):
    """Unwrap collapsed single-child wrappers and parse the innermost element.

    The innermost element goes to the class parser ``parse``, or, when that
    is None, is read as simple content with ``conv``.
    """
    result = None
    opened = 0
    for i, name in enumerate(chain):
        ev = _next_content(ctx, what)
        if ev.kind is _START and (ev.name.namespace, ev.name.local) == name:
            if i < len(chain) - 1:
                opened += 1
            elif parse is not None:
                result = parse(ctx, ev)
            else:
                result = read_simple(ctx, ev, conv, what)
            continue
        if ev.kind is _END:
            ctx.violation(Violation.MISSING_REQUIRED,
                          f"missing collapsed element {name[1]} in {what}")
            opened -= 1  # that end tag closed one pending wrapper
            break
        ctx.violation(Violation.UNKNOWN_ELEMENT,
                      f"unexpected element {ev.name} in {what}")
        ctx.skip_subtree()
        break
    for _ in range(opened + 1):
        _drain_to_end(ctx, what)
    return result


def _next_content(ctx, what):
    while True:
        ev = ctx.next_event()
        if ev.kind is _TEXT:
            if ev.text.strip():
                ctx.violation(Violation.UNEXPECTED_TEXT, f"unexpected text in {what}")
            continue
        return ev


def _drain_to_end(ctx, what):
    while True:
        ev = ctx.next_event()
        if ev.kind is _END:
            return
        if ev.kind is _TEXT:
            if ev.text.strip():
                ctx.violation(Violation.UNEXPECTED_TEXT, f"unexpected text in {what}")
            continue
        ctx.violation(Violation.UNKNOWN_ELEMENT, f"unexpected element {ev.name} in {what}")
        ctx.skip_subtree()


def parse_root(roots, source, mode="strict", source_name="<input>"):
    """Parse one document through the root table ``roots``; (object, warnings)."""
    ctx = ParseContext(source, mode=mode, source_name=source_name)
    ev = ctx.next_event()
    if (ev.name.namespace, ev.name.local) not in roots:
        ctx.violation(Violation.UNKNOWN_ELEMENT, f"unknown document root {ev.name}")
        return None, ctx.warnings
    return finish_document(ctx, read_dispatched(ctx, ev, roots, f"root {ev.name.local}"))


def finish_document(ctx, result):
    while ctx.next_event().kind is not EventKind.END_DOCUMENT:
        pass
    return result, ctx.warnings


def conv_string(ctx, raw, what):
    return raw


def conv_integer(ctx, raw, what):
    try:
        return int(raw.strip())
    except ValueError:
        ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad integer {raw!r} in {what}")
        return None


def conv_decimal(ctx, raw, what):
    try:
        return Decimal(raw.strip())
    except InvalidOperation:
        ctx.violation(Violation.BAD_SIMPLE_VALUE, f"bad decimal {raw!r} in {what}")
        return None


def conv_double(ctx, raw, what):
    try:
        return float(raw.strip())
    except ValueError:
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
