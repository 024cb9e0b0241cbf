"""Event stream contract: well-formedness, DTD safety, namespaces, positions,
skipping, tolerance, and agreement with ElementTree; the tree reader agrees
with the event stream."""

from __future__ import annotations

import codecs
import gc
import re
import sys
import time
import xml.etree.ElementTree as ET
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from slimbind.errors import (
    BadSimpleValueError,
    MalformedXmlError,
    UnknownElementError,
)
from slimbind.model import QName, XML_NAMESPACE
from slimbind.runtime import (
    EventKind,
    ParseContext,
    Violation,
    conv_decimal,
    conv_double,
    conv_integer,
    read_tree,
)


def events_of(text, **kw):
    ctx = ParseContext(text, **kw)
    out = []
    while True:
        ev = ctx.next_event()
        out.append(ev)
        if ev.kind is EventKind.END_DOCUMENT:
            return out


def shape(events):
    out = []
    for ev in events:
        if ev.kind is EventKind.START_ELEMENT:
            out.append(("start", ev.name.local, tuple(sorted(
                (a.local, v) for a, v in ev.attributes))))
        elif ev.kind is EventKind.END_ELEMENT:
            out.append(("end", ev.name.local))
        elif ev.kind is EventKind.TEXT:
            out.append(("text", ev.text))
        else:
            out.append(("eof",))
    return out


def test_empty_element():
    assert shape(events_of("<a/>")) == [("start", "a", ()), ("end", "a"), ("eof",)]


def test_text_coalesced_across_comments():
    evs = shape(events_of("<a>x<!--c-->y</a>"))
    assert evs == [("start", "a", ()), ("text", "xy"), ("end", "a"), ("eof",)]


def test_cdata_joins_text():
    evs = shape(events_of("<a>x<![CDATA[<raw&>]]>y</a>"))
    assert ("text", "x<raw&>y") in evs


def test_unterminated_element_is_malformed():
    with pytest.raises(MalformedXmlError):
        events_of("<a>")


@pytest.mark.parametrize("bad", [
    "<a", "<a></b>", "</a>", "<a attr=novalue/>", "<a x='1' x='2'/>",
    "<a>&bogus;</a>", "<a>]]></a>", "text only", "<a/><b/>",
])
def test_malformed_inputs(bad):
    with pytest.raises(MalformedXmlError):
        events_of(bad)


def test_entities_and_char_refs():
    evs = shape(events_of("<a>&amp;&lt;&gt;&apos;&quot;&#65;&#x42;</a>"))
    assert ("text", "&<>'\"AB") in evs


def test_attribute_entities():
    evs = events_of('<a t="x&amp;y"/>')
    assert evs[0].attributes[0][1] == "x&y"


def test_namespace_resolution():
    evs = events_of('<p:a xmlns:p="urn:p" xmlns="urn:d"><b p:x="1" y="2"/></p:a>')
    assert evs[0].name == QName("urn:p", "a")
    inner = evs[1]
    assert inner.name == QName("urn:d", "b")
    attrs = dict(inner.attributes)
    assert attrs[QName("urn:p", "x")] == "1"
    assert attrs[QName("", "y")] == "2"  # no default namespace for attributes


def test_undeclared_prefix_is_malformed():
    with pytest.raises(MalformedXmlError):
        events_of("<p:a/>")


def test_doctype_and_pi_skipped():
    text = ('<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a EMPTY>'
            '<!ATTLIST a b CDATA #IMPLIED>]><?pi data?><a/>')
    assert shape(events_of(text)) == [("start", "a", ()), ("end", "a"), ("eof",)]


LAUGHS = ('<!DOCTYPE a [<!ENTITY x0 "ha">'
          + "".join(f'<!ENTITY x{i} "{f"&x{i - 1};" * 10}">' for i in range(1, 7))
          + "]>")


@pytest.mark.parametrize("doc", [
    LAUGHS + "<a>&x6;</a>",
    LAUGHS + '<a b="&x6;"/>',
    '<!DOCTYPE a [<!ENTITY x SYSTEM "file:///etc/hostname">]><a>&x;</a>',
    '<!DOCTYPE a [<!ENTITY % p "<!ENTITY x \'1\'>">%p;]><a>&x;</a>',
    '<!DOCTYPE a [<!ATTLIST a xmlns CDATA "urn:x">]><a/>',
    '<!DOCTYPE a [<!ATTLIST a b CDATA #FIXED "1">]><a/>',
    '<!DOCTYPE a SYSTEM "a.dtd"><a/>',
    '<!DOCTYPE a PUBLIC "-//x//a//EN" "a.dtd"><a>&x;</a>',
    '<?xml version="1.0" standalone="yes"?><!DOCTYPE a SYSTEM "a.dtd"><a>&x;</a>',
    '<?xml version="1.0" standalone="yes"?><!DOCTYPE a SYSTEM "a.dtd"><a b="&x;"/>',
], ids=["laughs-content", "laughs-attribute", "external-entity", "parameter-entity",
        "xmlns-default", "fixed-default", "external-subset", "public-subset",
        "standalone-undeclared", "standalone-undeclared-attribute"])
def test_dtd_cannot_change_the_event_stream(doc):
    """Entity declarations, attribute defaults and non-standalone DTDs are refused."""
    t0 = time.perf_counter()
    with pytest.raises(MalformedXmlError) as info:
        events_of(doc)
    assert time.perf_counter() - t0 < 0.05
    assert info.value.line >= 1 and info.value.col >= 1


@pytest.mark.parametrize("doc", [
    "<a>&#0;</a>", "<a>&#xD800;</a>", "<a>\x01</a>", '<a/><?xml version="1.0"?>',
    '<a b="1"c="2"/>', '<a xmlns:p=""/>',
], ids=["nul-ref", "surrogate-ref", "control-char", "late-xml-decl",
        "attrs-unseparated", "undeclared-prefix"])
def test_xml_10_violations_rejected(doc):
    with pytest.raises(MalformedXmlError) as info:
        events_of(doc)
    assert info.value.line >= 1 and info.value.col >= 1


def test_crlf_and_attribute_whitespace_normalized():
    evs = events_of('<a t="x\ty\r\nz&#9;">1\r\n2\r3</a>')
    assert evs[0].attributes[0][1] == "x y z\t"
    assert evs[1].text == "1\n2\n3"


def test_declared_encoding_of_bytes_honoured():
    data = '<?xml version="1.0" encoding="ISO-8859-1"?><a>é</a>'.encode("latin-1")
    assert ("text", "é") in shape(events_of(data))


POSITION_DOC = ('<?xml version="1.0"?>\n'
                '<!-- lead comment -->\n'
                '<r xmlns="urn:pos" xmlns:p="urn:p">\n'
                '  <item id="1">alpha</item>\n'
                '\t<p:item\n'
                '      code="x">beta &amp; gamma</p:item>\n'
                '  <empty/>\n'
                '  <mixed>one<!-- c -->two<b>thr\u00e9e</b>\n'
                'four<?pi x?></mixed>\n'
                '  <junk><deep>bad</deep></junk>\n'
                '  <cdata><![CDATA[<x>]]>y</cdata><none></none>\n'
                '</r>\n')

# (kind, local name or text, line, col): START and empty-element END at '<',
# END of an end tag at '</', TEXT at its first character (a leading CDATA
# section counts from '<![CDATA[').
POSITIONS = [
    ("start", "r", 3, 1), ("text", "\n  ", 3, 36),
    ("start", "item", 4, 3), ("text", "alpha", 4, 16), ("end", "item", 4, 21),
    ("text", "\n\t", 4, 28),
    ("start", "item", 5, 2), ("text", "beta & gamma", 6, 16), ("end", "item", 6, 32),
    ("text", "\n  ", 6, 41),
    ("start", "empty", 7, 3), ("end", "empty", 7, 3), ("text", "\n  ", 7, 11),
    ("start", "mixed", 8, 3), ("text", "onetwo", 8, 10),
    ("start", "b", 8, 26), ("text", "thr\u00e9e", 8, 29), ("end", "b", 8, 34),
    ("text", "\nfour", 8, 38), ("end", "mixed", 9, 13), ("text", "\n  ", 9, 21),
    ("skip", "junk", 10, 3), ("text", "\n  ", 10, 32),
    ("start", "cdata", 11, 3), ("text", "<x>y", 11, 10), ("end", "cdata", 11, 26),
    ("start", "none", 11, 34), ("end", "none", 11, 40), ("text", "\n", 11, 47),
    ("end", "r", 12, 1),
]


def test_event_positions():
    """Line/col of every event, and of a lenient warning, stay where they were."""
    ctx = ParseContext(POSITION_DOC, mode="lenient", source_name="f.xml")
    seen = []
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.END_DOCUMENT:
            break
        if ev.kind is EventKind.TEXT:
            seen.append(("text", ev.text, ev.line, ev.col))
        elif ev.name.local == "junk":
            ctx.violation(Violation.UNKNOWN_ELEMENT, "unexpected element junk")
            ctx.skip_subtree()
            seen.append(("skip", "junk", ev.line, ev.col))
        else:
            seen.append((ev.kind.value, ev.name.local, ev.line, ev.col))
    assert seen == POSITIONS
    assert ctx.warnings[0].format() == \
        "WARN f.xml:10:3 UNKNOWN_ELEMENT unexpected element junk"


def test_bom_detection():
    for encoding in ("utf-8-sig", "utf-16-le", "utf-16-be"):
        data = "<a>é</a>".encode(encoding)
        if encoding == "utf-16-le":
            data = b"\xff\xfe" + data
        elif encoding == "utf-16-be":
            data = b"\xfe\xff" + data
        evs = shape(events_of(data))
        assert ("text", "é") in evs


def test_reading_past_end_document_raises():
    ctx = ParseContext("<a/>")
    while ctx.next_event().kind is not EventKind.END_DOCUMENT:
        pass
    with pytest.raises(MalformedXmlError):
        ctx.next_event()


def test_malformed_input_leaves_no_reference_cycle():
    """The kept error is raised anew each time; no traceback holds the context."""
    def read_to_error():
        ctx = ParseContext("<a><b>" + "<c/>" * 20_000 + "</a>")  # spans chunks
        raised = []
        for _ in range(2):
            try:
                while ctx.next_event().kind is not EventKind.END_DOCUMENT:
                    pass
            except MalformedXmlError as exc:
                raised.append((type(exc), str(exc), exc.info))
        return raised

    gc.collect()
    gc.disable()
    try:
        first, again = read_to_error()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert first == again and first[2]["line"] == 1


class TestSkipSubtree:
    def test_single_empty_element(self):
        ctx = ParseContext("<a/>")
        ctx.next_event()
        assert ctx.skip_subtree() == 1

    def test_nested_count(self):
        ctx = ParseContext("<a><b/><c><d/></c></a>")
        ctx.next_event()
        assert ctx.skip_subtree() == 4

    def test_stream_position_after_skip(self):
        ctx = ParseContext("<r><a><x/><y/></a><b>ok</b></r>")
        ctx.next_event()  # <r>
        ctx.next_event()  # <a>
        assert ctx.skip_subtree() == 3  # a, x, y
        ev = ctx.next_event()
        assert ev.kind is EventKind.START_ELEMENT and ev.name.local == "b"
        ev = ctx.next_event()
        assert ev.kind is EventKind.TEXT and ev.text == "ok"


class TestTolerance:
    def test_lenient_actions(self):
        ctx = ParseContext("<a/>", mode="lenient", source_name="f.xml")
        ctx.violation(Violation.UNKNOWN_ELEMENT, "m1")
        ctx.violation(Violation.MISSING_REQUIRED, "m2")
        ctx.violation(Violation.BAD_SIMPLE_VALUE, "m3")
        ctx.violation(Violation.UNEXPECTED_TEXT, "m4")
        assert len(ctx.warnings) == 4

    def test_strict_raises_typed_errors(self):
        ctx = ParseContext("<a/>", mode="strict")
        with pytest.raises(UnknownElementError):
            ctx.violation(Violation.UNKNOWN_ELEMENT, "nope")
        with pytest.raises(BadSimpleValueError):
            ctx.violation(Violation.BAD_SIMPLE_VALUE, "nope")
        assert ctx.warnings == []  # strict mode never accumulates warnings

    def test_warning_format(self):
        ctx = ParseContext("<a>junk</a>", mode="lenient", source_name="data.xml")
        ctx.next_event()
        ctx.next_event()
        ctx.violation(Violation.UNEXPECTED_TEXT, "text not allowed")
        line = ctx.warnings[0].format()
        assert line.startswith("WARN data.xml:")
        assert "UNEXPECTED_TEXT" in line and "text not allowed" in line
        parts = line.split()
        assert parts[0] == "WARN"
        assert parts[1].count(":") == 2  # file:line:col


# XSD 1.0 Part 2 lexical spaces: integer 3.3.13, decimal 3.2.3, double 3.2.5
# (only INF, -INF and NaN are special), in the spec's own grouping, apart
# from the runtime's patterns.  Each kind: (runtime conversion, Python's
# conversion, lexical pattern).
_DECIMAL_FORM = r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"
NUMERIC_KINDS = {
    "integer": (conv_integer, int, r"[+-]?[0-9]+"),
    "decimal": (conv_decimal, Decimal, _DECIMAL_FORM),
    "double": (conv_double, float, _DECIMAL_FORM + r"([Ee][+-]?[0-9]+)?|-?INF|NaN"),
}
xml_space = st.text(" \t\r\n", max_size=2)
ascii_digits = st.text("0123456789", min_size=1, max_size=4)
# Forms Python's int, Decimal or float may take that XSD may not: digit
# groups joined by "_", non-ASCII decimal digits, special words, exponents,
# and Unicode whitespace that str.strip() removes.
python_numeric = st.one_of(
    st.lists(ascii_digits, min_size=2, max_size=3).map("_".join),
    st.text(st.characters(categories=("Nd",)), min_size=1, max_size=4),
    st.sampled_from(["inf", "-inf", "+INF", "Infinity", "-Infinity", "infinity",
                     "nan", "NAN", "-NaN", "+NaN", "sNaN", "1e5", "2E-3", "+.5e+1"]),
    st.builds("{}{}{}".format, st.sampled_from(["\u00a0", "\u2003", "\x0b", "\x0c",
                                                "\x1c", "\u3000", ""]),
              st.from_regex(NUMERIC_KINDS["double"][2], fullmatch=True),
              st.sampled_from(["\u00a0", "\x85", "\u2028", "\x0c"])),
)


def _accepted_by(python, text):
    try:
        python(text)
    except (ArithmeticError, ValueError):  # InvalidOperation is an ArithmeticError
        return False
    return True


@pytest.mark.parametrize("kind", sorted(NUMERIC_KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numbers_read_by_xsd_lexical_rules(kind, data):
    conv, python, pattern = NUMERIC_KINDS[kind]
    raw = data.draw(python_numeric, label="raw")
    assume(_accepted_by(python, raw))
    assume(not re.fullmatch(pattern, raw.strip(" \t\r\n")))
    with pytest.raises(BadSimpleValueError):
        conv(ParseContext("<a/>", mode="strict"), raw, "v")
    ctx = ParseContext("<a/>", mode="lenient")
    assert conv(ctx, raw, "v") is None
    assert [w.code for w in ctx.warnings] == ["BAD_SIMPLE_VALUE"]


@pytest.mark.parametrize("kind", sorted(NUMERIC_KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_xsd_lexical_number_converts(kind, data):
    conv, python, pattern = NUMERIC_KINDS[kind]
    form = data.draw(st.from_regex(pattern, fullmatch=True), label="form")
    raw = data.draw(xml_space) + form + data.draw(xml_space)
    value = conv(ParseContext("<a/>", mode="strict"), raw, "v")
    expected = python(form)
    assert type(value) is type(expected)
    assert value == expected or (form == "NaN" and value != value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts integers of any length")
def test_integer_past_the_interpreter_digit_limit_is_a_bad_value():
    raw = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(BadSimpleValueError):
        conv_integer(ParseContext("<a/>", mode="strict"), raw, "v")


@pytest.mark.parametrize("kind", sorted(NUMERIC_KINDS))
@pytest.mark.parametrize("raw", ["1" * 50_000 + "x", "1." + "1" * 50_000 + "x",
                                 "1e" + "1" * 50_000 + "x"],
                         ids=["digits", "fraction", "exponent"])
def test_long_bad_number_fails_in_linear_time(kind, raw):
    # A pattern with more than one way to split a digit run backtracks
    # quadratically here: tens of seconds on this input, not milliseconds.
    conv = NUMERIC_KINDS[kind][0]
    began = time.perf_counter()
    with pytest.raises(BadSimpleValueError):
        conv(ParseContext("<a/>", mode="strict"), raw, "v")
    assert time.perf_counter() - began < 2.0


simple_name = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
xml_text = st.from_regex(r"[a-zA-Z0-9 .,;]{0,12}", fullmatch=True)


@st.composite
def xml_tree(draw, depth=0):
    name = draw(simple_name)
    if depth >= 3:
        children = []
    else:
        children = draw(st.lists(xml_tree(depth=depth + 1), max_size=3))
    text = draw(xml_text)
    return (name, text, children)


def serialize(tree):
    name, text, children = tree
    inner = text + "".join(serialize(c) for c in children)
    return f"<{name}>{inner}</{name}>"


@settings(max_examples=80, deadline=None)
@given(xml_tree())
def test_event_nesting_is_balanced(tree):
    """Well-formed input yields properly nested, name-matched pairs."""
    ctx = ParseContext(serialize(tree))
    stack = []
    starts = ends = 0
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.START_ELEMENT:
            stack.append(ev.name)
            starts += 1
        elif ev.kind is EventKind.END_ELEMENT:
            assert stack and stack.pop() == ev.name
            ends += 1
        elif ev.kind is EventKind.END_DOCUMENT:
            break
    assert not stack
    assert starts == ends


# ---------------------------------------------------------------- differential

URIS = ("urn:a", "urn:b", "")
PREFIXES = ("p", "q")
text_piece = st.sampled_from(["ab", " c ", "&amp;", "&lt;", "&gt;", "&#65;", "&#x3b1;",
                              "\r\n", "\n", "\t", "]", "é"])
attr_piece = st.sampled_from(["v", " w", "&amp;", "&quot;", "&#9;", "&#10;", "\t",
                              "\r\n", "\n", "'", "&lt;"])


@st.composite
def markup_between_text(draw):
    return draw(st.sampled_from([
        "<!-- note -->", "<?pi some data?>", "<![CDATA[<raw> & ]]>", "<![CDATA[]]>"]))


@st.composite
def xml_element(draw, scope, depth=0):
    decls = {}
    if draw(st.booleans()):
        decls[""] = draw(st.sampled_from(URIS))
    for prefix in PREFIXES:
        if draw(st.integers(0, 3)) == 0:
            decls[prefix] = draw(st.sampled_from(URIS[:2]))
    inner = {**scope, **decls}
    bound = [p for p in PREFIXES if p in inner]
    prefix = draw(st.sampled_from(("",) + tuple(bound)))
    tag = f"{prefix}:{draw(simple_name)}" if prefix else draw(simple_name)
    head = [f'xmlns="{uri}"' if not p else f'xmlns:{p}="{uri}"'
            for p, uri in decls.items()]
    # Distinct local names keep prefixed attributes distinct after resolution.
    for local in draw(st.lists(simple_name, max_size=3, unique=True)):
        aprefix = draw(st.sampled_from(("",) + tuple(bound)))
        value = "".join(draw(st.lists(attr_piece, max_size=4)))
        head.append(f'{aprefix}:{local}="{value}"' if aprefix else f'{local}="{value}"')
    sep = draw(st.sampled_from([" ", "\t", "\r\n "]))
    open_tag = "<" + sep.join([tag] + head)
    content = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                content.append("".join(draw(st.lists(text_piece, min_size=1, max_size=3))))
            elif kind == 1:
                content.append(draw(markup_between_text()))
            else:
                content.append(draw(xml_element(inner, depth + 1)))
    if not content and draw(st.booleans()):
        return open_tag + "/>"
    return f"{open_tag}>{''.join(content)}</{tag}>"


def clark(qn):
    return f"{{{qn.namespace}}}{qn.local}" if qn.namespace else qn.local


def runtime_stream(doc):
    ctx = ParseContext(doc)
    out, scopes = [], []
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.START_ELEMENT:
            out.append(("start", clark(ev.name),
                        {clark(q): v for q, v in ev.attributes}))
            scopes.append(ctx.active_namespaces())
        elif ev.kind is EventKind.TEXT:
            if ev.text:
                out.append(("text", ev.text))
        elif ev.kind is EventKind.END_ELEMENT:
            out.append(("end", clark(ev.name)))
        else:
            return out, scopes


def etree_stream(doc):
    parser = ET.XMLPullParser(events=("start", "end", "start-ns"))
    parser.feed(doc)
    parser.close()
    scopes, stack, declared = [], [{"xml": XML_NAMESPACE}], {}
    root = None
    for event, item in parser.read_events():
        if event == "start-ns":
            declared[item[0]] = item[1]
        elif event == "start":
            stack.append({**stack[-1], **declared})
            scopes.append(stack[-1])
            declared = {}
        else:
            stack.pop()
            root = item

    out = []

    def walk(elem):
        out.append(("start", elem.tag, dict(elem.attrib)))
        if elem.text:
            out.append(("text", elem.text))
        for child in elem:
            walk(child)
            if child.tail:
                out.append(("text", child.tail))
        out.append(("end", elem.tag))

    walk(root)
    return out, scopes


@settings(max_examples=150, deadline=None)
@given(xml_element({}), st.sampled_from(["", '<?xml version="1.0"?>\r\n<!-- c -->']))
def test_events_match_elementtree(body, prolog):
    """Names, attributes, coalesced text and scopes agree with ElementTree."""
    doc = prolog + body
    assert runtime_stream(doc) == etree_stream(doc)


# ---------------------------------------------------------------- tree reader

class _Rec:
    """A read_tree node that keeps everything the reader hands it."""

    def __init__(self, name, attributes, scope, line, col):
        self.fields = (clark(name), {clark(q): v for q, v in attributes}, dict(scope),
                       line, col)
        self.children = ()
        self.has_text = False

    def shape(self):
        return self.fields + (self.has_text, [c.shape() for c in self.children])


def pulled_tree(doc, source_name="<input>"):
    """The tree read_tree should build, assembled from ParseContext's events."""
    ctx = ParseContext(doc, source_name=source_name)
    stack = [[]]  # the children lists of the open elements, innermost last
    while True:
        ev = ctx.next_event()
        if ev.kind is EventKind.START_ELEMENT:
            node = [clark(ev.name), {clark(q): v for q, v in ev.attributes},
                    ctx.active_namespaces(), ev.line, ev.col, False, []]
            stack[-1].append(node)
            stack.append(node[-1])
        elif ev.kind is EventKind.TEXT:
            if ev.text.strip(" \t\r\n"):
                stack[-2][-1][5] = True
        elif ev.kind is EventKind.END_ELEMENT:
            stack.pop()
        else:
            (root,) = stack[0]
            return _as_tuples(root)


def _as_tuples(node):
    return tuple(node[:6]) + ([_as_tuples(c) for c in node[6]],)


@settings(max_examples=150, deadline=None)
@given(xml_element({}), st.sampled_from(["", '<?xml version="1.0"?>\r\n<!-- c -->']),
       st.sampled_from(["str", "utf-8", "utf-16"]))
def test_read_tree_equals_tree_of_events(body, prolog, encoding):
    """Names, attributes, scopes, START positions, text flags and child order."""
    doc = prolog + body
    if encoding == "utf-16":
        doc = codecs.BOM_UTF16_LE + doc.encode("utf-16-le")
    elif encoding == "utf-8":
        doc = doc.encode("utf-8")
    assert read_tree(doc, "t.xml", _Rec).shape() == pulled_tree(doc, "t.xml")


def test_read_tree_gives_leaves_no_child_list():
    root = read_tree("<a><b/><c>x</c><d> </d></a>", "t.xml", _Rec)
    assert [c.children for c in root.children] == [(), (), ()]
    assert [c.has_text for c in root.children] == [False, True, False]


REFUSED = [
    *(LAUGHS + tail for tail in ("<a>&x6;</a>", '<a b="&x6;"/>')),
    '<!DOCTYPE a [<!ENTITY x SYSTEM "file:///etc/hostname">]><a>&x;</a>',
    '<!DOCTYPE a [<!ENTITY % p "<!ENTITY x \'1\'>">%p;]><a>&x;</a>',
    '<!DOCTYPE a [<!ATTLIST a xmlns CDATA "urn:x">]><a/>',
    '<!DOCTYPE a SYSTEM "a.dtd"><a/>',
    '<?xml version="1.0" standalone="yes"?><!DOCTYPE a SYSTEM "a.dtd"><a>&x;</a>',
    "<a", "<a></b>", "</a>", "<a x='1' x='2'/>", "<a>]]></a>", "text only", "<a/><b/>",
    "<a>&#0;</a>", "<a>\x01</a>", '<a b="1"c="2"/>', '<a xmlns:p=""/>', "<p:a/>", "",
    "<r>\n  <ok/>\n  <bad attr=x/>\n</r>", "<a>\ud800</a>",
]


@pytest.mark.parametrize("doc", REFUSED)
def test_read_tree_refuses_as_the_event_stream_does(doc):
    """The same MalformedXmlError message, line and column through both readers."""
    with pytest.raises(MalformedXmlError) as pulled:
        events_of(doc, source_name="f.xml")
    with pytest.raises(MalformedXmlError) as built:
        read_tree(doc, "f.xml", _Rec)
    assert (str(built.value), built.value.line, built.value.col) == \
        (str(pulled.value), pulled.value.line, pulled.value.col)
