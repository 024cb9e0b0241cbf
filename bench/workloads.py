"""Seeded inputs for the benchmark's workloads.

Each function below returns a :class:`Workload`: the schema files, the training
corpus handed to ``slimbind generate``, the parse set handed to the
generated package, and the counts the inputs were built to have.  The same
seed always gives byte-identical inputs.  Everything the program sees is
plain XSD/XML text; nothing here calls into ``slimbind``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from conftest import XS_HEAD
from test_acceptance import PERF_SCHEMA, build_megabyte_document


@dataclass
class Workload:
    mode: str  # "strict" or "lenient", for both analysis and parsing
    schemas: dict  # file name -> XSD text; every file is passed to --schemas
    corpus: list  # (file name, XML text) written under corpus/
    parse_set: list  # (source name, XML text) given to parse_document
    expected: dict  # counts the inputs were built to yield

    def corpus_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for _n, text in self.corpus)

    def parse_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for _n, text in self.parse_set)


# ---------------------------------------------------------------- log-1mb

def log_1mb(seed: int) -> Workload:
    """The acceptance 1 MB log document, analyzed strictly and then parsed.

    The seed shuffles the words of the repeated note text, so every seed
    gives a document of exactly the acceptance size and record count.
    """
    doc, n_records = build_megabyte_document()
    note = re.search(r"<note>(.*?)</note>", doc).group(1)
    words = note.split(" ")
    random.Random(seed).shuffle(words)
    doc = doc.replace(note, " ".join(words))
    return Workload(
        mode="strict",
        schemas={"log.xsd": f"{XS_HEAD}\n{PERF_SCHEMA}\n</xs:schema>"},
        corpus=[("log.xml", doc)],
        parse_set=[("log.xml", doc)],
        expected={"records": n_records, "documents": 1, "violations": 0},
    )


# ---------------------------------------------------------------- wide-schema

WIDE_NAMESPACES = 4
WIDE_TYPES = 256  # per namespace; one global element per type
WIDE_CHAIN = 4  # extension chain length
WIDE_PART_MEMBERS = 4  # substitution-group members per namespace
WIDE_INJECT_EVERY = 8  # one document in this many carries a foreign element
_XS = "http://www.w3.org/2001/XMLSchema"
_FOREIGN = '<f:extra xmlns:f="urn:bench:foreign"><f:deep>x</f:deep></f:extra>'


def _wide_ns(k):
    return f"urn:bench:wide:{k}"


def _wide_prev(k):
    return max(k - 1, 0)


def _wide_xsd(k: int) -> str:
    """Namespace k: WIDE_TYPES types in extension chains, one element each.

    Chain heads hold a repeatable reference to the abstract substitution
    head ``w0:part``.  Chain tails hold a child of the leaf type of
    namespace k-1, so every namespace but the first imports another.
    """
    prev = _wide_prev(k)
    lines = [f'<xs:schema xmlns:xs="{_XS}" xmlns:w{k}="{_wide_ns(k)}"'
             + (f' xmlns:w0="{_wide_ns(0)}"' if k else "")
             + (f' xmlns:w{prev}="{_wide_ns(prev)}"' if prev else "")
             + f' targetNamespace="{_wide_ns(k)}" elementFormDefault="qualified">']
    for j in sorted({0, prev} - {k}):
        lines.append(f'  <xs:import namespace="{_wide_ns(j)}" '
                     f'schemaLocation="wide{j}.xsd"/>')
    if k == 0:
        lines += [
            '  <xs:complexType name="PartType"><xs:sequence>',
            '    <xs:element name="label" type="xs:string"/>',
            '  </xs:sequence><xs:attribute name="code" type="xs:int"/></xs:complexType>',
            '  <xs:element name="part" type="w0:PartType" abstract="true"/>',
        ]
    lines += [
        f'  <xs:complexType name="PT{k}"><xs:complexContent>'
        f'<xs:extension base="w0:PartType"><xs:sequence>',
        f'    <xs:element name="q{k}" type="xs:decimal"/>',
        '  </xs:sequence></xs:extension></xs:complexContent></xs:complexType>',
        f'  <xs:complexType name="L{k}"><xs:sequence>',
        f'    <xs:element name="lv{k}" type="xs:string"/>',
        f'    <xs:element name="lw{k}" type="xs:int"/>',
        '  </xs:sequence></xs:complexType>',
    ]
    for m in range(WIDE_PART_MEMBERS):
        part_type = f"w{k}:PT{k}" if m % 2 else "w0:PartType"
        lines.append(f'  <xs:element name="P{k}_{m}" type="{part_type}" '
                     'substitutionGroup="w0:part"/>')
    for i in range(WIDE_TYPES):
        t = f"T{k}_{i:04d}"
        lines.append(f'  <xs:element name="E{k}_{i:04d}" type="w{k}:{t}"/>')
        pos = i % WIDE_CHAIN
        if pos == 0:
            lines += [
                f'  <xs:complexType name="{t}"><xs:sequence>',
                f'    <xs:element name="a{k}_{i:04d}" type="xs:string"/>',
                f'    <xs:element name="n{k}_{i:04d}" type="xs:int"/>',
                '    <xs:element ref="w0:part" minOccurs="0" maxOccurs="unbounded"/>',
                '  </xs:sequence><xs:attribute name="id" type="xs:int"/></xs:complexType>',
            ]
            continue
        own = [f'    <xs:element name="x{k}_{i:04d}" type="xs:decimal"/>']
        if pos == WIDE_CHAIN - 1:
            own.append(f'    <xs:element name="c{k}_{i:04d}" type="w{prev}:L{prev}"/>')
        lines += [
            f'  <xs:complexType name="{t}"><xs:complexContent>'
            f'<xs:extension base="w{k}:T{k}_{i - 1:04d}"><xs:sequence>',
            *own,
            '  </xs:sequence></xs:extension></xs:complexContent></xs:complexType>',
        ]
    lines.append("</xs:schema>")
    return "\n".join(lines)


def _wide_document(rng, k, i, xmlns) -> str:
    """One document rooted at E{k}_{i}: the content of every chain level."""
    base = i - i % WIDE_CHAIN
    p, q = f"w{k}", f"w{_wide_prev(k)}"
    out = [f'<{p}:E{k}_{i:04d}{xmlns} id="{rng.randint(0, 9999)}">',
           f"<{p}:a{k}_{base:04d}>v{rng.randint(0, 999)}</{p}:a{k}_{base:04d}>",
           f"<{p}:n{k}_{base:04d}>{rng.randint(-99, 999)}</{p}:n{k}_{base:04d}>"]
    # Two parts per document: no part field is ever tightened to a scalar.
    for _ in range(2):
        pk = rng.randrange(WIDE_NAMESPACES)
        m = rng.randrange(WIDE_PART_MEMBERS)
        extra = f"<w{pk}:q{pk}>{rng.randint(0, 99)}.5</w{pk}:q{pk}>" if m % 2 else ""
        out.append(f'<w{pk}:P{pk}_{m} code="{rng.randint(0, 99)}">'
                   f"<w0:label>L{rng.randint(0, 99)}</w0:label>{extra}</w{pk}:P{pk}_{m}>")
    for j in range(base + 1, i + 1):
        out.append(f"<{p}:x{k}_{j:04d}>{rng.randint(0, 99)}.25</{p}:x{k}_{j:04d}>")
        if j % WIDE_CHAIN == WIDE_CHAIN - 1:
            kq = _wide_prev(k)
            out.append(f"<{p}:c{k}_{j:04d}><{q}:lv{kq}>s{rng.randint(0, 99)}</{q}:lv{kq}>"
                       f"<{q}:lw{kq}>{rng.randint(0, 99)}</{q}:lw{kq}></{p}:c{k}_{j:04d}>")
    out.append(f"</{p}:E{k}_{i:04d}>")
    return "".join(out)


def wide_schema(seed: int) -> Workload:
    """Several imported namespaces with thousands of globals; a quarter used.

    The seed picks which quarter of the global elements the corpus roots
    documents at: the same number at every chain depth in every namespace,
    so the generated classes and their fields have the same shape and size
    whatever the seed.  It also picks the eighth of the documents whose root
    opens with an element from a foreign namespace; the corpus is analyzed
    and parsed in lenient mode, so each of those is one warning.
    """
    rng = random.Random(seed)
    xmlns = "".join(f' xmlns:w{k}="{_wide_ns(k)}"' for k in range(WIDE_NAMESPACES))
    per_depth = WIDE_TYPES // WIDE_CHAIN // 4
    roots = []
    for k in range(WIDE_NAMESPACES):
        for pos in range(WIDE_CHAIN):
            roots += [(k, i) for i in rng.sample(range(pos, WIDE_TYPES, WIDE_CHAIN),
                                                 per_depth)]
    rng.shuffle(roots)
    injected = set(rng.sample(range(len(roots)), len(roots) // WIDE_INJECT_EVERY))
    corpus = []
    for n, (k, i) in enumerate(roots):
        doc = _wide_document(rng, k, i, xmlns)
        if n in injected:
            # No content model here has a wildcard, so the foreign element is
            # unknown to both the analyzer and the generated parser.
            cut = doc.index(">") + 1
            doc = doc[:cut] + _FOREIGN + doc[cut:]
        corpus.append((f"w{n:04d}.xml", doc))
    return Workload(
        mode="lenient",
        schemas={f"wide{k}.xsd": _wide_xsd(k) for k in range(WIDE_NAMESPACES)},
        corpus=corpus,
        parse_set=list(corpus),
        expected={"documents": len(corpus), "violations": len(injected)},
    )


WORKLOADS = {
    "log-1mb": log_1mb,
    "wide-schema": wide_schema,
}
