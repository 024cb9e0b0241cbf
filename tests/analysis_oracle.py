"""Reference corpus analysis: the whole document as a tree, then a pre-order visit.

The analyzer in ``slimbind.analyzer`` reads documents in expat's
callbacks, predicting each child's declaration at its START and reading a
document again where its parent's match disagrees.  This module decides
the same facts the plain way, as the differential tests' reference: it
reads a document into a tree of :class:`_INode`
(:func:`slimbind.runtime.read_tree`), then visits it in pre-order,
matching every child list with a fresh
:class:`~slimbind.analyzer.ContentMatcher` and visiting every child.  It
keeps no memo and reads each type's attribute and content facts from the
schema itself, so what the streaming pass shares or memoises is checked
against work done afresh.

A document's failure is the first error this visit reaches, or the
document's malformed XML, which is found before any visit.
"""

from __future__ import annotations

from slimbind.analyzer import ContentMatcher, MatchKind, UsageReport, assign_root
from slimbind.errors import (
    AmbiguousMatchError,
    InvalidTypeOverrideError,
    MalformedDocumentError,
    MalformedXmlError,
    UnknownRootElementError,
    UnmatchedChildError,
)
from slimbind.model import XSI_NAMESPACE, ComponentKind, ContentKind
from slimbind.runtime import _XML_SPACE, _qname, read_tree, xsi_type_name


def assign_children(schema, parent_type: str, child_names, mode: str = "strict"):
    """Match a child-name sequence against a complex type's content model.

    Returns one Assignment per child; in lenient mode unmatched children get
    SKIP assignments instead of raising.
    """
    matcher = ContentMatcher(schema, parent_type)
    state = matcher.match(list(child_names), strict=(mode == "strict"))
    return state.assignments


def merge_reports(reports) -> UsageReport:
    out = UsageReport()
    for r in reports:
        out.merge_into(r)
    return out


class _INode:
    """One element of a corpus document, as :func:`read_tree` builds it.

    ``xsi:type`` and ``xsi:nil`` are taken out of the attributes here, and
    ``xsi:type`` is read by :func:`~slimbind.runtime.xsi_type_name`.
    """

    __slots__ = ("qname", "attributes", "xsi_type", "nil", "children", "has_text",
                 "line", "col")

    def __init__(self, qname, attributes, scope, line, col):
        self.qname = qname
        self.children = ()  # a list from the first child on
        self.has_text = False
        self.line = line
        self.col = col
        self.xsi_type = None
        self.nil = False
        plain = []
        for qn, value in attributes:
            if qn.namespace != XSI_NAMESPACE:
                plain.append((qn, value))
            elif qn.local == "type":
                self.xsi_type = _qname(xsi_type_name(value, scope, line, col))
            elif qn.local == "nil":
                self.nil = value.strip(_XML_SPACE) in ("true", "1")
        self.attributes = tuple(plain)


class _TypeFacts:
    """What a visit reads of one type, read from the schema afresh."""

    def __init__(self, schema, type_id):
        comp = schema.component(type_id)
        self.attributes = {}  # QName -> attribute id
        self.wildcard = None
        self.mixed = False
        self.element_content = False
        if comp.kind is ComponentKind.COMPLEX_TYPE:
            for _level, use in schema.effective_attribute_uses(type_id):
                self.attributes[schema.component(use.attribute).detail.qname] = use.attribute
            self.wildcard = comp.detail.attribute_wildcard
            self.mixed = schema.effective_mixed(type_id)
            self.element_content = comp.detail.content.kind is not ContentKind.SIMPLE


class TreeAnalyzer:
    """Usage facts of one document tree, by a pre-order visit."""

    def __init__(self, schema, mode: str, doc_name: str):
        self.schema = schema
        self.strict = mode == "strict"
        self.doc = doc_name
        self.report = UsageReport()

    def warn(self, node, message):
        self.report.warnings.append(f"{self.doc}:{node.line}:{node.col}: {message}")

    def run(self, root: _INode) -> UsageReport:
        elem_id, type_id = assign_root(self.schema, root.qname, root.xsi_type)
        self.report.root_elements.add(elem_id)
        if root.xsi_type is not None and type_id != \
                self.schema.component(elem_id).detail.declared_type:
            self.report.type_substitutions.setdefault(elem_id, set()).add(type_id)
        self.visit(root, elem_id, type_id)
        self.report.document_count = 1
        self.report.single_child_elements = {
            e for e, ok in self.report._single_child_state.items() if ok}
        return self.report

    def _apply_xsi_type(self, node, elem_id, declared):
        if node.xsi_type is None:
            return declared
        found = self.schema.lookup_global("type", node.xsi_type)
        if found is None or not self.schema.is_derived_from(found.id, declared):
            message = (f"xsi:type {node.xsi_type} on <{node.qname}> is not derived "
                       f"from the declared type")
            if self.strict:
                raise InvalidTypeOverrideError(f"{self.doc}:{node.line}: {message}")
            self.warn(node, message)
            return declared
        if found.id != declared:
            self.report.type_substitutions.setdefault(elem_id, set()).add(found.id)
        return found.id

    def visit(self, node: _INode, elem_id: str, type_id: str):
        report = self.report
        used = report.used_components
        used.add(elem_id)
        used.add(type_id)
        report.instanced_types.add(type_id)
        facts = _TypeFacts(self.schema, type_id)

        # Attribute usage.
        for qn, _value in node.attributes:
            attr_id = facts.attributes.get(qn)
            if attr_id is not None:
                used.add(attr_id)
            elif facts.wildcard is not None and self.schema.component(
                    facts.wildcard).detail.admits(qn.namespace):
                used.add(facts.wildcard)
            else:
                self.warn(node, f"undeclared attribute {qn} on <{node.qname}>")

        # Single-child qualification (per element declaration).
        children = node.children
        qualifies = (len(children) == 1 and not node.attributes
                     and not node.has_text and not facts.mixed and not node.nil)
        state = report._single_child_state
        state[elem_id] = state.get(elem_id, True) and qualifies

        if not children:
            return
        matcher = ContentMatcher(self.schema, type_id)
        if node.nil or not facts.element_content or not matcher.levels:
            self._unmatched_children(node, children)
            return
        try:
            st = matcher.match([c.qname for c in children], strict=self.strict)
        except UnmatchedChildError as exc:
            raise UnmatchedChildError(f"{self.doc}:{node.line}: {exc}") from None
        used.update(st.groups_used)
        maxima = report.occurrence_maxima
        for pp, count in st.counts.items():
            maxima[pp] = max(maxima.get(pp, 0), count)
        for child, assignment in zip(children, st.assignments):
            self._visit_child(child, assignment)

    def _visit_child(self, child: _INode, assignment):
        report = self.report
        if assignment.kind is MatchKind.SKIP:
            self.warn(child, f"unmatched element <{child.qname}> skipped")
            return
        if assignment.kind is MatchKind.WILDCARD_OPAQUE:
            report.used_components.add(assignment.wildcard)
            self.warn(child, f"wildcard content <{child.qname}> has no global "
                             "declaration; subtree recorded against the wildcard")
            return
        if assignment.kind is MatchKind.WILDCARD:
            report.used_components.add(assignment.wildcard)
            report.wildcard_fillers.setdefault(assignment.wildcard, set()).add(
                assignment.element)
        if assignment.head is not None:
            report.element_substitutions.setdefault(assignment.head, set()).add(
                assignment.element)
        effective = self._apply_xsi_type(child, assignment.element,
                                         assignment.effective_type)
        self.visit(child, assignment.element, effective)

    def _unmatched_children(self, node, children):
        if self.strict:
            raise UnmatchedChildError(
                f"{self.doc}:{node.line}: <{node.qname}> does not allow element "
                f"children but has <{children[0].qname}>")
        for child in children:
            self.warn(child, f"unmatched element <{child.qname}> skipped")


def tree_document(schema, name: str, data, mode: str) -> UsageReport:
    """Usage facts of one document, read into a tree of :class:`_INode`."""
    try:
        root = read_tree(data, name, _INode)
    except MalformedXmlError as exc:
        raise MalformedDocumentError(f"{name}: {exc}") from exc
    return TreeAnalyzer(schema, mode, name).run(root)


def analyze_corpus(schema, documents, mode: str = "strict") -> UsageReport:
    """:func:`slimbind.analyzer.analyze_corpus` of ``(name, data)`` pairs, on the tree."""
    total = UsageReport()
    for name, data in documents:
        try:
            part = tree_document(schema, name, data, mode)
        except (MalformedDocumentError, UnmatchedChildError,
                InvalidTypeOverrideError, UnknownRootElementError,
                AmbiguousMatchError) as exc:
            total.failures.append((name, exc))
            continue
        total.merge_into(part)
    return total
