"""Assign schema components to corpus document nodes and accumulate usage facts.

For every XML node the analyzer finds the element declaration and
effective type describing it, walking content models with a single-pass
greedy matcher (valid under XSD 1.0's Unique Particle Attribution rule).
The result is a UsageReport: which components were used, which types
were instanced, observed substitutions and wildcard fillers, per-particle
occurrence maxima, and which elements only ever wrap a single child.

A document is read in one streaming pass, in expat's callbacks, with no
element tree.  A stack holds one entry per open element.  At a child's
START, its declaration is resolved from the names its parent type's
element particles admit, and its facts and warnings are recorded, in
document order.  At an element's END, the matcher assigns the child names
and must agree with every resolution made at START.  The document is read
again on the tree path (:func:`read_tree`, then a pre-order visit of the
tree) when:

* a match disagrees with a START resolution, as for an out-of-order child
  in lenient mode;
* a parent's particles admit a name as two different declarations;
* an element has a child, and its type's content model holds a wildcard;
* a toolchain error is raised: malformed XML, a strict-mode mismatch or an
  invalid ``xsi:type``, among others.

The tree path decides every such case on its own, and is the only source
of failure messages, so what the streaming pass leaves out costs time,
never a different report.

Work that repeats is done once: a corpus shares one content matcher, one
set of attribute/content facts and one child-name table per type, and one
name table per element declaration; within a document each distinct (type,
child-name sequence) is matched once.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import (
    AmbiguousMatchError,
    InvalidTypeOverrideError,
    MalformedDocumentError,
    MalformedXmlError,
    SlimbindError,
    UnknownRootElementError,
    UnmatchedChildError,
)
from .jsonio import SKIP, dumps, loads
from .model import (
    XSI_NAMESPACE,
    ComponentKind,
    ContentKind,
    ElementParticle,
    GroupParticle,
    ParticlePath,
    QName,
    SchemaSet,
    WildcardParticle,
    substitution_members,
)
from .runtime import (
    _CHUNK,
    _XML_SPACE,
    _XSI_NIL,
    _XSI_TYPE,
    _ExpatSource,
    _QNames,
    _attribute,
    _qname,
    _split,
    expat_name,
    read_tree,
    xsi_type_name,
)


_XSI_PREFIX = f"{XSI_NAMESPACE} "  # how the expat name of every xsi attribute starts


class MatchKind(Enum):
    ELEMENT = "element"
    WILDCARD = "wildcard"
    WILDCARD_OPAQUE = "wildcard-opaque"
    SKIP = "skip"


@dataclass(slots=True)
class Assignment:
    kind: MatchKind
    particle: Optional[ParticlePath] = None
    element: Optional[str] = None  # element component id (wildcard filler included)
    effective_type: Optional[str] = None
    head: Optional[str] = None  # head element id when matched via substitution
    wildcard: Optional[str] = None


# ---------------------------------------------------------------- usage report

@dataclass(slots=True)
class UsageReport:
    used_components: set[str] = field(default_factory=set)
    instanced_types: set[str] = field(default_factory=set)
    type_substitutions: dict[str, set[str]] = field(default_factory=dict)  # elem -> types
    element_substitutions: dict[str, set[str]] = field(default_factory=dict)  # head -> members
    wildcard_fillers: dict[str, set[str]] = field(default_factory=dict)  # wildcard -> elems
    occurrence_maxima: dict[ParticlePath, int] = field(default_factory=dict)
    single_child_elements: set[str] = field(default_factory=set)
    document_count: int = 0
    root_elements: set[str] = field(default_factory=set)
    failures: list = field(default_factory=list, metadata=SKIP)  # (doc name, error)
    warnings: list = field(default_factory=list, metadata=SKIP)
    _single_child_state: dict = field(init=False, metadata=SKIP)  # elem id -> bool

    def __post_init__(self):
        # Every element the analyzer visits is used and has a state, so the
        # serialized sets give the state of a reloaded report.
        self._single_child_state = {e: e in self.single_child_elements
                                    for e in self.used_components if e.startswith("element:")}

    def merge(self, other: "UsageReport") -> "UsageReport":
        """Commutative merge: set union, pointwise max, count sum."""
        return UsageReport().merge_into(self).merge_into(other)

    def merge_into(self, other: "UsageReport") -> "UsageReport":
        """In-place :meth:`merge`: folds ``other`` into this report, returns it.

        Costs the size of ``other``, not of the accumulated report.
        """
        self.used_components |= other.used_components
        self.instanced_types |= other.instanced_types
        for mine, theirs in ((self.type_substitutions, other.type_substitutions),
                             (self.element_substitutions, other.element_substitutions),
                             (self.wildcard_fillers, other.wildcard_fillers)):
            for k, v in theirs.items():
                mine.setdefault(k, set()).update(v)
        maxima = self.occurrence_maxima
        for k, v in other.occurrence_maxima.items():
            maxima[k] = max(maxima.get(k, 0), v)
        state = self._single_child_state
        for elem, ok in other._single_child_state.items():
            ok = state[elem] = state.get(elem, True) and ok
            if ok:
                self.single_child_elements.add(elem)
            else:
                self.single_child_elements.discard(elem)
        self.document_count += other.document_count
        self.root_elements |= other.root_elements
        self.failures.extend(other.failures)
        self.warnings.extend(other.warnings)
        return self

    def to_json(self) -> str:
        return dumps(self)

    @classmethod
    def from_json(cls, text: str) -> "UsageReport":
        return loads(cls, text)


def merge_reports(reports) -> UsageReport:
    out = UsageReport()
    for r in reports:
        out.merge_into(r)
    return out


# ---------------------------------------------------------------- root / child assignment

def assign_root(schema: SchemaSet, root_name: QName,
                xsi_type: Optional[QName] = None):
    """Global element for a document root and its effective type."""
    comp = schema.lookup_global("element", root_name)
    if comp is None:
        raise UnknownRootElementError(f"no global element named {root_name}")
    declared = comp.detail.declared_type
    if xsi_type is None:
        return comp.id, declared
    override = schema.lookup_global("type", xsi_type)
    if override is None:
        raise InvalidTypeOverrideError(f"xsi:type names unknown type {xsi_type}")
    if not schema.is_derived_from(override.id, declared):
        raise InvalidTypeOverrideError(
            f"xsi:type {xsi_type} is not derived from the declared type of {root_name}")
    return comp.id, override.id


class ContentMatcher:
    """Greedy left-to-right matcher for one complex type's content model."""

    def __init__(self, schema: SchemaSet, type_id: str):
        self.schema = schema
        self.type_id = type_id
        self.levels = []
        for declaring, content in schema.effective_content_chain(type_id):
            if content.kind is ContentKind.PARTICLES:
                self.levels.append((declaring, content.root))
        # element id -> the name table of its particles; _CorpusTables
        # shares one dict between the matchers of a corpus.
        self.element_names = {}

    # ------------------------------------------------------------ name tables

    def _element_matches(self, particle: ElementParticle):
        """qname -> element id for an element particle; see :func:`_name_table`."""
        table = self.element_names.get(particle.element)
        if table is None:
            table = self.element_names[particle.element] = _name_table(self.schema, particle)
        return table

    def _can_start(self, particle, name: QName) -> bool:
        if isinstance(particle, ElementParticle):
            return name in self._element_matches(particle)
        if isinstance(particle, WildcardParticle):
            wc = self.schema.component(particle.wildcard).detail
            if not wc.admits(name.namespace):
                return False
            if wc.process_contents == "strict":
                return self.schema.lookup_global("element", name) is not None
            return True
        if particle.compositor.value == "sequence":
            for child in particle.children:
                if self._can_start(child, name):
                    return True
                if not self._nullable(child):
                    return False
            return False
        return any(self._can_start(c, name) for c in particle.children)

    def _nullable(self, particle) -> bool:
        if particle.occurs.min == 0:
            return True
        if isinstance(particle, GroupParticle):
            if particle.compositor.value == "choice":
                return any(self._nullable(c) for c in particle.children)
            return all(self._nullable(c) for c in particle.children)
        return False

    # ------------------------------------------------------------ matching

    def match(self, names, strict: bool):
        """Assign each name; in lenient mode unmatched names become SKIPs."""
        state = _MatchState(names)
        while state.more():
            before = state.i
            for declaring, root in self.levels:
                self._match_particle(root, declaring, (), state)
                if not state.more():
                    break
            if state.i == before and state.more():
                if strict:
                    raise UnmatchedChildError(
                        f"child <{state.current()}> at position {state.i} does not "
                        f"match the content model of {self.type_id}")
                state.skip()
            if strict:
                break
        if strict and state.more():
            raise UnmatchedChildError(
                f"child <{state.current()}> at position {state.i} does not match "
                f"the content model of {self.type_id}")
        return state

    def _match_particle(self, particle, declaring, path, state) -> int:
        if isinstance(particle, ElementParticle):
            return self._match_element(particle, declaring, path, state)
        count = 0
        occurs = particle.occurs
        while state.more() and (occurs.max is None or count < occurs.max):
            if not self._can_start(particle, state.current()):
                break
            if not self._match_once(particle, declaring, path, state):
                break
            count += 1
        return count

    def _match_element(self, particle, declaring, path, state) -> int:
        """Take the run of names an element particle matches; returns its length.

        The run shares one Assignment per distinct table hit.  No reader of
        a match changes an Assignment, so sharing one between children is
        safe.
        """
        table = self._element_matches(particle)
        limit = particle.occurs.max
        names, assignments = state.names, state.assignments
        first = at = state.i
        stop = len(names) if limit is None else min(len(names), first + limit)
        made = {}  # element id -> its Assignment in this run
        last = None  # a run repeats one name object: look it up once
        while at < stop:
            name = names[at]
            if name is not last:
                elem_id = table.get(name)
                if elem_id is None:
                    break
                last = name
                assignment = made.get(elem_id)
                if assignment is None:
                    assignment = made[elem_id] = Assignment(
                        kind=MatchKind.ELEMENT, particle=ParticlePath(declaring, path),
                        element=elem_id,
                        effective_type=self.schema.component(elem_id).detail.declared_type,
                        head=None if elem_id == particle.element else particle.element)
            assignments[at] = assignment
            at += 1
        if at > first:
            state.taken(at - first, assignments[first].particle)
        return at - first

    def _match_once(self, particle, declaring, path, state) -> bool:
        if isinstance(particle, WildcardParticle):
            name = state.current()
            pp = ParticlePath(declaring, path)
            filler = self.schema.lookup_global("element", name)
            if filler is not None and not filler.detail.is_abstract:
                state.take(Assignment(
                    kind=MatchKind.WILDCARD, particle=pp, element=filler.id,
                    effective_type=filler.detail.declared_type,
                    wildcard=particle.wildcard), pp)
            else:
                state.take(Assignment(
                    kind=MatchKind.WILDCARD_OPAQUE, particle=pp,
                    wildcard=particle.wildcard), pp)
            return True

        if particle.ref:
            state.groups_used.add(particle.ref)
        comp = particle.compositor.value
        if comp == "sequence":
            progressed = False
            for i, child in enumerate(particle.children):
                if self._match_particle(child, declaring, path + (i,), state):
                    progressed = True
                if not state.more():
                    break
            return progressed
        if comp == "choice":
            if not state.more():
                return False
            name = state.current()
            candidates = [(i, c) for i, c in enumerate(particle.children)
                          if self._can_start(c, name)]
            non_wild = [(i, c) for i, c in candidates
                        if not isinstance(c, WildcardParticle)]
            pool = non_wild or candidates
            if len(pool) > 1:
                raise AmbiguousMatchError(
                    f"<{name}> matches {len(pool)} branches of a choice in "
                    f"{declaring}; content model is ambiguous")
            if not pool:
                return False
            i, child = pool[0]
            return self._match_particle(child, declaring, path + (i,), state) > 0
        # xs:all -- children in any order, each at most once
        matched = set()
        progressed = False
        while state.more():
            name = state.current()
            candidates = [(i, c) for i, c in enumerate(particle.children)
                          if i not in matched and self._can_start(c, name)]
            if not candidates:
                break
            if len(candidates) > 1:
                raise AmbiguousMatchError(
                    f"<{name}> matches {len(candidates)} members of an all-group in "
                    f"{declaring}")
            i, child = candidates[0]
            if self._match_particle(child, declaring, path + (i,), state):
                matched.add(i)
                progressed = True
            else:
                break
        return progressed


def _name_table(schema: SchemaSet, particle: ElementParticle) -> dict:
    """qname -> element id of the elements a particle admits.

    An id other than the particle's own element is a member of its
    substitution group.
    """
    table = {}
    comp = schema.component(particle.element)
    if not comp.detail.is_abstract:
        table[comp.detail.qname] = comp.id
    if comp.is_global:
        for member_id in substitution_members(schema, comp.id):
            member = schema.component(member_id)
            if not member.detail.is_abstract:
                table.setdefault(member.detail.qname, member_id)
    return table


class _MatchState:
    def __init__(self, names):
        self.names = list(names)
        self.i = 0
        self.assignments = [None] * len(self.names)
        self.counts = {}  # ParticlePath -> count under this parent
        self.groups_used = set()

    def more(self):
        return self.i < len(self.names)

    def current(self):
        return self.names[self.i]

    def take(self, assignment, pp):
        self.assignments[self.i] = assignment
        self.taken(1, pp)

    def taken(self, n, pp):
        """Count the ``n`` names just assigned to ``pp`` and move past them."""
        self.counts[pp] = self.counts.get(pp, 0) + n
        self.i += n

    def skip(self):
        self.assignments[self.i] = Assignment(kind=MatchKind.SKIP)
        self.i += 1


def assign_children(schema: SchemaSet, parent_type: str, child_names,
                    mode: str = "strict"):
    """Match a child-name sequence against a complex type's content model.

    Returns one Assignment per child; in lenient mode unmatched children get
    SKIP assignments instead of raising.
    """
    matcher = ContentMatcher(schema, parent_type)
    state = matcher.match(list(child_names), strict=(mode == "strict"))
    return state.assignments


# ---------------------------------------------------------------- document analysis

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
        if not attributes:
            self.attributes = ()
            return
        plain = []
        for qn, value in attributes:
            if qn.namespace != XSI_NAMESPACE:
                plain.append((qn, value))
            elif qn.local == "type":
                self.xsi_type = _qname(xsi_type_name(value, scope, line, col))
            elif qn.local == "nil":
                self.nil = value.strip(_XML_SPACE) in ("true", "1")
        self.attributes = tuple(plain)


_NO_ATTRIBUTES = {}  # shared, never changed


class _TypeFacts:
    """What visiting an instance of one type reads from the schema.

    ``children`` is the type's child-name table, for the streaming pass.
    """

    __slots__ = ("type_id", "attributes", "wildcard", "mixed", "element_content",
                 "children")

    def __init__(self, tables: _CorpusTables, type_id: str):
        schema = tables.schema
        comp = schema.component(type_id)
        self.type_id = type_id
        self.attributes = _NO_ATTRIBUTES  # attribute expat name -> attribute id
        self.wildcard = None  # attribute wildcard id
        self.mixed = False
        self.element_content = False  # complex, and its content is not simple
        if comp.kind is ComponentKind.COMPLEX_TYPE:
            attributes = {}
            for _level, use in schema.effective_attribute_uses(type_id):
                qn = schema.component(use.attribute).detail.qname
                if qn.namespace != XSI_NAMESPACE:  # xsi attributes are never declared ones
                    attributes[expat_name(qn.namespace, qn.local)] = use.attribute
            self.attributes = attributes or _NO_ATTRIBUTES
            self.wildcard = comp.detail.attribute_wildcard
            self.mixed = schema.effective_mixed(type_id)
            self.element_content = comp.detail.content.kind is not ContentKind.SIMPLE
        self.children = _ChildNames(tables, type_id)


# What a child-name table gives for a name that is not one declaration.
_SKIPPED = "skipped"  # no particle admits it: a skipped child
_AMBIGUOUS = "ambiguous"  # particles admit it as different declarations
_ROOT = "root"  # the document element
_INSIDE_SKIPPED = "inside skipped"  # an element of a skipped subtree


class _Always(dict):
    """A child-name table that resolves every name to ``value``."""

    __slots__ = ("value",)
    matcher = None  # children resolved here are never matched

    def __init__(self, value):
        super().__init__()
        self.value = value

    def __missing__(self, name):
        return self.value


_AT_ROOT = _Always(_ROOT)
_NIL_CHILDREN = _Always(_SKIPPED)  # the children of a nil element
_IN_SKIPPED = _Always(_INSIDE_SKIPPED)


class _ChildNames(dict):
    """How one type's content model resolves the expat name of a child.

    A name maps to ``(element id, head, facts of its declared type)`` when
    the type's element particles admit it as one declaration, ``head``
    being the substitution head it stands for, or None; else to
    ``_SKIPPED`` or ``_AMBIGUOUS``.  Each name is resolved once per corpus,
    the first time it is met, from the name tables the corpus's matchers
    share, one per element declaration, so no table is copied per type.
    ``matcher`` is the type's matcher, or None when the type allows no
    element children, from the first name on.  A content model with a
    wildcard raises :class:`_Fallback`.
    """

    __slots__ = ("tables", "type_id", "matcher", "particles")

    def __init__(self, tables, type_id):
        super().__init__()
        # The tables hold this table; a weak reference back lets a corpus's
        # tables be freed as soon as its analysis ends, with no cycle.
        self.tables, self.type_id = weakref.proxy(tables), type_id
        self.matcher = None
        self.particles = None  # the element particles, once read

    def __missing__(self, name):
        tables = self.tables
        if self.particles is None:
            self.particles = self._element_particles()
        qname = tables.qnames[name]
        found = set()
        for particle in self.particles:
            elem_id = self.matcher._element_matches(particle).get(qname)
            if elem_id is not None:
                found.add((elem_id, None if elem_id == particle.element else particle.element))
        if len(found) == 1:
            [(elem_id, head)] = found
            value = (elem_id, head, tables.type_facts(
                tables.schema.component(elem_id).detail.declared_type))
        else:
            value = _AMBIGUOUS if found else _SKIPPED
        self[name] = value
        return value

    def _element_particles(self):
        facts = self.tables.type_facts(self.type_id)
        if not facts.element_content:
            return ()
        matcher = self.tables.matcher(self.type_id)
        if not matcher.levels:
            return ()
        particles, todo = [], [root for _declaring, root in matcher.levels]
        while todo:
            particle = todo.pop()
            if isinstance(particle, ElementParticle):
                particles.append(particle)
            elif isinstance(particle, WildcardParticle):
                raise _Fallback(f"{self.type_id} has a wildcard")
            else:
                todo.extend(particle.children)
        self.matcher = matcher
        return tuple(particles)


class _Fallback(Exception):
    """The streaming pass leaves the document to the tree path."""


class _CorpusTables:
    """Content matchers and per-type facts, shared by a corpus's documents.

    The matchers also share their element-name tables: the types of an
    extension chain match their base levels' particles, and the table of
    each element is built once, for every particle that refers to it.
    ``qnames`` builds the QName of each expat name once per corpus, for the
    child-name tables and the streaming pass alike.
    """

    def __init__(self, schema: SchemaSet):
        self.schema = schema
        self.facts = {}  # type id -> _TypeFacts
        self.matchers = {}  # type id -> ContentMatcher
        self.element_names = {}  # element id -> name table
        self.qnames = _QNames()  # expat name -> QName, for matching and messages

    def type_facts(self, type_id) -> _TypeFacts:
        facts = self.facts.get(type_id)
        if facts is None:
            facts = self.facts[type_id] = _TypeFacts(self, type_id)
        return facts

    def matcher(self, type_id) -> ContentMatcher:
        m = self.matchers.get(type_id)
        if m is None:
            m = self.matchers[type_id] = ContentMatcher(self.schema, type_id)
            m.element_names = self.element_names
        return m


def _override(schema: SchemaSet, declared: str, xsi_type: QName) -> Optional[str]:
    """The id of the type ``xsi:type`` names, if it is derived from ``declared``."""
    found = schema.lookup_global("type", xsi_type)
    if found is not None and schema.is_derived_from(found.id, declared):
        return found.id
    return None


class _DocumentAnalyzer:
    def __init__(self, schema: SchemaSet, mode: str, doc_name: str,
                 tables: _CorpusTables):
        self.schema = schema
        self.strict = mode == "strict"
        self.doc = doc_name
        self.report = UsageReport()
        self.tables = tables
        self._matches = {}  # (type id, child QNames) -> _MatchState
        self._leaves = set()  # (element id, type id, head) of leaves visited

    def _match(self, type_id, names: tuple):
        """``ContentMatcher.match`` of ``names``, memoised for this document.

        Returns ``(state, new)``; ``new`` is False when this document already
        matched the same names under the same type, so the report already
        holds the state's groups and occurrence counts.
        """
        key = (type_id, names)
        st = self._matches.get(key)
        if st is not None:
            return st, False
        st = self._matches[key] = self.tables.matcher(type_id).match(
            names, strict=self.strict)
        return st, True

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
        override = _override(self.schema, declared, node.xsi_type)
        if override is None:
            message = (f"xsi:type {node.xsi_type} on <{node.qname}> is not derived "
                       f"from the declared type")
            if self.strict:
                raise InvalidTypeOverrideError(f"{self.doc}:{node.line}: {message}")
            self.warn(node, message)
            return declared
        if override != declared:
            self.report.type_substitutions.setdefault(elem_id, set()).add(override)
        return override

    def visit(self, node: _INode, elem_id: str, type_id: str):
        report = self.report
        used = report.used_components
        used.add(elem_id)
        used.add(type_id)
        report.instanced_types.add(type_id)
        facts = self.tables.type_facts(type_id)

        # Attribute usage.
        for qn, _value in node.attributes:
            attr_id = facts.attributes.get(expat_name(qn.namespace, qn.local))
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

        if node.nil:
            if children:
                self._unmatched_children(node, children)
            return

        if not children:
            return

        if not facts.element_content or not self.tables.matcher(type_id).levels:
            self._unmatched_children(node, children)
            return

        try:
            st, new = self._match(type_id, tuple([c.qname for c in children]))
        except UnmatchedChildError as exc:
            raise UnmatchedChildError(f"{self.doc}:{node.line}: {exc}") from None
        if new:
            used.update(st.groups_used)
            maxima = report.occurrence_maxima
            for pp, count in st.counts.items():
                if count > maxima.get(pp, 0):
                    maxima[pp] = count
        # A leaf child (no children, plain attributes, xsi:nil or xsi:type)
        # adds only set members and a False single-child state: visit each
        # distinct one once.
        leaves = self._leaves
        element = MatchKind.ELEMENT
        for child, assignment in zip(children, st.assignments):
            if (assignment.kind is element and not child.children
                    and not child.attributes and not child.nil
                    and child.xsi_type is None):
                key = (assignment.element, assignment.effective_type, assignment.head)
                if key in leaves:
                    continue
                leaves.add(key)
            self._visit_child(child, assignment)

    def _visit_child(self, child: _INode, assignment: Assignment):
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
            # The head itself is retained later via the SUBSTITUTION_HEAD edge;
            # only the member that actually appeared counts as used.
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


def _coerce_document(index: int, item):
    if isinstance(item, tuple):
        name, data = item
        return str(name), data
    if isinstance(item, (str, bytes)):
        return f"doc[{index}]", item
    if hasattr(item, "__fspath__"):
        path = os.fspath(item)
        with open(path, "rb") as fh:
            return path, fh.read()
    raise TypeError(f"unsupported document source: {type(item)!r}")


def analyze_document(schema: SchemaSet, name: str, data, mode: str,
                     tables: Optional[_CorpusTables] = None) -> UsageReport:
    """Usage facts of one document.

    The streaming pass reads it first; a document it leaves is read again
    on the tree path.  ``tables`` carries content matchers and per-type
    facts between the documents of one corpus; a lone call builds its own.
    """
    if tables is None:
        tables = _CorpusTables(schema)
    try:
        return _stream_document(schema, name, data, mode, tables)
    except (_Fallback, SlimbindError):
        pass
    return _tree_document(schema, name, data, mode, tables)


def _tree_document(schema, name, data, mode, tables) -> UsageReport:
    """Usage facts of one document, read into a tree of :class:`_INode`."""
    try:
        root = read_tree(data, name, _INode)
    except MalformedXmlError as exc:
        raise MalformedDocumentError(f"{name}: {exc}") from exc
    return _DocumentAnalyzer(schema, mode, name, tables).run(root)


def _stream_document(schema, doc, data, mode, tables) -> UsageReport:
    """Usage facts of one document, gathered in expat's callbacks.

    Each open element has an entry on ``stack``: ``[children, element id,
    facts, child names, plain attribute count, nil, has text]``, where
    ``children`` is the table that resolves its children's expat names.  A
    child's facts are recorded at its START, from that resolution, and
    warnings in document order, as the tree path's pre-order visit gives
    them.  At an element's END, :meth:`ContentMatcher.match` assigns its
    child names once per document and shape, and every assignment must be
    the resolution made at START.  Where the tree path could decide
    otherwise (a disagreement, an ambiguous name, a wildcard, a toolchain
    error) this raises, and the caller reads the document on the tree path.
    """
    strict = mode == "strict"
    report = UsageReport()
    used, instanced = report.used_components, report.instanced_types
    single = report._single_child_state
    qnames = tables.qnames
    matched = set()  # (type id, child names) this document has matched
    skipped = [_IN_SKIPPED, None, None, None, 0, False, False]
    stack = [[_AT_ROOT, None, None, [], 0, False, False]]
    push, pop = stack.append, stack.pop

    def warn(message):
        report.warnings.append(f"{doc}:{parser.CurrentLineNumber}:"
                               f"{parser.CurrentColumnNumber + 1}: {message}")

    def start(name, attrs):
        parent = stack[-1]
        xsi = None
        if attrs and _XSI_TYPE in attrs:
            value = _attribute(attrs, _XSI_TYPE)
            if value is not None:
                xsi = xsi_type_name(value, scopes[-1], parser.CurrentLineNumber,
                                    parser.CurrentColumnNumber + 1)
        hit = parent[0][name]
        if hit.__class__ is tuple:
            parent[3].append(name)
        elif hit is _INSIDE_SKIPPED:
            push(skipped)
            return
        elif hit is _ROOT:
            hit, xsi = root(name, xsi), None
        elif hit is _SKIPPED and not strict:
            parent[3].append(name)
            warn(f"unmatched element <{qnames[name]}> skipped")
            push(skipped)
            return
        else:
            raise _Fallback(f"<{qnames[name]}> is {hit}")
        elem_id, head, facts = hit
        if head is not None:
            # The head itself is retained later via the SUBSTITUTION_HEAD edge;
            # only the member that actually appeared counts as used.
            report.element_substitutions.setdefault(head, set()).add(elem_id)
        if xsi is not None:
            facts = override(name, elem_id, facts, xsi)
        type_id = facts.type_id
        used.add(elem_id)
        used.add(type_id)
        instanced.add(type_id)
        children = facts.children
        plain = 0
        nil = False
        if attrs:
            declared = facts.attributes
            for at in range(0, len(attrs), 2):
                attr = attrs[at]
                attr_id = declared.get(attr)
                if attr_id is not None:
                    used.add(attr_id)
                    plain += 1
                elif attr.startswith(_XSI_PREFIX):
                    if attr == _XSI_NIL and attrs[at + 1].strip(_XML_SPACE) in ("true", "1"):
                        nil = True
                        children = _NIL_CHILDREN
                else:
                    plain += 1
                    undeclared(name, attr, facts)
        push([children, elem_id, facts, [], plain, nil, False])

    def root(name, xsi):
        elem_id, type_id = assign_root(schema, qnames[name],
                                       None if xsi is None else qnames[xsi])
        report.root_elements.add(elem_id)
        if xsi is not None and type_id != schema.component(elem_id).detail.declared_type:
            report.type_substitutions.setdefault(elem_id, set()).add(type_id)
        return elem_id, None, tables.type_facts(type_id)

    def override(name, elem_id, facts, xsi):
        type_id = _override(schema, facts.type_id, qnames[xsi])
        if type_id is None:
            if strict:
                raise _Fallback(f"xsi:type {qnames[xsi]} is not derived")
            warn(f"xsi:type {qnames[xsi]} on <{qnames[name]}> is not derived "
                 f"from the declared type")
            return facts
        if type_id != facts.type_id:
            report.type_substitutions.setdefault(elem_id, set()).add(type_id)
        return tables.type_facts(type_id)

    def undeclared(name, attr, facts):
        wildcard = facts.wildcard
        if wildcard is not None and schema.component(wildcard).detail.admits(
                _split(attr)[0]):
            used.add(wildcard)
        else:
            warn(f"undeclared attribute {qnames[attr]} on <{qnames[name]}>")

    def end(_name):
        entry = pop()
        names = entry[3]
        if not names:  # a leaf never qualifies as a single-child wrapper
            if entry is not skipped:
                single[entry[1]] = False
            return
        children, elem_id, facts, names, plain, nil, has_text = entry
        if children.matcher is not None:
            key = (facts.type_id, tuple(names))
            if key not in matched:
                match(key, children)
        if single.get(elem_id, True):
            single[elem_id] = (len(names) == 1 and not plain and not has_text
                               and not facts.mixed and not nil)

    def match(key, children):
        """Match one shape of children and check it against their START."""
        names = key[1]
        state = children.matcher.match(tuple([qnames[n] for n in names]), strict)
        last = None
        for name, assignment in zip(names, state.assignments):
            if last is not None and name == last[0] and assignment is last[1]:
                continue  # a run shares its Assignment
            last = name, assignment
            hit = children[name]
            if assignment.kind is MatchKind.ELEMENT:
                agrees = (hit.__class__ is tuple and hit[0] == assignment.element
                          and hit[1] == assignment.head
                          and hit[2].type_id == assignment.effective_type)
            else:
                agrees = assignment.kind is MatchKind.SKIP and hit is _SKIPPED
            if not agrees:
                raise _Fallback(f"the match of <{qnames[name]}> disagrees with its START")
        used.update(state.groups_used)
        maxima = report.occurrence_maxima
        for pp, count in state.counts.items():
            if count > maxima.get(pp, 0):
                maxima[pp] = count
        matched.add(key)

    def characters(chunk):
        if chunk.strip(_XML_SPACE):
            stack[-1][6] = True

    source = _ExpatSource(data, doc, start, end, characters)
    parser, scopes = source.parser, source.scopes
    at = 0  # fed in chunks, so that expat never holds a copy of the document
    while not source.feed(at, at + _CHUNK):
        at += _CHUNK
    report.document_count = 1
    report.single_child_elements = {e for e, ok in single.items() if ok}
    return report


def analyze_corpus(schema: SchemaSet, documents, mode: str = "strict") -> UsageReport:
    """Aggregate usage facts over a corpus; document order does not matter.

    Failed documents (malformed, or unmatched in strict mode) are recorded
    in ``report.failures`` and contribute nothing else to the report.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be strict or lenient, got {mode!r}")
    total = UsageReport()
    tables = _CorpusTables(schema)
    for i, item in enumerate(documents):
        name, data = _coerce_document(i, item)
        try:
            part = analyze_document(schema, name, data, mode, tables)
        except (MalformedDocumentError, UnmatchedChildError,
                InvalidTypeOverrideError, UnknownRootElementError,
                AmbiguousMatchError) as exc:
            total.failures.append((name, exc))
            continue
        total.merge_into(part)
    return total
