"""Assign schema components to corpus document nodes and accumulate usage facts.

For every XML node the analyzer finds the element declaration and
effective type describing it, walking content models with a single-pass
greedy matcher (valid under XSD 1.0's Unique Particle Attribution rule).
The result is a UsageReport: which components were used, which types
were instanced, observed substitutions and wildcard fillers, per-particle
occurrence maxima, and which elements only ever wrap a single child.

A document is read in expat's callbacks, with no element tree.  A stack
holds one entry per open element.  At a child's START, its declaration
is predicted from its name by the particles of its parent's type, and
its facts and warnings are recorded, in document order.  At an element's
END, the matcher assigns the child names, records which substitution
head or wildcard took each child, and must agree with every prediction.
Where it does not, as for an out-of-order child in lenient mode or a name
that reaches two declarations, the document is read again through the
same code, with the match's assignments fixed for the parents that
disagreed, until a read fixes no new parent.  Analysis errors are held
until expat reaches the end of the document, so that malformed XML wins;
the one raised is the one a pre-order visit of the tree would reach
first.

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
    _split,
    expat_name,
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
            if strict and state.more():  # strict mode makes one pass
                raise UnmatchedChildError(
                    f"child <{state.current()}> at position {state.i} does not match "
                    f"the content model of {self.type_id}")
            if state.i == before and state.more():
                state.skip()
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

    def _fill(self, particle: WildcardParticle, name: QName, pp=None) -> Assignment:
        """The Assignment of ``name`` to a wildcard particle: a filler, or opaque."""
        filler = self.schema.lookup_global("element", name)
        if filler is not None and not filler.detail.is_abstract:
            return Assignment(kind=MatchKind.WILDCARD, particle=pp, element=filler.id,
                              effective_type=filler.detail.declared_type,
                              wildcard=particle.wildcard)
        return Assignment(kind=MatchKind.WILDCARD_OPAQUE, particle=pp,
                          wildcard=particle.wildcard)

    def _match_once(self, particle, declaring, path, state) -> bool:
        if isinstance(particle, WildcardParticle):
            pp = ParticlePath(declaring, path)
            state.assignments[state.i] = self._fill(particle, state.current(), pp)
            state.taken(1, pp)
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
            if not self._match_particle(child, declaring, path + (i,), state):
                break
            matched.add(i)
        return bool(matched)


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

    def taken(self, n, pp):
        """Count the ``n`` names just assigned to ``pp`` and move past them."""
        self.counts[pp] = self.counts.get(pp, 0) + n
        self.i += n

    def skip(self):
        self.assignments[self.i] = Assignment(kind=MatchKind.SKIP)
        self.i += 1


# ---------------------------------------------------------------- document analysis

_NO_ATTRIBUTES = {}  # shared, never changed


class _TypeFacts:
    """What reading an instance of one type needs from the schema."""

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
_OPAQUE = "opaque"  # only wildcards admit it, and it has no global declaration
_AMBIGUOUS = "ambiguous"  # two declarations: left to the parent's END match
_ROOT = "root"  # the document element
_INSIDE_SKIPPED = "inside skipped"  # an element of a skipped subtree


def _hit(tables, assignment: Assignment):
    """What a child-name table gives for a child matched as ``assignment``."""
    if assignment.element is not None:
        return assignment.element, tables.type_facts(assignment.effective_type)
    return _OPAQUE if assignment.kind is MatchKind.WILDCARD_OPAQUE else _SKIPPED


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


class _Fixed(dict):
    """A fixed parent's child-name table: each child, in order, gets the hit
    the parent's match gave it in an earlier read of the document."""

    __slots__ = ("next", "matcher")

    def __init__(self, hits, matcher):
        super().__init__()
        self.next = iter(hits).__next__
        self.matcher = matcher

    def __missing__(self, name):
        return self.next()


class _ChildNames(dict):
    """How one type's content model predicts the declaration of a child, by name.

    A name maps to ``(element id, facts of its declared type)`` when the
    type's particles admit it as one declaration, through an element
    particle, its substitution head's particle or a wildcard that fills it
    (:meth:`ContentMatcher._fill`); else to ``_OPAQUE``, ``_SKIPPED`` or
    ``_AMBIGUOUS``.  Each name is resolved once per corpus, from the name
    tables the corpus's matchers share, one per element declaration.
    ``matcher`` is the type's matcher, or None when the type allows no
    element children, from the first name on.
    """

    __slots__ = ("tables", "type_id", "matcher", "particles")

    def __init__(self, tables, type_id):
        super().__init__()
        # The tables hold this table; a weak reference back lets a corpus's
        # tables be freed as soon as its analysis ends, with no cycle.
        self.tables, self.type_id = weakref.proxy(tables), type_id
        self.matcher = None
        self.particles = None  # the element and wildcard particles, once read

    def __missing__(self, name):
        tables = self.tables
        if self.particles is None:
            self.particles = self._particles()
        qname = tables.qnames[name]
        matcher = self.matcher
        found = set()
        for particle in self.particles:
            if isinstance(particle, ElementParticle):
                elem_id = matcher._element_matches(particle).get(qname)
                if elem_id is not None:
                    found.add((elem_id, tables.type_facts(
                        tables.schema.component(elem_id).detail.declared_type)))
            elif matcher._can_start(particle, qname):
                found.add(_hit(tables, matcher._fill(particle, qname)))
        if len(found) > 1:  # a declaration is predicted before an opaque wildcard
            found.discard(_OPAQUE)
        value = found.pop() if len(found) == 1 else _AMBIGUOUS if found else _SKIPPED
        self[name] = value
        return value

    def _particles(self):
        facts = self.tables.type_facts(self.type_id)
        if not facts.element_content:
            return ()
        matcher = self.tables.matcher(self.type_id)
        if not matcher.levels:
            return ()
        particles, todo = [], [root for _declaring, root in matcher.levels]
        while todo:
            particle = todo.pop()
            if isinstance(particle, GroupParticle):
                todo.extend(particle.children)
            else:
                particles.append(particle)
        self.matcher = matcher
        return tuple(particles)


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

    A document the first read cannot decide is read again, keeping element
    positions, until a read fixes no new parent.  ``tables`` carries content
    matchers and per-type facts between the documents of one corpus; a
    lone call builds its own.
    """
    if tables is None:
        tables = _CorpusTables(schema)
    report = _stream_document(schema, name, data, mode, tables)
    fixes = {}
    while report is None:
        report = _stream_document(schema, name, data, mode, tables, fixes)
    return report


class _Again(Exception):
    """The document needs a read that keeps element positions."""


def _stream_document(schema, doc, data, mode, tables, fixes=None) -> Optional[UsageReport]:
    """Usage facts of one document, gathered in expat's callbacks; None to read again.

    Each open element has an entry on ``stack``: ``[children, element id,
    facts, child names, plain attribute count, has text]``, where
    ``children`` resolves its children's expat names.  ``fixes`` is None on
    the first read, which keeps no positions and stops at the first thing
    it cannot decide.  Later reads keep each open element's ``(line,
    column)`` on ``opened``; ``fixes`` maps the position and type id of
    each fixed parent to the hits of its children.  An error is held at
    its element, a child-list error at the parent and an ``xsi:type``
    error at the element that carries it, and the earliest one is raised.
    """
    strict = mode == "strict"
    report = UsageReport()
    used, instanced = report.used_components, report.instanced_types
    single = report._single_child_state
    qnames = tables.qnames
    shapes = {}  # (type id, child names) -> True, the hits of a disagreement, or an error
    skipped = [_IN_SKIPPED, None, None, None, 0, False]
    stack = [[_AT_ROOT, None, None, [], 0, False]]
    push, pop = stack.append, stack.pop
    opened = []  # the position of each open element, when fixes is not None
    held = None  # (position, error)
    known = 0 if fixes is None else len(fixes)

    def warn(message):
        report.warnings.append(f"{doc}:{parser.CurrentLineNumber}:"
                               f"{parser.CurrentColumnNumber + 1}: {message}")

    def hold(error, located=None):
        """Hold an error at the open element: ``error``, or ``error`` made of
        ``located`` after the document name and the element's line."""
        nonlocal held
        if fixes is None:
            raise _Again
        at = opened[-1]
        if held is None or at < held[0]:
            held = at, error if located is None else error(f"{doc}:{at[0]}: {located}")

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
        elif hit is _ROOT:
            hit, xsi = root(name, xsi), None
            if hit is None:
                push(skipped)
                return
        else:
            if hit is not _INSIDE_SKIPPED:
                parent[3].append(name)
                skip(name, hit)
            push(skipped)
            return
        elem_id, facts = hit
        if xsi is not None:
            facts = override(name, elem_id, facts, xsi)
            if facts is None:
                push(skipped)
                return
        type_id = facts.type_id
        used.add(elem_id)
        used.add(type_id)
        instanced.add(type_id)
        children = facts.children
        plain = 0
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
                        children = _NIL_CHILDREN
                else:
                    plain += 1
                    undeclared(name, attr, facts)
        push([children, elem_id, facts, [], plain, False])

    def root(name, xsi):
        try:
            elem_id, type_id = assign_root(schema, qnames[name],
                                           None if xsi is None else qnames[xsi])
        except (UnknownRootElementError, InvalidTypeOverrideError) as exc:
            hold(exc)
            return None
        report.root_elements.add(elem_id)
        if xsi is not None and type_id != schema.component(elem_id).detail.declared_type:
            report.type_substitutions.setdefault(elem_id, set()).add(type_id)
        return elem_id, tables.type_facts(type_id)

    def skip(name, hit):
        """Start a child that is not one declaration; its subtree is skipped."""
        if hit is _OPAQUE:
            warn(f"wildcard content <{qnames[name]}> has no global declaration; "
                 "subtree recorded against the wildcard")
        elif hit is _AMBIGUOUS or strict:
            # The parent's END match decides: it fixes the parent, or fails.
            if fixes is None:
                raise _Again
        else:
            warn(f"unmatched element <{qnames[name]}> skipped")

    def override(name, elem_id, facts, xsi):
        found = schema.lookup_global("type", qnames[xsi])
        if found is None or not schema.is_derived_from(found.id, facts.type_id):
            message = (f"xsi:type {qnames[xsi]} on <{qnames[name]}> is not derived "
                       "from the declared type")
            if strict:
                hold(InvalidTypeOverrideError, message)
                return None
            warn(message)
            return facts
        if found.id != facts.type_id:
            report.type_substitutions.setdefault(elem_id, set()).add(found.id)
        return tables.type_facts(found.id)

    def undeclared(name, attr, facts):
        wildcard = facts.wildcard
        if wildcard is not None and schema.component(wildcard).detail.admits(
                _split(attr)[0]):
            used.add(wildcard)
        else:
            warn(f"undeclared attribute {qnames[attr]} on <{qnames[name]}>")

    def end(name):
        entry = pop()
        names = entry[3]
        if not names:  # a leaf never qualifies as a single-child wrapper
            if entry is not skipped:
                single[entry[1]] = False
            return
        children, elem_id, facts, names, plain, has_text = entry
        if children.matcher is not None:
            key = (facts.type_id, tuple(names))
            outcome = shapes.get(key)
            if outcome is None:
                outcome = shapes[key] = match(key, children.matcher, facts.children)
            if outcome.__class__ is tuple:
                hold(*outcome)
            elif outcome is not True and children.__class__ is not _Fixed:
                if fixes is None:
                    raise _Again
                fixes[opened[-1], facts.type_id] = outcome
        elif strict:
            hold(UnmatchedChildError, f"<{qnames[name]}> does not allow element "
                                      f"children but has <{qnames[names[0]]}>")
        if single.get(elem_id, True):
            single[elem_id] = (len(names) == 1 and not plain and not has_text
                               and not facts.mixed and children is not _NIL_CHILDREN)

    def match(key, matcher, predicted):
        """Record one shape's match and which head or wildcard took each child;
        True when it agrees with every START prediction, else the hits it
        gives, or its error as :func:`hold` takes it."""
        names = key[1]
        try:
            state = matcher.match(tuple([qnames[n] for n in names]), strict)
        except UnmatchedChildError as exc:
            return UnmatchedChildError, str(exc)
        except AmbiguousMatchError as exc:
            return (exc,)
        used.update(state.groups_used)
        maxima = report.occurrence_maxima
        for pp, count in state.counts.items():
            if count > maxima.get(pp, 0):
                maxima[pp] = count
        agrees = True
        last = None
        for name, assignment in zip(names, state.assignments):
            if last is not None and name == last[0] and assignment is last[1]:
                continue  # a run shares its Assignment
            last = name, assignment
            if assignment.head is not None:
                # The head itself is retained later via the SUBSTITUTION_HEAD
                # edge; only the member that actually appeared counts as used.
                report.element_substitutions.setdefault(assignment.head, set()).add(
                    assignment.element)
            elif assignment.wildcard is not None:
                used.add(assignment.wildcard)
                if assignment.element is not None:
                    report.wildcard_fillers.setdefault(assignment.wildcard, set()).add(
                        assignment.element)
            if agrees and predicted[name] != _hit(tables, assignment):
                agrees = False
        return True if agrees else [_hit(tables, a) for a in state.assignments]

    def characters(chunk):
        if chunk.strip(_XML_SPACE):
            stack[-1][5] = True

    if fixes is not None:
        read_start, read_end = start, end

        def start(name, attrs):
            at = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
            opened.append(at)
            read_start(name, attrs)
            entry = stack[-1]
            if entry is not skipped:
                hits = fixes.get((at, entry[2].type_id))
                if hits is not None:
                    entry[0] = _Fixed(hits, tables.matcher(entry[2].type_id))

        def end(name):
            read_end(name)
            opened.pop()

    at = 0  # fed in chunks, so that expat never holds a copy of the document
    try:
        source = _ExpatSource(data, doc, start, end, characters)
        parser, scopes = source.parser, source.scopes
        while not source.feed(at, at + _CHUNK):
            at += _CHUNK
    except MalformedXmlError as exc:
        raise MalformedDocumentError(f"{doc}: {exc}") from exc
    except _Again:
        return None
    if fixes is not None and len(fixes) > known:
        return None
    if held is not None:
        raise held[1]
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
