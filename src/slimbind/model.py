"""In-memory model of XML Schema components and their dependency graph.

A :class:`SchemaSet` is an immutable, id-indexed collection of schema
components (types, element/attribute declarations, groups, wildcards)
plus labelled dependency edges between them.  Component ids double as
their external rendering: ``{kind}:{namespace}:{localOrPath}``, where
anonymous components get a stable path under their owning component so
ids survive reloads and re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

from .errors import NotAnElementError, UnknownComponentError

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"
XSI_NAMESPACE = "http://www.w3.org/2001/XMLSchema-instance"
XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"


@dataclass(frozen=True, order=True, slots=True)
class QName:
    """Namespace-qualified name; empty namespace means unqualified."""

    namespace: str
    local: str

    def __post_init__(self):
        if not self.local:
            raise ValueError("QName local part must be non-empty")
        if self.local.split() != [self.local] or ":" in self.local:
            raise ValueError(f"invalid QName local part: {self.local!r}")

    def __str__(self):
        return f"{{{self.namespace}}}{self.local}" if self.namespace else self.local


@dataclass(frozen=True, slots=True)
class Occurs:
    """Occurrence range; ``max=None`` means unbounded."""

    min: int = 1
    max: Optional[int] = 1

    def __post_init__(self):
        if self.min < 0:
            raise ValueError("min occurs must be >= 0")
        if self.max is not None and (self.max < 1 or self.max < self.min):
            raise ValueError(f"bad occurrence range [{self.min}, {self.max}]")

    @property
    def unbounded(self):
        return self.max is None


class ComponentKind(Enum):
    COMPLEX_TYPE = "complexType"
    SIMPLE_TYPE = "simpleType"
    ELEMENT_DECL = "element"
    ATTRIBUTE_DECL = "attribute"
    MODEL_GROUP_DEF = "group"
    ATTRIBUTE_GROUP_DEF = "attributeGroup"
    WILDCARD = "wildcard"


# Symbol spaces: complex and simple types share one; everything else has its own.
_CATEGORY = {
    ComponentKind.COMPLEX_TYPE: "type",
    ComponentKind.SIMPLE_TYPE: "type",
    ComponentKind.ELEMENT_DECL: "element",
    ComponentKind.ATTRIBUTE_DECL: "attribute",
    ComponentKind.MODEL_GROUP_DEF: "group",
    ComponentKind.ATTRIBUTE_GROUP_DEF: "attributeGroup",
}


def kind_category(kind: ComponentKind) -> str:
    return _CATEGORY[kind]


class EdgeLabel(Enum):
    BASE_TYPE = "BASE_TYPE"
    DECLARED_TYPE = "DECLARED_TYPE"
    PARTICLE_ELEMENT = "PARTICLE_ELEMENT"
    ATTRIBUTE_TYPE = "ATTRIBUTE_TYPE"
    GROUP_REF = "GROUP_REF"
    SUBSTITUTION_HEAD = "SUBSTITUTION_HEAD"
    WILDCARD = "WILDCARD"


class Compositor(Enum):
    SEQUENCE = "sequence"
    CHOICE = "choice"
    ALL = "all"


class Derivation(Enum):
    NONE = "none"
    EXTENSION = "extension"
    RESTRICTION = "restriction"


class SimpleVariety(Enum):
    ATOMIC = "atomic"
    LIST = "list"
    UNION = "union"


# ---------------------------------------------------------------- particles

@dataclass(slots=True)
class ElementParticle:
    element: str  # component id of an element declaration
    occurs: Occurs


@dataclass(slots=True)
class WildcardParticle:
    wildcard: str  # component id of a wildcard
    occurs: Occurs


@dataclass(slots=True)
class GroupParticle:
    compositor: Compositor
    children: list  # of Particle
    occurs: Occurs
    ref: Optional[str] = None  # model-group-definition id when from a group ref


Particle = Union[ElementParticle, WildcardParticle, GroupParticle]


@dataclass(frozen=True, order=True, slots=True)
class ParticlePath:
    """Addresses one particle: the declaring type plus child indices."""

    owner_type: str
    path: tuple

    def render(self) -> str:
        return f"{self.owner_type}#{'.'.join(str(i) for i in self.path)}"

    @classmethod
    def parse(cls, text: str) -> "ParticlePath":
        owner, _, tail = text.rpartition("#")
        path = tuple(int(p) for p in tail.split(".")) if tail else ()
        return cls(owner, path)


class ContentKind(Enum):
    EMPTY = "empty"
    SIMPLE = "simple"
    PARTICLES = "particles"


@dataclass(slots=True)
class ContentModel:
    kind: ContentKind
    simple_type: Optional[str] = None  # set iff kind is SIMPLE
    root: Optional[GroupParticle] = None  # set iff kind is PARTICLES

    @classmethod
    def empty(cls):
        return cls(ContentKind.EMPTY)

    @classmethod
    def simple(cls, type_id: str):
        return cls(ContentKind.SIMPLE, simple_type=type_id)

    @classmethod
    def particles(cls, root: GroupParticle):
        return cls(ContentKind.PARTICLES, root=root)


# ---------------------------------------------------------------- details

@dataclass(slots=True)
class AttributeUse:
    attribute: str  # component id of an attribute declaration
    required: bool
    default: Optional[str] = None
    via_group: Optional[str] = None  # attribute-group id the use was pulled from


@dataclass(slots=True)
class ComplexTypeDetail:
    base: Optional[str]
    derivation: Derivation
    content: ContentModel
    attributes: list  # of AttributeUse
    attribute_wildcard: Optional[str] = None
    is_abstract: bool = False
    mixed: bool = False
    facets: tuple = ()  # simpleContent restriction facets, kept for re-emission only

    def __post_init__(self):
        if (self.base is None) != (self.derivation is Derivation.NONE):
            raise ValueError("derivation must be NONE exactly when base is absent")


@dataclass(slots=True)
class SimpleTypeDetail:
    variety: SimpleVariety
    base: Optional[str] = None
    item: Optional[str] = None
    members: tuple = ()
    # Facets are parsed for fidelity but carry no validation semantics.
    facets: tuple = ()


@dataclass(slots=True)
class ElementDetail:
    qname: QName  # instance tag name (locals keep theirs; globals mirror .name)
    declared_type: str
    substitution_head: Optional[str] = None
    is_abstract: bool = False
    nillable: bool = False


@dataclass(slots=True)
class AttributeDetail:
    qname: QName
    declared_type: str


@dataclass(slots=True)
class WildcardDetail:
    # constraint: "any" | "other" | "enum"; namespaces only used for "enum".
    constraint: str
    namespaces: tuple = ()
    process_contents: str = "strict"
    owner_namespace: str = ""

    def admits(self, namespace: str) -> bool:
        if self.constraint == "any":
            return True
        if self.constraint == "other":
            return namespace != self.owner_namespace and namespace != ""
        return namespace in self.namespaces


@dataclass(slots=True)
class ModelGroupDetail:
    root: GroupParticle


@dataclass(slots=True)
class AttributeGroupDetail:
    attributes: list  # of AttributeUse
    attribute_wildcard: Optional[str] = None


Detail = Union[
    ComplexTypeDetail,
    SimpleTypeDetail,
    ElementDetail,
    AttributeDetail,
    WildcardDetail,
    ModelGroupDetail,
    AttributeGroupDetail,
    None,
]


@dataclass(slots=True)
class SchemaComponent:
    id: str
    kind: ComponentKind
    name: Optional[QName]  # present iff global
    detail: Detail
    namespace: str = ""  # target namespace of the declaring document
    owner: Optional[str] = None  # owning component id for anonymous components

    @property
    def is_global(self):
        return self.name is not None


def component_id(kind: ComponentKind, namespace: str, local_or_path: str) -> str:
    """Render the canonical id string for a component."""
    return f"{kind.value}:{namespace}:{local_or_path}"


@dataclass(frozen=True, slots=True)
class Edge:
    src: str
    label: EdgeLabel
    dst: str


# ---------------------------------------------------------------- schema set

class SchemaSet:
    """Resolved component graph.  Immutable after construction."""

    def __init__(self, components, global_index, edges, warnings=()):
        self.components: dict = components
        self.global_index: dict = global_index
        self.edges: tuple = tuple(edges)
        self.warnings: tuple = tuple(warnings)
        self._out: dict = {}
        self._owned: dict = {}
        self._subst_rev: dict = {}
        for e in self.edges:
            self._out.setdefault(e.src, []).append(e)
            if e.label is EdgeLabel.SUBSTITUTION_HEAD:
                self._subst_rev.setdefault(e.dst, []).append(e.src)
        for comp in components.values():
            if comp.owner is not None:
                self._owned.setdefault(comp.owner, []).append(comp.id)

    def __contains__(self, comp_id):
        return comp_id in self.components

    def component(self, comp_id: str) -> SchemaComponent:
        try:
            return self.components[comp_id]
        except KeyError:
            raise UnknownComponentError(f"no such component: {comp_id}") from None

    def lookup_global(self, category: str, qname: QName) -> Optional[SchemaComponent]:
        comp_id = self.global_index.get((category, qname))
        return self.components[comp_id] if comp_id else None

    def out_edges(self, comp_id: str, labels=None) -> Iterator[Edge]:
        for e in self._out.get(comp_id, ()):
            if labels is None or e.label in labels:
                yield e

    def owned(self, comp_id: str) -> tuple:
        return tuple(self._owned.get(comp_id, ()))

    def globals(self) -> Iterator[SchemaComponent]:
        for comp in self.components.values():
            if comp.is_global:
                yield comp

    # ------------------------------------------------------------ type algebra

    def base_chain(self, type_id: str) -> list:
        """Base-to-derived ancestry of a type, excluding the type itself."""
        chain = []
        comp = self.component(type_id)
        seen = {type_id}
        while True:
            base = getattr(comp.detail, "base", None)
            if base is None or base in seen:
                break
            seen.add(base)
            chain.append(base)
            comp = self.component(base)
        chain.reverse()
        return chain

    def is_derived_from(self, type_id: str, base_id: str) -> bool:
        """True when base_id is on type_id's base chain (or equal, or anyType)."""
        if type_id == base_id:
            return True
        base = self.component(base_id)
        if base.name == QName(XSD_NAMESPACE, "anyType"):
            return True
        return base_id in self.base_chain(type_id)

    def effective_content_chain(self, type_id: str) -> list:
        """Content models contributed per derivation level, base-to-derived.

        Extension appends to the base content; restriction (and no
        derivation) replaces it.  Each entry is ``(declaring_type_id,
        ContentModel)``.
        """
        comp = self.component(type_id)
        if comp.kind is not ComponentKind.COMPLEX_TYPE:
            return []
        detail = comp.detail
        own = [(type_id, detail.content)]
        if detail.derivation is Derivation.EXTENSION and detail.base in self.components:
            base = self.component(detail.base)
            if base.kind is ComponentKind.COMPLEX_TYPE:
                return self.effective_content_chain(detail.base) + own
        return own

    def effective_attribute_uses(self, type_id: str) -> list:
        """Attribute uses per level, base-to-derived, derived overriding by qname."""
        comp = self.component(type_id)
        if comp.kind is not ComponentKind.COMPLEX_TYPE:
            return []
        levels = [type_id] + list(reversed(self.base_chain(type_id)))
        levels.reverse()  # base-to-derived
        out = []
        seen_qnames = {}
        for level_id in levels:
            level = self.component(level_id)
            if level.kind is not ComponentKind.COMPLEX_TYPE:
                continue
            for use in level.detail.attributes:
                attr = self.component(use.attribute)
                key = attr.detail.qname
                if key in seen_qnames:
                    # Derived declaration wins; replace the earlier entry.
                    out[seen_qnames[key]] = (level_id, use)
                else:
                    seen_qnames[key] = len(out)
                    out.append((level_id, use))
        return out

    def effective_mixed(self, type_id: str) -> bool:
        comp = self.component(type_id)
        if comp.kind is not ComponentKind.COMPLEX_TYPE:
            return False
        if comp.detail.mixed:
            return True
        if comp.detail.derivation is Derivation.EXTENSION and comp.detail.base:
            return self.effective_mixed(comp.detail.base)
        return False

    def effective_simple_content(self, type_id: str) -> Optional[str]:
        """Simple type backing a complex type's text content, if any."""
        comp = self.component(type_id)
        if comp.kind is ComponentKind.SIMPLE_TYPE:
            return type_id
        detail = comp.detail
        if detail.content.kind is ContentKind.SIMPLE:
            return detail.content.simple_type
        if detail.content.kind is ContentKind.EMPTY and detail.base:
            base = self.component(detail.base)
            if base.kind is ComponentKind.SIMPLE_TYPE:
                return detail.base
            return self.effective_simple_content(detail.base)
        return None


# ---------------------------------------------------------------- operations

def substitution_members(schema: SchemaSet, head: str) -> set:
    """All global elements whose substitution chain reaches head (excl. head)."""
    comp = schema.component(head)
    if comp.kind is not ComponentKind.ELEMENT_DECL or not comp.is_global:
        raise NotAnElementError(f"not a global element declaration: {head}")
    members = set()
    frontier = [head]
    while frontier:
        nxt = []
        for h in frontier:
            for m in schema._subst_rev.get(h, ()):
                if m not in members and m != head:
                    members.add(m)
                    nxt.append(m)
        frontier = nxt
    return members


# ---------------------------------------------------------------- builder

class SchemaSetBuilder:
    """Accumulates components and edges; validates and freezes into a SchemaSet.

    Built-in XSD types are pre-registered so every SchemaSet contains them.
    """

    def __init__(self):
        self._components = {}
        self._global_index = {}
        self._edges = []
        self._warnings = []
        _register_builtins(self)

    def add_component(self, comp: SchemaComponent) -> SchemaComponent:
        if comp.id in self._components:
            raise ValueError(f"duplicate component id: {comp.id}")
        if comp.name is not None:
            key = (kind_category(comp.kind), comp.name)
            if key in self._global_index:
                raise ValueError(f"duplicate global {key[0]} {comp.name}")
            self._global_index[key] = comp.id
        self._components[comp.id] = comp
        return comp

    def add_edge(self, src: str, label: EdgeLabel, dst: str):
        self._edges.append(Edge(src, label, dst))

    def warn(self, message: str):
        self._warnings.append(message)

    def has_component(self, comp_id: str) -> bool:
        return comp_id in self._components

    def component(self, comp_id: str) -> SchemaComponent:
        return self._components[comp_id]

    def build(self) -> SchemaSet:
        for e in self._edges:
            if e.src not in self._components or e.dst not in self._components:
                raise ValueError(f"edge endpoint missing: {e}")
        # Deduplicate edges while preserving first-seen order.
        seen = set()
        edges = []
        for e in self._edges:
            if e not in seen:
                seen.add(e)
                edges.append(e)
        return SchemaSet(self._components, self._global_index, edges, self._warnings)


# ---------------------------------------------------------------- builtins

# Builtin simple types with their base, per the XSD type hierarchy.
_BUILTIN_HIERARCHY = [
    ("anySimpleType", None),
    ("string", "anySimpleType"),
    ("boolean", "anySimpleType"),
    ("decimal", "anySimpleType"),
    ("float", "anySimpleType"),
    ("double", "anySimpleType"),
    ("duration", "anySimpleType"),
    ("dateTime", "anySimpleType"),
    ("time", "anySimpleType"),
    ("date", "anySimpleType"),
    ("gYearMonth", "anySimpleType"),
    ("gYear", "anySimpleType"),
    ("gMonthDay", "anySimpleType"),
    ("gDay", "anySimpleType"),
    ("gMonth", "anySimpleType"),
    ("hexBinary", "anySimpleType"),
    ("base64Binary", "anySimpleType"),
    ("anyURI", "anySimpleType"),
    ("QName", "anySimpleType"),
    ("NOTATION", "anySimpleType"),
    ("normalizedString", "string"),
    ("token", "normalizedString"),
    ("language", "token"),
    ("NMTOKEN", "token"),
    ("Name", "token"),
    ("NCName", "Name"),
    ("ID", "NCName"),
    ("IDREF", "NCName"),
    ("ENTITY", "NCName"),
    ("integer", "decimal"),
    ("nonPositiveInteger", "integer"),
    ("negativeInteger", "nonPositiveInteger"),
    ("long", "integer"),
    ("int", "long"),
    ("short", "int"),
    ("byte", "short"),
    ("nonNegativeInteger", "integer"),
    ("unsignedLong", "nonNegativeInteger"),
    ("unsignedInt", "unsignedLong"),
    ("unsignedShort", "unsignedInt"),
    ("unsignedByte", "unsignedShort"),
    ("positiveInteger", "nonNegativeInteger"),
]

_BUILTIN_LIST_TYPES = [("NMTOKENS", "NMTOKEN"), ("IDREFS", "IDREF"), ("ENTITIES", "ENTITY")]


def builtin_type_id(local: str) -> str:
    kind = ComponentKind.COMPLEX_TYPE if local == "anyType" else ComponentKind.SIMPLE_TYPE
    return component_id(kind, XSD_NAMESPACE, local)


def _register_builtins(builder: SchemaSetBuilder):
    any_type = SchemaComponent(
        id=builtin_type_id("anyType"),
        kind=ComponentKind.COMPLEX_TYPE,
        name=QName(XSD_NAMESPACE, "anyType"),
        detail=ComplexTypeDetail(
            base=None,
            derivation=Derivation.NONE,
            content=ContentModel.empty(),
            attributes=[],
            mixed=True,
        ),
        namespace=XSD_NAMESPACE,
    )
    builder.add_component(any_type)
    for local, base in _BUILTIN_HIERARCHY:
        builder.add_component(SchemaComponent(
            id=builtin_type_id(local),
            kind=ComponentKind.SIMPLE_TYPE,
            name=QName(XSD_NAMESPACE, local),
            detail=SimpleTypeDetail(
                variety=SimpleVariety.ATOMIC,
                base=builtin_type_id(base) if base else None,
            ),
            namespace=XSD_NAMESPACE,
        ))
        if base:
            builder.add_edge(builtin_type_id(local), EdgeLabel.BASE_TYPE, builtin_type_id(base))
    for local, item in _BUILTIN_LIST_TYPES:
        builder.add_component(SchemaComponent(
            id=builtin_type_id(local),
            kind=ComponentKind.SIMPLE_TYPE,
            name=QName(XSD_NAMESPACE, local),
            detail=SimpleTypeDetail(
                variety=SimpleVariety.LIST,
                base=builtin_type_id("anySimpleType"),
                item=builtin_type_id(item),
            ),
            namespace=XSD_NAMESPACE,
        ))
        builder.add_edge(builtin_type_id(local), EdgeLabel.BASE_TYPE, builtin_type_id(item))


def builtin_type_ids() -> set:
    """Ids of the XSD built-in types present in every SchemaSet."""
    ids = {builtin_type_id("anyType")}
    for local, _ in _BUILTIN_HIERARCHY:
        ids.add(builtin_type_id(local))
    for local, _ in _BUILTIN_LIST_TYPES:
        ids.add(builtin_type_id(local))
    return ids
