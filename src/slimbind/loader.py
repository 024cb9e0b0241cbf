"""Parse XSD documents, resolve imports/includes, and build a SchemaSet.

Each schema document is parsed once, into an element tree built by
``slimbind.runtime.read_tree``.  All QName references are resolved to
component ids during loading; anything left unresolved is a
DANGLING_REFERENCE error.  Resolution of schemaLocation goes through an
explicit catalog plus relative-path lookup; there is no network access.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CyclicDerivationError,
    DanglingReferenceError,
    MalformedSchemaError,
    MalformedXmlError,
    UnresolvedImportError,
)
from .model import (
    XSD_NAMESPACE,
    XML_NAMESPACE,
    AttributeDetail,
    AttributeGroupDetail,
    AttributeUse,
    ComplexTypeDetail,
    ComponentKind,
    ContentKind,
    ContentModel,
    Compositor,
    Derivation,
    EdgeLabel,
    ElementDetail,
    ElementParticle,
    GroupParticle,
    ModelGroupDetail,
    Occurs,
    QName,
    SchemaComponent,
    SchemaSet,
    SchemaSetBuilder,
    SimpleTypeDetail,
    SimpleVariety,
    WildcardDetail,
    WildcardParticle,
    builtin_type_id,
    component_id,
    kind_category,
)
from .runtime import _XML_SPACE, read_tree


@dataclass
class SchemaSource:
    """One schema document: identity, namespace, and raw text.

    ``raw_text`` is a str, or the file's bytes, which the XML reader decodes
    by their BOM or declared encoding.
    """

    system_id: str
    target_namespace: str = ""
    raw_text: object = ""

    @classmethod
    def from_file(cls, path) -> "SchemaSource":
        path = os.path.abspath(os.fspath(path))
        with open(path, "rb") as fh:
            return cls(system_id=path, raw_text=fh.read())


class Catalog:
    """Maps namespaces or system ids to schema sources.

    File format: one mapping per line, ``key<TAB>path``, UTF-8.  Keys are
    matched against import/include locations and namespace URIs.
    """

    def __init__(self, mappings=None, base_dir="."):
        self._map = dict(mappings or {})
        self.base_dir = base_dir

    @classmethod
    def from_file(cls, path) -> "Catalog":
        mappings = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                if "\t" not in line:
                    raise MalformedSchemaError(
                        f"catalog line {lineno}: expected 'key<TAB>path'")
                key, target = line.split("\t", 1)
                mappings[key.strip()] = target.strip()
        return cls(mappings, base_dir=os.path.dirname(os.path.abspath(path)))

    def lookup(self, key: str) -> Optional[SchemaSource]:
        target = self._map.get(key)
        if target is None:
            return None
        if isinstance(target, SchemaSource):
            return target
        path = target
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        if not os.path.exists(path):
            raise UnresolvedImportError(
                f"catalog maps {key!r} to missing file {path}")
        return SchemaSource.from_file(path)


# ---------------------------------------------------------------- xsd reading

_XSD = XSD_NAMESPACE


class _Node:
    """One element of a schema document, as :func:`read_tree` builds it."""

    __slots__ = ("qname", "attrs", "nsmap", "children", "has_text", "line", "col")

    def __init__(self, qname, attributes, scope, line, col):
        self.qname = qname
        # Only unqualified attributes are XSD's own; foreign ones are never read.
        self.attrs = {qn.local: v for qn, v in attributes if not qn.namespace}
        self.nsmap = scope
        self.children = ()  # a list from the first child on
        self.has_text = False
        self.line = line
        self.col = col

    def get(self, local, default=None):
        return self.attrs.get(local, default)

    def kids(self, *locals_):
        return [c for c in self.children if c.qname.local in locals_
                and c.qname.namespace == _XSD]

    def first(self, *locals_):
        for c in self.children:
            if c.qname.local in locals_ and c.qname.namespace == _XSD:
                return c
        return None


def _resolve_qname(value: str, nsmap: dict, where: str) -> QName:
    value = value.strip(_XML_SPACE)
    if ":" in value:
        prefix, _, local = value.partition(":")
        if prefix not in nsmap:
            raise MalformedSchemaError(
                f"{where}: undeclared prefix in QName '{value}'")
        namespace = nsmap[prefix]
    else:
        namespace, local = nsmap.get("", ""), value
    try:
        return QName(namespace, local)
    except ValueError:
        raise MalformedSchemaError(f"{where}: '{value}' is not a QName") from None


def _flag(node: _Node, local: str) -> bool:
    """A boolean attribute of a schema element, false when absent."""
    return node.get(local, "").strip(_XML_SPACE) in ("true", "1")


# A bound is an XSD nonNegativeInteger (Part 2, 3.3.20: "+" may lead, and
# zero may be "-0"), or "unbounded" for maxOccurs.  int() would also take
# "1_0", non-ASCII digits and Unicode spaces.
_NON_NEGATIVE = re.compile(r"\+?[0-9]+|-0+").fullmatch


def _parse_occurs(node: _Node, where: str) -> Optional[Occurs]:
    lo = node.get("minOccurs", "1")
    hi = node.get("maxOccurs", "1")
    try:
        min_v = _bound(lo)
        max_v = None if hi.strip(_XML_SPACE) == "unbounded" else _bound(hi)
    except ValueError:
        raise MalformedSchemaError(f"{where}: bad occurrence bounds {lo!r}/{hi!r}") from None
    if max_v == 0:
        return None  # prohibited particle; caller drops it
    try:
        return Occurs(min_v, max_v)
    except ValueError as exc:
        raise MalformedSchemaError(f"{where}: {exc}")


def _bound(raw: str) -> int:
    """The value of a nonNegativeInteger bound; ValueError when ``raw`` is not one."""
    s = raw.strip(_XML_SPACE)
    if not _NON_NEGATIVE(s):
        raise ValueError(raw)
    return int(s)  # ValueError past sys.get_int_max_str_digits() too


_XML_SPACE_RUN = re.compile("[ \t\r\n]+")


def _xml_tokens(value: str) -> list:
    """The items of a list-valued attribute; only XML whitespace separates them."""
    return [token for token in _XML_SPACE_RUN.split(value) if token]


@dataclass
class _Doc:
    source: SchemaSource
    tree: _Node
    tns: str
    qualified_elements: bool
    qualified_attributes: bool


@dataclass
class _RawGlobal:
    node: _Node
    doc: _Doc
    kind: ComponentKind
    qname: QName

    @property
    def comp_id(self):
        return component_id(self.kind, self.qname.namespace, self.qname.local)


_GLOBAL_TAGS = {
    "element": ComponentKind.ELEMENT_DECL,
    "complexType": ComponentKind.COMPLEX_TYPE,
    "simpleType": ComponentKind.SIMPLE_TYPE,
    "group": ComponentKind.MODEL_GROUP_DEF,
    "attributeGroup": ComponentKind.ATTRIBUTE_GROUP_DEF,
    "attribute": ComponentKind.ATTRIBUTE_DECL,
}


class _Loader:
    def __init__(self, entry_points, resolver):
        self.resolver = resolver
        self.docs: list = []
        self._loaded_keys = set()
        self._trees = {}  # system id -> root node; a document reached again is not parsed again
        self.raw_globals: dict = {}  # (category, QName) -> _RawGlobal
        self.builder = SchemaSetBuilder()
        self._built = set()
        self._group_in_progress = set()
        self._anon_counters = {}
        # Keyed by (id(node), target namespace): a chameleon include shares
        # its tree between the namespaces that include it.
        self._elem_type_memo = {}
        self._elem_type_stack = set()
        for src in entry_points:
            self._load_doc(src, adopted_tns=None)

    # -------------------------------------------------------- document intake

    def _load_doc(self, source: SchemaSource, adopted_tns):
        tree = self._trees.get(source.system_id)
        if tree is None:
            try:
                tree = read_tree(source.raw_text, source.system_id, _Node)
            except MalformedXmlError as exc:
                raise MalformedSchemaError(f"{source.system_id}: {exc}") from exc
            self._trees[source.system_id] = tree
        if tree.qname != QName(_XSD, "schema"):
            raise MalformedSchemaError(
                f"{source.system_id}: root element is {tree.qname}, expected xs:schema")
        tns = tree.get("targetNamespace", "")
        if not tns and adopted_tns:
            tns = adopted_tns  # chameleon include
        key = (source.system_id, tns)
        if key in self._loaded_keys:
            return
        self._loaded_keys.add(key)
        if source.target_namespace and source.target_namespace != tns:
            self.builder.warn(
                f"{source.system_id}: declared namespace {tns!r} differs from "
                f"expected {source.target_namespace!r}")
        source.target_namespace = tns
        doc = _Doc(
            source=source,
            tree=tree,
            tns=tns,
            qualified_elements=tree.get("elementFormDefault", "unqualified") == "qualified",
            qualified_attributes=tree.get("attributeFormDefault", "unqualified") == "qualified",
        )
        self.docs.append(doc)
        for child in tree.children:
            if child.qname.namespace != _XSD:
                continue
            tag = child.qname.local
            if tag == "include":
                self._follow_include(child, doc)
            elif tag == "import":
                self._follow_import(child, doc)
            elif tag == "redefine":
                self.builder.warn(
                    f"{source.system_id}: xs:redefine is not supported; included "
                    "content is loaded, redefinitions are ignored")
                self._follow_include(child, doc)
            elif tag in _GLOBAL_TAGS:
                self._register_global(child, doc)
            elif tag in ("annotation",):
                continue
            elif tag == "notation":
                self.builder.warn(f"{source.system_id}: xs:notation ignored")
            else:
                self.builder.warn(f"{source.system_id}: top-level xs:{tag} ignored")

    def _follow_include(self, node: _Node, doc: _Doc):
        loc = node.get("schemaLocation")
        if not loc:
            raise MalformedSchemaError(
                f"{doc.source.system_id}: include without schemaLocation")
        src = self._resolve_location(loc, doc)
        if src is None:
            raise UnresolvedImportError(
                f"cannot resolve include '{loc}' from {doc.source.system_id}")
        self._load_doc(src, adopted_tns=doc.tns)

    def _follow_import(self, node: _Node, doc: _Doc):
        ns = node.get("namespace", "")
        loc = node.get("schemaLocation")
        if loc:
            src = self._resolve_location(loc, doc)
            if src is None:
                raise UnresolvedImportError(
                    f"cannot resolve import '{loc}' (namespace {ns!r}) from "
                    f"{doc.source.system_id}")
            self._load_doc(src, adopted_tns=None)
            return
        if ns in (XSD_NAMESPACE, XML_NAMESPACE):
            return
        if self.resolver is not None:
            src = self.resolver.lookup(ns)
            if src is not None:
                self._load_doc(src, adopted_tns=None)
                return
        self.builder.warn(
            f"{doc.source.system_id}: import of {ns!r} has no schemaLocation and "
            "no catalog entry; references into it may dangle")

    def _resolve_location(self, loc: str, doc: _Doc) -> Optional[SchemaSource]:
        if self.resolver is not None:
            found = self.resolver.lookup(loc)
            if found is not None:
                return found
        base_dir = os.path.dirname(doc.source.system_id)
        candidate = loc if os.path.isabs(loc) else os.path.normpath(
            os.path.join(base_dir, loc))
        if self.resolver is not None:
            found = self.resolver.lookup(candidate)
            if found is not None:
                return found
        if os.path.exists(candidate):
            return SchemaSource.from_file(candidate)
        return None

    def _register_global(self, node: _Node, doc: _Doc):
        kind = _GLOBAL_TAGS[node.qname.local]
        name = node.get("name")
        if not name:
            raise MalformedSchemaError(
                f"{doc.source.system_id}:{node.line}: global xs:{node.qname.local} "
                "without a name")
        qname = QName(doc.tns, name)
        key = (kind_category(kind), qname)
        if key in self.raw_globals:
            prev = self.raw_globals[key]
            raise MalformedSchemaError(
                f"{doc.source.system_id}:{node.line}: duplicate global "
                f"{key[0]} {qname} (first in {prev.doc.source.system_id})")
        self.raw_globals[key] = _RawGlobal(node, doc, kind, qname)

    # -------------------------------------------------------- reference lookup

    def _resolve_ref(self, category: str, qname: QName, referrer: str, where: str) -> str:
        if qname.namespace == XSD_NAMESPACE:
            if category == "type":
                comp_id = builtin_type_id(qname.local)
                if self.builder.has_component(comp_id):
                    return comp_id
            raw = self.raw_globals.get((category, qname))
            if raw is not None:
                return raw.comp_id
            raise DanglingReferenceError(
                f"{where}: reference to unknown XSD built-in {qname} from {referrer}")
        raw = self.raw_globals.get((category, qname))
        if raw is None:
            raise DanglingReferenceError(
                f"{where}: unresolved {category} reference {qname} from {referrer}")
        return raw.comp_id

    # -------------------------------------------------------- component build

    def build(self) -> SchemaSet:
        order = sorted(self.raw_globals.items(),
                       key=lambda kv: (kv[0][0], kv[0][1].namespace, kv[0][1].local))
        for (_category, _qname), raw in order:
            self._build_global(raw)
        schema = self.builder.build()
        self._check_cycles(schema)
        return schema

    def _build_global(self, raw: _RawGlobal):
        if raw.comp_id in self._built:
            return raw.comp_id
        self._built.add(raw.comp_id)
        node, doc = raw.node, raw.doc
        addr = raw.qname.local
        where = f"{doc.source.system_id}:{node.line}"
        if raw.kind is ComponentKind.ELEMENT_DECL:
            self._build_element_decl(node, doc, raw.comp_id, addr, raw.qname,
                                     is_global=True, owner=None)
        elif raw.kind is ComponentKind.COMPLEX_TYPE:
            self._build_complex_type(node, doc, raw.comp_id, addr, raw.qname, owner=None)
        elif raw.kind is ComponentKind.SIMPLE_TYPE:
            self._build_simple_type(node, doc, raw.comp_id, addr, raw.qname, owner=None)
        elif raw.kind is ComponentKind.MODEL_GROUP_DEF:
            self._build_group_def(raw)
        elif raw.kind is ComponentKind.ATTRIBUTE_GROUP_DEF:
            self._build_attrgroup_def(raw)
        elif raw.kind is ComponentKind.ATTRIBUTE_DECL:
            self._build_attribute_decl(node, doc, raw.comp_id, addr, raw.qname,
                                       is_global=True, owner=None)
        else:
            raise MalformedSchemaError(f"{where}: unsupported global kind {raw.kind}")
        return raw.comp_id

    # Group and attribute-group definitions are built on demand because group
    # references are expanded inline into referencing content models.

    def _group_def(self, category: str, qname: QName, referrer: str,
                   where: str) -> SchemaComponent:
        """The built ``group`` or ``attributeGroup`` definition named ``qname``."""
        raw = self.raw_globals.get((category, qname))
        if raw is None:
            raise DanglingReferenceError(
                f"{where}: unresolved {category} reference {qname} from {referrer}")
        if raw.comp_id in self._group_in_progress:
            noun = "model group" if category == "group" else "attribute group"
            raise MalformedSchemaError(
                f"{where}: circular {noun} reference involving {qname}")
        self._build_global(raw)
        return self.builder.component(raw.comp_id)

    def _build_group_def(self, raw: _RawGlobal):
        node, doc = raw.node, raw.doc
        where = f"{doc.source.system_id}:{node.line}"
        self._group_in_progress.add(raw.comp_id)
        try:
            body = node.first("sequence", "choice", "all")
            if body is None:
                raise MalformedSchemaError(f"{where}: group {raw.qname} has no model group")
            root = self._build_model_group(body, doc, raw.comp_id, raw.qname.local,
                                           Occurs(1, 1))
        finally:
            self._group_in_progress.discard(raw.comp_id)
        self.builder.add_component(SchemaComponent(
            id=raw.comp_id, kind=ComponentKind.MODEL_GROUP_DEF, name=raw.qname,
            detail=ModelGroupDetail(root=root), namespace=doc.tns))

    def _build_attrgroup_def(self, raw: _RawGlobal):
        node, doc = raw.node, raw.doc
        self._group_in_progress.add(raw.comp_id)
        try:
            uses, wildcard = self._build_attribute_uses(node, doc, raw.comp_id,
                                                        raw.qname.local)
        finally:
            self._group_in_progress.discard(raw.comp_id)
        self.builder.add_component(SchemaComponent(
            id=raw.comp_id, kind=ComponentKind.ATTRIBUTE_GROUP_DEF, name=raw.qname,
            detail=AttributeGroupDetail(attributes=uses, attribute_wildcard=wildcard),
            namespace=doc.tns))

    # -------------------------------------------------------- elements

    def _element_type_id(self, node: _Node, doc: _Doc, addr: str) -> str:
        """Declared type id of an element node (may synthesize an anonymous id)."""
        key = (id(node), doc.tns)
        if key in self._elem_type_memo:
            return self._elem_type_memo[key]
        if key in self._elem_type_stack:
            raise CyclicDerivationError(
                f"{doc.source.system_id}:{node.line}: substitution group cycle while "
                "resolving element type")
        self._elem_type_stack.add(key)
        try:
            where = f"{doc.source.system_id}:{node.line}"
            type_attr = node.get("type")
            if type_attr:
                qn = _resolve_qname(type_attr, node.nsmap, where)
                result = self._resolve_ref("type", qn, addr, where)
            elif node.first("complexType") is not None:
                result = component_id(ComponentKind.COMPLEX_TYPE, doc.tns, addr + "/type")
            elif node.first("simpleType") is not None:
                result = component_id(ComponentKind.SIMPLE_TYPE, doc.tns, addr + "/type")
            elif node.get("substitutionGroup"):
                head_qn = _resolve_qname(node.get("substitutionGroup"), node.nsmap, where)
                head_raw = self.raw_globals.get(("element", head_qn))
                if head_raw is None:
                    raise DanglingReferenceError(
                        f"{where}: unresolved substitutionGroup head {head_qn}")
                result = self._element_type_id(head_raw.node, head_raw.doc,
                                               head_qn.local)
            else:
                result = builtin_type_id("anyType")
        finally:
            self._elem_type_stack.discard(key)
        self._elem_type_memo[key] = result
        return result

    def _build_element_decl(self, node, doc, comp_id, addr, qname, is_global, owner):
        where = f"{doc.source.system_id}:{node.line}"
        type_id = self._element_type_id(node, doc, addr)
        head_id = None
        if is_global and node.get("substitutionGroup"):
            head_qn = _resolve_qname(node.get("substitutionGroup"), node.nsmap, where)
            head_id = self._resolve_ref("element", head_qn, comp_id, where)
        detail = ElementDetail(
            qname=qname,
            declared_type=type_id,
            substitution_head=head_id,
            is_abstract=_flag(node, "abstract"),
            nillable=_flag(node, "nillable"),
        )
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.ELEMENT_DECL,
            name=qname if is_global else None, detail=detail,
            namespace=doc.tns, owner=owner))
        self.builder.add_edge(comp_id, EdgeLabel.DECLARED_TYPE, type_id)
        if head_id:
            self.builder.add_edge(comp_id, EdgeLabel.SUBSTITUTION_HEAD, head_id)
        inner = node.first("complexType")
        if inner is not None and not node.get("type"):
            self._build_complex_type(inner, doc,
                                     component_id(ComponentKind.COMPLEX_TYPE, doc.tns,
                                                  addr + "/type"),
                                     addr + "/type", None, owner=comp_id)
        inner = node.first("simpleType")
        if inner is not None and not node.get("type"):
            self._build_simple_type(inner, doc,
                                    component_id(ComponentKind.SIMPLE_TYPE, doc.tns,
                                                 addr + "/type"),
                                    addr + "/type", None, owner=comp_id)
        for ic in node.kids("key", "keyref", "unique"):
            self.builder.warn(f"{where}: identity constraint xs:{ic.qname.local} ignored")

    def _build_attribute_decl(self, node, doc, comp_id, addr, qname, is_global, owner):
        where = f"{doc.source.system_id}:{node.line}"
        type_attr = node.get("type")
        inline = node.first("simpleType")
        if type_attr:
            qn = _resolve_qname(type_attr, node.nsmap, where)
            type_id = self._resolve_ref("type", qn, comp_id, where)
        elif inline is not None:
            type_id = component_id(ComponentKind.SIMPLE_TYPE, doc.tns, addr + "/type")
        else:
            type_id = builtin_type_id("anySimpleType")
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.ATTRIBUTE_DECL,
            name=qname if is_global else None,
            detail=AttributeDetail(qname=qname, declared_type=type_id),
            namespace=doc.tns, owner=owner))
        self.builder.add_edge(comp_id, EdgeLabel.ATTRIBUTE_TYPE, type_id)
        if inline is not None and not type_attr:
            self._build_simple_type(inline, doc,
                                    component_id(ComponentKind.SIMPLE_TYPE, doc.tns,
                                                 addr + "/type"),
                                    addr + "/type", None, owner=comp_id)

    # -------------------------------------------------------- types

    def _build_complex_type(self, node, doc, comp_id, addr, qname, owner):
        where = f"{doc.source.system_id}:{node.line}"
        is_abstract = _flag(node, "abstract")
        mixed = _flag(node, "mixed")
        base_id = None
        derivation = Derivation.NONE
        content = ContentModel.empty()
        uses: list = []
        wildcard_id = None

        facets = []
        simple_c = node.first("simpleContent")
        complex_c = node.first("complexContent")
        if simple_c is not None:
            deriv_node = simple_c.first("extension", "restriction")
            if deriv_node is None:
                raise MalformedSchemaError(f"{where}: simpleContent without derivation")
            derivation = (Derivation.EXTENSION if deriv_node.qname.local == "extension"
                          else Derivation.RESTRICTION)
            base_qn = _resolve_qname(deriv_node.get("base", ""), deriv_node.nsmap, where)
            base_id = self._resolve_ref("type", base_qn, comp_id, where)
            base_raw = self.raw_globals.get(("type", base_qn))
            base_is_simple = (base_qn.namespace == XSD_NAMESPACE and base_qn.local != "anyType") \
                or (base_raw is not None and base_raw.kind is ComponentKind.SIMPLE_TYPE)
            content = ContentModel.simple(base_id if base_is_simple else None)
            if derivation is Derivation.RESTRICTION:
                for facet in deriv_node.children:
                    if facet.qname.namespace == _XSD and facet.qname.local not in (
                            "annotation", "simpleType", "attribute", "attributeGroup",
                            "anyAttribute"):
                        facets.append((facet.qname.local, facet.get("value", "")))
            uses, wildcard_id = self._build_attribute_uses(deriv_node, doc, comp_id, addr)
        else:
            body = node
            if complex_c is not None:
                if complex_c.get("mixed") is not None:
                    mixed = _flag(complex_c, "mixed")
                deriv_node = complex_c.first("extension", "restriction")
                if deriv_node is None:
                    raise MalformedSchemaError(f"{where}: complexContent without derivation")
                derivation = (Derivation.EXTENSION if deriv_node.qname.local == "extension"
                              else Derivation.RESTRICTION)
                base_qn = _resolve_qname(deriv_node.get("base", ""), deriv_node.nsmap, where)
                base_id = self._resolve_ref("type", base_qn, comp_id, where)
                body = deriv_node
            group_node = body.first("sequence", "choice", "all", "group")
            if group_node is not None:
                root = self._build_particle_body(group_node, doc, comp_id, addr, where)
                content = (ContentModel.particles(root) if root is not None
                           else ContentModel.empty())
            uses, wildcard_id = self._build_attribute_uses(body, doc, comp_id, addr)

        detail = ComplexTypeDetail(
            base=base_id, derivation=derivation, content=content,
            attributes=uses, attribute_wildcard=wildcard_id,
            is_abstract=is_abstract, mixed=mixed, facets=tuple(facets))
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.COMPLEX_TYPE, name=qname,
            detail=detail, namespace=doc.tns, owner=owner))
        if base_id:
            self.builder.add_edge(comp_id, EdgeLabel.BASE_TYPE, base_id)
        self._emit_content_edges(comp_id, content)
        for use in uses:
            self.builder.add_edge(comp_id, EdgeLabel.ATTRIBUTE_TYPE, use.attribute)
        if wildcard_id:
            self.builder.add_edge(comp_id, EdgeLabel.WILDCARD, wildcard_id)

    def _emit_content_edges(self, owner_id: str, content: ContentModel):
        if content.kind is not ContentKind.PARTICLES:
            return
        stack = [content.root]
        while stack:
            p = stack.pop()
            if isinstance(p, GroupParticle):
                if p.ref:
                    self.builder.add_edge(owner_id, EdgeLabel.GROUP_REF, p.ref)
                else:
                    stack.extend(p.children)
            elif isinstance(p, ElementParticle):
                self.builder.add_edge(owner_id, EdgeLabel.PARTICLE_ELEMENT, p.element)
            elif isinstance(p, WildcardParticle):
                self.builder.add_edge(owner_id, EdgeLabel.WILDCARD, p.wildcard)

    def _build_simple_type(self, node, doc, comp_id, addr, qname, owner):
        where = f"{doc.source.system_id}:{node.line}"
        restriction = node.first("restriction")
        list_node = node.first("list")
        union_node = node.first("union")
        base_id = None
        item_id = None
        members = []
        facets = []
        variety = SimpleVariety.ATOMIC
        if restriction is not None:
            base_attr = restriction.get("base")
            if base_attr:
                base_qn = _resolve_qname(base_attr, restriction.nsmap, where)
                base_id = self._resolve_ref("type", base_qn, comp_id, where)
            else:
                inner = restriction.first("simpleType")
                if inner is None:
                    raise MalformedSchemaError(f"{where}: restriction without base")
                base_id = component_id(ComponentKind.SIMPLE_TYPE, doc.tns, addr + "/base")
                self._build_simple_type(inner, doc, base_id, addr + "/base", None,
                                        owner=comp_id)
            for facet in restriction.children:
                if facet.qname.namespace == _XSD and facet.qname.local not in (
                        "annotation", "simpleType"):
                    facets.append((facet.qname.local, facet.get("value", "")))
        elif list_node is not None:
            variety = SimpleVariety.LIST
            item_attr = list_node.get("itemType")
            if item_attr:
                item_qn = _resolve_qname(item_attr, list_node.nsmap, where)
                item_id = self._resolve_ref("type", item_qn, comp_id, where)
            else:
                inner = list_node.first("simpleType")
                if inner is None:
                    raise MalformedSchemaError(f"{where}: list without item type")
                item_id = component_id(ComponentKind.SIMPLE_TYPE, doc.tns, addr + "/item")
                self._build_simple_type(inner, doc, item_id, addr + "/item", None,
                                        owner=comp_id)
            base_id = builtin_type_id("anySimpleType")
        elif union_node is not None:
            variety = SimpleVariety.UNION
            member_attr = union_node.get("memberTypes", "")
            for token in _xml_tokens(member_attr):
                qn = _resolve_qname(token, union_node.nsmap, where)
                members.append(self._resolve_ref("type", qn, comp_id, where))
            for i, inner in enumerate(union_node.kids("simpleType")):
                m_id = component_id(ComponentKind.SIMPLE_TYPE, doc.tns,
                                    f"{addr}/member[{i}]")
                self._build_simple_type(inner, doc, m_id, f"{addr}/member[{i}]", None,
                                        owner=comp_id)
                members.append(m_id)
            base_id = builtin_type_id("anySimpleType")
        else:
            raise MalformedSchemaError(
                f"{where}: simpleType needs restriction, list, or union")
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.SIMPLE_TYPE, name=qname,
            detail=SimpleTypeDetail(variety=variety, base=base_id, item=item_id,
                                    members=tuple(members), facets=tuple(facets)),
            namespace=doc.tns, owner=owner))
        if base_id:
            self.builder.add_edge(comp_id, EdgeLabel.BASE_TYPE, base_id)
        if item_id:
            self.builder.add_edge(comp_id, EdgeLabel.BASE_TYPE, item_id)
        for m in members:
            self.builder.add_edge(comp_id, EdgeLabel.BASE_TYPE, m)

    # -------------------------------------------------------- particles

    def _next_anon(self, owner_addr: str, name: str) -> str:
        key = (owner_addr, name)
        n = self._anon_counters.get(key, 0)
        self._anon_counters[key] = n + 1
        return f"{owner_addr}/{name}" if n == 0 else f"{owner_addr}/{name}[{n}]"

    def _build_particle_body(self, node, doc, owner_id, owner_addr, where):
        """Build the top-level model group of a content model (or None)."""
        if node.qname.local == "group":
            return self._group_ref_particle(node, owner_id, where)
        return self._build_model_group(node, doc, owner_id, owner_addr,
                                       _parse_occurs(node, where))

    def _group_ref_particle(self, node, owner_id, where):
        """The particle of an ``xs:group ref``; None when it may not occur."""
        ref_attr = node.get("ref")
        if not ref_attr:
            raise MalformedSchemaError(f"{where}: inner xs:group must use ref")
        occurs = _parse_occurs(node, where)
        if occurs is None:
            return None
        qn = _resolve_qname(ref_attr, node.nsmap, where)
        group_comp = self._group_def("group", qn, owner_id, where)
        root = group_comp.detail.root
        return GroupParticle(root.compositor, root.children, occurs, ref=group_comp.id)

    def _build_model_group(self, node, doc, owner_id, owner_addr, occurs):
        where = f"{doc.source.system_id}:{node.line}"
        if occurs is None:
            occurs = Occurs(1, 1)
        compositor = Compositor(node.qname.local)
        children = []
        for child in node.children:
            if child.qname.namespace != _XSD:
                continue
            tag = child.qname.local
            cw = f"{doc.source.system_id}:{child.line}"
            if tag == "annotation":
                continue
            if tag in ("sequence", "choice", "all"):
                c_occ = _parse_occurs(child, cw)
                if c_occ is None:
                    continue
                children.append(self._build_model_group(child, doc, owner_id,
                                                        owner_addr, c_occ))
            elif tag == "element":
                p = self._build_element_particle(child, doc, owner_id, owner_addr, cw)
                if p is not None:
                    children.append(p)
            elif tag == "group":
                p = self._group_ref_particle(child, owner_id, cw)
                if p is not None:
                    children.append(p)
            elif tag == "any":
                c_occ = _parse_occurs(child, cw)
                if c_occ is None:
                    continue
                wc_id = self._build_wildcard(child, doc, owner_id, owner_addr, "any")
                children.append(WildcardParticle(wc_id, c_occ))
            else:
                self.builder.warn(f"{cw}: particle xs:{tag} ignored")
        group = GroupParticle(compositor, children, occurs)
        if compositor is Compositor.ALL:
            for c in children:
                if not isinstance(c, ElementParticle):
                    raise MalformedSchemaError(
                        f"{where}: xs:all may contain only element particles")
                if c.occurs.max is None or c.occurs.max > 1:
                    raise MalformedSchemaError(
                        f"{where}: xs:all children must have maxOccurs <= 1")
        return group

    def _build_element_particle(self, node, doc, owner_id, owner_addr, where):
        occurs = _parse_occurs(node, where)
        if occurs is None:
            return None
        ref_attr = node.get("ref")
        if ref_attr:
            qn = _resolve_qname(ref_attr, node.nsmap, where)
            elem_id = self._resolve_ref("element", qn, owner_id, where)
            return ElementParticle(elem_id, occurs)
        name = node.get("name")
        if not name:
            raise MalformedSchemaError(f"{where}: element particle needs name or ref")
        form = node.get("form")
        qualified = (form == "qualified") if form else doc.qualified_elements
        qname = QName(doc.tns if qualified else "", name)
        addr = self._next_anon(owner_addr, name)
        comp_id = component_id(ComponentKind.ELEMENT_DECL, doc.tns, addr)
        self._build_element_decl(node, doc, comp_id, addr, qname,
                                 is_global=False, owner=owner_id)
        return ElementParticle(comp_id, occurs)

    def _build_wildcard(self, node, doc, owner_id, owner_addr, tag):
        addr = self._next_anon(owner_addr, "@any" if tag == "anyAttribute" else "any")
        comp_id = component_id(ComponentKind.WILDCARD, doc.tns, addr)
        ns_attr = _xml_tokens(node.get("namespace", "##any"))
        if ns_attr == ["##any"]:
            constraint, namespaces = "any", ()
        elif ns_attr == ["##other"]:
            constraint, namespaces = "other", ()
        else:
            constraint = "enum"
            resolved = []
            for token in ns_attr:
                if token == "##targetNamespace":
                    resolved.append(doc.tns)
                elif token == "##local":
                    resolved.append("")
                else:
                    resolved.append(token)
            namespaces = tuple(resolved)
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.WILDCARD, name=None,
            detail=WildcardDetail(constraint=constraint, namespaces=namespaces,
                                  process_contents=node.get("processContents", "strict"),
                                  owner_namespace=doc.tns),
            namespace=doc.tns, owner=owner_id))
        return comp_id

    # -------------------------------------------------------- attributes

    def _build_attribute_uses(self, node, doc, owner_id, owner_addr):
        uses = []
        wildcard_id = None
        for child in node.children:
            if child.qname.namespace != _XSD:
                continue
            tag = child.qname.local
            cw = f"{doc.source.system_id}:{child.line}"
            if tag == "attribute":
                use = child.get("use", "optional")
                if use == "prohibited":
                    continue
                ref_attr = child.get("ref")
                default = child.get("default", child.get("fixed"))
                if ref_attr:
                    qn = _resolve_qname(ref_attr, child.nsmap, cw)
                    attr_id = self._resolve_ref("attribute", qn, owner_id, cw)
                else:
                    name = child.get("name")
                    if not name:
                        raise MalformedSchemaError(f"{cw}: attribute needs name or ref")
                    form = child.get("form")
                    qualified = (form == "qualified") if form else doc.qualified_attributes
                    qname = QName(doc.tns if qualified else "", name)
                    addr = self._next_anon(owner_addr, "@" + name)
                    attr_id = component_id(ComponentKind.ATTRIBUTE_DECL, doc.tns, addr)
                    self._build_attribute_decl(child, doc, attr_id, addr, qname,
                                               is_global=False, owner=owner_id)
                uses.append(AttributeUse(attribute=attr_id,
                                         required=use == "required", default=default))
            elif tag == "attributeGroup":
                ref_attr = child.get("ref")
                if not ref_attr:
                    raise MalformedSchemaError(f"{cw}: inner attributeGroup must use ref")
                qn = _resolve_qname(ref_attr, child.nsmap, cw)
                group_comp = self._group_def("attributeGroup", qn, owner_id, cw)
                self.builder.add_edge(owner_id, EdgeLabel.GROUP_REF, group_comp.id)
                for use in group_comp.detail.attributes:
                    uses.append(AttributeUse(use.attribute, use.required, use.default,
                                             via_group=group_comp.id))
                if group_comp.detail.attribute_wildcard and wildcard_id is None:
                    wildcard_id = group_comp.detail.attribute_wildcard
            elif tag == "anyAttribute":
                wildcard_id = self._build_wildcard(child, doc, owner_id, owner_addr,
                                                   "anyAttribute")
        return uses, wildcard_id

    # -------------------------------------------------------- validation

    def _check_cycles(self, schema: SchemaSet):
        self._reject_cycle(schema, EdgeLabel.BASE_TYPE, "type derivation")
        self._reject_cycle(schema, EdgeLabel.SUBSTITUTION_HEAD, "substitution group")

    def _reject_cycle(self, schema: SchemaSet, label: EdgeLabel, what: str):
        successors = {}  # src -> dsts of its ``label`` edges, in edge order
        for e in schema.edges:
            if e.label is label:
                successors.setdefault(e.src, []).append(e.dst)
        color = {}
        for start in schema.components:
            if start not in successors or color.get(start):
                continue  # a component with no such edge starts no cycle
            stack = [(start, iter(successors[start]))]
            color[start] = "gray"
            while stack:
                node, it = stack[-1]
                advanced = False
                for dst in it:
                    if color.get(dst) == "gray":
                        raise CyclicDerivationError(
                            f"cycle in {what} chain at {dst}")
                    if dst not in color:
                        color[dst] = "gray"
                        stack.append((dst, iter(successors.get(dst, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = "black"
                    stack.pop()


def load_schema_set(entry_points, resolver: Optional[Catalog] = None) -> SchemaSet:
    """Load entry schemas plus their transitive import/include closure."""
    if not entry_points:
        raise MalformedSchemaError("no schema entry points given")
    return _Loader(list(entry_points), resolver).build()
