"""Parse XSD documents, resolve imports/includes, and build a SchemaSet.

Each schema document is parsed once, into an element tree built by
``slimbind.runtime.read_tree``.  All QName references are resolved to
component ids during loading; anything left unresolved is a
DANGLING_REFERENCE error.  Resolution of schemaLocation goes through an
explicit catalog plus relative-path lookup; there is no network access.

``_Loader`` reads each XSD construct in one method.  Every component,
global or local, is built through ``_build``, which calls the reader of its
kind (``_build_element_decl``, ``_build_attribute_decl``,
``_build_complex_type``, ``_build_simple_type``, ``_build_group_def``,
``_build_attrgroup_def``, ``_build_wildcard``); ``_build_global`` builds a
global once.  A QName reference is ``_ref``, a type given by attribute or
inline ``_type_ref``, a particle at any depth ``_particle`` (a model group's
children ``_model_group``), an attribute list ``_build_attribute_uses`` and
restriction facets ``_facets``.
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
from .runtime import _XML_SPACE, read_tree, resolve_qname


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
    try:
        return QName(*resolve_qname(value, nsmap))
    except KeyError as undeclared:
        message = f"undeclared prefix in QName '{undeclared.args[0]}'"
    except ValueError as malformed:
        message = f"'{malformed}' is not a QName"
    raise MalformedSchemaError(f"{where}: {message}")


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
# An NCName (Namespaces in XML 1.0, section 3): an XML 1.0 Name without a colon.
_NAME_START = ("A-Z_a-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff"
               "\u200c\u200d\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf"
               "\ufdf0-\ufffd\U00010000-\U000effff")
_NCNAME = re.compile(
    f"[{_NAME_START}][-.0-9\u00b7\u0300-\u036f\u203f\u2040{_NAME_START}]*").fullmatch


def _declared_name(node: _Node, where: str, missing: str) -> str:
    """The ``name`` a declaration gives, which must be an NCName; ``missing`` says it has none."""
    name = node.get("name")
    if name is None:
        raise MalformedSchemaError(f"{where}: {missing}")
    name = name.strip(_XML_SPACE)
    if not _NCNAME(name):
        raise MalformedSchemaError(
            f"{where}: name {name!r} of xs:{node.qname.local} is not an NCName")
    return name


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

    def at(self, node: _Node) -> str:
        """Where ``node`` is, for messages: ``system-id:line``."""
        return f"{self.source.system_id}:{node.line}"


@dataclass
class _RawGlobal:
    node: _Node
    doc: _Doc
    qname: QName
    comp_id: str


_GLOBAL_TAGS = {
    "element": ComponentKind.ELEMENT_DECL,
    "complexType": ComponentKind.COMPLEX_TYPE,
    "simpleType": ComponentKind.SIMPLE_TYPE,
    "group": ComponentKind.MODEL_GROUP_DEF,
    "attributeGroup": ComponentKind.ATTRIBUTE_GROUP_DEF,
    "attribute": ComponentKind.ATTRIBUTE_DECL,
}
_KINDS = {**_GLOBAL_TAGS, "any": ComponentKind.WILDCARD,
          "anyAttribute": ComponentKind.WILDCARD}
# References to these are expanded inline, so their definitions are built
# when first referenced; the value names one in a circularity error.
_INLINED = {"group": "model group", "attributeGroup": "attribute group"}
_PARTICLES = ("sequence", "choice", "all", "element", "group", "any")
_NOT_FACETS = ("annotation", "simpleType", "attribute", "attributeGroup", "anyAttribute")
_PROCESS_CONTENTS = ("strict", "lax", "skip")
_SIMPLE_TYPE_ID = ComponentKind.SIMPLE_TYPE.value + ":"  # how component_id starts one


def _facets(restriction: _Node) -> tuple:
    """The (facet, value) pairs of a restriction, kept for re-emission."""
    return tuple((f.qname.local, f.get("value", "")) for f in restriction.children
                 if f.qname.namespace == _XSD and f.qname.local not in _NOT_FACETS)


class _Loader:
    def __init__(self, entry_points, resolver):
        self.resolver = resolver
        self.docs: list = []
        self._loaded_keys = set()
        self._trees = {}  # system id -> root node; a document reached again is not parsed again
        self.raw_globals: dict = {}  # (category, QName) -> _RawGlobal
        self.builder = SchemaSetBuilder()
        # Globals whose build has started; one the builder does not hold yet is in progress.
        self._built = set()
        self._anon_counters = {}
        # Keyed by (id(node), target namespace): a chameleon include shares
        # its tree between the namespaces that include it.
        self._elem_type_memo = {}  # None while the type is being resolved
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
        where = doc.at(node)
        name = _declared_name(node, where, f"global xs:{node.qname.local} without a name")
        qname = QName(doc.tns, name)
        key = (kind_category(kind), qname)
        if key in self.raw_globals:
            prev = self.raw_globals[key]
            raise MalformedSchemaError(
                f"{where}: duplicate global {key[0]} {qname} "
                f"(first in {prev.doc.source.system_id})")
        self.raw_globals[key] = _RawGlobal(node, doc, qname, component_id(kind, doc.tns, name))

    # -------------------------------------------------------- references

    def _ref(self, value: str, node: _Node, category: str, referrer: str, where: str) -> str:
        """The id of the global of ``category`` that QName ``value``, read at ``node``, names.

        A group or attribute group is built first; reaching one again while
        it is being built is a circular reference.
        """
        qname = _resolve_qname(value, node.nsmap, where)
        if category == "type" and qname.namespace == XSD_NAMESPACE:
            comp_id = builtin_type_id(qname.local)
            if self.builder.has_component(comp_id):
                return comp_id
        raw = self.raw_globals.get((category, qname))
        if raw is None:
            if qname.namespace == XSD_NAMESPACE and category not in _INLINED:
                raise DanglingReferenceError(
                    f"{where}: reference to unknown XSD built-in {qname} from {referrer}")
            raise DanglingReferenceError(
                f"{where}: unresolved {category} reference {qname} from {referrer}")
        if category in _INLINED:
            if raw.comp_id in self._built and not self.builder.has_component(raw.comp_id):
                raise MalformedSchemaError(
                    f"{where}: circular {_INLINED[category]} reference involving {qname}")
            self._build_global(raw)
        return raw.comp_id

    def _type_ref(self, node: _Node, doc: _Doc, attr: str, addr: str, referrer: str,
                  where: str) -> tuple:
        """(type id, inline node) of the type ``node`` names in ``attr`` or declares at ``addr``.

        XSD 1.0 allows one of the two; the id is None when there is neither,
        and the inline node None unless it declares the type.
        """
        value = node.get(attr)
        inline = node.kids("complexType", "simpleType")
        if inline and (value or len(inline) > 1):
            raise MalformedSchemaError(
                f"{where}: xs:{node.qname.local} needs one {attr} attribute or one "
                "inline type, not more")
        if value:
            return self._ref(value, node, "type", referrer, where), None
        if not inline:
            return None, None
        kind = _KINDS[inline[0].qname.local]
        if kind is ComponentKind.COMPLEX_TYPE and node.qname.local != "element":
            raise MalformedSchemaError(
                f"{where}: xs:{node.qname.local} cannot declare a complex type")
        return component_id(kind, doc.tns, addr), inline[0]

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
        """Build a global once, however often it is reached."""
        if raw.comp_id not in self._built:
            self._built.add(raw.comp_id)
            self._build(raw.node, raw.doc, raw.qname.local, raw.qname)

    def _build(self, node: _Node, doc: _Doc, addr: str, qname=None, owner=None) -> str:
        """Build the component ``node`` declares at ``addr`` and return its id.

        The one entry for every kind: ``qname`` is the declared name (None
        for an anonymous type or a wildcard), ``owner`` None for a global.
        """
        tag = node.qname.local
        comp_id = component_id(_KINDS[tag], doc.tns, addr)
        self._READERS[tag](self, node, doc, comp_id, addr, qname, owner)
        return comp_id

    def _build_group_def(self, node, doc, comp_id, addr, qname, owner):
        body = node.first("sequence", "choice", "all")
        if body is None:
            raise MalformedSchemaError(f"{doc.at(node)}: group {qname} has no model group")
        root = self._model_group(body, doc, comp_id, addr, Occurs(1, 1))
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.MODEL_GROUP_DEF, name=qname,
            detail=ModelGroupDetail(root=root), namespace=doc.tns))

    def _build_attrgroup_def(self, node, doc, comp_id, addr, qname, owner):
        uses, wildcard = self._build_attribute_uses(node, doc, comp_id, addr)
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.ATTRIBUTE_GROUP_DEF, name=qname,
            detail=AttributeGroupDetail(attributes=uses, attribute_wildcard=wildcard),
            namespace=doc.tns))

    # -------------------------------------------------------- elements

    def _element_type_id(self, node: _Node, doc: _Doc, addr: str) -> str:
        """Declared type id of an element node (may synthesize an anonymous id)."""
        key = (id(node), doc.tns)
        if key in self._elem_type_memo:
            if self._elem_type_memo[key] is None:
                raise CyclicDerivationError(
                    f"{doc.at(node)}: substitution group cycle while resolving element type")
            return self._elem_type_memo[key]
        self._elem_type_memo[key] = None
        where = doc.at(node)
        result, _inline = self._type_ref(node, doc, "type", addr + "/type", addr, where)
        if result is None and node.get("substitutionGroup"):
            head_qn = _resolve_qname(node.get("substitutionGroup"), node.nsmap, where)
            head_raw = self.raw_globals.get(("element", head_qn))
            if head_raw is None:
                raise DanglingReferenceError(
                    f"{where}: unresolved substitutionGroup head {head_qn}")
            result = self._element_type_id(head_raw.node, head_raw.doc, head_qn.local)
        elif result is None:
            result = builtin_type_id("anyType")
        self._elem_type_memo[key] = result
        return result

    def _build_element_decl(self, node, doc, comp_id, addr, qname, owner):
        where = doc.at(node)
        type_id = self._element_type_id(node, doc, addr)
        head_id = None
        if owner is None and node.get("substitutionGroup"):
            head_id = self._ref(node.get("substitutionGroup"), node, "element", comp_id, where)
        detail = ElementDetail(
            qname=qname,
            declared_type=type_id,
            substitution_head=head_id,
            is_abstract=_flag(node, "abstract"),
            nillable=_flag(node, "nillable"),
        )
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.ELEMENT_DECL,
            name=qname if owner is None else None, detail=detail,
            namespace=doc.tns, owner=owner))
        self.builder.add_edge(comp_id, EdgeLabel.DECLARED_TYPE, type_id)
        if head_id:
            self.builder.add_edge(comp_id, EdgeLabel.SUBSTITUTION_HEAD, head_id)
        inline = node.first("complexType", "simpleType")
        if inline is not None:  # _element_type_id refused it beside a type attribute
            self._build(inline, doc, addr + "/type", owner=comp_id)
        for ic in node.kids("key", "keyref", "unique"):
            self.builder.warn(f"{where}: identity constraint xs:{ic.qname.local} ignored")

    def _build_attribute_decl(self, node, doc, comp_id, addr, qname, owner):
        type_id, inline = self._type_ref(node, doc, "type", addr + "/type", comp_id,
                                         doc.at(node))
        type_id = type_id or builtin_type_id("anySimpleType")
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.ATTRIBUTE_DECL,
            name=qname if owner is None else None,
            detail=AttributeDetail(qname=qname, declared_type=type_id),
            namespace=doc.tns, owner=owner))
        self.builder.add_edge(comp_id, EdgeLabel.ATTRIBUTE_TYPE, type_id)
        if inline is not None:
            self._build(inline, doc, addr + "/type", owner=comp_id)

    # -------------------------------------------------------- types

    def _build_complex_type(self, node, doc, comp_id, addr, qname, owner):
        where = doc.at(node)
        mixed = _flag(node, "mixed")
        base_id = None
        derivation = Derivation.NONE
        content = ContentModel.empty()
        facets = ()
        simple_c = node.first("simpleContent")
        derived = simple_c if simple_c is not None else node.first("complexContent")
        body = node
        if derived is not None:
            body = derived.first("extension", "restriction")
            if body is None:
                raise MalformedSchemaError(f"{where}: {derived.qname.local} without derivation")
            derivation = (Derivation.EXTENSION if body.qname.local == "extension"
                          else Derivation.RESTRICTION)
            base_id = self._ref(body.get("base", ""), body, "type", comp_id, where)
        if simple_c is not None:
            content = ContentModel.simple(
                base_id if base_id.startswith(_SIMPLE_TYPE_ID) else None)
            if derivation is Derivation.RESTRICTION:
                facets = _facets(body)
        else:
            if derived is not None and derived.get("mixed") is not None:
                mixed = _flag(derived, "mixed")
            group_node = body.first("sequence", "choice", "all", "group")
            if group_node is not None:
                root = self._particle(group_node, doc, comp_id, addr, where)
                if root is not None:
                    content = ContentModel.particles(root)
        uses, wildcard_id = self._build_attribute_uses(body, doc, comp_id, addr)

        detail = ComplexTypeDetail(
            base=base_id, derivation=derivation, content=content,
            attributes=uses, attribute_wildcard=wildcard_id,
            is_abstract=_flag(node, "abstract"), mixed=mixed, facets=facets)
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
        where = doc.at(node)
        restriction = node.first("restriction")
        list_node = node.first("list")
        union_node = node.first("union")
        base_id = builtin_type_id("anySimpleType")
        item_id = None
        members = []
        facets = ()
        variety = SimpleVariety.ATOMIC
        if restriction is not None:
            base_id, inline = self._type_ref(restriction, doc, "base", addr + "/base",
                                             comp_id, where)
            if base_id is None:
                raise MalformedSchemaError(f"{where}: restriction without base")
            if inline is not None:
                self._build(inline, doc, addr + "/base", owner=comp_id)
            facets = _facets(restriction)
        elif list_node is not None:
            variety = SimpleVariety.LIST
            item_id, inline = self._type_ref(list_node, doc, "itemType", addr + "/item",
                                             comp_id, where)
            if item_id is None:
                raise MalformedSchemaError(f"{where}: list without item type")
            if inline is not None:
                self._build(inline, doc, addr + "/item", owner=comp_id)
        elif union_node is not None:
            variety = SimpleVariety.UNION
            for token in _xml_tokens(union_node.get("memberTypes", "")):
                members.append(self._ref(token, union_node, "type", comp_id, where))
            for i, inner in enumerate(union_node.kids("simpleType")):
                members.append(self._build(inner, doc, f"{addr}/member[{i}]", owner=comp_id))
        else:
            raise MalformedSchemaError(
                f"{where}: simpleType needs restriction, list, or union")
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.SIMPLE_TYPE, name=qname,
            detail=SimpleTypeDetail(variety=variety, base=base_id, item=item_id,
                                    members=tuple(members), facets=facets),
            namespace=doc.tns, owner=owner))
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

    def _particle(self, node, doc, owner_id, owner_addr, where):
        """The particle ``node`` gives a content model; None when it may not occur."""
        tag = node.qname.local
        ref = node.get("ref")
        if tag == "group" and not ref:
            raise MalformedSchemaError(f"{where}: inner xs:group must use ref")
        occurs = _parse_occurs(node, where)
        if occurs is None:
            return None
        if tag == "group":
            group = self.builder.component(self._ref(ref, node, "group", owner_id, where))
            root = group.detail.root
            return GroupParticle(root.compositor, root.children, occurs, ref=group.id)
        if tag == "any":
            return WildcardParticle(
                self._build(node, doc, self._next_anon(owner_addr, "any"), owner=owner_id),
                occurs)
        if tag != "element":
            return self._model_group(node, doc, owner_id, owner_addr, occurs)
        if ref:
            return ElementParticle(self._ref(ref, node, "element", owner_id, where), occurs)
        name = _declared_name(node, where, "element particle needs name or ref")
        form = node.get("form")
        qualified = (form == "qualified") if form else doc.qualified_elements
        elem_id = self._build(node, doc, self._next_anon(owner_addr, name),
                              QName(doc.tns if qualified else "", name), owner_id)
        return ElementParticle(elem_id, occurs)

    def _model_group(self, node, doc, owner_id, owner_addr, occurs):
        children = []
        for child in node.children:
            if child.qname.namespace != _XSD or child.qname.local == "annotation":
                continue
            cw = doc.at(child)
            if child.qname.local not in _PARTICLES:
                self.builder.warn(f"{cw}: particle xs:{child.qname.local} ignored")
                continue
            p = self._particle(child, doc, owner_id, owner_addr, cw)
            if p is not None:
                children.append(p)
        compositor = Compositor(node.qname.local)
        if compositor is Compositor.ALL:
            where = doc.at(node)
            for c in children:
                if not isinstance(c, ElementParticle):
                    raise MalformedSchemaError(
                        f"{where}: xs:all may contain only element particles")
                if c.occurs.max is None or c.occurs.max > 1:
                    raise MalformedSchemaError(
                        f"{where}: xs:all children must have maxOccurs <= 1")
        return GroupParticle(compositor, children, occurs)

    def _build_wildcard(self, node, doc, comp_id, addr, qname, owner):
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
        process = node.get("processContents", "strict").strip(_XML_SPACE)
        if process not in _PROCESS_CONTENTS:
            raise MalformedSchemaError(
                f"{doc.at(node)}: processContents {process!r} is not strict, lax or skip")
        self.builder.add_component(SchemaComponent(
            id=comp_id, kind=ComponentKind.WILDCARD, name=None,
            detail=WildcardDetail(constraint=constraint, namespaces=namespaces,
                                  process_contents=process, owner_namespace=doc.tns),
            namespace=doc.tns, owner=owner))

    # -------------------------------------------------------- attributes

    def _build_attribute_uses(self, node, doc, owner_id, owner_addr):
        uses = []
        wildcard_id = None
        for child in node.children:
            if child.qname.namespace != _XSD:
                continue
            tag = child.qname.local
            cw = doc.at(child)
            if tag == "attribute":
                use = child.get("use", "optional")
                if use == "prohibited":
                    continue
                ref_attr = child.get("ref")
                default = child.get("default", child.get("fixed"))
                if ref_attr:
                    attr_id = self._ref(ref_attr, child, "attribute", owner_id, cw)
                else:
                    name = _declared_name(child, cw, "attribute needs name or ref")
                    form = child.get("form")
                    qualified = (form == "qualified") if form else doc.qualified_attributes
                    attr_id = self._build(child, doc, self._next_anon(owner_addr, "@" + name),
                                          QName(doc.tns if qualified else "", name), owner_id)
                uses.append(AttributeUse(attribute=attr_id,
                                         required=use == "required", default=default))
            elif tag == "attributeGroup":
                ref_attr = child.get("ref")
                if not ref_attr:
                    raise MalformedSchemaError(f"{cw}: inner attributeGroup must use ref")
                group_comp = self.builder.component(
                    self._ref(ref_attr, child, "attributeGroup", owner_id, cw))
                self.builder.add_edge(owner_id, EdgeLabel.GROUP_REF, group_comp.id)
                for use in group_comp.detail.attributes:
                    uses.append(AttributeUse(use.attribute, use.required, use.default,
                                             via_group=group_comp.id))
                if group_comp.detail.attribute_wildcard and wildcard_id is None:
                    wildcard_id = group_comp.detail.attribute_wildcard
            elif tag == "anyAttribute":
                wildcard_id = self._build(child, doc, self._next_anon(owner_addr, "@any"),
                                          owner=owner_id)
        return uses, wildcard_id

    _READERS = {  # by tag, like _KINDS
        "element": _build_element_decl,
        "attribute": _build_attribute_decl,
        "complexType": _build_complex_type,
        "simpleType": _build_simple_type,
        "group": _build_group_def,
        "attributeGroup": _build_attrgroup_def,
        "any": _build_wildcard,
        "anyAttribute": _build_wildcard,
    }

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
