"""Build the optimized code-generation model from a retained schema subset.

Optimizations applied here, each behind a flag: removal of never-used
classes/fields, inheritance flattening, occurrence tightening (repeatable
particles that only ever occur once become scalar slots), substitution
and wildcard dispatch bounding to what the corpus actually contains, and
single-child wrapper collapsing.  A synthetic corpus disables tightening
and bounding, which need representative occurrence/substitution evidence.
"""

from __future__ import annotations

import json
import keyword
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .errors import EmptyModelError, InconsistentUsageError
from .jsonio import SHARED, SKIP, decode, dumps, encode
from .model import (
    XSD_NAMESPACE,
    ComponentKind,
    ContentKind,
    ElementParticle,
    GroupParticle,
    ParticlePath,
    QName,
    SchemaSet,
    builtin_type_id,
    substitution_members,
)
from .analyzer import UsageReport
from .runtime import Record

IR_VERSION = 2

# Names a package may import from slimbind.runtime that a class name could
# take.  The built-in template imports none of them; a custom template that
# writes ``class`` statements imports ``Record``.
_TEMPLATE_IMPORTS = ("Record",)
# Attributes every record has; a field must not shadow them.
_RECORD_ATTRIBUTES = tuple(name for name in vars(Record) if not name.startswith("__"))


class Cardinality(Enum):
    SCALAR_REQUIRED = "scalar-required"
    SCALAR_OPTIONAL = "scalar-optional"
    LIST = "list"


class FieldKind(Enum):
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT_CONTENT = "text"


class ValueCategory(Enum):
    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    DOUBLE = "double"
    RAW = "raw-lexical"


@dataclass(slots=True)
class BindingOptions:
    flatten_inheritance: bool = True
    collapse_single_child: bool = True
    tighten_occurrences: bool = True
    bound_substitutions: bool = True
    prune_unused: bool = True
    ignore_paths: tuple[tuple[QName, ...], ...] = ()
    corpus_is_synthetic: bool = False

    def resolved(self) -> "BindingOptions":
        """Synthetic corpora lack occurrence and substitution evidence."""
        if self.corpus_is_synthetic:
            return replace(self, tighten_occurrences=False, bound_substitutions=False)
        return self


@dataclass(frozen=True, slots=True)
class DispatchEntry:
    via: str  # "element" | "xsi-type"
    qname: QName  # element name, or the xsi:type type name
    target_class: Optional[str] = None
    value: Optional[ValueCategory] = None
    component: Optional[str] = None  # element or type component id
    nillable: bool = False


@dataclass(slots=True)
class BindingField:
    name: str
    xml_name: QName
    kind: FieldKind
    cardinality: Cardinality
    target_class: Optional[str] = None
    value: Optional[ValueCategory] = None
    ignored: bool = False
    nillable: bool = False
    # Fields and roots with equal tables share one tuple (see _ModelBuilder.shared).
    dispatch: tuple[DispatchEntry, ...] = field(default=(), metadata=SHARED)
    collapse_chain: tuple[QName, ...] = ()  # inner element names unwrapped by collapse
    is_wildcard: bool = False
    source_element: Optional[str] = None  # element component id
    source_particle: Optional[str] = None  # rendered ParticlePath
    source_attribute: Optional[str] = None  # attribute component id


@dataclass(slots=True)
class BindingClass:
    name: str
    source_type: str
    fields: list[BindingField]
    base: Optional[str] = None  # base class name when flattening is off
    is_abstract: bool = False
    mixed: bool = False
    is_collapsed_away: bool = False

    def field_by_name(self, name):
        for f in self.fields:
            if f.name == name:
                return f
        return None


@dataclass(slots=True)
class BindingRoot:
    qname: QName
    element: str  # element component id
    target_class: Optional[str] = None
    value: Optional[ValueCategory] = None
    nillable: bool = False
    # xsi-type entries observed/possible
    dispatch: tuple[DispatchEntry, ...] = field(default=(), metadata=SHARED)


@dataclass(slots=True)
class BindingModel:
    name: str
    classes: list[BindingClass]  # active classes, sorted by name
    roots: list[BindingRoot]  # sorted by qname
    options: BindingOptions
    collapsed_classes: list[BindingClass] = field(default_factory=list)  # removed by collapse
    collapsed_elements: tuple[str, ...] = ()  # sorted element ids collapsed through
    # Ignore paths that matched no field, in the order given.
    unmatched_ignores: list = field(default_factory=list, metadata=SKIP)

    def class_by_name(self, name) -> Optional[BindingClass]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


def effective_fields(model: BindingModel, cls: BindingClass) -> list:
    """Fields parsed for instances of cls: base-chain fields then its own.

    With flattening on this is just ``cls.fields``; with it off the base
    classes still hold the inherited declarations.
    """
    chain = []
    cursor = cls
    seen = {cls.name}
    while cursor is not None:
        chain.append(cursor)
        if cursor.base is None or cursor.base in seen:
            break
        seen.add(cursor.base)
        cursor = model.class_by_name(cursor.base)
    out = []
    for level in reversed(chain):
        out.extend(level.fields)
    return out


def serialize_binding_model(model: BindingModel) -> str:
    """``binding-model.json``: each distinct dispatch table written once.

    Fields and roots refer to a table by its index in ``dispatchTables``.
    """
    index, tables = {}, {}  # table id -> index; table -> index
    for owner in (*(f for c in (*model.classes, *model.collapsed_classes) for f in c.fields),
                  *model.roots):
        table = owner.dispatch
        if table and id(table) not in index:
            index[id(table)] = tables.setdefault(table, len(tables))
    return dumps(model, index, irVersion=IR_VERSION,
                 dispatchTables=[[encode(e) for e in table] for table in tables])


def deserialize_binding_model(text: str) -> BindingModel:
    """The model :func:`serialize_binding_model` wrote; equal tables share one tuple."""
    data = json.loads(text)
    if data.get("irVersion") != IR_VERSION:
        raise ValueError(f"binding model irVersion {data.get('irVersion')!r} is not "
                         f"{IR_VERSION}; regenerate it with 'slimbind generate'")
    tables = [tuple(decode(DispatchEntry, e) for e in table) for table in data["dispatchTables"]]
    return decode(BindingModel, data, tables)


# ---------------------------------------------------------------- name mangling

def mangle(name: str, used: set, class_style=False) -> str:
    """A fresh identifier for ``name``; never a keyword, never ``__``-prefixed.

    A class name starts with a letter, so it never shadows ``_D0`` or ``_ROOTS``.
    """
    s = re.sub(r"[^0-9A-Za-z_]", "_", name)
    if not s or not (s[0].isalpha() or (s[0] == "_" and not class_style)) or s.startswith("__"):
        s = "x" + s
    if class_style:
        s = s[0].upper() + s[1:]
    if keyword.iskeyword(s):
        s += "_"
    base, n = s, 2
    while s in used:
        s = f"{base}_{n}"
        n += 1
    used.add(s)
    return s


# ---------------------------------------------------------------- value mapping

_INTEGER_LOCALS = {"integer", "nonPositiveInteger", "negativeInteger", "long",
                   "int", "short", "byte", "nonNegativeInteger", "unsignedLong",
                   "unsignedInt", "unsignedShort", "unsignedByte", "positiveInteger"}
_STRING_LOCALS = {"string", "normalizedString", "token", "language", "NMTOKEN",
                  "Name", "NCName", "ID", "IDREF", "ENTITY"}


def value_category(schema: SchemaSet, type_id: str) -> ValueCategory:
    """Built-in numerics/booleans map natively; everything else is raw text."""
    comp = schema.component(type_id)
    if comp.namespace != XSD_NAMESPACE:
        return ValueCategory.RAW
    local = comp.name.local
    if local in _INTEGER_LOCALS:
        return ValueCategory.INTEGER
    if local == "decimal":
        return ValueCategory.DECIMAL
    if local == "boolean":
        return ValueCategory.BOOLEAN
    if local in ("float", "double"):
        return ValueCategory.DOUBLE
    if local in _STRING_LOCALS:
        return ValueCategory.STRING
    return ValueCategory.RAW


# ---------------------------------------------------------------- model builder

class _ModelBuilder:
    def __init__(self, schema, retained, usage, options):
        self.schema = schema
        self.retained = retained
        self.usage = usage
        self.options = options
        self.class_names = {}  # type id -> class name
        self.tables = {}  # each distinct dispatch table, mapped to itself
        self.substitutions = {}  # head element id -> its element-name entries

    # ------------------------------------------------------------ class set

    def class_types(self) -> list:
        schema, usage, options = self.schema, self.usage, self.options
        out = set()
        for comp_id in self.retained:
            comp = schema.component(comp_id)
            if comp.kind is not ComponentKind.COMPLEX_TYPE:
                continue
            if comp.namespace == XSD_NAMESPACE:
                continue  # anyType never yields a class
            if options.prune_unused and comp_id not in usage.instanced_types:
                continue
            if options.flatten_inheritance and comp.detail.is_abstract:
                continue
            out.add(comp_id)
        if not options.flatten_inheritance:
            # Base classes carry inherited fields, so pull in base chains.
            for comp_id in list(out):
                for base_id in self.schema.base_chain(comp_id):
                    base = schema.component(base_id)
                    if base.kind is ComponentKind.COMPLEX_TYPE and \
                            base.namespace != XSD_NAMESPACE and base_id in self.retained:
                        out.add(base_id)
        return sorted(out)

    def assign_names(self, type_ids):
        used = set(_TEMPLATE_IMPORTS)
        for type_id in type_ids:
            comp = self.schema.component(type_id)
            if comp.name is not None:
                base = comp.name.local
            else:
                owner = self.schema.component(comp.owner)
                owner_qn = getattr(owner.detail, "qname", None)
                base = (owner_qn.local if owner_qn else owner.id) + "Type"
            self.class_names[type_id] = mangle(base, used, class_style=True)

    # ------------------------------------------------------------ fields

    def _target_of(self, type_id):
        """(target class name or None, value category or None) for a type."""
        comp = self.schema.component(type_id)
        if comp.kind is ComponentKind.SIMPLE_TYPE:
            return None, value_category(self.schema, type_id)
        if type_id == builtin_type_id("anyType"):
            return None, ValueCategory.RAW
        name = self.class_names.get(type_id)
        if name is not None:
            return name, None
        # Complex type without a class (abstract under flattening, or never
        # instanced): dispatch entries must cover the concrete cases.
        return None, None

    def _effective_occurs(self, level_root, path):
        """(is_list, is_required) combining the particle with its ancestors."""
        node = level_root
        max_mult = 1 if (node.occurs.max == 1) else 2
        required = node.occurs.min >= 1
        for idx in path:
            if isinstance(node, GroupParticle):
                if node.compositor.value == "choice" and len(node.children) > 1:
                    required = False
            node = node.children[idx]
            if node.occurs.max is None or node.occurs.max > 1:
                max_mult = 2
            if node.occurs.min < 1:
                required = False
        return max_mult > 1, required

    def shared(self, entries) -> tuple:
        """``entries`` as a tuple: one object for all the equal dispatch tables of the model."""
        entries = tuple(entries)
        return self.tables.setdefault(entries, entries) if entries else ()

    def _substitution_entries(self, elem_id):
        """Element-name dispatch entries for a head element particle, built once per head."""
        entries = self.substitutions.get(elem_id)
        if entries is None:
            entries = self.substitutions[elem_id] = self.shared(self._head_entries(elem_id))
        return entries

    def _head_entries(self, elem_id):
        schema, usage, options = self.schema, self.usage, self.options
        head = schema.component(elem_id)
        if not head.is_global:
            return ()  # local elements cannot head substitution groups
        members = substitution_members(schema, elem_id) & self.retained
        if not members:
            return ()
        chosen = []
        if options.bound_substitutions:
            observed = usage.element_substitutions.get(elem_id, set())
            chosen = [m for m in members if m in observed]
            if not head.detail.is_abstract and elem_id in usage.used_components:
                chosen.append(elem_id)
        else:
            chosen = [m for m in members
                      if not schema.component(m).detail.is_abstract]
            if not head.detail.is_abstract:
                chosen.append(elem_id)
        if chosen == [elem_id]:
            return ()  # only the head itself: a plain field suffices
        entries = []
        for m in sorted(set(chosen)):
            member = schema.component(m)
            target_class, value = self._target_of(member.detail.declared_type)
            entries.append(DispatchEntry(
                via="element", qname=member.detail.qname,
                target_class=target_class, value=value, component=m,
                nillable=member.detail.nillable))
        entries.sort(key=lambda e: e.qname)
        return entries

    def _xsi_entries(self, elem_id, declared_type):
        schema, usage, options = self.schema, self.usage, self.options
        if options.bound_substitutions:
            observed = usage.type_substitutions.get(elem_id, set())
            candidates = sorted(observed & self.retained)
        else:
            candidates = sorted(
                t for t in self.retained
                if schema.component(t).kind is ComponentKind.COMPLEX_TYPE
                and schema.component(t).name is not None
                and not schema.component(t).detail.is_abstract
                and t != declared_type
                and schema.is_derived_from(t, declared_type))
        entries = []
        for t in candidates:
            comp = schema.component(t)
            if comp.name is None:
                continue  # xsi:type can only name a global type
            target_class, value = self._target_of(t)
            entries.append(DispatchEntry(via="xsi-type", qname=comp.name,
                                         target_class=target_class, value=value,
                                         component=t))
        entries.sort(key=lambda e: e.qname)
        return self.shared(entries)

    def _element_field(self, particle, declaring, path, used_names):
        schema = self.schema
        pp = ParticlePath(declaring, path)
        elem = schema.component(particle.element)
        detail = elem.detail
        is_list, required = self._effective_occurs(self._level_root, path)
        evidence = self.usage.occurrence_maxima.get(pp)
        if self.options.tighten_occurrences and is_list and evidence is not None \
                and evidence <= 1:
            is_list = False
        if is_list:
            card = Cardinality.LIST
        elif required:
            card = Cardinality.SCALAR_REQUIRED
        else:
            card = Cardinality.SCALAR_OPTIONAL
        target_class, value = self._target_of(detail.declared_type)
        by_name = self._substitution_entries(particle.element)
        by_type = self._xsi_entries(particle.element, detail.declared_type)
        dispatch = self.shared(by_name + by_type) if by_name and by_type else by_name or by_type
        return BindingField(
            name=mangle(detail.qname.local, used_names),
            xml_name=detail.qname, kind=FieldKind.ELEMENT, cardinality=card,
            target_class=target_class, value=value, nillable=detail.nillable,
            dispatch=dispatch, source_element=particle.element,
            source_particle=pp.render())

    def _wildcard_field(self, particle, declaring, path, used_names):
        schema, usage, options = self.schema, self.usage, self.options
        pp = ParticlePath(declaring, path)
        wc = schema.component(particle.wildcard).detail
        is_list, required = self._effective_occurs(self._level_root, path)
        evidence = usage.occurrence_maxima.get(pp)
        if options.tighten_occurrences and is_list and evidence is not None \
                and evidence <= 1:
            is_list = False
        if options.bound_substitutions:
            fillers = sorted(usage.wildcard_fillers.get(particle.wildcard, set())
                             & self.retained)
        else:
            fillers = sorted(
                e for e in self.retained
                if schema.component(e).kind is ComponentKind.ELEMENT_DECL
                and schema.component(e).name is not None
                and not schema.component(e).detail.is_abstract
                and wc.admits(schema.component(e).name.namespace))
        entries = []
        for f in fillers:
            fc = schema.component(f)
            target_class, value = self._target_of(fc.detail.declared_type)
            entries.append(DispatchEntry(via="element", qname=fc.detail.qname,
                                         target_class=target_class, value=value,
                                         component=f, nillable=fc.detail.nillable))
        entries.sort(key=lambda e: e.qname)
        return BindingField(
            name=mangle("any", used_names),
            xml_name=QName(XSD_NAMESPACE, "any"), kind=FieldKind.ELEMENT,
            cardinality=(Cardinality.LIST if is_list else
                         Cardinality.SCALAR_REQUIRED if required else
                         Cardinality.SCALAR_OPTIONAL),
            dispatch=self.shared(entries), is_wildcard=True,
            source_particle=pp.render())

    def build_class(self, type_id) -> BindingClass:
        schema, usage, options = self.schema, self.usage, self.options
        comp = schema.component(type_id)
        detail = comp.detail
        used_names = set(_RECORD_ATTRIBUTES)
        fields = []

        base_name = None
        if options.flatten_inheritance:
            content_levels = schema.effective_content_chain(type_id)
            attr_levels = schema.effective_attribute_uses(type_id)
            mixed = schema.effective_mixed(type_id)
            text_type = schema.effective_simple_content(type_id)
        else:
            content_levels = [(type_id, detail.content)]
            attr_levels = [(type_id, u) for u in detail.attributes]
            mixed = detail.mixed
            text_type = None
            if detail.content.kind is ContentKind.SIMPLE:
                # None when the text is inherited: it lives on the base class.
                text_type = detail.content.simple_type
            elif detail.derivation.value == "none":
                text_type = schema.effective_simple_content(type_id)
            if detail.base is not None:
                base_comp = schema.component(detail.base)
                if base_comp.kind is ComponentKind.COMPLEX_TYPE:
                    base_name = self.class_names.get(detail.base)

        for declaring, content in content_levels:
            if content.kind is not ContentKind.PARTICLES:
                continue
            self._level_root = content.root
            for path, particle in _iter_leaf_particles(content.root):
                pp = ParticlePath(declaring, path)
                if options.prune_unused and pp not in usage.occurrence_maxima:
                    continue
                if isinstance(particle, ElementParticle):
                    fields.append(self._element_field(particle, declaring, path,
                                                      used_names))
                else:
                    f = self._wildcard_field(particle, declaring, path, used_names)
                    if f.dispatch:
                        fields.append(f)

        for _declaring, use in attr_levels:
            if options.prune_unused and use.attribute not in usage.used_components:
                continue
            attr = schema.component(use.attribute)
            fields.append(BindingField(
                name=mangle(attr.detail.qname.local, used_names),
                xml_name=attr.detail.qname, kind=FieldKind.ATTRIBUTE,
                cardinality=(Cardinality.SCALAR_REQUIRED if use.required
                             else Cardinality.SCALAR_OPTIONAL),
                value=value_category(schema, attr.detail.declared_type),
                source_attribute=use.attribute))

        if mixed:
            fields.append(BindingField(
                name=mangle("text", used_names), xml_name=QName("", "#text"),
                kind=FieldKind.TEXT_CONTENT, cardinality=Cardinality.SCALAR_OPTIONAL,
                value=ValueCategory.RAW))
        elif text_type is not None:
            fields.append(BindingField(
                name=mangle("value", used_names), xml_name=QName("", "#text"),
                kind=FieldKind.TEXT_CONTENT, cardinality=Cardinality.SCALAR_REQUIRED,
                value=value_category(schema, text_type)))

        _strip_shadowed_wildcard_entries(fields, self.shared)
        fields = [f for f in fields if not (f.is_wildcard and not f.dispatch)]
        return BindingClass(
            name=self.class_names[type_id], source_type=type_id, fields=fields,
            base=base_name, is_abstract=detail.is_abstract, mixed=mixed)

    # ------------------------------------------------------------ roots

    def build_roots(self) -> list:
        schema, usage, options = self.schema, self.usage, self.options
        if options.prune_unused:
            root_ids = sorted(usage.root_elements)
        else:
            root_ids = sorted(
                c.id for c in schema.globals()
                if c.kind is ComponentKind.ELEMENT_DECL
                and c.id in self.retained and not c.detail.is_abstract)
        roots = []
        for elem_id in root_ids:
            comp = schema.component(elem_id)
            target_class, value = self._target_of(comp.detail.declared_type)
            roots.append(BindingRoot(
                qname=comp.detail.qname, element=elem_id,
                target_class=target_class, value=value,
                nillable=comp.detail.nillable,
                dispatch=self._xsi_entries(elem_id, comp.detail.declared_type)))
        roots.sort(key=lambda r: r.qname)
        return roots


def _strip_shadowed_wildcard_entries(fields, shared):
    """Element fields win over wildcards for the same child name.

    Generated parsers match children by name, so a wildcard entry whose
    name an element field of the same class already claims could never be
    reached; drop it to keep dispatch tables honest.
    """
    claimed = set()
    for f in fields:
        if f.kind is not FieldKind.ELEMENT or f.is_wildcard:
            continue
        elem_entries = [e for e in f.dispatch if e.via == "element"]
        if elem_entries:
            claimed.update(e.qname for e in elem_entries)
        else:
            claimed.add(f.xml_name)
    for f in fields:
        if f.is_wildcard and f.dispatch:
            kept = tuple(e for e in f.dispatch if e.qname not in claimed)
            if len(kept) < len(f.dispatch):
                f.dispatch = shared(kept)
            claimed.update(e.qname for e in kept)


def _iter_leaf_particles(root: GroupParticle):
    """Element/wildcard particles of one content tree, in document order."""
    out = []

    def walk(group, path):
        for i, child in enumerate(group.children):
            if isinstance(child, GroupParticle):
                walk(child, path + (i,))
            else:
                out.append((path + (i,), child))
    walk(root, ())
    return out


# ---------------------------------------------------------------- collapse

def _referenced_class_names(model: BindingModel) -> set:
    referenced = set()
    for root in model.roots:
        if root.target_class:
            referenced.add(root.target_class)
        for e in root.dispatch:
            if e.target_class:
                referenced.add(e.target_class)
    for cls in model.classes:
        if cls.base:
            referenced.add(cls.base)
        for f in cls.fields:
            if f.target_class:
                referenced.add(f.target_class)
            for e in f.dispatch:
                if e.target_class:
                    referenced.add(e.target_class)
    return referenced


def _apply_collapse(model: BindingModel, usage: UsageReport, max_rounds=32):
    """Retarget fields through single-child wrappers, bottom-up to a fixed point.

    Each unwrap step requires the element whose content is being entered to
    be a corpus-proven single-child element, so generated parsers can expect
    exactly one inner start tag per wrapper.
    """
    by_name = {c.name: c for c in model.classes}
    # Element whose content the parser sits in after unwrapping this field.
    leaf_elem = {}
    collapses = []  # (outer element id, wrapper class name)
    for _round in range(max_rounds):
        changed = False
        for cls in model.classes:
            for f in cls.fields:
                if (f.kind is not FieldKind.ELEMENT or f.is_wildcard or f.dispatch
                        or f.ignored or f.target_class is None
                        or f.cardinality is Cardinality.LIST
                        or f.source_element is None):
                    continue
                wrapper_elem = leaf_elem.get(id(f), f.source_element)
                if wrapper_elem not in usage.single_child_elements:
                    continue
                inner_cls = by_name.get(f.target_class)
                if inner_cls is None or inner_cls.mixed or len(inner_cls.fields) != 1:
                    continue
                inner = inner_cls.fields[0]
                if (inner.kind is not FieldKind.ELEMENT or inner.is_wildcard
                        or inner.dispatch or inner.ignored
                        or inner.cardinality is Cardinality.LIST):
                    continue
                collapses.append((wrapper_elem, inner_cls.name))
                f.collapse_chain = f.collapse_chain + (inner.xml_name,)
                f.target_class = inner.target_class
                f.value = inner.value
                leaf_elem[id(f)] = inner.source_element
                changed = True
        if not changed:
            break

    referenced = _referenced_class_names(model)
    removed_names = {wname for _elem, wname in collapses if wname not in referenced}
    kept, removed = [], []
    for cls in model.classes:
        if cls.name in removed_names:
            cls.is_collapsed_away = True
            removed.append(cls)
        else:
            kept.append(cls)
    model.classes = kept
    model.collapsed_classes = removed
    model.collapsed_elements = tuple(sorted(
        {elem for elem, wname in collapses if wname in removed_names}))


# ---------------------------------------------------------------- ignore paths

def _mark_ignored(model: BindingModel, ignore_paths) -> list:
    """Mark fields addressed by root-anchored element-name paths as ignored.

    Returns the paths that matched no field, in the order given.
    """
    if not ignore_paths:
        return []
    targets = [tuple(p) for p in ignore_paths]
    matched = set()
    by_name = {c.name: c for c in model.classes}

    seen = set()

    def walk(cls_name, prefix):
        if cls_name is None or (cls_name, prefix) in seen or len(prefix) > 64:
            return
        seen.add((cls_name, prefix))
        cls = by_name.get(cls_name)
        if cls is None:
            return
        for f in cls.fields:
            if f.kind is not FieldKind.ELEMENT:
                continue
            path = prefix + (f.xml_name,)
            if path in targets:
                f.ignored = True
                matched.add(path)
                continue
            if any(t[:len(path)] == path for t in targets):
                walk(f.target_class, path)
                for e in f.dispatch:
                    walk(e.target_class, path)

    for root in model.roots:
        prefix = (root.qname,)
        if prefix in targets:
            continue  # ignoring the whole root is meaningless; skip
        walk(root.target_class, prefix)
        for e in root.dispatch:
            walk(e.target_class, prefix)
    return [t for t in targets if t not in matched]


# ---------------------------------------------------------------- entry point

def build_binding_model(schema: SchemaSet, retained, usage: UsageReport,
                        options: BindingOptions = None,
                        model_name: str = "model") -> BindingModel:
    """Transform the retained subset plus usage facts into the code-gen model."""
    options = (options or BindingOptions()).resolved()
    retained = set(retained)
    for comp_id in retained:
        schema.component(comp_id)
    outside = usage.used_components - retained
    if outside:
        raise InconsistentUsageError(
            f"usage references {len(outside)} components outside the retained set, "
            f"e.g. {sorted(outside)[0]}")

    builder = _ModelBuilder(schema, retained, usage, options)
    type_ids = builder.class_types()
    builder.assign_names(type_ids)
    classes = [builder.build_class(t) for t in type_ids]
    classes.sort(key=lambda c: c.name)

    roots = builder.build_roots()
    if not roots:
        raise EmptyModelError("no document roots: nothing to generate")

    model = BindingModel(name=model_name, classes=classes, roots=roots,
                         options=options)
    model.unmatched_ignores = _mark_ignored(model, options.ignore_paths)
    if options.collapse_single_child:
        _apply_collapse(model, usage)
    return model
