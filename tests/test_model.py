"""Component graph operations against brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from slimbind.analyzer import UsageReport
from slimbind.errors import NotAnElementError, UnknownComponentError
from slimbind.model import (
    ComponentKind,
    EdgeLabel,
    Occurs,
    QName,
    SchemaComponent,
    SchemaSetBuilder,
    substitution_members,
)
from slimbind.simplify import compute_retained_set
from oracle import brute_retained, brute_substitution_members


def build_graph(edges, extra_nodes=()):
    """SchemaSet whose nodes are bare complex types joined by labelled edges."""
    builder = SchemaSetBuilder()
    nodes = set(extra_nodes)
    for src, _label, dst in edges:
        nodes.add(src)
        nodes.add(dst)
    from slimbind.model import ComplexTypeDetail, ContentModel, Derivation
    for n in sorted(nodes):
        builder.add_component(SchemaComponent(
            id=n, kind=ComponentKind.COMPLEX_TYPE, name=QName("urn:g", n),
            detail=ComplexTypeDetail(None, Derivation.NONE, ContentModel.empty(), []),
            namespace="urn:g"))
    for src, label, dst in edges:
        builder.add_edge(src, label, dst)
    return builder.build()


class TestQName:
    def test_equality_is_fieldwise(self):
        assert QName("urn:a", "x") == QName("urn:a", "x")
        assert QName("urn:a", "x") != QName("urn:b", "x")
        assert QName("urn:a", "x") != QName("urn:a", "y")

    @pytest.mark.parametrize("bad", ["", "a b", "a:b", "a\tb", "x\n"])
    def test_rejects_bad_local_names(self, bad):
        with pytest.raises(ValueError):
            QName("urn:a", bad)


_WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]


def _valid_local_by_character(local):
    """The per-character rule QName validation is defined by."""
    return bool(local) and not any(c.isspace() for c in local) and ":" not in local


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_WHITESPACE + [":"])),
               max_size=8))
def test_qname_local_check_matches_per_character_rule(local):
    try:
        QName("urn:a", local)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _valid_local_by_character(local)


class TestOccurs:
    def test_unbounded(self):
        assert Occurs(0, None).unbounded

    @pytest.mark.parametrize("lo,hi", [(-1, 1), (2, 1), (0, 0)])
    def test_invalid_ranges(self, lo, hi):
        with pytest.raises(ValueError):
            Occurs(lo, hi)


def retained(schema, used) -> set:
    """The retained set of a corpus that used exactly ``used``."""
    return compute_retained_set(schema, UsageReport(used_components=set(used)))


class TestDependencyClosure:
    def test_unknown_root_raises(self):
        schema = build_graph([("A", EdgeLabel.BASE_TYPE, "B")])
        with pytest.raises(UnknownComponentError):
            retained(schema, {"nope"})


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    nodes = [f"N{i}" for i in range(n)]
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    labels = list(EdgeLabel)
    edges = []
    for _ in range(n_edges):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from(nodes))
        label = draw(st.sampled_from(labels))
        edges.append((src, label, dst))
    roots1 = draw(st.sets(st.sampled_from(nodes), max_size=n))
    roots2 = roots1 | draw(st.sets(st.sampled_from(nodes), max_size=n))
    return nodes, edges, roots1, roots2


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_closure_matches_oracle_and_laws(case):
    nodes, edges, roots1, roots2 = case
    schema = build_graph(edges, extra_nodes=nodes)
    c1 = retained(schema, roots1)
    assert c1 == brute_retained(schema, roots1)
    # Monotone: bigger roots never shrink the closure.
    c2 = retained(schema, roots2)
    assert c1 <= c2
    # Idempotent: closing a closure changes nothing.
    assert retained(schema, c1) == c1


class TestSubstitutionMembers:
    def build_elements(self, heads):
        """heads: {element: head or None}."""
        from slimbind.model import ElementDetail, builtin_type_id
        builder = SchemaSetBuilder()
        for name in sorted(heads):
            builder.add_component(SchemaComponent(
                id=name, kind=ComponentKind.ELEMENT_DECL,
                name=QName("urn:g", name),
                detail=ElementDetail(qname=QName("urn:g", name),
                                     declared_type=builtin_type_id("string"),
                                     substitution_head=heads[name]),
                namespace="urn:g"))
        for name, head in heads.items():
            if head:
                builder.add_edge(name, EdgeLabel.SUBSTITUTION_HEAD, head)
        return builder.build()

    def test_no_members(self):
        schema = self.build_elements({"E": None})
        assert substitution_members(schema, "E") == set()

    def test_transitive_members(self):
        schema = self.build_elements({"E": None, "F": "E", "G": "F"})
        assert substitution_members(schema, "E") == {"F", "G"}
        assert substitution_members(schema, "E") == \
            brute_substitution_members(schema, "E")

    def test_leaf_has_no_members(self):
        schema = self.build_elements({"E": None, "F": "E", "G": "F"})
        assert substitution_members(schema, "G") == set()

    def test_head_never_its_own_member(self):
        schema = self.build_elements({"E": None, "F": "E"})
        assert "E" not in substitution_members(schema, "E")

    def test_not_an_element(self):
        schema = build_graph([("A", EdgeLabel.BASE_TYPE, "B")])
        with pytest.raises(NotAnElementError):
            substitution_members(schema, "A")

    def test_unknown_component(self):
        schema = self.build_elements({"E": None})
        with pytest.raises(UnknownComponentError):
            substitution_members(schema, "missing")

    def test_enumeration_matches_oracle_on_random_forests(self):
        import random
        for seed in range(25):
            rng = random.Random(seed)
            names = [f"e{i}" for i in range(rng.randint(1, 15))]
            heads = {}
            for i, name in enumerate(names):
                heads[name] = rng.choice(names[:i]) if i and rng.random() < .6 else None
            schema = self.build_elements(heads)
            for name in names:
                assert substitution_members(schema, name) == \
                    brute_substitution_members(schema, name)


class TestBuilderInvariants:
    def test_duplicate_global_rejected(self):
        from slimbind.model import ComplexTypeDetail, ContentModel, Derivation
        builder = SchemaSetBuilder()
        comp = SchemaComponent(
            id="x", kind=ComponentKind.COMPLEX_TYPE, name=QName("urn:g", "T"),
            detail=ComplexTypeDetail(None, Derivation.NONE, ContentModel.empty(), []),
            namespace="urn:g")
        builder.add_component(comp)
        clash = SchemaComponent(
            id="y", kind=ComponentKind.SIMPLE_TYPE, name=QName("urn:g", "T"),
            detail=None, namespace="urn:g")
        with pytest.raises(ValueError):
            builder.add_component(clash)  # complex and simple share a symbol space

    def test_edge_endpoints_must_exist(self):
        builder = SchemaSetBuilder()
        builder.add_edge("ghost", EdgeLabel.BASE_TYPE, "ghost2")
        with pytest.raises(ValueError):
            builder.build()

    def test_builtins_always_present(self):
        from slimbind.model import XSD_NAMESPACE, builtin_type_ids
        schema = SchemaSetBuilder().build()
        ids = builtin_type_ids()
        assert ids <= set(schema.components)
        assert schema.lookup_global("type", QName(XSD_NAMESPACE, "string"))
        assert schema.lookup_global("type", QName(XSD_NAMESPACE, "anyType"))
        assert schema.lookup_global("type", QName(XSD_NAMESPACE, "notAType")) is None
