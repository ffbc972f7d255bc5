"""Unit and property tests for distinguished names."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap.dn import DN, RDN, DNError, common_suffix


class TestRdn:
    def test_parse_simple(self):
        r = RDN.parse("hn=hostX")
        assert r.attr == "hn"
        assert r.value == "hostX"

    def test_case_insensitive_equality(self):
        assert RDN.parse("HN=HostX") == RDN.parse("hn=hostx")

    def test_whitespace_normalized(self):
        assert RDN.parse("o=Argonne  National   Lab") == RDN.parse(
            "o=argonne national lab"
        )

    def test_multivalued(self):
        r = RDN.parse("cn=a+sn=b")
        assert len(r.avas) == 2
        # order-insensitive equality
        assert r == RDN.parse("sn=b+cn=a")

    def test_escaped_comma(self):
        r = RDN.parse(r"cn=Foster\, Ian")
        assert r.value == "Foster, Ian"

    def test_escaped_hex(self):
        r = RDN.parse(r"cn=a\2ab")
        assert r.value == "a*b"

    def test_trailing_hex_escape(self):
        # `\xx` at the very end of the value must be read as hex, not
        # rejected by an off-by-one bound check
        r = RDN.parse(r"cn=a\2a")
        assert r.value == "a*"
        assert RDN.parse(r"cn=a\ff").value == "a\xff"

    def test_trailing_incomplete_hex_escape(self):
        with pytest.raises(DNError):
            RDN.parse("cn=a\\f")

    def test_dangling_backslash(self):
        with pytest.raises(DNError):
            RDN.parse("cn=a\\")

    def test_roundtrip_with_special_chars(self):
        r = RDN.single("cn", "x=y, z+w")
        assert RDN.parse(str(r)) == r

    def test_missing_equals(self):
        with pytest.raises(DNError):
            RDN.parse("justtext")

    def test_empty_attr(self):
        with pytest.raises(DNError):
            RDN.parse("=value")

    def test_bad_attr_chars(self):
        with pytest.raises(DNError):
            RDN.parse("a b=c")


class TestDn:
    def test_parse_multi_rdn(self):
        dn = DN.parse("perf=load5, hn=hostX")
        assert len(dn) == 2
        assert dn.rdn.attr == "perf"

    def test_root(self):
        assert DN.parse("") == DN.root()
        assert DN.root().is_root()

    def test_str_roundtrip(self):
        dn = DN.parse("queue=default, hn=hostX, o=O1")
        assert DN.parse(str(dn)) == dn

    def test_parent_child(self):
        dn = DN.parse("hn=hostX, o=O1")
        assert dn.parent() == DN.parse("o=O1")
        assert DN.parse("o=O1").child("hn=hostX") == dn

    def test_root_parent_raises(self):
        with pytest.raises(DNError):
            DN.root().parent()

    def test_descendant(self):
        child = DN.parse("perf=load5, hn=hostX, o=O1")
        assert child.is_descendant_of(DN.parse("o=O1"))
        assert child.is_descendant_of(DN.parse("hn=hostX, o=O1"))
        assert not child.is_descendant_of(child)
        assert child.is_within(child)
        assert child.is_within(DN.root())

    def test_not_descendant_of_sibling(self):
        assert not DN.parse("hn=a, o=O1").is_descendant_of(DN.parse("o=O2"))

    def test_depth_below(self):
        dn = DN.parse("perf=load5, hn=hostX, o=O1")
        assert dn.depth_below(DN.parse("o=O1")) == 2
        assert dn.depth_below(dn) == 0
        with pytest.raises(DNError):
            DN.parse("o=O2").depth_below(DN.parse("o=O1"))

    def test_relative_to(self):
        dn = DN.parse("hn=hostX, o=O1")
        rel = dn.relative_to(DN.parse("o=O1"))
        assert [str(r) for r in rel] == ["hn=hostX"]

    def test_ancestors(self):
        dn = DN.parse("a=1, b=2, c=3")
        assert [str(d) for d in dn.ancestors()] == ["b=2, c=3", "c=3", ""]

    def test_case_insensitive_hash(self):
        a = DN.parse("HN=HostX, O=o1")
        b = DN.parse("hn=hostx, o=O1")
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_rdn_rejected(self):
        with pytest.raises(DNError):
            DN.parse("a=1,,b=2")

    def test_semicolon_separator(self):
        assert DN.parse("a=1; b=2") == DN.parse("a=1, b=2")


class TestCommonSuffix:
    def test_shared_org(self):
        dns = [DN.parse("hn=a, o=O1"), DN.parse("hn=b, o=O1")]
        assert common_suffix(dns) == DN.parse("o=O1")

    def test_disjoint(self):
        dns = [DN.parse("o=O1"), DN.parse("o=O2")]
        assert common_suffix(dns) == DN.root()

    def test_empty_list(self):
        assert common_suffix([]) == DN.root()

    def test_single(self):
        dn = DN.parse("a=1, b=2")
        assert common_suffix([dn]) == dn


_attr = st.sampled_from(["cn", "hn", "o", "ou", "perf", "queue", "store"])
_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s.strip() != "")


@st.composite
def _dns(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    rdns = tuple(
        RDN.single(draw(_attr), draw(_value)) for _ in range(n)
    )
    return DN(rdns)


_ava = st.tuples(_attr, st.sampled_from(["h1", "grid", "a b", "x"]))
_rdn_avas = st.lists(st.lists(_ava, min_size=1, max_size=2), max_size=3)


@st.composite
def _dn_pairs(draw):
    """(dn, ancestor), usually related, each spelled its own way.

    Spellings vary case, padding and inner whitespace and the order of
    a multi-valued RDN's AVAs; the root, equal DNs and unrelated DNs all
    occur.
    """

    def spell(attr, value):
        case = draw(st.sampled_from([str.lower, str.upper, str.title]))
        pad = draw(st.sampled_from(["", " "]))
        gap = draw(st.sampled_from([" ", "  "]))
        return case(attr), case(pad + gap.join(value.split()) + pad)

    def dn(rdns):
        return DN(tuple(RDN(tuple(draw(st.permutations([spell(*a) for a in avas])))) for avas in rdns))

    tail, head = draw(_rdn_avas), draw(_rdn_avas)
    dn_, ancestor = dn(head + tail), dn(draw(_rdn_avas) if draw(st.booleans()) else tail)
    return (ancestor, dn_) if draw(st.booleans()) else (dn_, ancestor)


class TestDnProperties:
    @given(_dn_pairs())
    def test_containment_matches_the_rdn_slice_reference(self, pair):
        dn, ancestor = pair
        n = len(dn) - len(ancestor)
        below = n > 0 and DN(dn.rdns[n:]) == ancestor
        assert dn.is_descendant_of(ancestor) == below
        assert dn.is_within(ancestor) == (below or dn == ancestor)

    @given(_dns())
    def test_str_parse_roundtrip(self, dn):
        assert DN.parse(str(dn)) == dn

    @given(_dns(), _dns())
    def test_concatenation_is_within(self, a, b):
        joined = DN(a.rdns + b.rdns)
        assert joined.is_within(b)

    @given(_dns())
    def test_parent_of_child_is_self(self, dn):
        child = dn.child(RDN.single("cn", "x"))
        assert child.parent() == dn

    @given(_dns())
    def test_normalization_idempotent(self, dn):
        reparsed = DN.parse(str(dn))
        assert reparsed.normalized() == dn.normalized()
