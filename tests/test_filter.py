"""Tests for the RFC 4515 filter parser and evaluator."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap.entry import Entry
from repro.ldap.filter import (
    And,
    Approx,
    Equality,
    FilterError,
    MAX_FILTER_DEPTH,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
    escape_value,
    parse,
)

HOST = Entry(
    "hn=hostX",
    objectclass=["computer"],
    system="mips irix",
    cpucount=4,
    load5="3.2",
    memorysize="512 MB",
)


class TestParsing:
    def test_equality(self):
        f = parse("(objectclass=computer)")
        assert f == Equality("objectclass", "computer")

    def test_presence(self):
        assert parse("(cn=*)") == Presence("cn")

    def test_substring_forms(self):
        f = parse("(system=*irix*)")
        assert isinstance(f, Substring)
        assert f.initial is None and f.final is None and f.any == ("irix",)
        f2 = parse("(system=mips*)")
        assert f2.initial == "mips" and f2.any == () and f2.final is None
        f3 = parse("(system=*x)")
        assert f3.final == "x"
        f4 = parse("(cn=a*b*c)")
        assert (f4.initial, f4.any, f4.final) == ("a", ("b",), "c")

    def test_ordering(self):
        assert parse("(load5>=2)") == GreaterOrEqual("load5", "2")
        assert parse("(load5<=2)") == LessOrEqual("load5", "2")

    def test_approx(self):
        assert parse("(system~=mipsirix)") == Approx("system", "mipsirix")

    def test_and_or_not(self):
        f = parse("(&(a=1)(|(b=2)(c=3))(!(d=4)))")
        assert isinstance(f, And)
        assert len(f.clauses) == 3
        assert isinstance(f.clauses[1], Or)
        assert isinstance(f.clauses[2], Not)

    def test_escapes(self):
        f = parse(r"(cn=a\2ab)")
        assert f == Equality("cn", "a*b")
        f2 = parse(r"(cn=\28paren\29)")
        assert f2 == Equality("cn", "(paren)")

    def test_empty_value_equality(self):
        assert parse("(cn=)") == Equality("cn", "")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(cn=x",
            "cn=x)",
            "(&)",
            "(!)",
            "((cn=x))",
            "(cn>x)",
            "(=x)",
            "(cn=a**b)",
            r"(cn=a\zz)",
            "(cn=x)(cn=y)",
            "(a=(b))",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(FilterError):
            parse(bad)

    def test_nesting_bound(self):
        at = "(!" * (MAX_FILTER_DEPTH - 1) + "(a=b)" + ")" * (MAX_FILTER_DEPTH - 1)
        assert str(parse(at)) == at
        with pytest.raises(FilterError, match="nested deeper"):
            parse("(!" + at + ")")
        with pytest.raises(FilterError, match="nested deeper"):
            parse("(&" * MAX_FILTER_DEPTH + "(a=b)" + ")" * MAX_FILTER_DEPTH)
        with pytest.raises(FilterError, match="nested deeper"):
            parse("(!" * 5000 + "(a=b)" + ")" * 5000)


class TestEvaluation:
    def test_equality_case_insensitive(self):
        assert parse("(system=MIPS IRIX)").matches(HOST)

    def test_missing_attr_is_false(self):
        assert not parse("(nosuch=1)").matches(HOST)

    def test_not_on_missing_attr_is_true(self):
        # LDAP 'undefined' collapses to false, so NOT yields true here.
        assert parse("(!(nosuch=1))").matches(HOST)

    def test_presence(self):
        assert parse("(load5=*)").matches(HOST)
        assert not parse("(gpu=*)").matches(HOST)

    def test_numeric_ordering(self):
        assert parse("(load5>=3)").matches(HOST)
        assert not parse("(load5>=3.5)").matches(HOST)
        assert parse("(load5<=10)").matches(HOST)
        assert parse("(cpucount>=4)").matches(HOST)

    def test_size_units_in_ordering(self):
        assert parse("(memorysize>=256 MB)").matches(HOST)
        assert not parse("(memorysize>=1 GB)").matches(HOST)

    def test_substring(self):
        assert parse("(system=*irix*)").matches(HOST)
        assert parse("(system=mips*)").matches(HOST)
        assert parse("(system=*Irix)").matches(HOST)
        assert not parse("(system=linux*)").matches(HOST)

    def test_substring_non_overlapping_components(self):
        e = Entry("cn=x", cn="abc")
        assert not parse("(cn=*bc*bc*)").matches(e)
        assert parse("(cn=*b*c*)").matches(e)

    def test_substring_final_cannot_reuse_any_match(self):
        e = Entry("cn=x", cn="ab")
        assert not parse("(cn=*ab*b)").matches(e)

    def test_approx(self):
        assert parse("(system~=MIPS-IRIX)").matches(HOST)
        assert not parse("(system~=linux)").matches(HOST)

    def test_boolean_combinators(self):
        f = parse("(&(objectclass=computer)(load5<=4)(!(system=linux)))")
        assert f.matches(HOST)
        f2 = parse("(|(system=linux)(system=mips irix))")
        assert f2.matches(HOST)

    def test_multivalued_any_semantics(self):
        e = Entry("cn=x", member=["alice", "bob"])
        assert parse("(member=bob)").matches(e)
        assert parse("(!(member=carol))").matches(e)

    def test_attributes_collection(self):
        f = parse("(&(a=1)(|(b=2)(!(c=3))))")
        assert f.attributes() == {"a", "b", "c"}


_attr = st.sampled_from(["cn", "system", "load5", "objectclass"])
_val = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0,
    max_size=10,
)


@st.composite
def _filters(draw, depth=0):
    if depth >= 3:
        kind = draw(st.sampled_from(["eq", "ge", "le", "pres", "approx"]))
    else:
        kind = draw(
            st.sampled_from(
                ["eq", "ge", "le", "pres", "approx", "sub", "and", "or", "not"]
            )
        )
    if kind == "eq":
        return Equality(draw(_attr), draw(_val))
    if kind == "ge":
        return GreaterOrEqual(draw(_attr), draw(_val))
    if kind == "le":
        return LessOrEqual(draw(_attr), draw(_val))
    if kind == "pres":
        return Presence(draw(_attr))
    if kind == "approx":
        return Approx(draw(_attr), draw(_val))
    if kind == "sub":
        nonempty = _val.filter(lambda s: s != "")
        initial = draw(st.one_of(st.none(), nonempty))
        anys = tuple(draw(st.lists(nonempty, max_size=2)))
        final = draw(st.one_of(st.none(), nonempty))
        if initial is None and not anys and final is None:
            initial = "x"
        return Substring(draw(_attr), initial, anys, final)
    sub = st.lists(_filters(depth=depth + 1), min_size=1, max_size=3)
    if kind == "and":
        return And(tuple(draw(sub)))
    if kind == "or":
        return Or(tuple(draw(sub)))
    return Not(draw(_filters(depth=depth + 1)))


class TestFilterProperties:
    @given(_filters())
    def test_unparse_parse_roundtrip(self, f):
        assert parse(str(f)) == f

    @given(_filters())
    def test_not_inverts(self, f):
        assert Not(f).matches(HOST) != f.matches(HOST)

    @given(st.lists(_filters(), min_size=1, max_size=4))
    def test_and_is_conjunction(self, clauses):
        assert And(tuple(clauses)).matches(HOST) == all(
            c.matches(HOST) for c in clauses
        )

    @given(st.lists(_filters(), min_size=1, max_size=4))
    def test_or_is_disjunction(self, clauses):
        assert Or(tuple(clauses)).matches(HOST) == any(
            c.matches(HOST) for c in clauses
        )

    @given(_val)
    def test_escape_roundtrip(self, value):
        f = parse(f"(cn={escape_value(value)})")
        assert f == Equality("cn", value)
