"""Unit and property tests for the BER codec."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap import ber
from repro.ldap.ber import (
    BerError,
    Tag,
    TlvReader,
    decode_boolean,
    decode_integer,
    decode_tlv,
    decode_tlv_stream,
    encode_boolean,
    encode_integer,
    encode_null,
    encode_octet_string,
    encode_sequence,
    encode_tlv,
)


class TestTag:
    def test_universal_roundtrip(self):
        t = Tag.universal(4)
        assert Tag.from_octet(t.octet) == t

    def test_application_constructed(self):
        t = Tag.application(3)
        assert t.constructed
        assert t.octet == 0x63

    def test_context_primitive(self):
        t = Tag.context(0)
        assert t.octet == 0x80

    def test_high_tag_number_rejected(self):
        with pytest.raises(BerError):
            Tag(31)

    def test_high_tag_form_decode_rejected(self):
        with pytest.raises(BerError):
            Tag.from_octet(0x1F)

    def test_invalid_class_rejected(self):
        with pytest.raises(BerError):
            Tag(1, tag_class=0x55)


class TestLengths:
    def test_short_form(self):
        enc = encode_tlv(0x04, b"x" * 10)
        assert enc[1] == 10

    def test_long_form_128(self):
        enc = encode_tlv(0x04, b"x" * 128)
        assert enc[1] == 0x81
        assert enc[2] == 128

    def test_long_form_multi_byte(self):
        enc = encode_tlv(0x04, b"x" * 70000)
        tag, value, end = decode_tlv(enc)
        assert len(value) == 70000
        assert end == len(enc)

    @pytest.mark.parametrize(
        "length", [0, 1, 0x7F, 0x80, 0xFF, 0x100, 0x1234, 0xFFFF, 0x10000, 70000]
    )
    def test_header_is_minimal_and_decodes(self, length):
        header = ber.tlv_header(0x30, length)
        assert header == bytes([0x30]) + ber._encode_length(length)
        _, value, end = decode_tlv(header + b"x" * length)
        assert len(value) == length and end == len(header) + length

    def test_indefinite_length_rejected(self):
        with pytest.raises(BerError, match="indefinite"):
            decode_tlv(b"\x30\x80\x00\x00")

    def test_truncated_value(self):
        with pytest.raises(BerError, match="truncated"):
            decode_tlv(b"\x04\x05abc")

    def test_truncated_length(self):
        with pytest.raises(BerError, match="truncated"):
            decode_tlv(b"\x04")

    def test_empty_input(self):
        with pytest.raises(BerError):
            decode_tlv(b"")


class TestIntegers:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x00\x80"),
            (256, b"\x01\x00"),
            (-1, b"\xff"),
            (-128, b"\x80"),
            (-129, b"\xff\x7f"),
        ],
    )
    def test_known_encodings(self, value, expected):
        enc = encode_integer(value)
        assert enc[2:] == expected

    def test_decode_empty_rejected(self):
        with pytest.raises(BerError):
            decode_integer(b"")

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_roundtrip(self, value):
        tag, payload, _ = decode_tlv(encode_integer(value))
        assert decode_integer(payload) == value

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_minimal_encoding(self, value):
        # DER: no redundant leading octets.
        _, payload, _ = decode_tlv(encode_integer(value))
        if len(payload) > 1:
            assert not (payload[0] == 0x00 and not payload[1] & 0x80)
            assert not (payload[0] == 0xFF and payload[1] & 0x80)


class TestBooleansAndStrings:
    def test_boolean_roundtrip(self):
        for b in (True, False):
            _, payload, _ = decode_tlv(encode_boolean(b))
            assert decode_boolean(payload) is b

    def test_boolean_wrong_size(self):
        with pytest.raises(BerError):
            decode_boolean(b"\x00\x00")

    def test_octet_string_accepts_str(self):
        _, payload, _ = decode_tlv(encode_octet_string("héllo"))
        assert payload.decode("utf-8") == "héllo"

    def test_null(self):
        tag, payload, _ = decode_tlv(encode_null())
        assert payload == b""

    @given(st.binary(max_size=512))
    def test_octet_string_roundtrip(self, data):
        _, payload, _ = decode_tlv(encode_octet_string(data))
        assert payload == data


class TestSequencesAndReader:
    def test_nested_sequence(self):
        inner = encode_sequence([encode_integer(7)])
        outer = encode_sequence([inner, encode_octet_string(b"abc")])
        r = TlvReader(decode_tlv(outer)[1])
        inner_r = r.read_sequence()
        assert inner_r.read_integer() == 7
        inner_r.expect_end()
        assert r.read_octet_string() == b"abc"
        r.expect_end()

    def test_reader_expect_end_fails_on_trailing(self):
        body = encode_integer(1) + encode_integer(2)
        r = TlvReader(body)
        r.read_integer()
        with pytest.raises(BerError, match="trailing"):
            r.expect_end()

    def test_read_expect_wrong_tag(self):
        r = TlvReader(encode_integer(5))
        with pytest.raises(BerError, match="expected tag"):
            r.read_octet_string()

    def test_peek_does_not_consume(self):
        r = TlvReader(encode_integer(5))
        assert r.peek_tag().number == 2
        assert r.read_integer() == 5

    def test_peek_past_end(self):
        r = TlvReader(b"")
        with pytest.raises(BerError):
            r.peek_tag()

    def test_stream_decoding(self):
        blob = encode_integer(1) + encode_octet_string(b"x") + encode_null()
        tags = [t.number for t, _ in decode_tlv_stream(blob)]
        assert tags == [2, 4, 5]

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31),
                st.binary(max_size=64),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    def test_heterogeneous_sequence_roundtrip(self, items):
        parts = []
        for item in items:
            if isinstance(item, bool):
                parts.append(encode_boolean(item))
            elif isinstance(item, int):
                parts.append(encode_integer(item))
            else:
                parts.append(encode_octet_string(item))
        blob = encode_sequence(parts)
        tag, body, end = decode_tlv(blob)
        assert end == len(blob)
        r = TlvReader(body)
        out = []
        while not r.at_end():
            t, payload = r.read()
            if t.number == ber.TAG_BOOLEAN:
                out.append(decode_boolean(payload))
            elif t.number == ber.TAG_INTEGER:
                out.append(decode_integer(payload))
            else:
                out.append(payload)
        assert out == items


@st.composite
def _tlv_trees(draw, depth=0):
    """Random well-formed TLV blobs (nested up to 3 levels)."""
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(["int", "str", "bool", "null"]))
        if kind == "int":
            return encode_integer(draw(st.integers(-(2**40), 2**40)))
        if kind == "str":
            return encode_octet_string(draw(st.binary(max_size=32)))
        if kind == "bool":
            return encode_boolean(draw(st.booleans()))
        return ber.encode_null()
    children = draw(st.lists(_tlv_trees(depth=depth + 1), max_size=4))
    return encode_sequence(children)


class TestStructuredFuzz:
    @given(_tlv_trees())
    def test_wellformed_tlv_always_decodes(self, blob):
        tag, value, end = decode_tlv(blob)
        assert end == len(blob)

    @given(_tlv_trees(), st.integers(min_value=1, max_value=8))
    def test_truncation_always_detected(self, blob, cut):
        # The outermost definite length demands the full body, so any
        # tail truncation must raise.
        if cut < len(blob):
            with pytest.raises(BerError):
                decode_tlv(blob[:-cut])

    @given(_tlv_trees(), st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_not_consumed(self, blob, junk):
        tag, value, end = decode_tlv(blob + junk)
        assert end == len(blob)
