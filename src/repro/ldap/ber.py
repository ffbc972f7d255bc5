"""Minimal BER/DER (Basic Encoding Rules) codec.

LDAP messages are ASN.1 structures carried as BER-encoded TLV
(tag-length-value) records.  This module implements the subset of BER that
the LDAP v3 protocol (RFC 4511) actually uses, with DER-style definite
lengths on the encoding side:

* universal primitives: BOOLEAN, INTEGER, ENUMERATED, OCTET STRING, NULL
* constructed types: SEQUENCE, SET
* context-specific and application tags (implicit tagging), which LDAP uses
  heavily to discriminate protocol-op choices.

The decoder is strict: truncated or trailing bytes raise :class:`BerError`
so malformed network input never silently mis-parses.

Decoding is **zero-copy**: :class:`TlvReader` walks a single
:class:`memoryview` over the received frame, and every nested
constructed value is a sub-view of the same buffer — no intermediate
``bytes`` slices per TLV.  Payload bytes are materialized only at the
leaves that escape the decoder (``read_octet_string`` returns ``bytes``,
``read_string`` returns ``str``); the raw :meth:`TlvReader.read` and
:func:`decode_tlv` return views into the frame, so callers that let a
value outlive the decode must copy it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = [
    "BerError",
    "Tag",
    "TagClass",
    "encode_tlv",
    "tlv_header",
    "decode_tlv",
    "decode_tlv_stream",
    "encode_boolean",
    "encode_integer",
    "encode_enumerated",
    "encode_octet_string",
    "encode_null",
    "encode_sequence",
    "encode_set",
    "decode_boolean",
    "decode_integer",
    "TlvReader",
]


class BerError(ValueError):
    """Raised on malformed BER input or unencodable values."""


class TagClass:
    """BER tag-class bits (high two bits of the identifier octet)."""

    UNIVERSAL = 0x00
    APPLICATION = 0x40
    CONTEXT = 0x80
    PRIVATE = 0xC0


# Universal tag numbers used by LDAP.
TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_ENUMERATED = 0x0A
TAG_SEQUENCE = 0x30  # 0x10 | constructed bit
TAG_SET = 0x31  # 0x11 | constructed bit

_CONSTRUCTED = 0x20

# Shared decoded-tag cache, filled lazily by Tag.from_octet.
_TAG_CACHE: dict = {}


@dataclass(frozen=True)
class Tag:
    """A decoded identifier octet.

    Only low-tag-number form (tag number < 31) is supported; LDAP never
    uses multi-byte tag numbers.
    """

    number: int
    constructed: bool = False
    tag_class: int = TagClass.UNIVERSAL

    def __post_init__(self) -> None:
        if not 0 <= self.number < 31:
            raise BerError(f"tag number {self.number} out of low-tag range")
        if self.tag_class not in (
            TagClass.UNIVERSAL,
            TagClass.APPLICATION,
            TagClass.CONTEXT,
            TagClass.PRIVATE,
        ):
            raise BerError(f"invalid tag class {self.tag_class:#x}")

    @property
    def octet(self) -> int:
        return self.tag_class | (_CONSTRUCTED if self.constructed else 0) | self.number

    @classmethod
    def from_octet(cls, octet: int) -> "Tag":
        # Tags are immutable and there are only 256 octets: decode once,
        # share forever (this is the hottest call in message decoding).
        tag = _TAG_CACHE.get(octet)
        if tag is None:
            if octet & 0x1F == 0x1F:
                raise BerError("high-tag-number form not supported")
            tag = cls(
                number=octet & 0x1F,
                constructed=bool(octet & _CONSTRUCTED),
                tag_class=octet & 0xC0,
            )
            _TAG_CACHE[octet] = tag
        return tag

    @classmethod
    def application(cls, number: int, constructed: bool = True) -> "Tag":
        return cls(number, constructed, TagClass.APPLICATION)

    @classmethod
    def context(cls, number: int, constructed: bool = False) -> "Tag":
        return cls(number, constructed, TagClass.CONTEXT)

    @classmethod
    def universal(cls, number: int, constructed: bool = False) -> "Tag":
        return cls(number, constructed, TagClass.UNIVERSAL)


def _encode_length(length: int) -> bytes:
    if length < 0:
        raise BerError("negative length")
    if length < 0x80:
        return bytes([length])
    payload = length.to_bytes((length.bit_length() + 7) // 8, "big")
    if len(payload) > 126:
        raise BerError("length too large to encode")
    return bytes([0x80 | len(payload)]) + payload


def tlv_header(octet: int, length: int) -> bytes:
    """The tag and definite-length octets of a TLV whose value is
    *length* bytes long."""
    if length < 0x80:
        return bytes((octet, length))
    if length < 0x100:
        return bytes((octet, 0x81, length))
    if length < 0x10000:
        return bytes((octet, 0x82, length >> 8, length & 0xFF))
    return bytes((octet,)) + _encode_length(length)


def encode_tlv(tag: Tag | int, value: bytes) -> bytes:
    """Encode one TLV record with a definite length."""
    octet = tag.octet if isinstance(tag, Tag) else tag
    return tlv_header(octet, len(value)) + value


def decode_tlv(
    data: "bytes | memoryview", offset: int = 0
) -> Tuple[Tag, "bytes | memoryview", int]:
    """Decode one TLV record starting at *offset*.

    Returns ``(tag, value, next_offset)``.  Raises :class:`BerError` if the
    record is truncated or uses an indefinite length.

    The value is a slice of *data* — ``bytes`` for ``bytes`` input, a
    zero-copy :class:`memoryview` for ``memoryview`` input.
    """
    if offset >= len(data):
        raise BerError("empty input where TLV expected")
    tag = Tag.from_octet(data[offset])
    offset += 1
    if offset >= len(data):
        raise BerError("truncated TLV: missing length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        length = first
    elif first == 0x80:
        raise BerError("indefinite lengths are not supported")
    else:
        nbytes = first & 0x7F
        if offset + nbytes > len(data):
            raise BerError("truncated TLV: length bytes missing")
        length = int.from_bytes(data[offset : offset + nbytes], "big")
        offset += nbytes
    if offset + length > len(data):
        raise BerError(
            f"truncated TLV: need {length} value bytes, have {len(data) - offset}"
        )
    return tag, data[offset : offset + length], offset + length


def decode_tlv_stream(data: bytes) -> Iterator[Tuple[Tag, bytes]]:
    """Yield every TLV record in *data*, requiring exact consumption."""
    offset = 0
    while offset < len(data):
        tag, value, offset = decode_tlv(data, offset)
        yield tag, value


# ---------------------------------------------------------------------------
# Primitive value codecs
# ---------------------------------------------------------------------------


def encode_boolean(value: bool, tag: Tag | int = TAG_BOOLEAN) -> bytes:
    return encode_tlv(tag, b"\xff" if value else b"\x00")


def decode_boolean(value: bytes) -> bool:
    if len(value) != 1:
        raise BerError("BOOLEAN must be exactly one byte")
    return value != b"\x00"


def _integer_bytes(value: int) -> bytes:
    # Two's-complement, minimal length (DER).
    if value == 0:
        return b"\x00"
    nbytes = (value.bit_length() + 8) // 8  # +8 leaves room for the sign bit
    raw = value.to_bytes(nbytes, "big", signed=True)
    # Strip redundant leading sign octets.
    while (
        len(raw) > 1
        and (
            (raw[0] == 0x00 and not raw[1] & 0x80)
            or (raw[0] == 0xFF and raw[1] & 0x80)
        )
    ):
        raw = raw[1:]
    return raw


def encode_integer(value: int, tag: Tag | int = TAG_INTEGER) -> bytes:
    return encode_tlv(tag, _integer_bytes(value))


def encode_enumerated(value: int, tag: Tag | int = TAG_ENUMERATED) -> bytes:
    return encode_tlv(tag, _integer_bytes(value))


def decode_integer(value: bytes) -> int:
    if not value:
        raise BerError("INTEGER must have at least one byte")
    return int.from_bytes(value, "big", signed=True)


def encode_octet_string(value: bytes | str, tag: Tag | int = TAG_OCTET_STRING) -> bytes:
    if isinstance(value, str):
        value = value.encode("utf-8")
    return encode_tlv(tag, value)


def encode_null(tag: Tag | int = TAG_NULL) -> bytes:
    return encode_tlv(tag, b"")


def encode_sequence(parts: List[bytes] | bytes, tag: Tag | int = TAG_SEQUENCE) -> bytes:
    if isinstance(parts, list):
        parts = b"".join(parts)
    return encode_tlv(tag, parts)


def encode_set(parts: List[bytes] | bytes, tag: Tag | int = TAG_SET) -> bytes:
    if isinstance(parts, list):
        parts = b"".join(parts)
    return encode_tlv(tag, parts)


class TlvReader:
    """Sequential zero-copy reader over the contents of a constructed value.

    Protocol decoders use this to walk SEQUENCE bodies::

        r = TlvReader(body)
        version = r.read_integer()
        name = r.read_octet_string()
        r.expect_end()

    The reader holds one :class:`memoryview` over the input; nested
    readers (:meth:`read_sequence`, :meth:`read_set`) and the raw
    :meth:`read`/:meth:`remaining` surface are sub-views of that same
    buffer.  Only the leaf accessors materialize: ``read_octet_string``
    returns ``bytes`` and ``read_string`` returns ``str``, so decoded
    values that escape the decoder never alias network buffers.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self, data: "bytes | bytearray | memoryview"):
        self._data = data if type(data) is memoryview else memoryview(data)
        self._offset = 0

    def at_end(self) -> bool:
        return self._offset >= len(self._data)

    def remaining(self) -> memoryview:
        """The unread tail as a zero-copy view (copy it if it escapes)."""
        return self._data[self._offset :]

    def peek_tag(self) -> Tag:
        if self.at_end():
            raise BerError("peek past end of TLV stream")
        return Tag.from_octet(self._data[self._offset])

    def read(self) -> Tuple[Tag, memoryview]:
        tag, value, self._offset = decode_tlv(self._data, self._offset)
        return tag, value

    def read_raw(self) -> memoryview:
        """The next complete TLV record — tag, length, and value octets —
        as a zero-copy view.

        This is the relay primitive: a protocol op read this way can be
        re-framed under a new message header without ever being decoded
        (see :func:`repro.ldap.protocol.encode_message_with_op`).
        """
        start = self._offset
        _, _, self._offset = decode_tlv(self._data, self._offset)
        return self._data[start : self._offset]

    def read_expect(self, expected: Tag | int) -> memoryview:
        tag, value = self.read()
        want = expected.octet if isinstance(expected, Tag) else expected
        if tag.octet != want:
            raise BerError(f"expected tag {want:#04x}, got {tag.octet:#04x}")
        return value

    def read_integer(self) -> int:
        return decode_integer(self.read_expect(TAG_INTEGER))

    def read_enumerated(self) -> int:
        return decode_integer(self.read_expect(TAG_ENUMERATED))

    def read_boolean(self) -> bool:
        return decode_boolean(self.read_expect(TAG_BOOLEAN))

    def read_octet_string(self) -> bytes:
        return bytes(self.read_expect(TAG_OCTET_STRING))

    def read_string(self) -> str:
        return str(self.read_expect(TAG_OCTET_STRING), "utf-8")

    def read_sequence(self) -> "TlvReader":
        return TlvReader(self.read_expect(TAG_SEQUENCE))

    def read_set(self) -> "TlvReader":
        return TlvReader(self.read_expect(TAG_SET))

    def expect_end(self) -> None:
        if not self.at_end():
            raise BerError(f"{len(self._data) - self._offset} trailing bytes")
