"""Strict bencode encoder/decoder (BEP 3).

Encoding rules:

- integers:     ``i<base10>e`` (no leading zeros, ``-0`` forbidden)
- byte strings: ``<length>:<bytes>``
- lists:        ``l<items>e``
- dictionaries: ``d<key><value>...e`` with byte-string keys in sorted order

The decoder is *strict*: it rejects trailing data, unsorted or duplicate
dictionary keys, leading zeros and anything else a canonical encoder would
never produce.  Strictness matters because the infohash is defined over the
canonical encoding of the ``info`` dictionary -- a lax decoder would let two
different byte strings decode to the same value and silently break infohash
round-tripping.

``str`` inputs to :func:`bencode` are encoded as UTF-8 byte strings for
convenience; decoding always returns ``bytes`` keys/values, as real
BitTorrent implementations do.

Both directions are plain recursive descent.  The hot messages never reach
this codec: canonical announce responses and ``get_peers`` messages take
fixed-shape templates in :mod:`repro.tracker.protocol` and
:mod:`repro.dht.krpc`, so what remains here is metainfo and the rarer
tracker and KRPC messages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

Encodable = Union[int, bytes, str, list, tuple, dict]

# Deepest list/dict nesting either direction accepts (libtorrent's default
# bdecode limit).  Input and values can nest without bound; past this depth
# both raise BencodeError instead of RecursionError.  No message in this
# codebase nests deeper than 5 levels (a multi-file metainfo's `path` list).
MAX_DEPTH = 100


class BencodeError(ValueError):
    """Raised on malformed bencode input or unencodable Python values."""


def bencode(value: Encodable) -> bytes:
    """Serialise ``value`` to canonical bencode bytes."""
    out: List[bytes] = []
    _encode(value, out, 0)
    return b"".join(out)


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # lone surrogates
        raise BencodeError(f"str is not valid UTF-8: {exc.reason}") from None


def _encode(value: Encodable, out: List[bytes], depth: int) -> None:
    """Encode ``value``, which sits inside ``depth`` open containers."""
    if isinstance(value, bool):
        # bool is an int subclass; accepting it would silently encode flags
        # as 0/1 and round-trip to a different type.  Reject instead.
        raise BencodeError("cannot bencode bool; use an int explicitly")
    if isinstance(value, str):
        value = _utf8(value)
    if isinstance(value, int):
        try:
            out.append(b"i%de" % value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise BencodeError("integer too long to encode") from None
    elif isinstance(value, bytes):
        out.append(b"%d:" % len(value))
        out.append(value)
    elif isinstance(value, (list, tuple, dict)) and depth == MAX_DEPTH:
        raise BencodeError(f"nesting deeper than {MAX_DEPTH} levels")
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        for item in value:
            _encode(item, out, depth + 1)
        out.append(b"e")
    elif isinstance(value, dict):
        out.append(b"d")
        normalised: Dict[bytes, Any] = {}
        for key, item in value.items():
            if isinstance(key, str):
                key = _utf8(key)
            if not isinstance(key, bytes):
                raise BencodeError(
                    f"dictionary keys must be bytes or str, got {type(key).__name__}"
                )
            if key in normalised:
                raise BencodeError(f"duplicate dictionary key {key!r}")
            normalised[key] = item
        for key in sorted(normalised):
            _encode(key, out, depth)
            _encode(normalised[key], out, depth + 1)
        out.append(b"e")
    else:
        raise BencodeError(f"cannot bencode {type(value).__name__}")


def bdecode(data: Union[bytes, bytearray]) -> Any:
    """Parse bencode bytes; raises :class:`BencodeError` on any malformation."""
    if not isinstance(data, (bytes, bytearray)):
        raise BencodeError(f"bdecode expects bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data:
        raise BencodeError("empty input")
    value, index = _decode(data, 0, 0)
    if index != len(data):
        raise BencodeError(f"trailing data at offset {index}")
    return value


def _decode(data: bytes, index: int, depth: int) -> Tuple[Any, int]:
    """Decode the value at ``index`` inside ``depth`` open containers."""
    if index >= len(data):
        raise BencodeError("truncated input")
    lead = data[index : index + 1]
    if lead == b"i":
        return _decode_int(data, index)
    if lead in (b"l", b"d"):
        if depth == MAX_DEPTH:
            raise BencodeError(f"nesting deeper than {MAX_DEPTH} levels")
        if lead == b"l":
            return _decode_list(data, index, depth + 1)
        return _decode_dict(data, index, depth + 1)
    if lead.isdigit():
        return _decode_bytes(data, index)
    raise BencodeError(f"unexpected byte {lead!r} at offset {index}")


def _decode_int(data: bytes, index: int) -> Tuple[int, int]:
    end = data.find(b"e", index)
    if end == -1:
        raise BencodeError("unterminated integer")
    body = data[index + 1 : end]
    if not body or body == b"-":
        raise BencodeError("empty integer")
    if body == b"-0":
        raise BencodeError("negative zero is not canonical")
    digits = body[1:] if body[:1] == b"-" else body
    if not digits.isdigit():
        raise BencodeError(f"malformed integer {body!r}")
    if len(digits) > 1 and digits[:1] == b"0":
        raise BencodeError(f"leading zeros in integer {body!r}")
    try:
        return int(body), end + 1
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise BencodeError(f"integer of {len(digits)} digits is too long") from None


def _decode_bytes(data: bytes, index: int) -> Tuple[bytes, int]:
    colon = data.find(b":", index)
    if colon == -1:
        raise BencodeError("unterminated string length")
    length_bytes = data[index:colon]
    if not length_bytes.isdigit():
        raise BencodeError(f"malformed string length {length_bytes!r}")
    if len(length_bytes) > 1 and length_bytes[:1] == b"0":
        raise BencodeError("leading zeros in string length")
    # A length with more digits than the input's own length cannot fit, and
    # int() refuses digit runs past sys.get_int_max_str_digits().
    if len(length_bytes) > len(str(len(data))):
        raise BencodeError("truncated string")
    length = int(length_bytes)
    start = colon + 1
    end = start + length
    if end > len(data):
        raise BencodeError("truncated string")
    return data[start:end], end


def _decode_list(data: bytes, index: int, depth: int) -> Tuple[list, int]:
    items: List[Any] = []
    index += 1
    while True:
        if index >= len(data):
            raise BencodeError("unterminated list")
        if data[index : index + 1] == b"e":
            return items, index + 1
        item, index = _decode(data, index, depth)
        items.append(item)


def _decode_dict(data: bytes, index: int, depth: int) -> Tuple[Dict[bytes, Any], int]:
    result: Dict[bytes, Any] = {}
    previous_key = None
    index += 1
    while True:
        if index >= len(data):
            raise BencodeError("unterminated dictionary")
        if data[index : index + 1] == b"e":
            return result, index + 1
        key, index = _decode(data, index, depth)
        if not isinstance(key, bytes):
            raise BencodeError("dictionary key must be a byte string")
        if previous_key is not None and key <= previous_key:
            raise BencodeError(
                f"dictionary keys not strictly sorted: {previous_key!r} then {key!r}"
            )
        previous_key = key
        value, index = _decode(data, index, depth)
        result[key] = value
