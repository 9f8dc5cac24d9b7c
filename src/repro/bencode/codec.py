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

Metainfo, KRPC messages other than canonical ``get_peers`` and every
non-canonical tracker response go through this codec (canonical announce
responses and ``get_peers`` messages take fixed-shape paths in
:mod:`repro.tracker.protocol` and :mod:`repro.dht.krpc`), so the
implementation is tuned:

- :func:`bdecode` is non-recursive (an explicit container stack), compares
  single bytes as integers instead of allocating 1-byte slices, and accepts
  ``bytes``/``bytearray``/``memoryview`` without copying the input buffer;
- :func:`bencode` takes a fast path through dictionaries whose keys are
  already sorted ``bytes`` (the shape every canonical producer in this
  codebase emits), skipping the str-key normalisation dict entirely; in
  that path and in lists, ``bytes`` and exact-``int`` items are emitted
  inline instead of through a recursive call.

``tests/bencode_reference.py`` retains the original recursive codec, and
property tests assert the two agree on every value and on every malformed
input class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

Encodable = Union[int, bytes, str, list, tuple, dict]


class BencodeError(ValueError):
    """Raised on malformed bencode input or unencodable Python values."""


def bencode(value: Encodable) -> bytes:
    """Serialise ``value`` to canonical bencode bytes."""
    out: List[bytes] = []
    _encode(value, out)
    return b"".join(out)


def _encode(value: Encodable, out: List[bytes]) -> None:
    if isinstance(value, bool):
        # bool is an int subclass; accepting it would silently encode flags
        # as 0/1 and round-trip to a different type.  Reject instead.
        raise BencodeError("cannot bencode bool; use an int explicitly")
    if isinstance(value, int):
        out.append(b"i%de" % value)
    elif isinstance(value, bytes):
        out.append(b"%d:" % len(value))
        out.append(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(b"%d:" % len(encoded))
        out.append(encoded)
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        for item in value:
            # Scalars inline (bool's class is not int, so it still raises).
            cls = item.__class__
            if cls is bytes:
                out.append(b"%d:" % len(item))
                out.append(item)
            elif cls is int:
                out.append(b"i%de" % item)
            else:
                _encode(item, out)
        out.append(b"e")
    elif isinstance(value, dict):
        # Fast path: keys already canonical (plain bytes, strictly
        # ascending).  Insertion order then IS encoding order, so no
        # normalisation dict and no sort are needed.
        previous = None
        for key in value:
            if key.__class__ is not bytes or (
                previous is not None and key <= previous
            ):
                _encode_dict_slow(value, out)
                return
            previous = key
        out.append(b"d")
        for key, item in value.items():
            out.append(b"%d:" % len(key))
            out.append(key)
            cls = item.__class__
            if cls is bytes:
                out.append(b"%d:" % len(item))
                out.append(item)
            elif cls is int:
                out.append(b"i%de" % item)
            else:
                _encode(item, out)
        out.append(b"e")
    else:
        raise BencodeError(f"cannot bencode {type(value).__name__}")


def _encode_dict_slow(value: dict, out: List[bytes]) -> None:
    """Dict encoding with str-key normalisation and explicit sorting."""
    out.append(b"d")
    normalised: Dict[bytes, Any] = {}
    for key, item in value.items():
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not isinstance(key, bytes):
            raise BencodeError(
                f"dictionary keys must be bytes or str, got {type(key).__name__}"
            )
        if key in normalised:
            raise BencodeError(f"duplicate dictionary key {key!r}")
        normalised[key] = item
    for key in sorted(normalised):
        _encode(key, out)
        _encode(normalised[key], out)
    out.append(b"e")


# Byte codes the decoder dispatches on.
_I, _L, _D, _E, _COLON, _MINUS = 0x69, 0x6C, 0x64, 0x65, 0x3A, 0x2D
# Sentinel marking a dict frame that is waiting for its next key.
_NO_KEY = object()


def bdecode(data: Union[bytes, bytearray, memoryview]) -> Any:
    """Parse bencode bytes; raises :class:`BencodeError` on any malformation.

    ``bytearray`` and ``memoryview`` inputs are consumed through a zero-copy
    view -- the input buffer is never duplicated, only the decoded byte
    strings themselves are materialised.
    """
    if isinstance(data, bytes):
        buf: Any = data
    elif isinstance(data, (bytearray, memoryview)):
        try:
            buf = memoryview(data).cast("B")
        except TypeError as exc:
            raise BencodeError(f"bdecode needs a contiguous buffer: {exc}") from exc
    else:
        raise BencodeError(f"bdecode expects bytes, got {type(data).__name__}")
    if not len(buf):
        raise BencodeError("empty input")
    value, index = _parse(buf)
    if index != len(buf):
        raise BencodeError(f"trailing data at offset {index}")
    return value


def _parse(data: Any) -> Any:
    """One non-recursive parse of the value starting at offset 0.

    Containers live on an explicit stack; ``frames`` carries, per container,
    ``None`` for lists and ``[pending_key, previous_key]`` for dicts.  Every
    completed value (scalar or closed container) is attached to the top of
    the stack, or returned when the stack is empty.
    """
    n = len(data)
    i = 0
    stack: List[Any] = []
    frames: List[Any] = []
    while True:
        if i >= n:
            if not stack:
                raise BencodeError("truncated input")
            frame = frames[-1]
            if frame is None:
                raise BencodeError("unterminated list")
            if frame[0] is not _NO_KEY:
                # A key was read but its value is missing -- the reference
                # decoder hits end-of-input while parsing the value.
                raise BencodeError("truncated input")
            raise BencodeError("unterminated dictionary")
        c = data[i]
        if 0x30 <= c <= 0x39:  # digit: byte string
            length = c - 0x30
            j = i + 1
            while j < n:
                c2 = data[j]
                if c2 == _COLON:
                    break
                if 0x30 <= c2 <= 0x39:
                    length = length * 10 + (c2 - 0x30)
                    j += 1
                else:
                    raise BencodeError(
                        f"malformed string length {_scan_length_bytes(data, i)!r}"
                    )
            else:
                raise BencodeError("unterminated string length")
            if c == 0x30 and j > i + 1:
                raise BencodeError("leading zeros in string length")
            start = j + 1
            end = start + length
            if end > n:
                raise BencodeError("truncated string")
            value = data[start:end]
            if value.__class__ is not bytes:
                value = bytes(value)
            i = end
        elif c == _I:
            j = i + 1
            negative = j < n and data[j] == _MINUS
            if negative:
                j += 1
            magnitude = 0
            digits = 0
            first_digit = -1
            while j < n:
                c2 = data[j]
                if 0x30 <= c2 <= 0x39:
                    if digits == 0:
                        first_digit = c2
                    magnitude = magnitude * 10 + (c2 - 0x30)
                    digits += 1
                    j += 1
                else:
                    break
            if j >= n or data[j] != _E:
                raise _int_error(data, i)
            if digits == 0:
                raise BencodeError("empty integer")
            if first_digit == 0x30:
                if negative and digits == 1:
                    raise BencodeError("negative zero is not canonical")
                if digits > 1:
                    body = bytes(data[i + 1 : j])
                    raise BencodeError(f"leading zeros in integer {body!r}")
            value = -magnitude if negative else magnitude
            i = j + 1
        elif c == _L:
            stack.append([])
            frames.append(None)
            i += 1
            continue
        elif c == _D:
            stack.append({})
            frames.append([_NO_KEY, None])
            i += 1
            continue
        elif c == _E:
            if stack:
                frame = frames[-1]
                if frame is not None and frame[0] is not _NO_KEY:
                    # Dict closed between a key and its value; the reference
                    # decoder trips over the 'e' while expecting a value.
                    raise BencodeError(f"unexpected byte b'e' at offset {i}")
                value = stack.pop()
                frames.pop()
                i += 1
            else:
                raise BencodeError(f"unexpected byte b'e' at offset {i}")
        else:
            raise BencodeError(
                f"unexpected byte {bytes(data[i : i + 1])!r} at offset {i}"
            )

        # Attach the completed value to the enclosing container (or finish).
        if not stack:
            return value, i
        frame = frames[-1]
        if frame is None:
            stack[-1].append(value)
        elif frame[0] is _NO_KEY:
            if value.__class__ is not bytes:
                raise BencodeError("dictionary key must be a byte string")
            previous = frame[1]
            if previous is not None and value <= previous:
                raise BencodeError(
                    f"dictionary keys not strictly sorted: "
                    f"{previous!r} then {value!r}"
                )
            frame[0] = value
            frame[1] = value
        else:
            stack[-1][frame[0]] = value
            frame[0] = _NO_KEY


def _scan_length_bytes(data: Any, start: int) -> bytes:
    """The byte run an invalid string-length diagnostic should quote.

    Mirrors the reference decoder, which slices everything up to the next
    colon (or reports the string as unterminated when there is none).
    """
    n = len(data)
    j = start
    while j < n and data[j] != _COLON:
        j += 1
    if j >= n:
        raise BencodeError("unterminated string length")
    return bytes(data[start:j])


def _int_error(data: Any, start: int) -> BencodeError:
    """Diagnose a malformed ``i...e`` run exactly like the reference decoder."""
    n = len(data)
    end = start
    while end < n and data[end] != _E:
        end += 1
    if end >= n:
        return BencodeError("unterminated integer")
    body = bytes(data[start + 1 : end])
    if not body or body == b"-":
        return BencodeError("empty integer")
    if body == b"-0":
        return BencodeError("negative zero is not canonical")
    return BencodeError(f"malformed integer {body!r}")
