"""Equivalence tests: optimised codec vs the frozen reference codec.

The hot-path rewrite of :mod:`repro.bencode.codec` (non-recursive decoder,
sorted-bytes-keys encoder fast path, zero-copy buffer handling) is only
safe because the infohash is defined over canonical bencode bytes.  These
tests pin the optimised codec to ``tests/bencode_reference.py`` -- the
original recursive implementation -- three ways:

- property tests: both encoders emit identical bytes for every random
  nested value, and both decoders recover the value from either encoding;
- malformed-input parity: a curated corpus plus a fuzz battery must raise
  :class:`BencodeError` from *both* decoders with identical messages;
- zero-copy regression: ``bytearray``/``memoryview`` inputs decode without
  duplicating the input buffer (peak-allocation bound via tracemalloc).
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import BencodeError, bdecode, bencode
from tests.bencode_reference import bdecode_reference, bencode_reference

# ----------------------------------------------------------------------
# Value strategies.  Bytes-only keys/values decode to themselves, so the
# decoded form can be compared without normalisation.
# ----------------------------------------------------------------------
_scalars = st.integers(min_value=-(10**15), max_value=10**15) | st.binary(
    max_size=24
)


def _canonical(mapping):
    """Re-insert in sorted key order: the shape the encoder's fast path takes."""
    return dict(sorted(mapping.items()))


_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=12), children, max_size=4)
    | st.dictionaries(st.binary(max_size=12), children, max_size=4).map(
        _canonical
    ),
    max_leaves=16,
)
# Flat containers of scalars: every item takes the encoder's inline path
# (lists, and dicts whose bytes keys are already sorted).
_inline_shapes = (
    st.lists(st.binary(max_size=24), max_size=8)
    | st.lists(_scalars, max_size=8)
    | st.dictionaries(st.binary(max_size=12), _scalars, max_size=6).map(_canonical)
)


class TestCodecEquivalence:
    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_encoders_emit_identical_bytes(self, value):
        assert bencode(value) == bencode_reference(value)

    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_decoders_recover_identical_values(self, value):
        wire = bencode_reference(value)
        assert bdecode(wire) == bdecode_reference(wire) == value

    @given(
        st.dictionaries(
            st.text(max_size=8) | st.binary(max_size=8), _scalars, max_size=5
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_str_key_normalisation_matches(self, value):
        """Mixed str/bytes keys take the slow path; must still agree."""
        try:
            expected = bencode_reference(value)
        except BencodeError as exc:
            with pytest.raises(BencodeError) as caught:
                bencode(value)
            assert str(caught.value) == str(exc)
        else:
            assert bencode(value) == expected

    def test_unsorted_bytes_keys_still_sorted_on_encode(self):
        # Insertion order deliberately violates canonical order: the fast
        # path must bail to the sorting slow path, not emit as-is.
        value = {b"zz": 1, b"aa": 2, b"mm": 3}
        wire = bencode(value)
        assert wire == bencode_reference(value) == b"d2:aai2e2:mmi3e2:zzi1ee"

    def test_bool_rejected_by_both(self):
        for codec in (bencode, bencode_reference):
            with pytest.raises(BencodeError, match="bool"):
                codec(True)

    @given(_inline_shapes)
    @settings(max_examples=200, deadline=None)
    def test_inline_scalar_paths_match_reference(self, value):
        wire = bencode(value)
        assert wire == bencode_reference(value)
        assert bdecode(wire) == value

    @pytest.mark.parametrize(
        "value",
        [
            [True],
            [b"a", 1, False],
            {b"a": True},
            {b"a": 1, b"b": b"x", b"c": False},
            [[b"a", True]],
            {b"a": [1, True]},
            {b"a": {b"b": False}},
        ],
    )
    def test_nested_bool_rejected_by_both(self, value):
        """bool subclasses int; the inline int path must not let it through."""
        for codec in (bencode, bencode_reference):
            with pytest.raises(BencodeError, match="bool"):
                codec(value)

    def test_unencodable_type_rejected_by_both(self):
        for codec in (bencode, bencode_reference):
            with pytest.raises(BencodeError, match="float"):
                codec(1.5)


# ----------------------------------------------------------------------
# Malformed inputs: the optimised decoder reproduces the reference
# decoder's diagnostics byte for byte.
# ----------------------------------------------------------------------
MALFORMED_CORPUS = [
    b"",
    b"i12",
    b"ie",
    b"i-e",
    b"i-0e",
    b"i01e",
    b"i007e",
    b"iabce",
    b"i1x2e",
    b"1:",
    b"12",
    b"01:a",
    b"9999:ab",
    b"1a:x",
    b":abc",
    b"l",
    b"li1e",
    b"d",
    b"d1:a",
    b"d1:ae",
    b"di1ei2ee",
    b"d1:b1:x1:a1:ye",
    b"d1:a1:x1:a1:ye",
    b"le1:x",
    b"i1ee",
    b"e",
    b"x",
    b"l1:ae1:b",
]


def _outcome(decoder, wire):
    try:
        return ("ok", decoder(wire))
    except BencodeError as exc:
        return ("error", str(exc))


class TestMalformedParity:
    @pytest.mark.parametrize("wire", MALFORMED_CORPUS, ids=repr)
    def test_corpus_raises_identically(self, wire):
        kind, detail = _outcome(bdecode, wire)
        assert kind == "error", f"{wire!r} decoded to {detail!r}"
        assert _outcome(bdecode_reference, wire) == (kind, detail)

    @given(
        st.lists(
            st.sampled_from(list(b"idle0123456789:-x")), max_size=14
        ).map(bytes)
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_inputs_behave_identically(self, wire):
        assert _outcome(bdecode, wire) == _outcome(bdecode_reference, wire)


# ----------------------------------------------------------------------
# Zero-copy buffer handling (satellite regression for the bytearray path).
# ----------------------------------------------------------------------
class TestBufferInputs:
    def test_bytearray_and_memoryview_decode_like_bytes(self):
        wire = bencode({b"peers": bytes(range(256)) * 4, b"interval": 900})
        expected = bdecode(wire)
        assert bdecode(bytearray(wire)) == expected
        assert bdecode(memoryview(wire)) == expected
        assert bdecode(memoryview(bytearray(wire))) == expected

    def test_decoded_strings_are_bytes_regardless_of_input_type(self):
        wire = bencode([b"abc", {b"k": b"v"}])
        for view in (wire, bytearray(wire), memoryview(wire)):
            decoded = bdecode(view)
            assert type(decoded[0]) is bytes
            assert type(list(decoded[1])[0]) is bytes
            assert type(decoded[1][b"k"]) is bytes

    def test_str_input_rejected(self):
        with pytest.raises(BencodeError, match="expects bytes"):
            bdecode("i1e")

    def test_non_contiguous_memoryview_rejected(self):
        wire = bencode(b"abcdef") * 2
        strided = memoryview(wire)[::2]
        with pytest.raises(BencodeError, match="contiguous"):
            bdecode(strided)

    def test_bytearray_decode_does_not_duplicate_input(self):
        """Peak allocation stays ~1x the payload (the output bytes only).

        A decoder that copied the bytearray up front would peak at >= 2x
        the payload size before producing the output string.
        """
        payload = bytes(range(256)) * 4096  # 1 MiB
        wire = bytearray(b"%d:%s" % (len(payload), payload))
        bdecode(bytes(wire))  # warm any lazy imports/caches
        tracemalloc.start()
        try:
            decoded = bdecode(wire)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == payload
        assert peak < 1.5 * len(payload)
