"""Canonical-form and buffer-input checks for the one bencode codec.

The infohash is defined over canonical bencode bytes, so the encoder must
give one byte string per value however the value was built (dict insertion
order, list or tuple, ``str`` or ``bytes`` keys), and the decoder must give
the same value back from every input type it accepts (``bytes`` and
``bytearray``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import BencodeError, bdecode, bencode

# Bytes-only keys/values decode to themselves, so the decoded form can be
# compared without normalisation.
_scalars = st.integers(min_value=-(10**15), max_value=10**15) | st.binary(
    max_size=24
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=12), children, max_size=4),
    max_leaves=16,
)


def _rebuilt(value):
    """The same value built another way: reversed dict order, tuples for lists."""
    if isinstance(value, dict):
        return {key: _rebuilt(item) for key, item in reversed(value.items())}
    if isinstance(value, list):
        return tuple(_rebuilt(item) for item in value)
    return value


class TestCodecEquivalence:
    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_encoders_emit_identical_bytes(self, value):
        wire = bencode(value)
        assert bencode(_rebuilt(value)) == wire
        assert bencode(bdecode(wire)) == wire

    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_decoders_recover_identical_values(self, value):
        wire = bencode(value)
        assert bdecode(wire) == bdecode(bytearray(wire)) == value

    @given(
        st.dictionaries(
            st.text(max_size=8) | st.binary(max_size=8), _scalars, max_size=5
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_str_key_normalisation_matches(self, value):
        """str keys encode as their UTF-8 bytes; a clash is an error."""
        normalised = {
            key.encode("utf-8") if isinstance(key, str) else key: item
            for key, item in value.items()
        }
        if len(normalised) < len(value):
            with pytest.raises(BencodeError, match="duplicate dictionary key"):
                bencode(value)
        else:
            assert bencode(value) == bencode(normalised)

    def test_unsorted_bytes_keys_still_sorted_on_encode(self):
        # Insertion order deliberately violates canonical order.
        value = {b"zz": 1, b"aa": 2, b"mm": 3}
        assert bencode(value) == b"d2:aai2e2:mmi3e2:zzi1ee"

    def test_bool_rejected_by_both(self):
        for flag in (True, False):
            with pytest.raises(BencodeError, match="bool"):
                bencode(flag)

    def test_unencodable_type_rejected_by_both(self):
        # At the top level and nested inside a container.
        for value in (1.5, {b"a": [1, 1.5]}):
            with pytest.raises(BencodeError, match="float"):
                bencode(value)


class TestBufferInputs:
    def test_bytearray_and_memoryview_decode_like_bytes(self):
        """A bytearray decodes like bytes; a memoryview is refused cleanly."""
        wire = bencode({b"peers": bytes(range(256)) * 4, b"interval": 900})
        decoded = bdecode(bytearray(wire))
        assert decoded == bdecode(wire)
        assert type(list(decoded)[0]) is bytes
        assert type(decoded[b"peers"]) is bytes
        for view in (memoryview(wire), memoryview(bytearray(wire))):
            with pytest.raises(BencodeError, match="expects bytes"):
                bdecode(view)

    def test_str_input_rejected(self):
        with pytest.raises(BencodeError, match="expects bytes"):
            bdecode("i1e")
