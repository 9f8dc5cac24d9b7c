"""Unit tests for the bencode codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import BencodeError, bdecode, bencode


class TestEncode:
    def test_integer(self):
        assert bencode(42) == b"i42e"

    def test_negative_integer(self):
        assert bencode(-7) == b"i-7e"

    def test_zero(self):
        assert bencode(0) == b"i0e"

    def test_bytes(self):
        assert bencode(b"spam") == b"4:spam"

    def test_empty_bytes(self):
        assert bencode(b"") == b"0:"

    def test_str_encodes_as_utf8(self):
        assert bencode("caf\xe9") == b"5:caf\xc3\xa9"

    def test_list(self):
        assert bencode([1, b"a"]) == b"li1e1:ae"

    def test_tuple_encodes_as_list(self):
        assert bencode((1, 2)) == b"li1ei2ee"

    def test_nested_list(self):
        assert bencode([[1], []]) == b"lli1eelee"

    def test_dict_sorted_keys(self):
        assert bencode({b"b": 1, b"a": 2}) == b"d1:ai2e1:bi1ee"

    def test_dict_str_keys_normalised(self):
        assert bencode({"b": 1, "a": 2}) == b"d1:ai2e1:bi1ee"

    def test_dict_mixed_duplicate_keys_rejected(self):
        with pytest.raises(BencodeError, match="duplicate"):
            bencode({"a": 1, b"a": 2})

    def test_bool_rejected(self):
        with pytest.raises(BencodeError, match="bool"):
            bencode(True)

    def test_float_rejected(self):
        with pytest.raises(BencodeError):
            bencode(3.14)

    def test_none_rejected(self):
        with pytest.raises(BencodeError):
            bencode(None)

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(BencodeError, match="keys"):
            bencode({1: 2})

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
    def test_nested_bool_rejected(self, value):
        with pytest.raises(BencodeError, match="bool"):
            bencode(value)


class TestDecode:
    def test_integer(self):
        assert bdecode(b"i42e") == 42

    def test_negative(self):
        assert bdecode(b"i-42e") == -42

    def test_bytes(self):
        assert bdecode(b"4:spam") == b"spam"

    def test_list(self):
        assert bdecode(b"li1ei2ee") == [1, 2]

    def test_dict(self):
        assert bdecode(b"d1:ai1e1:bi2ee") == {b"a": 1, b"b": 2}

    def test_empty_input(self):
        with pytest.raises(BencodeError, match="empty"):
            bdecode(b"")

    def test_trailing_data(self):
        with pytest.raises(BencodeError, match="trailing"):
            bdecode(b"i1ei2e")

    def test_leading_zero_integer(self):
        with pytest.raises(BencodeError, match="leading zeros"):
            bdecode(b"i042e")

    def test_negative_zero(self):
        with pytest.raises(BencodeError, match="negative zero"):
            bdecode(b"i-0e")

    def test_empty_integer(self):
        with pytest.raises(BencodeError):
            bdecode(b"ie")

    def test_bare_minus(self):
        with pytest.raises(BencodeError):
            bdecode(b"i-e")

    def test_unterminated_integer(self):
        with pytest.raises(BencodeError, match="unterminated"):
            bdecode(b"i42")

    def test_truncated_string(self):
        with pytest.raises(BencodeError, match="truncated"):
            bdecode(b"5:ab")

    def test_leading_zero_length(self):
        with pytest.raises(BencodeError, match="leading zeros"):
            bdecode(b"04:spam")

    def test_unterminated_list(self):
        with pytest.raises(BencodeError, match="unterminated"):
            bdecode(b"li1e")

    def test_unterminated_dict(self):
        with pytest.raises(BencodeError, match="unterminated|truncated"):
            bdecode(b"d1:a")

    def test_unsorted_dict_keys_rejected(self):
        with pytest.raises(BencodeError, match="sorted"):
            bdecode(b"d1:bi1e1:ai2ee")

    def test_duplicate_dict_keys_rejected(self):
        with pytest.raises(BencodeError, match="sorted"):
            bdecode(b"d1:ai1e1:ai2ee")

    def test_non_bytes_dict_key_rejected(self):
        with pytest.raises(BencodeError, match="key"):
            bdecode(b"di1ei2ee")

    def test_garbage_byte(self):
        with pytest.raises(BencodeError, match="unexpected"):
            bdecode(b"x")

    def test_non_bytes_input_rejected(self):
        with pytest.raises(BencodeError, match="bytes"):
            bdecode("i1e")  # type: ignore[arg-type]

    def test_bytearray_accepted(self):
        assert bdecode(bytearray(b"i5e")) == 5

    def test_integer_past_int_conversion_limit_rejected(self):
        # int() refuses digit runs this long; the codec must not leak its
        # ValueError.
        with pytest.raises(BencodeError, match="5000 digits"):
            bdecode(b"i" + b"1" * 5000 + b"e")

    def test_string_length_past_int_conversion_limit_rejected(self):
        with pytest.raises(BencodeError, match="truncated string"):
            bdecode(b"1" * 5000 + b":x")


# Every malformed-input class with the exact message the codec raises; the
# metainfo and tracker layers quote these messages in their own errors.
MALFORMED_CORPUS = [
    (b"", "empty input"),
    (b"i12", "unterminated integer"),
    (b"ie", "empty integer"),
    (b"i-e", "empty integer"),
    (b"i-0e", "negative zero is not canonical"),
    (b"i01e", "leading zeros in integer b'01'"),
    (b"i007e", "leading zeros in integer b'007'"),
    (b"iabce", "malformed integer b'abc'"),
    (b"i1x2e", "malformed integer b'1x2'"),
    (b"1:", "truncated string"),
    (b"12", "unterminated string length"),
    (b"01:a", "leading zeros in string length"),
    (b"9999:ab", "truncated string"),
    (b"1a:x", "malformed string length b'1a'"),
    (b":abc", "unexpected byte b':' at offset 0"),
    (b"l", "unterminated list"),
    (b"li1e", "unterminated list"),
    (b"d", "unterminated dictionary"),
    (b"d1:a", "truncated input"),
    (b"d1:ae", "unexpected byte b'e' at offset 4"),
    (b"di1ei2ee", "dictionary key must be a byte string"),
    (b"d1:b1:x1:a1:ye", "dictionary keys not strictly sorted: b'b' then b'a'"),
    (b"d1:a1:x1:a1:ye", "dictionary keys not strictly sorted: b'a' then b'a'"),
    (b"le1:x", "trailing data at offset 2"),
    (b"i1ee", "trailing data at offset 3"),
    (b"e", "unexpected byte b'e' at offset 0"),
    (b"x", "unexpected byte b'x' at offset 0"),
    (b"l1:ae1:b", "trailing data at offset 5"),
]


class TestMalformedCorpus:
    @pytest.mark.parametrize(
        "wire, message", MALFORMED_CORPUS, ids=[repr(w) for w, _ in MALFORMED_CORPUS]
    )
    def test_raises_pinned_message(self, wire, message):
        with pytest.raises(BencodeError) as caught:
            bdecode(wire)
        assert str(caught.value) == message


def _nested_lists(levels):
    return b"l" * levels + b"e" * levels


class TestDepthLimit:
    def test_100_nested_lists_decode(self):
        value = bdecode(_nested_lists(100))
        for _ in range(99):
            (value,) = value
        assert value == []

    def test_100_nested_dicts_decode(self):
        wire = b"d1:k" * 99 + b"de" + b"e" * 99
        assert bencode(bdecode(wire)) == wire

    @pytest.mark.parametrize("levels", [101, 600])
    def test_deeper_nesting_raises(self, levels):
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bdecode(_nested_lists(levels))

    def test_deeper_dict_nesting_raises(self):
        wire = b"d1:k" * 100 + b"de" + b"e" * 100
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bdecode(wire)

    @pytest.mark.parametrize("lead", [b"l", b"d"])
    def test_unterminated_long_run_raises_bencode_error(self, lead):
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bdecode(lead * 200_000)


def _nest_in_lists(value, levels):
    for _ in range(levels):
        value = [value]
    return value


class TestEncodeLimits:
    """Unencodable values raise BencodeError, never Python's own errors."""

    @pytest.mark.parametrize("value", [10**5000, [b"a", -(10**5000)]],
                             ids=["positive", "negative_in_list"])
    def test_integer_past_int_conversion_limit(self, value):
        with pytest.raises(BencodeError, match="integer too long"):
            bencode(value)

    def test_2000_nested_lists(self):
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bencode(_nest_in_lists(0, 2000))

    def test_100_nested_lists_encode(self):
        assert bencode(_nest_in_lists(0, 100)) == b"l" * 100 + b"i0e" + b"e" * 100

    def test_101_nested_lists_raise(self):
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bencode(_nest_in_lists(0, 101))

    def test_100_nested_dicts_encode_and_101_raise(self):
        value = {}
        for _ in range(99):
            value = {b"k": value}
        assert bencode(value) == b"d1:k" * 99 + b"de" + b"e" * 99
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bencode({b"k": value})

    def test_self_referencing_list(self):
        value = []
        value.append(value)
        with pytest.raises(BencodeError, match="deeper than 100 levels"):
            bencode(value)

    @pytest.mark.parametrize("value", ["\ud800", {"\udfff": 1}, [b"a", "x\ud83d"]])
    def test_lone_surrogate(self, value):
        with pytest.raises(BencodeError, match="UTF-8"):
            bencode(value)


# Arbitrary Python values, encodable or not, nested up to 150 levels deep.
_any_atoms = st.one_of(
    st.integers(),
    st.integers(min_value=10**4290, max_value=10**4400),
    st.binary(max_size=16),
    st.text(st.characters(), max_size=8),
    st.sampled_from(["\ud800", "a\udfff"]),  # lone surrogates
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.just(b"x").map(bytearray),
)
_any_values = st.recursive(
    _any_atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.binary(max_size=4), st.text(max_size=4),
                                  st.integers()), children, max_size=4),
    ),
    max_leaves=12,
)


@given(_any_values, st.integers(min_value=0, max_value=150))
@settings(max_examples=300, deadline=None)
def test_bencode_returns_bytes_or_raises_bencode_error(value, extra_levels):
    try:
        encoded = bencode(_nest_in_lists(value, extra_levels))
    except BencodeError:
        return
    assert isinstance(encoded, bytes)


# Arbitrary bytes, bytes over the codec's own alphabet, and long runs of
# container openers wrapped in arbitrary bytes.
_wire_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(list(b"idle0123456789:-x")), max_size=32).map(bytes),
    st.builds(
        lambda head, lead, levels, tail: head + lead * levels + tail,
        st.binary(max_size=8),
        st.sampled_from([b"l", b"d", b"ld", b"d1:a"]),
        st.integers(min_value=0, max_value=5_000),
        st.binary(max_size=8),
    ),
)


@given(_wire_bytes)
@settings(max_examples=500, deadline=None)
def test_only_bencode_error_escapes(wire):
    """Any input decodes or raises BencodeError; what decodes is canonical."""
    try:
        value = bdecode(wire)
    except BencodeError:
        return
    assert bencode(value) == wire


# Hypothesis: arbitrary nested structures round-trip.
_atoms = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.binary(max_size=40),
)
_values = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.binary(max_size=12), children, max_size=5),
    ),
    max_leaves=25,
)


@given(_values)
def test_roundtrip(value):
    decoded = bdecode(bencode(value))

    def normalise(v):
        if isinstance(v, tuple):
            return [normalise(x) for x in v]
        if isinstance(v, list):
            return [normalise(x) for x in v]
        if isinstance(v, dict):
            return {k: normalise(x) for k, x in v.items()}
        return v

    assert decoded == normalise(value)


@given(_values)
def test_encoding_is_canonical(value):
    """Encoding is deterministic and re-encoding a decode is identity."""
    encoded = bencode(value)
    assert bencode(bdecode(encoded)) == encoded
