"""Tests for the KRPC codec (repro.dht.krpc)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import bdecode, bencode, codec
from repro.dht.krpc import (
    ERROR_GENERIC,
    ERROR_PROTOCOL,
    ERROR_SERVER,
    ERROR_UNKNOWN_METHOD,
    KrpcError,
    KrpcErrorMessage,
    KrpcQuery,
    KrpcResponse,
    decode_message,
    encode_error,
    encode_query,
    encode_response,
    node_id_to_bytes_or_raise,
    pack_compact_nodes,
    pack_compact_peer,
    unpack_compact_nodes,
    unpack_compact_peers,
)


class TestQueries:
    def test_query_round_trips(self):
        raw = encode_query(b"aa", "ping", {"id": b"\x01" * 20})
        message = decode_message(raw)
        assert isinstance(message, KrpcQuery)
        assert message.tid == b"aa"
        assert message.method == "ping"
        assert message.sender_id == b"\x01" * 20

    def test_get_peers_args_survive(self):
        raw = encode_query(
            b"\x00\x01", "get_peers", {"id": b"\x02" * 20, "info_hash": b"\x03" * 20}
        )
        message = decode_message(raw)
        assert message.args[b"info_hash"] == b"\x03" * 20

    def test_wire_shape_matches_bep5(self):
        decoded = bdecode(encode_query(b"tt", "find_node", {"id": b"\x04" * 20,
                                                            "target": b"\x05" * 20}))
        assert decoded[b"y"] == b"q"
        assert decoded[b"q"] == b"find_node"
        assert set(decoded) == {b"t", b"y", b"q", b"a"}

    def test_unknown_method_rejected_on_encode(self):
        with pytest.raises(KrpcError, match="unknown KRPC method"):
            encode_query(b"aa", "bogus", {})

    def test_unknown_method_rejected_on_decode(self):
        import repro.bencode as bencode_mod

        raw = bencode_mod.bencode(
            {"t": b"aa", "y": "q", "q": "evil", "a": {}}
        )
        with pytest.raises(KrpcError, match="unknown KRPC method"):
            decode_message(raw)

    def test_empty_tid_rejected(self):
        with pytest.raises(KrpcError, match="transaction id"):
            encode_query(b"", "ping", {})

    def test_missing_sender_id_raises(self):
        raw = encode_query(b"aa", "ping", {})
        message = decode_message(raw)
        with pytest.raises(KrpcError, match="'id'"):
            message.sender_id


class TestResponsesAndErrors:
    def test_response_round_trips(self):
        raw = encode_response(b"bb", {"id": b"\x06" * 20, "token": b"tok"})
        message = decode_message(raw)
        assert isinstance(message, KrpcResponse)
        assert message.tid == b"bb"
        assert message.values[b"token"] == b"tok"

    def test_error_round_trips(self):
        raw = encode_error(b"cc", ERROR_PROTOCOL, "bad token")
        message = decode_message(raw)
        assert isinstance(message, KrpcErrorMessage)
        assert (message.code, message.message) == (ERROR_PROTOCOL, "bad token")

    def test_all_error_codes_accepted(self):
        for code in (ERROR_GENERIC, 202, ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD):
            assert decode_message(encode_error(b"t", code, "x")).code == code

    def test_unknown_error_code_rejected(self):
        with pytest.raises(KrpcError, match="error code"):
            encode_error(b"t", 299, "x")


class TestDecodeStrictness:
    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"not bencoded",
            b"i42e",  # not a dict
            b"d1:t2:aa1:y1:xe",  # unknown y
            b"d1:y1:qe",  # no tid
            b"d1:t0:1:y1:re",  # empty tid
            b"d1:t2:aa1:y1:qe",  # query without method
            b"d1:t2:aa1:y1:re",  # response without r
            b"d1:e2:hi1:t2:aa1:y1:ee",  # error payload not a list
        ],
    )
    def test_malformed_messages_rejected(self, raw):
        with pytest.raises(KrpcError):
            decode_message(raw)

    def test_id_validator(self):
        assert node_id_to_bytes_or_raise(b"\x07" * 20, "id") == b"\x07" * 20
        with pytest.raises(KrpcError, match="'target'"):
            node_id_to_bytes_or_raise(b"short", "target")
        with pytest.raises(KrpcError):
            node_id_to_bytes_or_raise(12345, "id")


class TestCompactEncodings:
    def test_peer_round_trips(self):
        blob = pack_compact_peer(0x0A4D0001, 51413)
        assert len(blob) == 6
        assert unpack_compact_peers(blob) == [(0x0A4D0001, 51413)]

    def test_many_peers_round_trip(self):
        entries = [(i * 7919, 1024 + i) for i in range(20)]
        blob = b"".join(pack_compact_peer(ip, port) for ip, port in entries)
        assert unpack_compact_peers(blob) == entries

    def test_peer_range_checks(self):
        with pytest.raises(KrpcError):
            pack_compact_peer(-1, 80)
        with pytest.raises(KrpcError):
            pack_compact_peer(1, 70000)

    def test_ragged_peer_blob_rejected(self):
        with pytest.raises(KrpcError, match="6"):
            unpack_compact_peers(b"\x00" * 7)

    def test_nodes_round_trip(self):
        triples = [(bytes([i]) * 20, i * 1000, 6881 + i) for i in range(1, 9)]
        blob = pack_compact_nodes(triples)
        assert len(blob) == 26 * 8
        assert unpack_compact_nodes(blob) == triples

    def test_ragged_node_blob_rejected(self):
        with pytest.raises(KrpcError, match="26"):
            unpack_compact_nodes(b"\x00" * 27)

    def test_bad_node_id_rejected(self):
        with pytest.raises(KrpcError, match="20 bytes"):
            pack_compact_nodes([(b"short", 1, 2)])


# ----------------------------------------------------------------------
# Property tests: round trips, strict rejection, and the wire-format pin.
# ----------------------------------------------------------------------
_tids = st.binary(min_size=1, max_size=8)
_ids = st.binary(min_size=20, max_size=20)
_compact_peers = st.lists(st.binary(min_size=6, max_size=6), max_size=12)
_compact_nodes = st.lists(st.binary(min_size=26, max_size=26), max_size=8).map(
    b"".join
)
_counts = st.integers(min_value=0, max_value=10**6)

# Method -> strategy for its arguments, keyed by str as callers may write them.
_QUERY_ARGS = {
    "ping": st.fixed_dictionaries({"id": _ids}),
    "find_node": st.fixed_dictionaries({"id": _ids, "target": _ids}),
    "get_peers": st.fixed_dictionaries({"id": _ids, "info_hash": _ids}),
    "announce_peer": st.fixed_dictionaries(
        {
            "id": _ids,
            "info_hash": _ids,
            "port": st.integers(min_value=1, max_value=0xFFFF),
            "token": st.binary(min_size=1, max_size=8),
        },
        optional={"seed": st.integers(min_value=0, max_value=1)},
    ),
}
_queries = st.sampled_from(sorted(_QUERY_ARGS)).flatmap(
    lambda method: st.tuples(st.just(method), _QUERY_ARGS[method])
)
_response_values = st.fixed_dictionaries(
    {"id": _ids},
    optional={
        "nodes": _compact_nodes,
        "token": st.binary(min_size=1, max_size=8),
        "values": _compact_peers,
        "seeds": _counts,
        "peers": _counts,
    },
)
_error_codes = st.sampled_from(
    [ERROR_GENERIC, ERROR_SERVER, ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD]
)


def _bytes_keyed(mapping):
    """The canonical payload shape hot-path callers build: sorted bytes keys."""
    return {key.encode(): mapping[key] for key in sorted(mapping)}


class TestKrpcProperties:
    @given(_tids, _queries, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_queries_round_trip(self, tid, query, canonical_keys):
        method, args = query
        payload = _bytes_keyed(args) if canonical_keys else args
        message = decode_message(encode_query(tid, method, payload))
        assert isinstance(message, KrpcQuery)
        assert (message.tid, message.method) == (tid, method)
        assert message.args == _bytes_keyed(args)
        assert message.sender_id == args["id"]

    @given(_tids, _response_values, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_responses_round_trip(self, tid, values, canonical_keys):
        payload = _bytes_keyed(values) if canonical_keys else values
        message = decode_message(encode_response(tid, payload))
        assert isinstance(message, KrpcResponse)
        assert message.tid == tid
        assert message.values == _bytes_keyed(values)

    @given(_tids, _error_codes, st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_errors_round_trip(self, tid, code, text):
        message = decode_message(encode_error(tid, code, text))
        assert message == KrpcErrorMessage(tid=tid, code=code, message=text)

    @given(st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_bytes_raise_only_krpc_error(self, raw):
        try:
            decode_message(raw)
        except KrpcError:
            pass

    @given(_tids, _queries, st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_messages_raise_only_krpc_error(self, tid, query, data):
        raw = bytearray(encode_query(tid, *query))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            position = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            raw[position] = data.draw(st.integers(min_value=0, max_value=255))
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        try:
            decode_message(bytes(raw[:cut]))
        except KrpcError:
            pass

    @given(_tids, _queries)
    @settings(max_examples=150, deadline=None)
    def test_query_bytes_match_str_keyed_envelope(self, tid, query):
        """The wire-format pin: the canonical bytes-keyed envelope encodes
        to exactly what bencode gives the historical str-keyed dict."""
        method, args = query
        expected = bencode({"t": tid, "y": "q", "q": method, "a": dict(args)})
        assert encode_query(tid, method, args) == expected
        assert encode_query(tid, method, _bytes_keyed(args)) == expected

    @given(_tids, _response_values)
    @settings(max_examples=150, deadline=None)
    def test_response_bytes_match_str_keyed_envelope(self, tid, values):
        expected = bencode({"t": tid, "y": "r", "r": dict(values)})
        assert encode_response(tid, values) == expected
        assert encode_response(tid, _bytes_keyed(values)) == expected

    @given(_tids, _error_codes, st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_error_bytes_match_str_keyed_envelope(self, tid, code, text):
        expected = bencode({"t": tid, "y": "e", "e": [code, text]})
        assert encode_error(tid, code, text) == expected


class TestCanonicalFastPath:
    def test_canonical_payloads_never_take_the_sorting_path(self, monkeypatch):
        """Sorted bytes-keyed payloads inside the bytes-keyed envelopes are
        encoded without the str-key normalisation and sort."""

        def fail(value, out):
            raise AssertionError(f"slow dict path taken for {value!r}")

        monkeypatch.setattr(codec, "_encode_dict_slow", fail)
        encode_query(
            b"t", "get_peers", {b"id": b"\x01" * 20, b"info_hash": b"\x02" * 20}
        )
        encode_response(
            b"t",
            {
                b"id": b"\x01" * 20,
                b"nodes": b"\x03" * 26,
                b"peers": 2,
                b"seeds": 1,
                b"token": b"tok",
                b"values": [b"\x04" * 6, b"\x05" * 6],
            },
        )
        encode_error(b"t", ERROR_GENERIC, "x")
