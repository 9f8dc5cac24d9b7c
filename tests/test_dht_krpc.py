"""Tests for the KRPC codec (repro.dht.krpc)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import bdecode, bencode
from repro.dht import krpc
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
    encode_get_peers_response,
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


# ----------------------------------------------------------------------
# The fixed-shape get_peers path: templates out, exact-shape decode in.
# Both shortcuts are sound only while they agree with the generic codec.
# ----------------------------------------------------------------------
# Transaction ids whose lengths take 1 to 4 digits.
_any_tids = (
    st.binary(min_size=1, max_size=9)
    | st.binary(min_size=10, max_size=99)
    | st.binary(min_size=100, max_size=999)
    | st.binary(min_size=1000, max_size=1010)
)
_tokens = st.binary(max_size=12)
# Counts beyond the fast path's 18-digit bound exercise the fallback.
_big_counts = _counts | st.integers(min_value=0, max_value=10**25)
_peer_pairs = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=0xFFFF),
)
_value_lists = st.sampled_from([0, 1, 150]).flatmap(
    lambda n: st.lists(_peer_pairs, min_size=n, max_size=n)
)


def _outcome(raw):
    try:
        return ("value", decode_message(raw))
    except KrpcError as exc:
        return ("error", type(exc), str(exc))


def _generic_outcome(raw):
    try:
        return ("value", krpc._decode_message_generic(raw))
    except KrpcError as exc:
        return ("error", type(exc), str(exc))


@st.composite
def _get_peers_messages(draw):
    """A canonical get_peers query, nodes reply or values reply."""
    tid = draw(_any_tids)
    node_id = draw(_ids)
    kind = draw(st.sampled_from(("query", "nodes", "values")))
    if kind == "query":
        return encode_query(tid, "get_peers", {b"id": node_id, b"info_hash": draw(_ids)})
    nodes = draw(_compact_nodes)
    token = draw(_tokens)
    if kind == "nodes":
        return encode_get_peers_response(tid, node_id, nodes, token)
    return encode_get_peers_response(
        tid,
        node_id,
        nodes,
        token,
        draw(st.lists(_peer_pairs, max_size=6)),
        peers=draw(_big_counts),
        seeds=draw(_big_counts),
    )


@st.composite
def _variants(draw):
    """A canonical get_peers message, or one mutated, truncated or extended."""
    data = draw(_get_peers_messages())
    kind = draw(st.sampled_from(("same", "flip", "truncate", "extend", "splice")))
    if kind == "flip":
        index = draw(st.integers(0, len(data) - 1))
        return data[:index] + bytes([draw(st.integers(0, 255))]) + data[index + 1 :]
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if kind == "splice":
        index = draw(st.integers(0, len(data)))
        return data[:index] + draw(st.binary(min_size=1, max_size=8)) + data[index:]
    return data


# Canonical messages that the cases below mutate in one place each.
_QUERY = encode_query(
    b"aa", "get_peers", {b"id": b"\x01" * 20, b"info_hash": b"\x02" * 20}
)
_NODES_REPLY = encode_get_peers_response(b"aa", b"\x01" * 20, b"", b"k")
_VALUES_REPLY = encode_get_peers_response(
    b"aa", b"\x01" * 20, b"", b"k", [], peers=1, seeds=0
)


class TestGetPeersTemplates:
    @given(_any_tids, _ids, _ids)
    @settings(max_examples=150, deadline=None)
    def test_query_template_matches_codec(self, tid, node_id, infohash):
        assert encode_query(
            tid, "get_peers", {b"id": node_id, b"info_hash": infohash}
        ) == bencode(
            {b"a": {b"id": node_id, b"info_hash": infohash}, b"q": b"get_peers",
             b"t": tid, b"y": b"q"}
        )

    @given(_any_tids, _ids, _compact_nodes, _tokens)
    @settings(max_examples=150, deadline=None)
    def test_nodes_template_matches_codec(self, tid, node_id, nodes, token):
        expected = bencode(
            {b"r": {b"id": node_id, b"nodes": nodes, b"token": token},
             b"t": tid, b"y": b"r"}
        )
        assert encode_get_peers_response(tid, node_id, nodes, token) == expected

    @given(_any_tids, _ids, _compact_nodes, _tokens, _value_lists, _big_counts,
           _big_counts)
    @settings(max_examples=150, deadline=None)
    def test_values_template_matches_codec(
        self, tid, node_id, nodes, token, values, peers, seeds
    ):
        expected = bencode(
            {
                b"r": {
                    b"id": node_id,
                    b"nodes": nodes,
                    b"peers": peers,
                    b"seeds": seeds,
                    b"token": token,
                    b"values": [pack_compact_peer(ip, port) for ip, port in values],
                },
                b"t": tid,
                b"y": b"r",
            }
        )
        assert encode_get_peers_response(
            tid, node_id, nodes, token, values, peers=peers, seeds=seeds
        ) == expected

    def test_out_of_range_peer_rejected(self):
        with pytest.raises(KrpcError, match="compact range"):
            encode_get_peers_response(b"t", b"\x01" * 20, b"", b"", [(2**32, 80)])
        with pytest.raises(KrpcError, match="transaction id"):
            encode_get_peers_response(b"", b"\x01" * 20, b"", b"")


class TestGetPeersFastDecode:
    @given(_variants())
    @settings(max_examples=500, deadline=None)
    def test_fast_decode_agrees_with_generic(self, raw):
        assert _outcome(raw) == _generic_outcome(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            # Tail byte changed, and the tail doubled.
            _QUERY[:-2] + b"xe",
            _QUERY + b"1:y1:qe",
            # The tid declared longer than the bytes that follow it.
            _NODES_REPLY.replace(b"1:t2:aa", b"1:t9:aa"),
            # Leading zeros in a count and in a length: not canonical.
            _VALUES_REPLY.replace(b"peersi1e", b"peersi01e"),
            _NODES_REPLY.replace(b"5:nodes0:", b"5:nodes00:"),
            # Negative count: valid bencode, outside the fast shape.
            _VALUES_REPLY.replace(b"peersi1e", b"peersi-1e"),
            # A 7-byte values entry, and scrape counts without values.
            _VALUES_REPLY.replace(b"valuesle", b"valuesl7:abcdefge"),
            _VALUES_REPLY.replace(b"6:valuesle", b""),
            # A 19-byte id, and an extra key in the reply.
            _NODES_REPLY.replace(b"2:id20:" + b"\x01" * 20, b"2:id19:" + b"\x01" * 19),
            _NODES_REPLY.replace(b"5:token1:k", b"5:token1:k5:zzzzzi0e"),
        ],
        ids=[
            "tail-changed", "tail-doubled", "tid-short", "count-leading-zero",
            "length-leading-zero", "negative-count", "ragged-value",
            "counts-without-values", "short-id", "extra-key",
        ],
    )
    def test_non_canonical_shapes_take_generic_path(self, raw):
        assert raw not in (_QUERY, _NODES_REPLY, _VALUES_REPLY)
        assert krpc._decode_get_peers(raw) is None
        assert _outcome(raw) == _generic_outcome(raw)

    def test_canonical_messages_never_reach_bdecode(self, monkeypatch):
        def fail(raw):
            raise AssertionError(f"generic path taken for {raw!r}")

        monkeypatch.setattr(krpc, "bdecode", fail)
        node_id, infohash = b"\x01" * 20, b"\x02" * 20
        query = decode_message(
            encode_query(b"\x00\x00\x00\x07", "get_peers",
                         {b"id": node_id, b"info_hash": infohash})
        )
        assert query == KrpcQuery(
            tid=b"\x00\x00\x00\x07", method="get_peers",
            args={b"id": node_id, b"info_hash": infohash},
        )
        nodes = pack_compact_nodes([(b"\x03" * 20, 0x0A4D0001, 6881)])
        reply = decode_message(encode_get_peers_response(b"t", node_id, nodes, b"tok"))
        assert reply == KrpcResponse(
            tid=b"t", values={b"id": node_id, b"nodes": nodes, b"token": b"tok"}
        )
        values = [(0x0A000001, 51413), (0x0A000002, 1)]
        reply = decode_message(
            encode_get_peers_response(
                b"t", node_id, nodes, b"tok", values, peers=3, seeds=1
            )
        )
        assert reply.values[b"values"] == [pack_compact_peer(*v) for v in values]
        assert (reply.values[b"peers"], reply.values[b"seeds"]) == (3, 1)

    def test_other_messages_still_reach_bdecode(self, monkeypatch):
        calls = []
        generic = krpc.bdecode

        def spy(raw):
            calls.append(raw)
            return generic(raw)

        monkeypatch.setattr(krpc, "bdecode", spy)
        node_id = b"\x01" * 20
        messages = [
            encode_error(b"t", ERROR_PROTOCOL, "bad token"),
            encode_query(b"t", "ping", {b"id": node_id}),
            encode_query(b"t", "find_node", {b"id": node_id, b"target": node_id}),
            encode_response(
                b"t", {b"id": node_id, b"nodes": b"", b"token": b"k", b"zz": 0}
            ),
        ]
        for raw in messages:
            decode_message(raw)
        assert calls == messages
