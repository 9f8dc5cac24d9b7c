"""Property tests for the BEP 15 UDP tracker codec and the magnet parser.

Two properties per decoder:

- ``decode(encode(x)) == x`` over the whole field range of each packet;
- on arbitrary bytes (or, for magnets, arbitrary strings) only the
  declared error type escapes: :class:`UdpProtocolError` or
  :class:`MagnetError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.torrent.magnet import MagnetError, MagnetLink, build_magnet, parse_magnet
from repro.tracker import AnnounceResponse
from repro.tracker.udp import (
    UdpAnnounce,
    UdpProtocolError,
    decode_announce_request,
    decode_announce_response,
    decode_connect_request,
    decode_connect_response,
    encode_announce_request,
    encode_announce_response,
    encode_connect_request,
    encode_connect_response,
    encode_error,
)

_int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_uint32 = st.integers(min_value=0, max_value=2**32 - 1)
_uint16 = st.integers(min_value=0, max_value=2**16 - 1)
_id20 = st.binary(min_size=20, max_size=20)
_peers = st.lists(st.tuples(_uint32, _uint16), max_size=30)
_messages = st.text(min_size=1, max_size=30)

_UDP_DECODERS = (
    decode_connect_request,
    decode_connect_response,
    decode_announce_request,
    decode_announce_response,
)


class TestUdpRoundTrip:
    @given(_int32)
    def test_connect_request(self, transaction_id):
        assert decode_connect_request(encode_connect_request(transaction_id)) == (
            transaction_id
        )

    @given(_int32, _int64)
    def test_connect_response(self, transaction_id, connection_id):
        data = encode_connect_response(transaction_id, connection_id)
        assert decode_connect_response(data) == (transaction_id, connection_id)

    @given(_int64, _int32, _id20, _id20, _uint32, _int32, _uint16, _int32)
    @settings(max_examples=150, deadline=None)
    def test_announce_request(
        self, connection_id, transaction_id, infohash, peer_id, ip, numwant,
        port, event,
    ):
        data = encode_announce_request(
            connection_id, transaction_id, infohash, peer_id, ip, numwant,
            port, event,
        )
        assert decode_announce_request(data) == UdpAnnounce(
            connection_id=connection_id,
            transaction_id=transaction_id,
            infohash=infohash,
            peer_id=peer_id,
            client_ip=ip,
            numwant=numwant,
            port=port,
            event=event,
        )

    @given(_int32, _int32, _int32, _int32, _peers)
    @settings(max_examples=150, deadline=None)
    def test_announce_response(self, transaction_id, interval, seeders, leechers, peers):
        data = encode_announce_response(
            transaction_id, interval, seeders, leechers, peers
        )
        assert decode_announce_response(data) == (
            transaction_id,
            AnnounceResponse(
                interval_seconds=interval,
                seeders=seeders,
                leechers=leechers,
                peers=peers,
            ),
        )

    @given(_int32, _messages)
    def test_error_packet_carries_its_message(self, transaction_id, message):
        with pytest.raises(UdpProtocolError) as error:
            decode_announce_response(encode_error(transaction_id, message))
        assert str(error.value) == message


class TestUdpStrictRejection:
    @given(st.binary(max_size=120))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_bytes_raise_only_udp_errors(self, data):
        for decode in _UDP_DECODERS:
            try:
                decode(data)
            except UdpProtocolError:
                pass

    @given(st.sampled_from((16, 20, 26, 98)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_well_sized_bytes_raise_only_udp_errors(self, size, data):
        # Right-sized packets get past the length checks into the field
        # checks (magic, action), which random lengths rarely reach.
        packet = data.draw(st.binary(min_size=size, max_size=size))
        for decode in _UDP_DECODERS:
            try:
                decode(packet)
            except UdpProtocolError:
                pass


_names = st.none() | st.text(max_size=30)
_trackers = st.lists(st.text(min_size=0, max_size=30), max_size=3).map(tuple)
_lengths = st.none() | st.integers(min_value=0, max_value=2**63)


class TestMagnet:
    @given(_id20, _names, _trackers, _lengths)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, infohash, name, trackers, length):
        uri = build_magnet(infohash, name=name, trackers=trackers, length=length)
        assert parse_magnet(uri) == MagnetLink(
            infohash=infohash,
            display_name=name,
            trackers=trackers,
            exact_length=length,
        )

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_strings_raise_only_magnet_errors(self, text):
        for uri in (text, "magnet:?" + text, "magnet:?xt=urn:btih:" + text):
            try:
                parse_magnet(uri)
            except MagnetError:
                pass

    @given(st.sampled_from((32, 40)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_btih_of_either_length_raises_only_magnet_errors(self, size, data):
        # 32- and 40-character topics reach the base32 and hex decoders.
        topic = data.draw(st.text(min_size=size, max_size=size))
        try:
            parse_magnet("magnet:?xt=urn:btih:" + topic)
        except MagnetError:
            pass
