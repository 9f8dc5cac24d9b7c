"""Property tests for the HTTP tracker codec (repro.tracker.protocol).

Announce responses are built from fixed bytes templates and canonical
success responses are decoded by matching their exact shape.  Both
shortcuts are only sound if they agree with the generic bencode codec, so
these tests pin:

- the templates emit exactly ``bencode`` of the response dict;
- the fast decode returns what the ``bdecode``-based decode returns --
  the same value, or the same error type and message -- on canonical,
  mutated, truncated and extended bytes;
- only :class:`TrackerError` and :class:`BencodeError` escape the
  decoders, whatever the input;
- a canonical response never reaches the generic path.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tracker.protocol as protocol
from repro.bencode import BencodeError, bencode
from repro.tracker import TrackerError, decode_announce_response, decode_scrape_response
from repro.tracker.protocol import (
    encode_announce_success,
    encode_failure,
    encode_peers_compact,
    encode_scrape_response,
    peer_port_for_ip,
)

# Counts beyond the fast path's 18-digit bound exercise the fallback.
_counts = st.integers(min_value=0, max_value=10**6) | st.integers(
    min_value=0, max_value=10**25
)
_ips = st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=40)
_reasons = st.text(max_size=40)


@st.composite
def _responses(draw):
    """Canonical success bytes, or a failure response."""
    if draw(st.integers(0, 5)) == 0:
        return encode_failure(draw(_reasons))
    return encode_announce_success(
        draw(_counts), draw(_counts), draw(_counts), draw(_ips)
    )


@st.composite
def _variants(draw):
    """A canonical response, or one mutated, truncated or extended."""
    data = draw(_responses())
    kind = draw(st.sampled_from(("same", "flip", "truncate", "extend", "splice")))
    if kind == "flip" and data:
        index = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255))
        return data[:index] + bytes([byte]) + data[index + 1 :]
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if kind == "splice" and data:
        index = draw(st.integers(0, len(data)))
        return data[:index] + draw(st.binary(min_size=1, max_size=8)) + data[index:]
    return data


@st.composite
def _scrape_variants(draw):
    """Scrape response bytes with one byte replaced by 0-4 random bytes."""
    files = draw(
        st.dictionaries(
            st.binary(min_size=20, max_size=20),
            st.tuples(_counts, _counts, _counts),
            max_size=3,
        )
    )
    data = encode_scrape_response(files)
    index = draw(st.integers(0, len(data)))
    return data[:index] + draw(st.binary(max_size=4)) + data[index + 1 :]


def _outcome(decode, data):
    try:
        return ("value", decode(data))
    except (TrackerError, BencodeError) as exc:
        return ("error", type(exc), str(exc))


class TestTemplates:
    @given(_counts, _counts, _counts, _ips)
    @settings(max_examples=200, deadline=None)
    def test_success_template_matches_codec(self, interval, seeders, leechers, ips):
        peers = b"".join(
            struct.pack(">IH", ip, peer_port_for_ip(ip)) for ip in ips
        )
        assert encode_peers_compact(ips) == peers
        assert encode_announce_success(interval, seeders, leechers, ips) == bencode(
            {
                b"complete": seeders,
                b"incomplete": leechers,
                b"interval": interval,
                b"peers": peers,
            }
        )

    @given(_reasons)
    @settings(max_examples=100, deadline=None)
    def test_failure_template_matches_codec(self, reason):
        assert encode_failure(reason) == bencode({"failure reason": reason})


class TestFastDecode:
    @given(_variants())
    @settings(max_examples=400, deadline=None)
    def test_fast_decode_agrees_with_generic(self, data):
        assert _outcome(decode_announce_response, data) == _outcome(
            protocol._decode_announce_generic, data
        )

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fast_decode_agrees_on_arbitrary_bytes(self, data):
        assert _outcome(decode_announce_response, data) == _outcome(
            protocol._decode_announce_generic, data
        )

    def test_extra_key_and_non_canonical_ints_take_generic_path(self):
        cases = [
            # An extra key after the four canonical ones.
            b"d8:completei1e10:incompletei2e8:intervali3e5:peers0:"
            b"5:zzzzzi0ee",
            # Negative count: valid bencode, outside the fast shape.
            b"d8:completei-1e10:incompletei2e8:intervali3e5:peers0:e",
            # Leading zero: not canonical, rejected by bdecode.
            b"d8:completei01e10:incompletei2e8:intervali3e5:peers0:e",
            # Peers blob not a multiple of 6.
            b"d8:completei1e10:incompletei2e8:intervali3e5:peers5:abcdee",
        ]
        for data in cases:
            assert _outcome(decode_announce_response, data) == _outcome(
                protocol._decode_announce_generic, data
            )

    def test_canonical_response_never_takes_the_generic_path(self, monkeypatch):
        def fail(data):
            raise AssertionError(f"generic path taken for {data!r}")

        monkeypatch.setattr(protocol, "_decode_announce_generic", fail)
        monkeypatch.setattr(protocol, "bdecode", fail)
        ips = [0x01020304, 0xC0A80101, 7]
        response = decode_announce_response(encode_announce_success(900, 2, 5, ips))
        assert response.interval_seconds == 900
        assert (response.seeders, response.leechers) == (2, 5)
        assert response.peers == [(ip, peer_port_for_ip(ip)) for ip in ips]
        assert decode_announce_response(encode_announce_success(0, 0, 0, [])).peers == []

    def test_failure_still_reaches_the_generic_path(self, monkeypatch):
        calls = []
        generic = protocol._decode_announce_generic

        def spy(data):
            calls.append(data)
            return generic(data)

        monkeypatch.setattr(protocol, "_decode_announce_generic", spy)
        with pytest.raises(TrackerError, match="overloaded"):
            decode_announce_response(encode_failure("overloaded"))
        assert len(calls) == 1


class TestStrictRejection:
    @given(st.binary(max_size=96) | _variants())
    @settings(max_examples=400, deadline=None)
    def test_announce_decoder_raises_only_declared_errors(self, data):
        try:
            decode_announce_response(data)
        except (TrackerError, BencodeError):
            pass

    @given(st.binary(max_size=96) | _scrape_variants())
    @settings(max_examples=400, deadline=None)
    def test_scrape_decoder_raises_only_declared_errors(self, data):
        try:
            decode_scrape_response(data)
        except (TrackerError, BencodeError):
            pass
