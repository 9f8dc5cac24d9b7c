"""Property tests for the magnet parser.

Two properties:

- ``parse_magnet(build_magnet(x)) == x`` over the whole field range;
- on arbitrary strings only :class:`MagnetError` escapes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.torrent.magnet import MagnetError, MagnetLink, build_magnet, parse_magnet

_id20 = st.binary(min_size=20, max_size=20)
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
