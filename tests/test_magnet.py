"""Tests for magnet links (repro.torrent.magnet) and the portal's
magnet-only publishing path."""

import base64

import pytest

from repro.observability import MetricsRegistry
from repro.torrent import MagnetError, MagnetLink, build_magnet, parse_magnet

INFOHASH = bytes(range(20))


class TestBuild:
    def test_minimal_uri(self):
        uri = build_magnet(INFOHASH)
        assert uri == "magnet:?xt=urn:btih:" + INFOHASH.hex()

    def test_full_uri_round_trips(self):
        uri = build_magnet(
            INFOHASH,
            name="Great.Movie.2010.XViD",
            trackers=("http://tracker.example/announce",),
            length=733_456_789,
        )
        link = parse_magnet(uri)
        assert link.infohash == INFOHASH
        assert link.display_name == "Great.Movie.2010.XViD"
        assert link.trackers == ("http://tracker.example/announce",)
        assert link.exact_length == 733_456_789

    def test_name_with_spaces_round_trips(self):
        link = parse_magnet(build_magnet(INFOHASH, name="two words & more"))
        assert link.display_name == "two words & more"

    def test_link_uri_property_round_trips(self):
        link = MagnetLink(infohash=INFOHASH, display_name="x", exact_length=5)
        assert parse_magnet(link.uri) == link

    def test_bad_infohash_rejected(self):
        with pytest.raises(MagnetError):
            build_magnet(b"short")
        with pytest.raises(MagnetError):
            MagnetLink(infohash=b"short")

    def test_negative_length_rejected(self):
        with pytest.raises(MagnetError):
            build_magnet(INFOHASH, length=-1)


class TestParse:
    def test_base32_btih_accepted(self):
        encoded = base64.b32encode(INFOHASH).decode("ascii").lower()
        link = parse_magnet(f"magnet:?xt=urn:btih:{encoded}")
        assert link.infohash == INFOHASH

    def test_unknown_params_ignored(self):
        uri = build_magnet(INFOHASH) + "&ws=http%3A%2F%2Fmirror&x.pe=1.2.3.4"
        assert parse_magnet(uri).infohash == INFOHASH

    @pytest.mark.parametrize(
        "uri",
        [
            "http://example.com/file.torrent",
            "magnet:?dn=name-only",
            "magnet:?xt=urn:sha1:" + "00" * 20,
            "magnet:?xt=urn:btih:zzzz",
            "magnet:?xt=urn:btih:" + "zz" * 20,
            "magnet:?xt=urn:btih:" + "00" * 19,
            "magnet:?xt=urn:btih:" + "0" * 31 + "\x80",  # non-ASCII base32
            "magnet:?xt=urn:btih:" + "00" * 20 + "&xl=notanumber",
            "magnet:?xt=urn:btih:" + "00" * 20 + "&xl=-2",
        ],
    )
    def test_malformed_uris_rejected(self, uri):
        with pytest.raises(MagnetError):
            parse_magnet(uri)


class TestPortalMagnetOnly:
    def _portal(self):
        from repro.portal.portal import Portal, PortalConfig

        return Portal(PortalConfig(name="TestBay"), metrics=MetricsRegistry())

    def _publish(self, portal, **overrides):
        from repro.portal import Category

        kwargs = dict(
            time=1.0,
            title="some.release",
            category=Category.MOVIES,
            size_bytes=1000,
            username="uploader",
            description="",
            torrent_bytes=b"d4:infod4:name1:xee",
        )
        kwargs.update(overrides)
        return portal.publish(**kwargs)

    def test_magnet_only_item_serves_magnet_not_torrent(self):
        portal = self._portal()
        uri = build_magnet(INFOHASH, name="some.release")
        torrent_id = self._publish(portal, magnet_uri=uri, magnet_only=True)
        assert portal.get_torrent_file(torrent_id, now=2.0) is None
        assert portal.get_magnet(torrent_id, now=2.0) == uri

    def test_regular_item_serves_torrent_file(self):
        portal = self._portal()
        torrent_id = self._publish(portal)
        assert portal.get_torrent_file(torrent_id, now=2.0) is not None
        assert portal.get_magnet(torrent_id, now=2.0) is None

    def test_magnet_only_requires_magnet_uri(self):
        portal = self._portal()
        with pytest.raises(ValueError):
            self._publish(portal, magnet_only=True)
