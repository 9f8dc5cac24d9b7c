"""Unit tests for .torrent metainfo build/parse."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bencode import bdecode, bencode
from repro.torrent import (
    MetainfoError,
    TorrentFile,
    build_torrent,
    parse_torrent,
)
from repro.torrent.metainfo import (
    PIECE_PAYLOAD_BYTES,
    _derive_pieces,
    piece_payload,
)

ANNOUNCE = "http://tracker.example/announce"


class TestBuildParse:
    def test_roundtrip_single_file(self):
        data = build_torrent(ANNOUNCE, "My.Release.2010", 700_000_000)
        meta = parse_torrent(data)
        assert meta.announce == ANNOUNCE
        assert meta.name == "My.Release.2010"
        assert meta.total_length == 700_000_000
        assert not meta.is_multi_file
        assert meta.files == [TorrentFile("My.Release.2010", 700_000_000)]

    def test_num_pieces_matches_size(self):
        piece = 256 * 1024
        meta = parse_torrent(build_torrent(ANNOUNCE, "x", piece * 10))
        assert meta.num_pieces == 10
        meta = parse_torrent(build_torrent(ANNOUNCE, "x", piece * 10 + 1))
        assert meta.num_pieces == 11

    def test_infohash_is_sha1_of_info_dict(self):
        data = build_torrent(ANNOUNCE, "x", 1_000)
        decoded = bdecode(data)
        expected = hashlib.sha1(bencode(decoded[b"info"])).digest()
        assert parse_torrent(data).infohash == expected

    def test_infohash_deterministic_for_same_content(self):
        a = parse_torrent(build_torrent(ANNOUNCE, "same", 5_000))
        b = parse_torrent(build_torrent(ANNOUNCE, "same", 5_000))
        assert a.infohash == b.infohash

    def test_infohash_differs_for_different_names(self):
        a = parse_torrent(build_torrent(ANNOUNCE, "one", 5_000))
        b = parse_torrent(build_torrent(ANNOUNCE, "two", 5_000))
        assert a.infohash != b.infohash

    def test_multi_file_with_promo(self):
        extra = [TorrentFile("Downloaded_From_example.com.txt", 1_000)]
        meta = parse_torrent(
            build_torrent(ANNOUNCE, "Movie", 100_000, extra_files=extra)
        )
        assert meta.is_multi_file
        assert meta.total_length == 101_000
        assert [f.path for f in meta.files] == [
            "Movie",
            "Downloaded_From_example.com.txt",
        ]

    def test_comment_roundtrip(self):
        meta = parse_torrent(
            build_torrent(ANNOUNCE, "x", 1_000, comment="visit example.com")
        )
        assert meta.comment == "visit example.com"

    def test_infohash_hex(self):
        meta = parse_torrent(build_torrent(ANNOUNCE, "x", 1_000))
        assert meta.infohash_hex == meta.infohash.hex()
        assert len(meta.infohash) == 20


class TestValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(MetainfoError):
            build_torrent(ANNOUNCE, "x", 0)

    def test_empty_name_rejected(self):
        with pytest.raises(MetainfoError):
            build_torrent(ANNOUNCE, "", 100)

    def test_empty_announce_rejected(self):
        with pytest.raises(MetainfoError):
            build_torrent("", "x", 100)

    def test_bad_piece_length_rejected(self):
        with pytest.raises(MetainfoError):
            build_torrent(ANNOUNCE, "x", 100, piece_length=0)

    def test_parse_garbage(self):
        with pytest.raises(MetainfoError, match="bencoded"):
            parse_torrent(b"this is not a torrent")

    def test_parse_non_dict(self):
        with pytest.raises(MetainfoError, match="dictionary"):
            parse_torrent(bencode([1, 2]))

    def test_parse_missing_announce(self):
        data = bencode({"info": {"name": "x", "piece length": 1, "pieces": b"0" * 20}})
        with pytest.raises(MetainfoError, match="announce"):
            parse_torrent(data)

    def test_parse_missing_info(self):
        with pytest.raises(MetainfoError, match="info"):
            parse_torrent(bencode({"announce": ANNOUNCE}))

    def test_parse_bad_pieces_length(self):
        data = bencode(
            {
                "announce": ANNOUNCE,
                "info": {"length": 5, "name": "x", "piece length": 1,
                         "pieces": b"short"},
            }
        )
        with pytest.raises(MetainfoError, match="pieces"):
            parse_torrent(data)

    def test_parse_missing_length_and_files(self):
        data = bencode(
            {
                "announce": ANNOUNCE,
                "info": {"name": "x", "piece length": 1, "pieces": b"0" * 20},
            }
        )
        with pytest.raises(MetainfoError, match="length"):
            parse_torrent(data)


@given(
    name=st.text(min_size=1, max_size=30).filter(lambda s: s.strip()),
    # Cap the size: piece-hash derivation is O(size / piece_length).
    size=st.integers(min_value=1, max_value=10**9),
)
def test_roundtrip_property(name, size):
    meta = parse_torrent(build_torrent(ANNOUNCE, name, size))
    assert meta.total_length == size
    assert meta.num_pieces == max(1, -(-size // (256 * 1024)))
    assert len(meta.infohash) == 20


class TestPieceDerivation:
    """The prefix-reuse rewrite of ``_derive_pieces`` must be bit-identical
    to the original per-piece ``sha1(piece_payload(name, index))`` formula,
    and the LRU in front of it must never change results, only cost."""

    @staticmethod
    def _reference_pieces(name, total_length, piece_length):
        # The pre-optimisation implementation, inlined: one independent
        # sha256(name + "\x00" + index) seed per piece, repeated/truncated
        # to PIECE_PAYLOAD_BYTES, then sha1-hashed.
        num_pieces = max(1, -(-total_length // piece_length))
        digests = []
        for index in range(num_pieces):
            seed = hashlib.sha256(f"{name}\x00{index}".encode("utf-8")).digest()
            repeats = -(-PIECE_PAYLOAD_BYTES // len(seed))
            payload = (seed * repeats)[:PIECE_PAYLOAD_BYTES]
            digests.append(hashlib.sha1(payload).digest())
        return b"".join(digests)

    @pytest.mark.parametrize(
        "name,total_length,piece_length",
        [
            ("x", 1, 1),
            ("My.Release.2010", 256 * 1024 * 10, 256 * 1024),
            ("My.Release.2010", 256 * 1024 * 10 + 1, 256 * 1024),
            ("exact.one.piece", 4096, 4096),
            ("tiny.piece.len", 10_000, 7),  # 1,429 pieces: enough to split
            ("café über 中文", 1_000_000, 16_384),
            ("name with spaces\x00and.nul", 123_456, 32_768),
        ],
    )
    def test_bit_identical_to_original_formula(
        self, name, total_length, piece_length
    ):
        _derive_pieces.cache_clear()
        assert _derive_pieces(name, total_length, piece_length) == (
            self._reference_pieces(name, total_length, piece_length)
        )

    @given(
        name=st.text(min_size=1, max_size=20),
        num_pieces=st.integers(min_value=1, max_value=12),
        piece_length=st.integers(min_value=1, max_value=100_000),
    )
    def test_bit_identical_property(self, name, num_pieces, piece_length):
        total_length = num_pieces * piece_length
        assert _derive_pieces(name, total_length, piece_length) == (
            self._reference_pieces(name, total_length, piece_length)
        )

    def test_pieces_agree_with_piece_payload(self):
        pieces = _derive_pieces("agree", 4 * 1024 * 4, 4 * 1024)
        for index in range(4):
            expected = hashlib.sha1(piece_payload("agree", index)).digest()
            assert pieces[index * 20 : (index + 1) * 20] == expected

    def test_lru_cache_hit_returns_same_bytes(self):
        _derive_pieces.cache_clear()
        first = _derive_pieces("cached", 256 * 1024 * 3, 256 * 1024)
        before = _derive_pieces.cache_info().hits
        second = _derive_pieces("cached", 256 * 1024 * 3, 256 * 1024)
        assert second == first
        assert _derive_pieces.cache_info().hits == before + 1

    def test_build_torrent_unaffected_by_cache_state(self):
        _derive_pieces.cache_clear()
        cold = build_torrent(ANNOUNCE, "cache.probe", 1_000_000)
        warm = build_torrent(ANNOUNCE, "cache.probe", 1_000_000)
        assert cold == warm
