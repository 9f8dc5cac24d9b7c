"""Unit tests for .torrent metainfo build/parse."""

import hashlib
import tracemalloc

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
        assert len(meta.files) == 1
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
        assert len(meta.files) == 2
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

    @pytest.mark.parametrize(
        "wire, field",
        [
            (
                b"d8:announcei1e4:infod6:lengthi5e4:name1:a"
                b"12:piece lengthi16e6:pieces20:xxxxxxxxxxxxxxxxxxxxee",
                "'announce'",
            ),
            (
                b"d8:announce1:u4:infod6:lengthi5e4:namei1e"
                b"12:piece lengthi16e6:pieces20:xxxxxxxxxxxxxxxxxxxxee",
                "'name'",
            ),
            (
                b"d8:announce1:u4:infod5:filesld6:lengthi5e4:pathli1eeee"
                b"4:name1:a12:piece lengthi16e6:pieces20:xxxxxxxxxxxxxxxxxxxxee",
                "file path item",
            ),
        ],
        ids=["announce", "name", "path"],
    )
    def test_parse_non_bytes_text_field(self, wire, field):
        with pytest.raises(MetainfoError, match=f"{field} must be a byte string"):
            parse_torrent(wire)


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


_bencodable = st.recursive(
    st.integers(min_value=-(10**20), max_value=10**20) | st.binary(max_size=24),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.binary(max_size=12), children, max_size=4),
    max_leaves=10,
)
# Every field parse_torrent reads, as a path into the decoded dict.
_FIELD_PATHS = [
    (b"announce",),
    (b"comment",),
    (b"info",),
    (b"info", b"name"),
    (b"info", b"piece length"),
    (b"info", b"pieces"),
    (b"info", b"length"),
    (b"info", b"files"),
    (b"info", b"files", 0),
    (b"info", b"files", 0, b"length"),
    (b"info", b"files", 0, b"path"),
    (b"info", b"files", 0, b"path", 0),
]


def _parses_or_rejects(data):
    try:
        parse_torrent(data)
    except MetainfoError:
        pass


@given(st.binary(max_size=200))
def test_only_metainfo_error_escapes_arbitrary_bytes(data):
    _parses_or_rejects(data)


@given(
    multi_file=st.booleans(),
    path=st.sampled_from(_FIELD_PATHS),
    value=_bencodable,
)
def test_only_metainfo_error_escapes_one_replaced_field(multi_file, path, value):
    # Paths into files[0] exist only in multi-file torrents.
    extra = [TorrentFile("promo.txt", 10)] if multi_file or len(path) > 2 else None
    decoded = bdecode(
        build_torrent(ANNOUNCE, "x", 1_000, extra_files=extra, comment="c")
    )
    container = decoded
    for step in path[:-1]:
        container = container[step]
    container[path[-1]] = value
    _parses_or_rejects(bencode(decoded))


class TestPieceDerivation:
    """The prefix-reuse rewrite of ``_derive_pieces`` must be bit-identical
    to the original per-piece ``sha1(piece_payload(name, index))`` formula,
    and a build holds its piece hashes once, in the metainfo bytes."""

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

    def test_build_torrent_unaffected_by_cache_state(self):
        first = build_torrent(ANNOUNCE, "cache.probe", 1_000_000)
        second = build_torrent(ANNOUNCE, "cache.probe", 1_000_000)
        assert first == second

    def test_piece_hashes_are_held_once(self):
        # ~20 KB of piece hashes per torrent.  A second copy held anywhere
        # in the process (a cache of derived blobs, say) doubles what the
        # builds retain beyond the bytes the caller keeps.
        build_torrent(ANNOUNCE, "held.once.warmup", 1_000 * 256 * 1024)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [build_torrent(ANNOUNCE, f"held.once.{i}", 1_000 * 256 * 1024)
                    for i in range(8)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        total = sum(len(data) for data in kept)
        assert total > 8 * 1_000 * 20
        assert retained < 1.5 * total
