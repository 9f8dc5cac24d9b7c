"""Build and parse .torrent metainfo files (BEP 3 subset used by the study).

A metainfo file is a bencoded dictionary with (at least):

- ``announce``: tracker URL
- ``info``: dict with ``name``, ``piece length``, ``pieces`` (20 bytes per
  piece, SHA-1 of each piece), and either ``length`` (single file) or
  ``files`` (multi-file).

The *infohash* -- SHA-1 of the canonical bencoding of the ``info`` dict -- is
the swarm identifier that the tracker keys on.  The simulator does not store
real content bytes; piece hashes are deterministically derived from the
content identity, which preserves everything the measurement pipeline relies
on (stable infohash, piece count, name, bundled file names).

Bundled file names matter to the study: one of the three promo-URL placements
the paper found is "name of a text file that is distributed with the actual
content" (Section 5), so multi-file torrents here can carry such a file.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Union

from repro.bencode import BencodeError, bdecode, bencode

DEFAULT_PIECE_LENGTH = 256 * 1024  # 256 KiB, the common default in 2010.


class MetainfoError(ValueError):
    """Raised when a .torrent file is structurally invalid."""


@dataclass(frozen=True)
class TorrentFile:
    """One file inside a (possibly multi-file) torrent."""

    path: str
    length: int


@dataclass(frozen=True)
class TorrentMeta:
    """Parsed view of a .torrent file."""

    announce: str
    name: str
    piece_length: int
    num_pieces: int
    total_length: int
    infohash: bytes
    files: List[TorrentFile] = field(default_factory=list)
    comment: Optional[str] = None


# Size of the materialised stand-in block for each piece.  Real pieces are
# piece_length bytes; simulated transfers exchange this compact stand-in,
# whose SHA-1 is what the metainfo's `pieces` field records, so the
# hash-verification code path works end to end without storing gigabytes.
PIECE_PAYLOAD_BYTES = 1024


def piece_payload(name: str, index: int) -> bytes:
    """The canonical (authentic) stand-in bytes of one piece.

    Deterministic in ``(name, index)``: the same logical content always
    yields the same bytes, hence the same piece hashes and infohash.
    """
    seed = hashlib.sha256(f"{name}\x00{index}".encode("utf-8")).digest()
    repeats = -(-PIECE_PAYLOAD_BYTES // len(seed))
    return (seed * repeats)[:PIECE_PAYLOAD_BYTES]


# Split a torrent's pieces between this process and the helper only when
# each half's hashing dwarfs the pipe round trip.  On an idle 2-vCPU VM
# (Python 3.11.7), a one-piece request and its 20-byte reply took ~18 us
# and one piece ~1.9 us, so at 512 pieces each half hashes for ~0.5 ms,
# about 27 round trips.  The median torrent of a `tiny` world holds ~1,700.
_SPLIT_MIN_PIECES = 512

_PIPE_ERRORS = (EOFError, ConnectionResetError, BrokenPipeError)


def _hash_pieces(name: str, start: int, stop: int) -> bytes:
    """SHA-1 over the canonical stand-in payload of pieces ``[start, stop)``.

    Instead of calling :func:`piece_payload` per piece -- which re-hashes
    the name every time -- this hashes the shared ``sha256(name + b"\x00")``
    prefix once and extends a ``.copy()`` of it with each index.  UTF-8
    concatenates codepoint-wise, so the seeds (and therefore the piece
    hashes and every infohash) are bit-identical to the per-piece
    formulation; a regression test holds the equivalence against the
    original implementation.  ``PIECE_PAYLOAD_BYTES`` is a whole number of
    SHA-256 digests, so each payload is its seed repeated, never truncated.
    """
    prefix = hashlib.sha256(name.encode("utf-8") + b"\x00")
    repeats = PIECE_PAYLOAD_BYTES // prefix.digest_size
    sha1 = hashlib.sha1
    copy = prefix.copy
    digests = []
    append = digests.append
    for index in range(start, stop):
        h = copy()
        h.update(b"%d" % index)
        append(sha1(h.digest() * repeats).digest())
    return b"".join(digests)


class _Helper(NamedTuple):
    """The helper process and this process's end of the pipe to it."""

    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection


# The one helper of this process: None until the first large torrent,
# False once this process may not (or can no longer) use one.
_helper: Union[_Helper, bool, None] = None
_helper_lock = threading.Lock()


def _serve(conn: multiprocessing.connection.Connection) -> None:
    """The helper's loop: hash each requested range until the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            name, start, stop = conn.recv()
            conn.send_bytes(_hash_pieces(name, start, stop))
        except _PIPE_ERRORS:
            return


def _may_start_helper() -> bool:
    """Only a top-level process with a CPU to spare starts a helper.

    Sweep pool workers already keep every CPU busy.
    """
    if multiprocessing.parent_process() is not None:
        return False
    try:
        if len(os.sched_getaffinity(0)) < 2:
            return False
    except AttributeError:  # no affinity API on this platform
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def _start_helper() -> Union[_Helper, bool]:
    global _helper
    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()
    # Published before the fork, so that the at-fork hook closes this end in
    # the helper too.  This process is then its only holder, and its death,
    # even by SIGKILL, leaves the helper at EOF.
    _helper = _Helper(context.Process(target=_serve, args=(child_conn,),
                                      daemon=True, name="repro-piece-hasher"),
                      conn)
    try:
        _helper.process.start()
    except OSError:
        conn.close()
        _helper = False
    finally:
        child_conn.close()
    return _helper


def _stop_helper() -> None:
    """Close the pipe, reap the helper and never start another."""
    global _helper
    helper, _helper = _helper, False
    if helper:
        helper.conn.close()
        helper.process.join(timeout=1.0)


def _forget_helper_after_fork() -> None:
    """In a forked child, close and forget the parent's end of the pipe.

    The child is not the helper's parent: it must not use the pipe, and at
    exit it must not terminate the helper as one of its own daemon children.
    """
    global _helper
    helper, _helper = _helper, None
    if helper:
        helper.conn.close()
        multiprocessing.process._children.discard(helper.process)


os.register_at_fork(after_in_child=_forget_helper_after_fork)


def _derive_pieces(name: str, total_length: int, piece_length: int) -> bytes:
    """Piece hashes: SHA-1 over each piece's canonical stand-in payload.

    Hashing the *materialisable* payload (rather than content we never
    store) keeps the full verification chain real: a peer can serve
    :func:`piece_payload` bytes and a downloader can check them against the
    metainfo, exactly as BitTorrent clients detect fake/corrupt content.

    This is the single hottest loop of world generation (millions of pieces
    per campaign).  A torrent of at least ``_SPLIT_MIN_PIECES`` pieces is
    hashed on two CPUs: the helper process hashes the upper half of the
    range while this process hashes the lower half, both with
    :func:`_hash_pieces`, so the bytes are those of the serial call.
    """
    global _helper
    num_pieces = max(1, -(-total_length // piece_length))
    if num_pieces < _SPLIT_MIN_PIECES or not _helper_lock.acquire(blocking=False):
        return _hash_pieces(name, 0, num_pieces)
    try:
        if _helper is None:
            _helper = _start_helper() if _may_start_helper() else False
        if not _helper:
            return _hash_pieces(name, 0, num_pieces)
        conn = _helper.conn
        half = num_pieces // 2
        try:
            conn.send((name, half, num_pieces))
        except _PIPE_ERRORS:
            _stop_helper()
            return _hash_pieces(name, 0, num_pieces)
        try:
            lower = _hash_pieces(name, 0, half)
            upper = conn.recv_bytes()
        except _PIPE_ERRORS:
            _stop_helper()
            upper = _hash_pieces(name, half, num_pieces)
        except BaseException:
            # An interrupted call would leave its reply for the next one.
            _stop_helper()
            raise
        return lower + upper
    finally:
        _helper_lock.release()


def build_torrent(
    announce: str,
    name: str,
    total_length: int,
    piece_length: int = DEFAULT_PIECE_LENGTH,
    extra_files: Optional[List[TorrentFile]] = None,
    comment: Optional[str] = None,
) -> bytes:
    """Build .torrent bytes for a (simulated) content item.

    ``extra_files`` turns the torrent into a multi-file torrent whose first
    entry is the main content and whose remaining entries are bundled files
    (e.g. a ``visit-www.example.com.txt`` promo file).
    """
    if total_length <= 0:
        raise MetainfoError(f"total_length must be > 0, got {total_length}")
    if piece_length <= 0:
        raise MetainfoError(f"piece_length must be > 0, got {piece_length}")
    if not announce:
        raise MetainfoError("announce URL must be non-empty")
    if not name:
        raise MetainfoError("name must be non-empty")

    info: Dict[str, object] = {
        "name": name,
        "piece length": piece_length,
        "pieces": _derive_pieces(name, total_length, piece_length),
    }
    if extra_files:
        files = [{"length": total_length, "path": [name]}]
        for extra in extra_files:
            if extra.length < 0:
                raise MetainfoError(f"file length must be >= 0: {extra}")
            files.append({"length": extra.length, "path": extra.path.split("/")})
        info["files"] = files
    else:
        info["length"] = total_length

    meta: Dict[str, object] = {"announce": announce, "info": info}
    if comment:
        meta["comment"] = comment
    return bencode(meta)


def _text(value: object, field_name: str) -> str:
    """A metainfo byte-string field as text; MetainfoError if not bytes."""
    if not isinstance(value, bytes):
        raise MetainfoError(
            f"{field_name} must be a byte string, not {type(value).__name__}"
        )
    return value.decode("utf-8", errors="replace")


def parse_torrent(data: bytes) -> TorrentMeta:
    """Parse .torrent bytes into a :class:`TorrentMeta`.

    The infohash is computed by re-encoding the decoded ``info`` dict; because
    our codec is strict/canonical this equals SHA-1 over the original
    ``info`` substring.
    """
    try:
        decoded = bdecode(data)
    except BencodeError as exc:
        raise MetainfoError(f"not a bencoded file: {exc}") from exc
    if not isinstance(decoded, dict):
        raise MetainfoError("top-level value must be a dictionary")
    if b"announce" not in decoded:
        raise MetainfoError("missing 'announce'")
    if b"info" not in decoded:
        raise MetainfoError("missing 'info'")
    info = decoded[b"info"]
    if not isinstance(info, dict):
        raise MetainfoError("'info' must be a dictionary")
    for key in (b"name", b"piece length", b"pieces"):
        if key not in info:
            raise MetainfoError(f"info dict missing {key.decode()!r}")

    name = _text(info[b"name"], "'name'")
    piece_length = info[b"piece length"]
    pieces = info[b"pieces"]
    if not isinstance(piece_length, int) or piece_length <= 0:
        raise MetainfoError(f"invalid piece length {piece_length!r}")
    if not isinstance(pieces, bytes) or len(pieces) % 20 != 0 or not pieces:
        raise MetainfoError("'pieces' must be a non-empty multiple of 20 bytes")

    files: List[TorrentFile] = []
    if b"files" in info:
        raw_files = info[b"files"]
        if not isinstance(raw_files, list) or not raw_files:
            raise MetainfoError("'files' must be a non-empty list")
        total = 0
        for entry in raw_files:
            if not isinstance(entry, dict):
                raise MetainfoError("file entry must be a dictionary")
            length = entry.get(b"length")
            path = entry.get(b"path")
            if not isinstance(length, int) or length < 0:
                raise MetainfoError(f"invalid file length {length!r}")
            if not isinstance(path, list) or not path:
                raise MetainfoError("file path must be a non-empty list")
            joined = "/".join(_text(p, "file path item") for p in path)
            files.append(TorrentFile(path=joined, length=length))
            total += length
        total_length = total
    elif b"length" in info:
        total_length = info[b"length"]
        if not isinstance(total_length, int) or total_length <= 0:
            raise MetainfoError(f"invalid length {total_length!r}")
        files.append(TorrentFile(path=name, length=total_length))
    else:
        raise MetainfoError("info dict needs 'length' or 'files'")

    comment = None
    if b"comment" in decoded and isinstance(decoded[b"comment"], bytes):
        comment = decoded[b"comment"].decode("utf-8", errors="replace")

    return TorrentMeta(
        announce=_text(decoded[b"announce"], "'announce'"),
        name=name,
        piece_length=piece_length,
        num_pieces=len(pieces) // 20,
        total_length=total_length,
        infohash=hashlib.sha1(bencode(info)).digest(),
        files=files,
        comment=comment,
    )
