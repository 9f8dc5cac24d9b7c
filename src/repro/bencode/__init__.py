"""Bencoding -- BitTorrent's wire serialisation format (BEP 3).

One strict, plain recursive encoder/decoder with a nesting-depth limit.
The torrent metainfo layer is built on it, and so are the tracker and KRPC
messages that the fixed-shape templates in :mod:`repro.tracker.protocol`
and :mod:`repro.dht.krpc` do not cover, so the crawler parses real
bencoded bytes exactly as it would against a live tracker.
"""

from repro.bencode.codec import BencodeError, bdecode, bencode

__all__ = ["BencodeError", "bdecode", "bencode"]
