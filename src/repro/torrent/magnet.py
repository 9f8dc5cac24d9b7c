"""Magnet links (BEP 9 URI scheme): infohash-only torrent references.

A magnet link carries just enough to join a swarm without a ``.torrent``
file: the infohash (``xt=urn:btih:...``), optionally a display name
(``dn``), an exact length (``xl``) and tracker URLs (``tr``).  Trackerless
publications put *only* the infohash + name on the portal; a client then
resolves peers via the DHT and fetches metadata from them (BEP 9), which is
exactly the discovery path :mod:`repro.core.dht_crawler` models.

Only the hex form of ``btih`` is emitted; the parser additionally accepts
the (older) 32-character base32 form real-world links still use.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from typing import Optional, Tuple
from urllib.parse import parse_qsl, quote, urlencode

INFOHASH_BYTES = 20
_BTIH_PREFIX = "urn:btih:"


class MagnetError(ValueError):
    """A URI that is not a well-formed BitTorrent magnet link."""


@dataclass(frozen=True)
class MagnetLink:
    """A parsed magnet link."""

    infohash: bytes
    display_name: Optional[str] = None
    trackers: Tuple[str, ...] = ()
    exact_length: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.infohash) != INFOHASH_BYTES:
            raise MagnetError(
                f"infohash must be {INFOHASH_BYTES} bytes, got {len(self.infohash)}"
            )

    @property
    def uri(self) -> str:
        return build_magnet(
            self.infohash,
            name=self.display_name,
            trackers=self.trackers,
            length=self.exact_length,
        )


def build_magnet(
    infohash: bytes,
    name: Optional[str] = None,
    trackers: Tuple[str, ...] = (),
    length: Optional[int] = None,
) -> str:
    """Render a ``magnet:?xt=urn:btih:...`` URI."""
    if not isinstance(infohash, bytes) or len(infohash) != INFOHASH_BYTES:
        raise MagnetError("infohash must be 20 bytes")
    parts = [("xt", _BTIH_PREFIX + infohash.hex())]
    if name is not None:
        parts.append(("dn", name))
    if length is not None:
        if length < 0:
            raise MagnetError(f"exact length cannot be negative ({length})")
        parts.append(("xl", str(length)))
    parts.extend(("tr", tracker) for tracker in trackers)
    # ':' stays literal so the xt value reads "urn:btih:..." like real links.
    return "magnet:?" + urlencode(parts, safe=":", quote_via=quote)


def parse_magnet(uri: str) -> MagnetLink:
    """Parse a magnet URI; raises :class:`MagnetError` when malformed."""
    if not uri.startswith("magnet:?"):
        raise MagnetError(f"not a magnet URI: {uri[:40]!r}")
    params = parse_qsl(uri[len("magnet:?") :], keep_blank_values=True)
    infohash: Optional[bytes] = None
    name: Optional[str] = None
    length: Optional[int] = None
    trackers = []
    for key, value in params:
        if key == "xt":
            if not value.startswith(_BTIH_PREFIX):
                raise MagnetError(f"unsupported exact topic {value!r}")
            infohash = _decode_btih(value[len(_BTIH_PREFIX) :])
        elif key == "dn":
            name = value
        elif key == "xl":
            try:
                length = int(value)
            except ValueError as exc:
                raise MagnetError(f"bad exact length {value!r}") from exc
            if length < 0:
                raise MagnetError(f"bad exact length {value!r}")
        elif key == "tr":
            trackers.append(value)
        # Unknown parameters (ws, x.pe, ...) are ignored, as clients do.
    if infohash is None:
        raise MagnetError("magnet URI carries no btih exact topic")
    return MagnetLink(
        infohash=infohash,
        display_name=name,
        trackers=tuple(trackers),
        exact_length=length,
    )


def _decode_btih(encoded: str) -> bytes:
    if len(encoded) == 40:
        try:
            return binascii.unhexlify(encoded)
        except (binascii.Error, ValueError) as exc:
            raise MagnetError(f"bad hex infohash {encoded!r}") from exc
    if len(encoded) == 32:
        try:
            return base64.b32decode(encoded.upper())
        except ValueError as exc:  # binascii.Error, or a non-ASCII topic
            raise MagnetError(f"bad base32 infohash {encoded!r}") from exc
    raise MagnetError(f"infohash must be 40 hex or 32 base32 chars, got {len(encoded)}")
