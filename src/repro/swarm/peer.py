"""Peer sessions: one interval of one peer's presence in one swarm.

A session is the unit the tracker sees (a peer announcing, staying, leaving)
and the unit the paper's Appendix A reconstructs from sampled tracker
responses.  A publisher that seeds a torrent in several sittings contributes
several sessions with the same IP.
"""

from __future__ import annotations

from typing import Optional


class PeerSession:
    """One contiguous presence interval of a peer in a swarm.

    ``complete_time`` is when the peer finishes downloading and flips from
    leecher to seeder; ``None`` means it leaves before completing.  A session
    that is a seeder from the start (the publisher, or a peer re-joining to
    seed) has ``complete_time == join_time``.

    ``natted`` peers announce to the tracker normally (so they appear in peer
    lists and counts) but cannot accept incoming connections -- which is what
    defeats the crawler's bitfield probe in the paper.
    """

    __slots__ = (
        "ip",
        "join_time",
        "leave_time",
        "complete_time",
        "natted",
        "is_publisher",
        "serves_garbage",
        "_active_index",
        "_seeding_now",
    )

    def __init__(
        self,
        ip: int,
        join_time: float,
        leave_time: float,
        complete_time: Optional[float] = None,
        natted: bool = False,
        is_publisher: bool = False,
        serves_garbage: bool = False,
    ) -> None:
        if leave_time < join_time:
            raise ValueError(
                f"leave_time {leave_time} before join_time {join_time}"
            )
        if complete_time is not None and complete_time < join_time:
            raise ValueError(
                f"complete_time {complete_time} before join_time {join_time}"
            )
        self.ip = ip
        self.join_time = join_time
        self.leave_time = leave_time
        self.complete_time = complete_time
        self.natted = natted
        self.is_publisher = is_publisher
        # Fake publishers serve bytes that do not match the metainfo's piece
        # hashes -- content verification (BEP 3 hash check) exposes them.
        self.serves_garbage = serves_garbage
        # Incremental swarm-state bookkeeping (managed by Swarm).
        self._active_index: int = -1
        self._seeding_now: bool = False

    @property
    def duration(self) -> float:
        return self.leave_time - self.join_time

    def progress_at(self, t: float) -> float:
        """Download progress in [0, 1] at time ``t``.

        Leechers progress linearly from join to completion; sessions that
        never complete asymptote below 1 (they leave early).  This drives the
        bitfields the crawler probes: only a finished peer has a full one.
        """
        if t < self.join_time:
            return 0.0
        if self.complete_time is not None:
            if t >= self.complete_time:
                return 1.0
            span = self.complete_time - self.join_time
            if span <= 0:
                return 1.0
            return (t - self.join_time) / span
        # Never completes: crawl toward ~80% over the session, never 1.0.
        span = self.leave_time - self.join_time
        if span <= 0:
            return 0.0
        return min(0.8 * (t - self.join_time) / span, 0.99)

    def __repr__(self) -> str:
        role = "publisher" if self.is_publisher else "peer"
        return (
            f"PeerSession({role} ip={self.ip} "
            f"[{self.join_time:.0f}, {self.leave_time:.0f}]m)"
        )
