"""Incremental swarm state: answer time-ordered tracker queries efficiently.

The tracker polls each swarm every 10--18 simulated minutes for days or
weeks.  To keep that cheap, the swarm pre-sorts its sessions by join /
completion / departure time and advances three cursors monotonically; each
query costs O(state transitions since last query + sample size), never
O(total sessions).

Non-monotonic inspection (the content verifier, and tests) goes through
:meth:`Swarm.sessions_at`, which is a plain O(n) scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.observability import MetricsRegistry
from repro.swarm.peer import PeerSession


@dataclass(frozen=True)
class SwarmSnapshot:
    """What the tracker learns about a swarm at one instant."""

    time: float
    num_seeders: int
    num_leechers: int
    peers: List[PeerSession]

    @property
    def size(self) -> int:
        return self.num_seeders + self.num_leechers


class Swarm:
    """All peer sessions of one torrent, with incremental active-set tracking."""

    def __init__(
        self,
        infohash: bytes,
        birth_time: float,
        *,
        metrics: MetricsRegistry,
    ) -> None:
        if len(infohash) != 20:
            raise ValueError(f"infohash must be 20 bytes, got {len(infohash)}")
        self.infohash = infohash
        self.birth_time = birth_time
        # Aggregated across all swarms of the run: arrivals/departures/seeder
        # flips as the tracker's monotonic queries sweep each timeline.
        self._m_arrivals = metrics.counter("swarm.arrivals").labels()
        self._m_departures = metrics.counter("swarm.departures").labels()
        self._m_completions = metrics.counter("swarm.completions").labels()
        self._m_queries = metrics.counter("swarm.queries").labels()
        self._m_active = metrics.histogram("swarm.active_peers").labels()
        self._sessions: List[PeerSession] = []
        self._frozen = False
        # Incremental state (valid once frozen).
        self._active: List[PeerSession] = []
        self._num_seeders = 0
        self.completions_so_far = 0  # drives the scrape 'downloaded' counter
        self._by_join: List[PeerSession] = []
        self._by_complete: List[PeerSession] = []
        self._by_leave: List[PeerSession] = []
        self._join_cursor = 0
        self._complete_cursor = 0
        self._leave_cursor = 0
        self._last_query_time = float("-inf")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_session(self, session: PeerSession) -> None:
        if self._frozen:
            raise RuntimeError("swarm already frozen; cannot add sessions")
        self._sessions.append(session)

    def add_sessions(self, sessions: Sequence[PeerSession]) -> None:
        for session in sessions:
            self.add_session(session)

    def freeze(self) -> None:
        """Sort the timeline; the swarm then becomes queryable."""
        if self._frozen:
            return
        self._frozen = True
        self._by_join = sorted(self._sessions, key=lambda s: s.join_time)
        self._by_complete = sorted(
            (s for s in self._sessions if s.complete_time is not None),
            key=lambda s: s.complete_time,  # type: ignore[arg-type, return-value]
        )
        self._by_leave = sorted(self._sessions, key=lambda s: s.leave_time)

    @property
    def all_sessions(self) -> List[PeerSession]:
        return list(self._sessions)

    # ------------------------------------------------------------------
    # Incremental query path (tracker-facing)
    # ------------------------------------------------------------------
    def _advance(self, t: float) -> None:
        if not self._frozen:
            self.freeze()
        if t < self._last_query_time:
            raise ValueError(
                f"swarm queries must be time-ordered: "
                f"{self._last_query_time:.2f} then {t:.2f}"
            )
        self._last_query_time = t
        # Joins: session becomes active.
        joins = self._by_join
        while self._join_cursor < len(joins) and joins[self._join_cursor].join_time <= t:
            session = joins[self._join_cursor]
            self._join_cursor += 1
            if session.leave_time <= t:
                continue  # joined and left between queries; never visible
            session._active_index = len(self._active)
            self._active.append(session)
            self._m_arrivals.inc()
            if session.complete_time is not None and session.complete_time <= t:
                session._seeding_now = True
                self._num_seeders += 1
        # Completions: active leecher flips to seeder.
        comps = self._by_complete
        while (
            self._complete_cursor < len(comps)
            and comps[self._complete_cursor].complete_time <= t  # type: ignore[operator]
        ):
            session = comps[self._complete_cursor]
            self._complete_cursor += 1
            if not session.is_publisher:
                self.completions_so_far += 1
                self._m_completions.inc()
            if session._active_index >= 0 and not session._seeding_now:
                session._seeding_now = True
                self._num_seeders += 1
        # Departures: swap-remove from the active list.
        leaves = self._by_leave
        while (
            self._leave_cursor < len(leaves)
            and leaves[self._leave_cursor].leave_time <= t
        ):
            session = leaves[self._leave_cursor]
            self._leave_cursor += 1
            index = session._active_index
            if index < 0:
                continue  # never became visible
            last = self._active[-1]
            self._active[index] = last
            last._active_index = index
            self._active.pop()
            session._active_index = -1
            self._m_departures.inc()
            if session._seeding_now:
                session._seeding_now = False
                self._num_seeders -= 1

    def query(
        self, t: float, max_peers: int, rng: random.Random
    ) -> SwarmSnapshot:
        """Tracker view at time ``t``: counts plus <= ``max_peers`` random peers.

        This is the random-W-of-N sampling that Appendix A of the paper
        models; the randomness comes from the supplied RNG so whole crawls
        are reproducible.
        """
        if max_peers < 0:
            raise ValueError(f"max_peers must be >= 0, got {max_peers}")
        self._advance(t)
        self._m_queries.inc()
        self._m_active.observe(len(self._active))
        active = self._active
        if len(active) <= max_peers:
            sample = list(active)
        else:
            sample = rng.sample(active, max_peers)
        return SwarmSnapshot(
            time=t,
            num_seeders=self._num_seeders,
            num_leechers=len(active) - self._num_seeders,
            peers=sample,
        )

    def find_connectable(self, ip: int, t: float) -> Optional[PeerSession]:
        """Locate a currently-active, non-NATed session with ``ip``.

        Used by the peer-wire probe path: a NATed peer is present in tracker
        responses but refuses (cannot receive) the connection.  Returns None
        if the peer is absent or unreachable.  O(active) -- probes only
        happen at torrent birth when swarms are small.
        """
        self._advance(t)
        for session in self._active:
            if session.ip == ip:
                return None if session.natted else session
        return None

    # ------------------------------------------------------------------
    # Ground-truth inspection
    # ------------------------------------------------------------------
    def sessions_at(self, t: float) -> List[PeerSession]:
        """All sessions active at ``t`` (non-incremental O(n) scan)."""
        return [
            s for s in self._sessions if s.join_time <= t < s.leave_time
        ]
