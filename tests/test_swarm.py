"""Unit tests for peer sessions and swarm state tracking."""

import random

import pytest

from repro.observability import MetricsRegistry
from repro.swarm import (
    DownloaderBehavior,
    PeerSession,
    PopularityModel,
    Swarm,
    generate_downloader_sessions,
)

IH = b"\x11" * 20


def make_swarm(sessions):
    swarm = Swarm(infohash=IH, birth_time=0.0, metrics=MetricsRegistry())
    swarm.add_sessions(sessions)
    swarm.freeze()
    return swarm


class TestPeerSession:
    def test_basic_fields(self):
        s = PeerSession(ip=1, join_time=0, leave_time=10, complete_time=5)
        assert s.duration == 10
        assert not s.is_seeder_at(4)
        assert s.is_seeder_at(5)

    def test_seeder_from_start(self):
        s = PeerSession(ip=1, join_time=2, leave_time=8, complete_time=2)
        assert s.is_seeder_at(2)
        assert s.progress_at(2) == 1.0

    def test_never_completes(self):
        s = PeerSession(ip=1, join_time=0, leave_time=100)
        assert not s.is_seeder_at(50)
        assert s.progress_at(50) < 1.0
        assert s.progress_at(100) <= 0.99

    def test_progress_monotone(self):
        s = PeerSession(ip=1, join_time=0, leave_time=100, complete_time=80)
        values = [s.progress_at(t) for t in range(0, 100, 10)]
        assert values == sorted(values)
        assert s.progress_at(80) == 1.0

    def test_progress_before_join(self):
        s = PeerSession(ip=1, join_time=10, leave_time=20, complete_time=15)
        assert s.progress_at(5) == 0.0

    def test_invalid_times(self):
        with pytest.raises(ValueError):
            PeerSession(ip=1, join_time=10, leave_time=5)
        with pytest.raises(ValueError):
            PeerSession(ip=1, join_time=10, leave_time=20, complete_time=5)


class TestSwarmQueries:
    def test_counts_at_time(self):
        rng = random.Random(0)
        swarm = make_swarm(
            [
                PeerSession(ip=1, join_time=0, leave_time=100, complete_time=0),
                PeerSession(ip=2, join_time=10, leave_time=50, complete_time=40),
                PeerSession(ip=3, join_time=20, leave_time=30),
            ]
        )
        snap = swarm.query(25, 200, rng)
        assert snap.num_seeders == 1  # ip=1
        assert snap.num_leechers == 2  # ips 2 and 3
        snap = swarm.query(45, 200, rng)
        assert snap.num_seeders == 2  # ip=2 completed at 40
        assert snap.num_leechers == 0

    def test_empty_after_everyone_leaves(self):
        rng = random.Random(0)
        swarm = make_swarm([PeerSession(ip=1, join_time=0, leave_time=10)])
        snap = swarm.query(20, 200, rng)
        assert snap.size == 0
        assert snap.peers == []

    def test_sample_capped_at_max_peers(self):
        rng = random.Random(1)
        sessions = [
            PeerSession(ip=i, join_time=0, leave_time=100) for i in range(50)
        ]
        swarm = make_swarm(sessions)
        snap = swarm.query(10, 10, rng)
        assert len(snap.peers) == 10
        assert snap.size == 50

    def test_sample_is_from_active_peers(self):
        rng = random.Random(2)
        sessions = [
            PeerSession(ip=i, join_time=0, leave_time=100) for i in range(5)
        ] + [PeerSession(ip=99, join_time=0, leave_time=1)]
        swarm = make_swarm(sessions)
        snap = swarm.query(50, 200, rng)
        assert {p.ip for p in snap.peers} == {0, 1, 2, 3, 4}

    def test_queries_must_be_time_ordered(self):
        rng = random.Random(0)
        swarm = make_swarm([PeerSession(ip=1, join_time=0, leave_time=10)])
        swarm.query(5, 10, rng)
        with pytest.raises(ValueError, match="time-ordered"):
            swarm.query(4, 10, rng)

    def test_blip_sessions_never_visible(self):
        """A peer that joins and leaves between queries is simply unseen."""
        rng = random.Random(0)
        swarm = make_swarm(
            [
                PeerSession(ip=1, join_time=0, leave_time=100),
                PeerSession(ip=2, join_time=10, leave_time=12, complete_time=11),
            ]
        )
        swarm.query(5, 200, rng)
        snap = swarm.query(50, 200, rng)
        assert {p.ip for p in snap.peers} == {1}
        assert snap.num_seeders == 0

    def test_completions_counted_even_for_blips(self):
        rng = random.Random(0)
        swarm = make_swarm(
            [PeerSession(ip=2, join_time=10, leave_time=12, complete_time=11)]
        )
        swarm.query(50, 200, rng)
        assert swarm.completions_so_far == 1

    def test_publisher_completions_not_counted(self):
        rng = random.Random(0)
        swarm = make_swarm(
            [PeerSession(ip=1, join_time=0, leave_time=50, complete_time=0,
                         is_publisher=True)]
        )
        swarm.query(10, 200, rng)
        assert swarm.completions_so_far == 0

    def test_find_connectable(self):
        swarm = make_swarm(
            [
                PeerSession(ip=1, join_time=0, leave_time=100),
                PeerSession(ip=2, join_time=0, leave_time=100, natted=True),
            ]
        )
        assert swarm.find_connectable(1, 10) is not None
        assert swarm.find_connectable(2, 10) is None  # NATed
        assert swarm.find_connectable(3, 10) is None  # absent

    def test_infohash_validation(self):
        with pytest.raises(ValueError):
            Swarm(infohash=b"short", birth_time=0, metrics=MetricsRegistry())

    def test_add_after_freeze_rejected(self):
        swarm = make_swarm([])
        with pytest.raises(RuntimeError):
            swarm.add_session(PeerSession(ip=1, join_time=0, leave_time=1))


class TestSwarmGroundTruth:
    def test_sessions_at(self):
        swarm = make_swarm(
            [
                PeerSession(ip=1, join_time=0, leave_time=10),
                PeerSession(ip=2, join_time=5, leave_time=15),
            ]
        )
        assert {s.ip for s in swarm.sessions_at(7)} == {1, 2}
        assert {s.ip for s in swarm.sessions_at(12)} == {2}

    def test_incremental_matches_ground_truth(self):
        """The fast cursor-based query agrees with the O(n) scan."""
        rng = random.Random(3)
        sessions = []
        for i in range(200):
            join = rng.uniform(0, 500)
            stay = rng.uniform(1, 200)
            complete = join + stay * rng.random() if rng.random() < 0.6 else None
            sessions.append(
                PeerSession(
                    ip=i, join_time=join, leave_time=join + stay,
                    complete_time=complete,
                )
            )
        swarm = make_swarm(list(sessions))
        reference = make_swarm(list(sessions))
        for t in range(0, 800, 37):
            snap = swarm.query(float(t), 10_000, rng)
            truth = reference.sessions_at(float(t))
            assert snap.size == len(truth)
            expected_seeders = sum(1 for s in truth if s.is_seeder_at(float(t)))
            assert snap.num_seeders == expected_seeders

    def test_end_of_life(self):
        swarm = make_swarm([PeerSession(ip=1, join_time=0, leave_time=42)])
        assert swarm.end_of_life() == 42

    def test_peak_population(self):
        swarm = make_swarm(
            [
                PeerSession(ip=1, join_time=0, leave_time=300),
                PeerSession(ip=2, join_time=60, leave_time=300),
            ]
        )
        assert swarm.peak_population(resolution=30.0) == 2


class TestChurn:
    def test_total_downloads_respected(self):
        rng = random.Random(4)
        counter = iter(range(10_000))
        sessions = generate_downloader_sessions(
            rng,
            birth_time=0.0,
            popularity=PopularityModel(total_downloads=100, decay_tau=100.0),
            behavior=DownloaderBehavior(),
            mint_ip=lambda: next(counter),
            metrics=MetricsRegistry(),
        )
        assert len(sessions) == 100
        assert len({s.ip for s in sessions}) == 100

    def test_cutoff_truncates_arrivals(self):
        rng = random.Random(5)
        counter = iter(range(10_000))
        sessions = generate_downloader_sessions(
            rng,
            birth_time=0.0,
            popularity=PopularityModel(
                total_downloads=500, decay_tau=100.0, cutoff=50.0
            ),
            behavior=DownloaderBehavior(),
            mint_ip=lambda: next(counter),
            metrics=MetricsRegistry(),
        )
        assert 0 < len(sessions) < 500
        assert all(s.join_time <= 50.0 for s in sessions)

    def test_fake_content_never_seeds(self):
        rng = random.Random(6)
        counter = iter(range(10_000))
        sessions = generate_downloader_sessions(
            rng,
            birth_time=0.0,
            popularity=PopularityModel(total_downloads=200, decay_tau=10.0),
            behavior=DownloaderBehavior(fake_content=True),
            mint_ip=lambda: next(counter),
            metrics=MetricsRegistry(),
        )
        assert sessions
        assert all(s.complete_time is None for s in sessions)

    def test_real_content_some_seed(self):
        rng = random.Random(7)
        counter = iter(range(10_000))
        sessions = generate_downloader_sessions(
            rng,
            birth_time=0.0,
            popularity=PopularityModel(total_downloads=300, decay_tau=10.0),
            behavior=DownloaderBehavior(seed_probability=0.5),
            mint_ip=lambda: next(counter),
            metrics=MetricsRegistry(),
        )
        completed = [s for s in sessions if s.complete_time is not None]
        assert len(completed) > 100

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            DownloaderBehavior(seed_probability=1.5)
        with pytest.raises(ValueError):
            DownloaderBehavior(mean_download_minutes=0)
        with pytest.raises(ValueError):
            PopularityModel(total_downloads=-1, decay_tau=10.0)
        with pytest.raises(ValueError):
            PopularityModel(total_downloads=1, decay_tau=0.0)


class TestSwarmHypothesis:
    def test_incremental_equals_ground_truth_random_sessions(self):
        """Property: the cursor-based query path agrees with the O(n) scan
        for randomly generated session timelines (hypothesis-driven)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        session_strategy = st.tuples(
            st.floats(min_value=0, max_value=500, allow_nan=False),  # join
            st.floats(min_value=0.5, max_value=300, allow_nan=False),  # stay
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # frac
            st.booleans(),  # completes?
        )

        @settings(max_examples=40, deadline=None)
        @given(st.lists(session_strategy, min_size=1, max_size=40))
        def check(raw):
            sessions = []
            for index, (join, stay, frac, completes) in enumerate(raw):
                complete = join + stay * frac if completes else None
                sessions.append(
                    PeerSession(
                        ip=index,
                        join_time=join,
                        leave_time=join + stay,
                        complete_time=complete,
                    )
                )
            fast = make_swarm(list(sessions))
            slow = make_swarm(list(sessions))
            rng = random.Random(0)
            for t in range(0, 900, 61):
                snap = fast.query(float(t), 10_000, rng)
                truth = slow.sessions_at(float(t))
                assert snap.size == len(truth)
                assert snap.num_seeders == sum(
                    1 for s in truth if s.is_seeder_at(float(t))
                )

        check()
