"""Golden-dataset regression: the pinned-seed campaigns' headline stats.

The golden files (tests/golden/<scenario>_seed7.json, written by
``examples/regen_goldens.py`` from the specs in ``golden_campaigns.py``)
pin every headline statistic of one small campaign per discovery channel:

- ``tiny`` (tracker): the same campaign the session-scoped ``tiny_run``
  fixture builds, so it costs no extra crawl;
- ``trackerless`` (magnet + DHT, short window): also pins the run's
  ``dht.*`` instruments, so every KRPC message and lookup hop is counted;
- ``hybrid`` (tracker + DHT, short window): pins the two-channel crawler,
  which merges both channels' observations of one torrent;
- ``pb09`` and ``mn08`` (reduced scale, short window): pin two of the
  paper's portal modes, one query per torrent and an RSS feed without
  usernames.

Any unintentional drift in world generation, the crawlers, the DHT,
identification, session reconstruction or the analysis pipeline fails here
with a per-metric diff; intentional drift is recorded by re-running the
regeneration script and committing the new golden alongside the change.
"""

import json
import math

import pytest

from repro.campaign import headline_stats
from tests.golden_campaigns import GOLDENS, golden_payload

GOLDEN_PATH = GOLDENS["tiny"].path

# Tight but not bit-exact: every value is a deterministic float computation,
# the tolerance only forgives last-ulp differences across platforms.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _diff_lines(expected: dict, actual: dict, label: str) -> list:
    """Readable per-key drift report between two flat numeric dicts."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            lines.append(f"  {label}.{key}: MISSING (golden={expected[key]!r})")
            continue
        if key not in expected:
            lines.append(
                f"  {label}.{key}: UNEXPECTED (got={actual[key]!r}; "
                "regenerate goldens if intentional)"
            )
            continue
        want, got = expected[key], actual[key]
        if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            drift = got - want
            lines.append(
                f"  {label}.{key}: golden={want!r} got={got!r} "
                f"(drift {drift:+.3e})"
            )
    return lines


def _assert_matches_golden(golden: dict, payload: dict) -> None:
    diff = []
    for section in ("headline", "summary", "dht"):
        if section in golden or section in payload:
            diff += _diff_lines(
                golden.get(section, {}), payload.get(section, {}), section
            )
    if diff:
        pytest.fail(
            "golden campaign drifted "
            f"({len(diff)} metrics; regen with "
            "`python examples/regen_goldens.py` if intentional):\n"
            + "\n".join(diff)
        )


class TestGoldenCampaign:
    def test_fixture_matches_golden_pin(self, golden):
        """Guard the pin itself: conftest and the golden must agree."""
        from tests.conftest import TINY_SEED, TINY_TOP_K

        assert golden["seed"] == TINY_SEED
        assert golden["top_k"] == TINY_TOP_K
        assert golden["scenario"] == "tiny"

    def test_headline_stats_match_golden(self, golden, tiny_run):
        dataset, world = tiny_run
        actual = headline_stats(dataset, world, top_k=golden["top_k"])
        _assert_matches_golden(
            golden, {"headline": actual, "summary": dataset.summary_dict()}
        )

    def test_golden_covers_every_headline_family(self, golden):
        """The golden must keep covering all headline stat families; a key
        family silently vanishing would hollow the regression out."""
        families = {key.split(".")[0] for key in golden["headline"]}
        assert {
            "identification",
            "download",
            "session",
            "contribution",
            "mapping",
            "classes",
        } <= families


class GoldenFileChecks:
    """Checks every short-window golden gets; subclasses set ``SPEC``."""

    SPEC = None

    @pytest.fixture(scope="class")
    def golden(self):
        with open(self.SPEC.path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_spec_matches_golden_pin(self, golden):
        spec = self.SPEC
        assert golden["scenario"] == spec.scenario
        assert golden["seed"] == spec.seed
        assert golden["top_k"] == spec.top_k
        assert golden.get("scale") == spec.scale
        assert golden["window_days"] == spec.window_days
        assert golden["post_window_days"] == spec.post_window_days

    def test_campaign_matches_golden(self, golden, golden_run):
        dataset, world = golden_run(self.SPEC.scenario)
        _assert_matches_golden(
            golden, golden_payload(self.SPEC, dataset, world)
        )


class TestTrackerlessGolden(GoldenFileChecks):
    SPEC = GOLDENS["trackerless"]

    def test_golden_pins_the_dht_wire_path(self, golden):
        """The DHT counts must stay pinned and non-trivial: lookups ran,
        messages were delivered, and peers came back."""
        dht = golden["dht"]
        assert dht["dht.lookup_queries"] > 0
        assert dht["dht.messages[outcome=delivered]"] > 0
        assert dht["dht.lookup_peers.sum"] > 0
        assert golden["headline"]["discovery.dht_coverage"] > 0
        assert golden["headline"]["discovery.tracker_coverage"] == 0


class TestHybridGolden(TestTrackerlessGolden):
    SPEC = GOLDENS["hybrid"]

    def test_golden_pins_the_dht_wire_path(self, golden):
        """Both channels ran and both found torrents."""
        dht = golden["dht"]
        assert dht["dht.lookup_queries"] > 0
        assert dht["dht.lookup_peers.sum"] > 0
        assert golden["headline"]["discovery.dht_coverage"] > 0
        assert golden["headline"]["discovery.tracker_coverage"] > 0


class TestPb09Golden(GoldenFileChecks):
    SPEC = GOLDENS["pb09"]

    def test_each_torrent_is_queried_once(self, golden, golden_run):
        """pb09's crawler contacts each swarm once, right after discovery."""
        dataset, _world = golden_run(self.SPEC.scenario)
        assert golden["summary"]["num_torrents"] == len(dataset.records) > 0
        assert all(len(r.query_times) == 1 for r in dataset.records.values())


class TestMn08Golden(GoldenFileChecks):
    SPEC = GOLDENS["mn08"]

    def test_publishers_are_keyed_by_ip(self, golden):
        """No username in the feed: the username-mapping stats are absent,
        and publishers are still located by IP."""
        assert golden["summary"]["num_with_username"] == 0
        assert golden["summary"]["num_with_publisher_ip"] > 0
        assert not any(key.startswith("mapping.") for key in golden["headline"])
