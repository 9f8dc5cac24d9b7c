"""Name generation: usernames, content titles, domains, descriptions.

Everything the crawler later pattern-matches on is produced here:

- *scene-style* usernames for established publishers, optionally derived
  from their promoted domain (the paper's ``UltraTorrents`` /
  ``ultratorrents.com`` case);
- throwaway usernames for fake publishers (random-looking, as the paper
  observed for manually-created accounts);
- per-category release titles, with *catchy* recent-blockbuster titles for
  fake content (anti-piracy decoys name the movies they protect);
- the three promo-URL placements of Section 5: title suffix, textbox line,
  bundled file name.
"""

from __future__ import annotations

import random
from typing import List

from repro.portal.categories import Category

_SCENE_ADJ = [
    "Ultra", "Mega", "Turbo", "Silent", "Dark", "Royal", "Prime", "Elite",
    "Rapid", "Giga", "Shadow", "Golden", "Iron", "Crystal", "Neon", "Zero",
]
_SCENE_NOUN = [
    "Torrents", "Bytes", "Seeder", "Pirate", "Runner", "Crew", "Team",
    "Source", "Leech", "Share", "Peers", "Vault", "Dock", "Bay", "Wolf",
]
_TLDS = ["com", "net", "org", "info", "tv", "to"]

_MOVIE_WORDS = [
    "Avatar", "Inception", "Eclipse", "IronKnight", "Outlands", "Redline",
    "Solstice", "Vendetta", "Aftermath", "Bloodline", "Crossfire",
    "Daybreak", "Exodus", "Firewall", "Gridlock", "Hollowpoint",
]
_TV_SHOWS = [
    "Lost.Horizon", "Breaking.Code", "The.Precinct", "Night.Watch",
    "Harbor.City", "Mad.Genius", "Steel.Valley", "Cold.Case.Files",
]
_BANDS = [
    "The Copper Owls", "Night Cartel", "Velvet Static", "Paper Anchors",
    "Glass Harbor", "Modern Relics", "Low Orbit", "Red Meridian",
]
_APPS = [
    "PhotoSuite", "OfficePack", "DiskDoctor", "VideoRipper", "SysTuner",
    "NetAccel", "SecureVault", "RenderFarm",
]
_GAMES = [
    "Starfall", "Dungeon.Forge", "Apex.Racer", "Iron.Siege", "Skyline.2",
    "Warpath", "Mech.Arena", "Frontier.Tactics",
]
_AUTHORS = [
    "J. Mercer", "A. Kovacs", "R. Delgado", "M. Okafor", "S. Lindqvist",
    "P. Aravind", "C. Beaumont", "T. Nakamura",
]
_RELEASE_TAGS = ["DVDRip", "BRRip", "HDTV", "XviD", "x264", "PROPER", "READNFO"]
_GROUP_TAGS = ["aXXo", "FXG", "NoGRP", "DIMENSION", "KLAXXON", "MAXSPEED"]


class NameForge:
    """Deterministic (per RNG) generator of all synthetic names.

    Keeps registries of handed-out usernames and domains so collisions are
    impossible within one world.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_usernames: set = set()
        self._used_domains: set = set()
        self._title_counter = 0

    # ------------------------------------------------------------------
    # Usernames and domains
    # ------------------------------------------------------------------
    def _unique(self, candidate: str, used: set) -> str:
        base = candidate
        suffix = 2
        while candidate in used:
            candidate = f"{base}{suffix}"
            suffix += 1
        used.add(candidate)
        return candidate

    def scene_username(self) -> str:
        name = self._rng.choice(_SCENE_ADJ) + self._rng.choice(_SCENE_NOUN)
        if self._rng.random() < 0.4:
            name += str(self._rng.randrange(10, 100))
        return self._unique(name, self._used_usernames)

    def username_from_domain(self, domain: str) -> str:
        """The paper's UltraTorrents/ultratorrents.com pattern."""
        stem = domain.split(".")[0]
        return self._unique(stem.capitalize(), self._used_usernames)

    def throwaway_username(self) -> str:
        """Random-looking manually-created account name."""
        length = self._rng.randrange(7, 12)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        name = "".join(self._rng.choice(alphabet) for _ in range(length))
        return self._unique(name, self._used_usernames)

    def casual_username(self) -> str:
        """Ordinary-user account name (also the hacked-account victims)."""
        first = self._rng.choice(
            ["alex", "maria", "jon", "pedro", "anna", "luca", "sven",
             "kate", "omar", "ivan", "mei", "noah", "sofia", "raj"]
        )
        return self._unique(
            f"{first}{self._rng.randrange(1950, 2010)}", self._used_usernames
        )

    def domain(self) -> str:
        stem = (self._rng.choice(_SCENE_ADJ) + self._rng.choice(_SCENE_NOUN)).lower()
        candidate = f"{stem}.{self._rng.choice(_TLDS)}"
        return self._unique(candidate, self._used_domains)

    # ------------------------------------------------------------------
    # Content titles
    # ------------------------------------------------------------------
    def title(self, category: Category, catchy: bool = False) -> str:
        """A release title for one content item.

        ``catchy`` titles name a recent blockbuster -- what fake publishers
        use to attract victims / imitate the content they poison.
        """
        self._title_counter += 1
        n = self._title_counter
        rng = self._rng
        tag = rng.choice(_RELEASE_TAGS)
        grp = rng.choice(_GROUP_TAGS)
        if category is Category.MOVIES or (catchy and category is Category.PORN):
            word = rng.choice(_MOVIE_WORDS)
            year = rng.choice([2008, 2009, 2010])
            return f"{word}.{year}.{tag}-{grp}.{n}"
        if category is Category.TV_SHOWS:
            show = rng.choice(_TV_SHOWS)
            season = rng.randrange(1, 7)
            episode = rng.randrange(1, 23)
            return f"{show}.S{season:02d}E{episode:02d}.{tag}-{grp}.{n}"
        if category is Category.PORN:
            return f"Amateur.Set.{rng.randrange(100, 999)}.{tag}.{n}"
        if category in (Category.MUSIC, Category.AUDIO_BOOKS):
            band = rng.choice(_BANDS)
            return f"{band} - Album {rng.randrange(1, 9)} [MP3-320].{n}"
        if category is Category.APPLICATIONS:
            app = rng.choice(_APPS)
            return f"{app}.v{rng.randrange(1, 12)}.{rng.randrange(0, 9)}.Incl.Keygen.{n}"
        if category is Category.GAMES:
            return f"{rng.choice(_GAMES)}-RELOADED.{n}"
        if category is Category.EBOOKS:
            return f"{rng.choice(_AUTHORS)} - Collected Works (epub).{n}"
        if category is Category.PICTURES:
            return f"HQ.Wallpaper.Pack.{rng.randrange(1, 60)}.{n}"
        return f"Misc.Bundle.{rng.randrange(1, 999)}.{n}"

    # ------------------------------------------------------------------
    # Promo placements (Section 5's three techniques)
    # ------------------------------------------------------------------
    @staticmethod
    def title_with_promo(title: str, domain: str) -> str:
        return f"{title}[{domain}]"

    @staticmethod
    def textbox_with_promo(base_text: str, domain: str) -> str:
        return f"{base_text}\nVisit http://www.{domain} for more releases!"

    @staticmethod
    def bundled_promo_filename(domain: str) -> str:
        return f"Downloaded_From_{domain}.txt"

    def plain_textbox(self, extensive: bool = False) -> str:
        if not extensive:
            return self._rng.choice(
                ["enjoy", "as requested", "seed please", "working copy", ""]
            )
        return (
            "Full release notes: complete, tested and tagged. "
            "This took a while to put together -- please help seeding "
            "after you finish downloading, my upload bandwidth is limited. "
            "Track list / contents inside. Comments welcome."
        )


def looks_random_username(username: str) -> bool:
    """Heuristic the analysis uses to spot manually-created fake accounts."""
    stripped = username.lower()
    if len(stripped) < 7:
        return False
    letters = sum(1 for c in stripped if c.isalpha())
    digits = sum(1 for c in stripped if c.isdigit())
    if letters == 0:
        return True
    vowels = sum(1 for c in stripped if c in "aeiou")
    consonant_ratio = 1.0 - (vowels / letters)
    return consonant_ratio > 0.72 and digits >= 1


def extract_urls(text: str) -> List[str]:
    """Pull promoted URLs/domains out of free text or a release title."""
    urls: List[str] = []
    lowered = text.lower()
    # http(s) URLs in the textbox.
    for marker in ("http://", "https://"):
        start = 0
        while True:
            index = lowered.find(marker, start)
            if index == -1:
                break
            end = index
            while end < len(lowered) and lowered[end] not in " \n\t<>\"'":
                end += 1
            urls.append(lowered[index:end].rstrip(".,;!)"))
            start = end
    # bare domains in brackets or dashes: title[domain.tld] / name-domain.tld
    for opener, closer in (("[", "]"), ("(", ")")):
        start = 0
        while True:
            index = lowered.find(opener, start)
            if index == -1:
                break
            end = lowered.find(closer, index)
            if end == -1:
                break
            token = lowered[index + 1 : end]
            if "." in token and " " not in token and _plausible_domain(token):
                urls.append(token)
            start = end + 1
    # bundled-file pattern: Downloaded_From_<domain>.txt
    marker = "downloaded_from_"
    if lowered.startswith(marker) and lowered.endswith(".txt"):
        urls.append(lowered[len(marker) : -len(".txt")])
    return urls


def _plausible_domain(token: str) -> bool:
    parts = token.split(".")
    if len(parts) < 2:
        return False
    tld = parts[-1]
    return tld.isalpha() and 2 <= len(tld) <= 4
