"""Piece hashing on two CPUs (``repro.torrent.metainfo``).

A torrent of at least ``_SPLIT_MIN_PIECES`` pieces is hashed half by this
process and half by one forked helper process.  The bytes must be those of
the serial loop whatever happens to the helper, and the helper must never
outlive the process that started it.  The lifecycle tests run in a fresh
interpreter each, so that killing a helper never touches this one's; none
starts more than one helper.
"""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import SweepSpec, run_sweep
from repro.torrent import metainfo
from repro.torrent.metainfo import PIECE_PAYLOAD_BYTES, _derive_pieces

SPLIT = metainfo._SPLIT_MIN_PIECES
SRC = str(Path(repro.__file__).resolve().parents[1])

needs_helper = pytest.mark.skipif(
    not metainfo._may_start_helper(),
    reason="this host gives a top-level process no helper (one CPU or no fork)",
)


def reference_pieces(name, num_pieces):
    """The original per-piece formula, inlined."""
    digests = []
    for index in range(num_pieces):
        seed = hashlib.sha256(f"{name}\x00{index}".encode("utf-8")).digest()
        repeats = -(-PIECE_PAYLOAD_BYTES // len(seed))
        payload = (seed * repeats)[:PIECE_PAYLOAD_BYTES]
        digests.append(hashlib.sha1(payload).digest())
    return b"".join(digests)


def run_script(body):
    """Start ``body`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(body)],
                            env=env, stdout=subprocess.PIPE, text=True)


def alive(pid):
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        return True


def wait_gone(pid, seconds=5.0):
    deadline = time.monotonic() + seconds
    while alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not alive(pid)


class TestSplitBytes:
    @pytest.mark.parametrize(
        "num_pieces", [1, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT + 1, 27_011]
    )
    def test_equals_reference_formula(self, num_pieces):
        _derive_pieces.cache_clear()
        name = f"Split.Check.{num_pieces}"
        pieces = _derive_pieces(name, num_pieces * 256 * 1024, 256 * 1024)
        assert pieces == reference_pieces(name, num_pieces)

    @needs_helper
    def test_large_torrent_uses_the_helper(self):
        _derive_pieces.cache_clear()
        _derive_pieces("Uses.Helper", SPLIT, 1)
        assert metainfo._helper and metainfo._helper.process.is_alive()

    def test_halves_join_to_the_whole(self):
        whole = metainfo._hash_pieces("halves", 0, 1001)
        assert metainfo._hash_pieces("halves", 0, 500) + metainfo._hash_pieces(
            "halves", 500, 1001) == whole


class TestNoHelper:
    @pytest.mark.parametrize("patch", ["one_cpu", "no_fork"])
    def test_serial_when_host_cannot_split(self, monkeypatch, patch):
        if patch == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        else:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        monkeypatch.setattr(metainfo, "_helper", None)
        _derive_pieces.cache_clear()
        pieces = _derive_pieces("Serial.Only", 2 * SPLIT, 1)
        assert metainfo._helper is False
        assert pieces == reference_pieces("Serial.Only", 2 * SPLIT)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked pool worker inherits the recorder")
    def test_sweep_pool_workers_start_no_helper(self, monkeypatch, tmp_path):
        log = tmp_path / "decisions.txt"
        decide = metainfo._may_start_helper

        def recorded():
            allowed = decide()
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {allowed}\n")
            return allowed

        monkeypatch.setattr(metainfo, "_may_start_helper", recorded)
        _derive_pieces.cache_clear()
        spec = SweepSpec(scenarios=("baseline",), seeds=(11, 12),
                         window_days=2.0, post_window_days=2.0)
        run_sweep(spec, jobs=2)
        decisions = [line.split() for line in log.read_text().splitlines()]
        assert decisions, "no worker hashed a torrent large enough to split"
        assert all(allowed == "False" for _, allowed in decisions)
        assert str(os.getpid()) not in {pid for pid, _ in decisions}


@needs_helper
class TestHelperLifecycle:
    def test_killed_helper_gives_same_bytes(self):
        proc = run_script(f"""
            import os, signal
            from repro.torrent import metainfo as m
            n = {2 * SPLIT + 1}
            first = m._derive_pieces("a", n, 1)
            helper = m._helper.process
            os.kill(helper.pid, signal.SIGKILL)
            helper.join()
            m._derive_pieces.cache_clear()
            assert m._derive_pieces("a", n, 1) == first == m._hash_pieces("a", 0, n)
            assert m._derive_pieces("b", n, 1) == m._hash_pieces("b", 0, n)
            assert m._helper is False
            print("ok")
        """)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert out.strip() == "ok"

    def test_helper_dies_with_sigkilled_parent(self):
        proc = run_script(f"""
            import time
            from repro.torrent import metainfo as m
            m._derive_pieces("a", {SPLIT}, 1)
            print(m._helper.process.pid, flush=True)
            time.sleep(60)
        """)
        try:
            pid = int(proc.stdout.readline())
            assert alive(pid)
        finally:
            proc.kill()
            proc.communicate(timeout=10)
        assert proc.returncode == -signal.SIGKILL
        assert wait_gone(pid), f"helper {pid} outlived its SIGKILLed parent"

    def test_normal_exit_leaves_no_helper(self):
        proc = run_script(f"""
            from repro.torrent import metainfo as m
            m._derive_pieces("a", {SPLIT}, 1)
            print(m._helper.process.pid)
        """)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert wait_gone(int(out))
