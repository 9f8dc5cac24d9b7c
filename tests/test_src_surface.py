"""Guard: ``src/repro`` holds no code that only tests use.

Every public function, method and property defined in ``src/repro`` must be
named in some file under ``src/``, ``examples/``, ``perfbench/`` or
``benchmarks/`` other than at its own definition.  A name that only
``tests/`` uses belongs in ``tests/``, as a helper beside the tests that
need it.  The check is textual (a whole-word match on any line), so a
mention in a comment or an ``__all__`` list counts as a use.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "perfbench", "benchmarks")
WORD = re.compile(r"[A-Za-z_]\w*")

# DESIGN's substitution table promises a full BEP 3 peer-wire codec, so its
# messages stay even where the crawl sends none of them.
ALLOWED_NAMES = frozenset(
    {"encode_keepalive", "encode_have", "encode_cancel", "decode_have"}
)
# Paper-adjacent analyses that no pipeline imports yet; ROADMAP defers
# their removal.
ALLOWED_MODULES = frozenset(
    {
        "src/repro/core/analysis/demographics.py",
        "src/repro/core/analysis/evolution.py",
        "src/repro/core/analysis/figures.py",
    }
)


def public_definitions():
    """(path, line, qualified name, name) of each module-level function and
    each method or property of a module-level class in ``src/repro``."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", member) for member in node.body]
            else:
                members = [("", node)]
            for prefix, member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not member.name.startswith("_"):
                        yield path, member.lineno, prefix + member.name, member.name


def test_every_public_name_is_used_outside_tests():
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    mentions = Counter(
        word for text in lines.values() for line in text for word in WORD.findall(line)
    )
    unused = []
    for path, lineno, qualname, name in public_definitions():
        relative = path.relative_to(ROOT).as_posix()
        if name in ALLOWED_NAMES or relative in ALLOWED_MODULES:
            continue
        at_definition = WORD.findall(lines[path][lineno - 1]).count(name)
        if mentions[name] == at_definition:
            unused.append(f"{relative}:{lineno} {qualname}")
    assert not unused, (
        f"{len(unused)} public name(s) in src/repro are used only by tests; "
        "delete them or move them into tests/:\n  " + "\n  ".join(unused)
    )


def test_allowlist_names_still_exist():
    """An allowlist entry whose code is gone would hide nothing; drop it."""
    defined = {name for _, _, _, name in public_definitions()}
    assert ALLOWED_NAMES <= defined
    for module in ALLOWED_MODULES:
        assert (ROOT / module).is_file(), module
