"""Reference frontier pick: the crawler's original ``_pick_frontier``.

This module preserves the candidate selection that
:mod:`repro.core.dht_crawler` shipped with before it computed each
candidate's distance once per round: it sorts by a distance recomputed at
every comparison key and filters the whole unqueried list by the ``K``-th
responder's distance.  The body is the original one; the original
``_Candidate.distance_to`` method is kept beside it as a function.  It is
**not** used by the pipeline; it exists so property tests can assert that
the crawler picks the same candidates in the same order.  Treat it as
frozen: performance work happens in ``dht_crawler.py``, never here.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.dht_crawler import ALPHA, _Candidate
from repro.dht import xor_distance
from repro.dht.routing import K


def distance_to(candidate: _Candidate, target: int) -> int:
    # Bootstrap entries with unknown ids sort first: they must be
    # queried before any distance ordering exists at all.
    return -1 if candidate.node_id is None else xor_distance(candidate.node_id, target)


def pick_frontier_reference(
    candidates: Dict[int, _Candidate],
    target: int,
) -> List[_Candidate]:
    """The next :data:`ALPHA` nodes worth querying, or [] at convergence."""
    unqueried = [c for c in candidates.values() if not c.queried]
    if not unqueried:
        return []
    responded = sorted(
        (c for c in candidates.values() if c.responded),
        key=lambda c: distance_to(c, target),
    )
    unqueried.sort(key=lambda c: distance_to(c, target))
    if len(responded) >= K:
        threshold = distance_to(responded[K - 1], target)
        unqueried = [c for c in unqueried if distance_to(c, target) < threshold]
    return unqueried[:ALPHA]
