"""Directed star colouring of acyclic digraphs with 2k colours.

Vertices are processed in topological order.  Every processed vertex v
gets a cyclic k-interval of {1..2k} recorded for it, containing the
colours of all arcs entering v.  An arc v->x may then safely use any
colour in the complement interval of v, and the SDR lemma picks
distinct such colours for the arcs entering x that again fit inside one
k-interval, which is what gets recorded at x.

The sweep is `digraph._pattern_sweep`, a vertex's state the 1-tuple of
its interval's start; for k <= `_MEMO_MAX_K` the lemma is remembered
in `_lemma`, a `functools.lru_cache` of `digraph._MEMO_CAP` entries
(about 0.8 MB when full).
"""

from __future__ import annotations

from functools import lru_cache

from .colouring import ArcColouring
from .digraph import (_MEMO_CAP, Digraph, _pattern_sweep, degree_profile,
                      topological_order)
from .errors import InternalDefectError
from .intervals import CyclicInterval, sdr_in_cyclic_interval

# Past k = 4 a pattern is one of 111,110 or more, so few recur between
# instances; at k <= 4 an entry holds at most 4 colours and a start.
_MEMO_MAX_K = 4


def _solve(k: int, starts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int]]:
    """The SDR for arcs whose tails recorded the k-intervals of {1..2k}
    at `starts`, and the least start of a k-interval holding its colours.
    A tail's arc takes its colour from the opposite k-interval, which
    starts k later."""
    p = 2 * k
    intervals = [CyclicInterval(modulus=p, start=(s + k - 1) % p + 1, length=k)
                 for s in starts]
    while len(intervals) < k:
        intervals.append(intervals[-1])
    _, reps = sdr_in_cyclic_interval(intervals)
    used = reps[:len(starts)]
    for s in range(1, p + 1):
        if all((c - s) % p < k for c in used):
            return reps, (s,)
    raise InternalDefectError(f"in-colours {used} fit no cyclic {k}-interval")


_lemma = lru_cache(maxsize=_MEMO_CAP)(_solve)


def star_colouring_acyclic(d: Digraph,
                           ) -> tuple[ArcColouring, dict[int, CyclicInterval]]:
    """Colouring plus the per-vertex in-colour interval certificates.

    Raises CyclicError on cyclic input.  An arcless digraph yields the
    empty colouring and no certificates (there is no k to speak of).
    """
    k = degree_profile(d).max_indegree
    if k == 0:
        return ArcColouring({}, 0), {}
    p = 2 * k
    lemma = _lemma if k <= _MEMO_MAX_K else _solve
    # every arc reads its tail's one start: zeros, one byte per arc
    colour, state = _pattern_sweep(d, bytes(d.arc_count), (1,),
                                   lambda starts: lemma(k, starts))
    intervals = [CyclicInterval(modulus=p, start=s, length=k)
                 for s in range(1, p + 1)]
    # keyed by the order's own ints, which the digraph keeps anyway
    recorded = {v: intervals[state[v][0] - 1] for v in topological_order(d)}
    return ArcColouring(colour, p), recorded
