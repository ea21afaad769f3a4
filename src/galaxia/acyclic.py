"""Directed star colouring of acyclic digraphs with 2k colours.

Vertices are processed in topological order.  Every processed vertex v
gets a cyclic k-interval of {1..2k} recorded for it, containing the
colours of all arcs entering v.  An arc v->x may then safely use any
colour in the complement interval of v, and the SDR lemma picks
distinct such colours for the arcs entering x that again fit inside one
k-interval, which is what gets recorded at x.

The SDR and the certificate at a vertex depend only on k and the
pattern its tails recorded, so a call solves each of its patterns once.
For k <= `_MEMO_MAX_K`, solved patterns are also kept for the life of
the process, in a memo of at most `_MEMO_CAP` entries (about 1 MB when
full) that drops the least recently used.  Only a process that colours
several DAGs gains from it; a CLI command colours one.  Outputs do not
depend on what the memo holds.
"""

from __future__ import annotations

import functools

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile, topological_order
from .errors import InternalDefectError
from .intervals import CyclicInterval, sdr_in_cyclic_interval

# Past k = 4 a pattern is one of 111,110 or more, so few recur between
# instances; at k <= 4 an entry holds at most 4 starts and 4 colours.
_MEMO_MAX_K = 4
_MEMO_CAP = 1 << 11


def _solve(k: int, starts: tuple[int, ...],
           ) -> tuple[tuple[int, ...], CyclicInterval | None]:
    """The SDR for arcs whose tails recorded the k-intervals of {1..2k}
    at `starts`, and the k-interval of least start holding its colours
    (None is a defect, which the caller reports).  A tail's arc takes
    its colour from the opposite k-interval, which starts k later."""
    p = 2 * k
    intervals = [CyclicInterval(modulus=p, start=(s + k - 1) % p + 1, length=k)
                 for s in starts]
    while len(intervals) < k:
        intervals.append(intervals[-1])
    _, reps = sdr_in_cyclic_interval(intervals)
    used = reps[:len(starts)]
    return reps, next((CyclicInterval(modulus=p, start=s, length=k)
                       for s in range(1, p + 1)
                       if all((c - s) % p < k for c in used)), None)


@functools.lru_cache(maxsize=_MEMO_CAP)
def _lemma(k: int, starts: tuple[int, ...],
           ) -> tuple[tuple[int, ...], CyclicInterval | None]:
    """`_solve`, remembered, with its values shared between entries."""
    reps, certificate = _solve(k, starts)
    return _shared(reps), _shared(certificate)


@functools.cache
def _shared(value):
    """The first value equal to `value` that the memo stored.  An SDR
    fills a k-interval in some order, so k <= 4 allows at most 238 SDRs
    and 20 certificates, and entries that share them keep far fewer
    small objects alive."""
    return value


def star_colouring_acyclic(d: Digraph,
                           ) -> tuple[ArcColouring, dict[int, CyclicInterval]]:
    """Colouring plus the per-vertex in-colour interval certificates.

    Raises CyclicError on cyclic input.  An arcless digraph yields the
    empty colouring and no certificates (there is no k to speak of).
    """
    order = topological_order(d)
    k = degree_profile(d).max_indegree
    if k == 0:
        return ArcColouring({}, 0), {}
    p = 2 * k
    source = CyclicInterval(modulus=p, start=1, length=k)
    recorded: dict[int, CyclicInterval] = {}
    start = [0] * d.vertex_count  # recorded[v].start, read by v's heads
    colour: dict[int, int] = {}
    # The SDR and the certificate at x depend only on the starts of the
    # tails' recorded intervals, in arc order (k is fixed per call), so
    # vertices with the same entering pattern share one computation and
    # one certificate.
    table: dict[tuple[int, ...], tuple[tuple[int, ...], CyclicInterval]] = {}
    lemma = _lemma if k <= _MEMO_MAX_K else _solve
    arcs, in_arcs = d.arcs, d.in_arcs
    for x in order:
        entering = in_arcs[x]
        if not entering:
            recorded[x] = source
            start[x] = 1
            continue
        key = tuple([start[arcs[i][0]] for i in entering])
        entry = table.get(key)
        if entry is None:
            entry = table[key] = lemma(k, key)
            if entry[1] is None:
                raise InternalDefectError(
                    f"in-colours at {x} fit no cyclic {k}-interval")
        reps, recorded[x] = entry
        start[x] = recorded[x].start
        colour.update(zip(entering, reps))
    return ArcColouring(colour, p), recorded
