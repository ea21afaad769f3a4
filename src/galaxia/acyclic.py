"""Directed star colouring of acyclic digraphs with 2k colours.

Vertices are processed in topological order.  Every processed vertex v
gets a cyclic k-interval of {1..2k} recorded for it, containing the
colours of all arcs entering v.  An arc v->x may then safely use any
colour in the complement interval of v, and the SDR lemma picks
distinct such colours for the arcs entering x that again fit inside one
k-interval, which is what gets recorded at x.
"""

from __future__ import annotations

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile, topological_order
from .errors import InternalDefectError
from .intervals import (CyclicInterval, interval_complement,
                        sdr_in_cyclic_interval, smallest_interval_containing)


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
            intervals = [interval_complement(CyclicInterval(modulus=p, start=s, length=k))
                         for s in key]
            while len(intervals) < k:
                intervals.append(intervals[-1])
            _, reps = sdr_in_cyclic_interval(intervals)
            certificate = smallest_interval_containing(
                set(reps[:len(entering)]), p, k)
            if certificate is None:
                raise InternalDefectError(
                    f"in-colours at {x} fit no cyclic {k}-interval")
            entry = table[key] = reps, certificate
        reps, recorded[x] = entry
        start[x] = recorded[x].start
        colour.update(zip(entering, reps))
    return ArcColouring(colour, p), recorded
