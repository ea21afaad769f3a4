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
    recorded: dict[int, CyclicInterval] = {}
    colour: dict[int, int] = {}
    in_arcs = d.in_arcs
    for x in order:
        entering = in_arcs[x]
        if not entering:
            recorded[x] = CyclicInterval(modulus=2 * k, start=1, length=k)
            continue
        intervals = [interval_complement(recorded[d.arcs[i][0]])
                     for i in entering]
        while len(intervals) < k:
            intervals.append(intervals[-1])
        _, reps = sdr_in_cyclic_interval(intervals)
        for i, rep in zip(entering, reps):
            colour[i] = rep
        certificate = smallest_interval_containing(
            {colour[i] for i in entering}, 2 * k, k)
        if certificate is None:
            raise InternalDefectError(
                f"in-colours at {x} fit no cyclic {k}-interval")
        recorded[x] = certificate
    return ArcColouring(colour, 2 * k), recorded
