"""Acircuitic directed star colourings of subcubic oriented graphs.

Four colours always suffice: colour 4 goes to a matching M4 built from
the [V1 -> V2] arcs plus one arc per circuit inside either part, where
V1 holds the vertices of outdegree at most one.  What remains is acyclic;
the arcs from heads of M4-matching arcs back to their tails are coloured
through a Brooks colouring of an auxiliary conflict graph whose second
adjacency rule kills every bicoloured circuit, and the rest is finished
by list colouring with subcubic's list-extension engine, which on
acyclic input colours the arcs into each vertex once every arc leaving
it is coloured.
"""

from __future__ import annotations

from .colouring import ArcColouring
from .digraph import Digraph, _map_cycles, _require_simple, degree_profile
from .errors import InternalDefectError, PreconditionViolatedError
from .subcubic import _FULL_MASK, _brooks, _extension_engine


def acircuitic_colouring(d: Digraph) -> ArcColouring:
    """Directed star colouring with at most 4 colours, no bicoloured
    circuit, and the colour-4 class a matching.

    Requires an oriented subcubic digraph (no digons, maximum total
    degree three).
    """
    _require_simple(d, "needs a simple digraph")
    if d.has_digon():
        raise PreconditionViolatedError("digraph has a digon")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise PreconditionViolatedError(
            f"maximum degree {profile.max_degree} exceeds three")

    in_v2 = [profile.outdegree[v] >= 2 for v in range(d.vertex_count)]
    m_idx = [i for i, (t, h) in enumerate(d.arcs) if not in_v2[t] and in_v2[h]]
    four: set[int] = set(m_idx)

    succ1: dict[int, int] = {}  # V1 tail -> its arc into V1
    pred2: dict[int, int] = {}  # V2 head -> its arc from V2
    for i, (t, h) in enumerate(d.arcs):
        if not in_v2[t] and not in_v2[h]:
            succ1[t] = i
        elif in_v2[t] and in_v2[h]:
            pred2[h] = i
    # circuits inside one part are the cycles of these partial maps to
    # the arcs' other ends, since each vertex has at most one there
    for by_end, other in ((succ1, 1), (pred2, 0)):
        for cycle in _map_cycles({v: d.arcs[i][other] for v, i in by_end.items()}):
            four.add(min(by_end[v] for v in cycle))

    ends: set[int] = set()
    for i in four:
        t, h = d.arcs[i]
        if t in ends or h in ends:
            raise InternalDefectError("colour-4 arcs failed to be a matching")
        ends.update((t, h))
    # index the matching arcs; the back-arc graph H lives on the arcs
    # from a matched head y_i to a matched tail x_j
    m_sorted = sorted(m_idx)
    x_rank = {d.arcs[i][0]: k for k, i in enumerate(m_sorted)}
    y_rank = {d.arcs[i][1]: k for k, i in enumerate(m_sorted)}
    eprime = [i for i in range(d.arc_count)
              if d.arcs[i][0] in y_rank and d.arcs[i][1] in x_rank]

    # back arc y_i -> x_j is the arc i -> j of a digraph on the ranks, no
    # loop, as y_i -> x_i and matching arc i would make a digon.  Two back
    # arcs conflict when they share x_j (both enter j), or when one enters
    # x_j, the other leaves y_j (leaves j), and both other ends rank above
    # j; a matched vertex has at most two back arcs, so buckets are small
    back = Digraph._of(len(m_sorted), tuple(
        (y_rank[d.arcs[i][0]], x_rank[d.arcs[i][1]]) for i in eprime))
    pairs, by_x, by_y = back.arcs, back.in_arcs, back.out_arcs
    neigh = [set(by_x[j]) - {a} for a, (_, j) in enumerate(pairs)]
    for a, (i, j) in enumerate(pairs):
        if i > j:
            for b in by_y[j]:
                if pairs[b][1] > j:
                    neigh[a].add(b)
                    neigh[b].add(a)
    if any(len(nb) > 3 for nb in neigh):
        raise InternalDefectError("back-arc conflict graph has degree four")
    brooks = _brooks(neigh)
    back_colour = {arc: brooks[k] for k, arc in enumerate(eprime)}

    rest = [i for i in range(d.arc_count)
            if i not in four and i not in back_colour]
    sub = Digraph._of(d.vertex_count, tuple(d.arcs[i] for i in rest))
    taken_at: dict[int, int] = {}  # mask of back-arc colours by head
    for arc, c in back_colour.items():
        h = d.arcs[arc][1]
        taken_at[h] = taken_at.get(h, 0) | 1 << c
    lists = [_FULL_MASK & ~taken_at.get(h, 0) for _, h in sub.arcs]
    # the rest is acyclic, so its vertices one by one in reverse Kahn
    # order are its strong components in reverse topological order; were
    # a circuit left, the arcs into the vertices Kahn's sort leaves would
    # stay uncoloured, and the verifier would reject the output
    finish = _extension_engine(sub, lists, [(v,) for v in reversed(sub._sort)])

    colours = {i: 4 for i in four}
    colours.update(back_colour)
    colours.update({rest[k]: c for k, c in finish.items()})
    return ArcColouring(colours, max(colours.values(), default=0))
