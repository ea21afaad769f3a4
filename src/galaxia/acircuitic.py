"""Acircuitic directed star colourings of subcubic oriented graphs.

Four colours always suffice: colour 4 goes to a matching M4 built from
the [V1 -> V2] arcs plus one arc per circuit inside either part, where
V1 holds the vertices of outdegree at most one.  What remains is acyclic;
the arcs from heads of M4-matching arcs back to their tails are coloured
through a Brooks colouring of an auxiliary conflict graph whose second
adjacency rule kills every bicoloured circuit, and the rest is finished
by list colouring.

The list-colouring step stands alone as `list_colouring_acyclic`: any
acyclic subcubic digraph with every arc list at least as large as its
head's degree admits a directed star colouring from the lists, by
peeling arcs whose head is a sink.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile, is_acyclic
from .errors import (HasDigonError, InternalDefectError, NotSubcubicError,
                     PreconditionViolatedError, ValidateError)
from .subcubic import brooks_three_colouring


def list_colouring_acyclic(d: Digraph,
                           lists: Mapping[int, Iterable[int]],
                           ) -> ArcColouring:
    """Directed star colouring of an acyclic subcubic digraph from lists.

    Every arc's list must be at least as large as the total degree of
    its head.  Arcs are peeled lowest-index-first among those whose head
    is a sink of the remaining digraph; colouring such an arc conflicts
    only with arcs headed at one of its endpoints, whose lists shrink by
    one exactly when their own head loses one degree.
    """
    if len(set(d.arcs)) != d.arc_count:
        raise ValidateError("needs a simple digraph")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise PreconditionViolatedError("digraph is not subcubic")
    if not is_acyclic(d):
        raise PreconditionViolatedError("digraph has a circuit")
    live: dict[int, list[int]] = {}
    for i, (t, h) in enumerate(d.arcs):
        if i not in lists:
            raise PreconditionViolatedError(f"arc {i} has no colour list")
        live[i] = sorted(set(lists[i]))
        if len(live[i]) < profile.degree[h]:
            raise PreconditionViolatedError(
                f"arc {i} has a list of {len(live[i])} colours but its head "
                f"has degree {profile.degree[h]}")

    remaining = set(range(d.arc_count))
    out_live = list(profile.outdegree)
    deg_live = list(profile.degree)
    colours: dict[int, int] = {}
    while remaining:
        pick = min((i for i in remaining if out_live[d.arcs[i][1]] == 0),
                   default=None)
        if pick is None:
            raise InternalDefectError("no sink-headed arc in an acyclic rest")
        x, y = d.arcs[pick]
        if not live[pick]:
            raise InternalDefectError(f"arc {pick} ran out of colours")
        omega = live[pick][0]
        colours[pick] = omega
        remaining.discard(pick)
        out_live[x] -= 1
        deg_live[x] -= 1
        deg_live[y] -= 1
        for j in remaining:
            h = d.arcs[j][1]
            if h == x or h == y:
                if omega in live[j]:
                    live[j].remove(omega)
                if len(live[j]) < deg_live[h]:
                    raise InternalDefectError(
                        f"list of arc {j} fell below its head degree")
    return ArcColouring(colours, max(colours.values(), default=0))


def _part_circuits(next_of: dict[int, tuple[int, int]]) -> list[list[int]]:
    """Cycles of a partial successor function, as lists of arc indices.

    next_of maps a vertex to (arc index, next vertex); circuits inside
    one part of the split are exactly these cycles since each vertex has
    at most one successor there.
    """
    state: dict[int, int] = {}  # 1 on the current walk, 2 settled
    cycles: list[list[int]] = []
    for start in sorted(next_of):
        if start in state:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        v = start
        while v in next_of and v not in state:
            pos[v] = len(path)
            path.append(v)
            state[v] = 1
            v = next_of[v][1]
        if state.get(v) == 1:
            cycles.append([next_of[w][0] for w in path[pos[v]:]])
        for w in path:
            state[w] = 2
    return cycles


def acircuitic_colouring(d: Digraph) -> ArcColouring:
    """Directed star colouring with at most 4 colours, no bicoloured
    circuit, and the colour-4 class a matching.

    Requires an oriented subcubic digraph (no digons, maximum total
    degree three).
    """
    if len(set(d.arcs)) != d.arc_count:
        raise ValidateError("needs a simple digraph")
    if d.has_digon():
        raise HasDigonError("digraph has a digon")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise NotSubcubicError(
            f"maximum degree {profile.max_degree} exceeds three")

    in_v2 = [profile.outdegree[v] >= 2 for v in range(d.vertex_count)]
    m_idx = [i for i, (t, h) in enumerate(d.arcs) if not in_v2[t] and in_v2[h]]
    four: set[int] = set(m_idx)

    succ1: dict[int, tuple[int, int]] = {}
    pred2: dict[int, tuple[int, int]] = {}
    for i, (t, h) in enumerate(d.arcs):
        if not in_v2[t] and not in_v2[h]:
            if t in succ1:
                raise InternalDefectError(
                    f"vertex {t} has two out-arcs despite outdegree one")
            succ1[t] = (i, h)
        elif in_v2[t] and in_v2[h]:
            if h in pred2:
                raise InternalDefectError(
                    f"vertex {h} has two in-arcs despite indegree one")
            pred2[h] = (i, t)
    for cycle in _part_circuits(succ1) + _part_circuits(pred2):
        four.add(min(cycle))

    ends: set[int] = set()
    for i in four:
        t, h = d.arcs[i]
        if t in ends or h in ends:
            raise InternalDefectError("colour-4 arcs failed to be a matching")
        ends.update((t, h))
    rest_after_four = [i for i in range(d.arc_count) if i not in four]
    if not is_acyclic(Digraph(d.vertex_count,
                              tuple(d.arcs[i] for i in rest_after_four))):
        raise InternalDefectError(
            "digraph stayed cyclic after removing the colour-4 arcs")

    # index the matching arcs; the back-arc graph H lives on the arcs
    # from a matched head y_i to a matched tail x_j
    m_sorted = sorted(m_idx)
    x_rank = {d.arcs[i][0]: k for k, i in enumerate(m_sorted)}
    y_rank = {d.arcs[i][1]: k for k, i in enumerate(m_sorted)}
    eprime = [i for i in range(d.arc_count)
              if d.arcs[i][0] in y_rank and d.arcs[i][1] in x_rank]
    if set(eprime) & four:
        raise InternalDefectError("a back arc was already coloured 4")

    pairs = [(y_rank[d.arcs[i][0]], x_rank[d.arcs[i][1]]) for i in eprime]
    edges: list[tuple[int, int]] = []
    for a in range(len(eprime)):
        i1, j1 = pairs[a]
        for b in range(a + 1, len(eprime)):
            i2, j2 = pairs[b]
            if (j1 == j2
                    or (j1 == i2 and i1 > j1 and j2 > j1)
                    or (j2 == i1 and i2 > j2 and j1 > j2)):
                edges.append((a, b))
    degree = [0] * len(eprime)
    neigh: list[set[int]] = [set() for _ in range(len(eprime))]
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        neigh[a].add(b)
        neigh[b].add(a)
    if degree and max(degree) > 3:
        raise InternalDefectError("back-arc conflict graph has degree four")
    for a in range(len(eprime)):
        if degree[a] == 3:
            x1, x2, x3 = sorted(neigh[a])
            if x2 in neigh[x1] and x3 in neigh[x1] and x3 in neigh[x2]:
                raise InternalDefectError(
                    "back-arc conflict graph contains a complete quadruple")
    brooks = brooks_three_colouring(len(eprime), edges)
    back_colour = {arc: brooks[k] for k, arc in enumerate(eprime)}

    rest = [i for i in range(d.arc_count)
            if i not in four and i not in back_colour]
    for i in rest:
        t, h = d.arcs[i]
        if t in x_rank or h in y_rank:
            raise InternalDefectError(
                "a remaining arc leaves a matched tail or enters a matched "
                "head")
    sub = Digraph(d.vertex_count, tuple(d.arcs[i] for i in rest))
    taken_at: dict[int, set[int]] = {}
    for arc, c in back_colour.items():
        taken_at.setdefault(d.arcs[arc][1], set()).add(c)
    lists = {k: sorted({1, 2, 3} - taken_at.get(sub.arcs[k][1], set()))
             for k in range(sub.arc_count)}
    sub_profile = degree_profile(sub)
    for k in range(sub.arc_count):
        if len(lists[k]) < sub_profile.degree[sub.arcs[k][1]]:
            raise InternalDefectError(
                f"arc {rest[k]} got a list smaller than its head degree")
    finish = list_colouring_acyclic(sub, lists)

    colours = {i: 4 for i in four}
    colours.update(back_colour)
    colours.update({rest[k]: c for k, c in finish.colour.items()})
    return ArcColouring(colours, max(colours.values(), default=0))
