"""Verifiers and exact solvers: ground truth at desk scale.

The exact solvers are plain backtracking with forward checking.  They
are deliberately sequential and deterministic: fixed variable order,
colours tried ascending, and a symmetry break that lets arc number i
use at most one colour beyond those already placed.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, NamedTuple

from .colouring import ArcColouring, arc_values
from .digraph import Digraph, LabelledDigraph, degree_profile, find_circuit_arcs
from .errors import (AboveCapError, InternalDefectError, NotCubicError,
                     TooLargeError, ValidateError)
from .fibre import FibreColouring

DEFAULT_ARC_LIMIT = 40
ARC_LIMIT_ENV = "GALAXIA_ARC_LIMIT"


def arc_limit_default() -> int:
    raw = os.environ.get(ARC_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ARC_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValidateError(f"{ARC_LIMIT_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValidateError(f"{ARC_LIMIT_ENV} must be positive")
    return value


class StarViolation(NamedTuple):
    rule: str  # 'i' (consecutive arcs) or 'ii' (converging arcs)
    first_arc: int
    second_arc: int


def verify_star_colouring(d: Digraph, colouring: ArcColouring,
                          ) -> StarViolation | None:
    """None when every colour class is a galaxy, else the first clash.

    Scans vertices ascending; at each vertex converging pairs (rule ii)
    are reported before consecutive pairs (rule i).  The scan runs only
    when a pass of built-ins has found a clash.
    """
    colours = arc_values(d.arc_count, colouring.colour, "uncoloured")
    entering = set(zip(map(itemgetter(1), d.arcs), colours))
    if (len(entering) == d.arc_count
            and entering.isdisjoint(zip(map(itemgetter(0), d.arcs), colours))):
        return None
    in_arcs = d.in_arcs
    out_arcs = d.out_arcs
    for v in range(d.vertex_count):
        first_in: dict[int, int] = {}
        for i in in_arcs[v]:
            c = colouring[i]
            if c in first_in:
                return StarViolation("ii", first_in[c], i)
            first_in[c] = i
        for i in out_arcs[v]:
            c = colouring[i]
            if c in first_in:
                return StarViolation("i", first_in[c], i)
    return None


def _conflict_lists(d: Digraph) -> list[list[int]]:
    """conflicts[a] = arcs that may not share a's colour.

    For a = uv these are the other arcs entering v (rule ii), the arcs
    leaving v (rule i, a first), and the arcs entering u (rule i, a
    second).
    """
    in_arcs = d.in_arcs
    out_arcs = d.out_arcs
    conflicts: list[list[int]] = []
    for a, (u, v) in enumerate(d.arcs):
        near = set(in_arcs[v]) | set(out_arcs[v]) | set(in_arcs[u])
        near.discard(a)
        conflicts.append(sorted(near))
    return conflicts


def _backtrack(count: int, q: int, fits: Callable[[int, int], bool],
               apply: Callable[[int, int, int], None]) -> list[int] | None:
    """First colouring of positions 0..count-1 with colours 1..q, or None.

    Depth first, colours ascending, position i using at most one colour
    above the highest placed before it.  fits(i, c) says whether colour
    c may go at position i given the colours placed so far; apply(i, c,
    +1) places it and apply(i, c, -1) takes it back.  The search keeps
    its own stack, so its depth is not bounded by the recursion limit.
    """
    colour = [0] * count
    ceiling = [0] * (count + 1)  # highest colour placed before position i
    i = c = 0
    while i < count:
        top = min(q, ceiling[i] + 1)
        c += 1
        while c <= top and not fits(i, c):
            c += 1
        if c <= top:
            apply(i, c, +1)
            colour[i] = c
            ceiling[i + 1] = max(ceiling[i], c)
            i, c = i + 1, 0
        elif i == 0:
            return None
        else:
            # no colour fits at i: take back the one at i - 1, try the next
            i -= 1
            c = colour[i]
            apply(i, c, -1)
    return colour


def _colourable(order: list[int], conflicts: list[list[int]],
                q: int) -> dict[int, int] | None:
    """Backtracking decision: colour the arcs in `order` with <= q colours.

    Domains are bitmasks; assigning prunes neighbours' domains and a
    wiped-out domain backtracks immediately.  Arc number i in the order
    may use at most one colour above the maximum placed before it.
    """
    count = len(order)
    position = {arc: i for i, arc in enumerate(order)}
    full = (1 << q) - 1
    domain = [full] * count
    assigned = [0] * count  # colour 1..q, 0 = free
    # neighbours re-expressed in order positions
    adj = [[position[b] for b in conflicts[arc] if b in position]
           for arc in order]
    # _backtrack's search written out, so that it walks the domain bits
    # instead of calling back per colour (through the callbacks exact_dst
    # took half as long again).  untried[i] holds the colours (as bits)
    # position i has still to try, pruned[i] the neighbours its colour was
    # taken from, ceiling[i] the highest colour before it.
    untried = [0] * count
    pruned: list[list[int]] = [[] for _ in range(count)]
    ceiling = [0] * count
    i = 0
    mask = domain[0] & 1
    while True:
        while mask:
            bit = mask & -mask
            mask -= bit
            colour = bit.bit_length()
            assigned[i] = colour
            touched = []
            for j in adj[i]:
                if assigned[j] == 0 and domain[j] & bit:
                    domain[j] -= bit
                    touched.append(j)
                    if domain[j] == 0:
                        break
            else:
                break  # colour placed without wiping out a domain
            for j in touched:
                domain[j] += bit
            assigned[i] = 0
        else:
            # no colour fits at i: take back the one at i - 1
            if i == 0:
                return None
            i -= 1
            bit = 1 << (assigned[i] - 1)
            for j in pruned[i]:
                domain[j] += bit
            assigned[i] = 0
            mask = untried[i]
            continue
        if i + 1 == count:
            break
        untried[i], pruned[i] = mask, touched
        ceiling[i + 1] = max(ceiling[i], colour)
        i += 1
        mask = domain[i] & ((1 << min(q, ceiling[i] + 1)) - 1)
    return {arc: assigned[i] for i, arc in enumerate(order)}


def _dst_lower_bound(d: Digraph) -> int:
    profile = degree_profile(d)
    best = 0
    for v in range(d.vertex_count):
        need = profile.indegree[v] + (1 if profile.outdegree[v] else 0)
        best = max(best, need)
    return best


def exact_dst(d: Digraph, colour_cap: int | None = None,
              arc_limit: int | None = None) -> tuple[int, ArcColouring]:
    """Exact directed star arboricity with a witness colouring.

    Deterministic: arcs are ordered by descending head indegree then arc
    index, and the search is sequential.  Raises TooLarge over the arc
    limit and AboveCap when the optimum exceeds colour_cap.
    """
    limit = arc_limit if arc_limit is not None else arc_limit_default()
    if d.arc_count > limit:
        raise TooLargeError(f"{d.arc_count} arcs exceed the limit {limit}")
    if d.arc_count == 0:
        return 0, ArcColouring({}, 0)
    profile = degree_profile(d)
    order = sorted(range(d.arc_count),
                   key=lambda a: (-profile.indegree[d.arcs[a][1]], a))
    conflicts = _conflict_lists(d)
    lower = max(1, _dst_lower_bound(d))
    upper = d.arc_count  # one arc per colour always verifies
    if colour_cap is not None and colour_cap < lower:
        raise AboveCapError(colour_cap, f"lower bound is {lower}")
    stop = upper if colour_cap is None else min(upper, colour_cap)
    for q in range(lower, stop + 1):
        solution = _colourable(order, conflicts, q)
        if solution is not None:
            return q, ArcColouring(solution, q)
    if colour_cap is not None:
        raise AboveCapError(colour_cap)
    raise InternalDefectError("one colour per arc must be feasible")


def exact_lambda_n(ld: LabelledDigraph, n: int, colour_cap: int | None = None,
                   arc_limit: int | None = None) -> tuple[int, FibreColouring]:
    """Exact minimum colour count of an n-fibre colouring, with witness."""
    if n < 1:
        raise ValidateError("fibre count must be positive")
    limit = arc_limit if arc_limit is not None else arc_limit_default()
    if ld.arc_count > limit:
        raise TooLargeError(f"{ld.arc_count} arcs exceed the limit {limit}")
    if ld.arc_count == 0:
        return 0, FibreColouring(n, {}, 0)
    profile = degree_profile(ld)
    order = sorted(range(ld.arc_count),
                   key=lambda a: (-profile.indegree[ld.arcs[a][1]], a))
    lower = max(1, max(-(-profile.indegree[v] // n)
                       for v in range(ld.vertex_count)))
    upper = ld.arc_count  # all-distinct colours satisfy in+out <= 1+0 at heads
    if colour_cap is not None and colour_cap < lower:
        raise AboveCapError(colour_cap, f"lower bound is {lower}")
    stop = upper if colour_cap is None else min(upper, colour_cap)

    arcs = ld.arcs
    count = len(order)

    def attempt(q: int) -> dict[int, int] | None:
        in_load: dict[tuple[int, int], int] = {}
        out_labels: dict[tuple[int, int, int], int] = {}
        out_count: dict[tuple[int, int], int] = {}

        def usable(pos: int, colour: int) -> bool:
            tail, head, label = arcs[order[pos]]
            if (in_load.get((head, colour), 0) + 1
                    + out_count.get((head, colour), 0)) > n:
                return False
            extra = 0 if out_labels.get((tail, colour, label)) else 1
            if (in_load.get((tail, colour), 0)
                    + out_count.get((tail, colour), 0) + extra) > n:
                return False
            return True

        def place(pos: int, colour: int, sign: int) -> None:
            tail, head, label = arcs[order[pos]]
            in_load[(head, colour)] = in_load.get((head, colour), 0) + sign
            key = (tail, colour, label)
            before = out_labels.get(key, 0)
            out_labels[key] = before + sign
            if sign > 0 and before == 0:
                out_count[(tail, colour)] = out_count.get((tail, colour), 0) + 1
            if sign < 0 and out_labels[key] == 0:
                out_count[(tail, colour)] -= 1

        colours = _backtrack(count, q, usable, place)
        if colours is None:
            return None
        return {order[i]: colours[i] for i in range(count)}

    for q in range(lower, stop + 1):
        solution = attempt(q)
        if solution is not None:
            return q, FibreColouring(n, solution, q)
    if colour_cap is not None:
        raise AboveCapError(colour_cap)
    raise InternalDefectError("one colour per arc must be feasible")


def find_bicoloured_circuit(d: Digraph, colouring: ArcColouring,
                            ) -> tuple[int, ...] | None:
    """A circuit using at most two colours, as a vertex tuple, or None.

    Colour pairs are scanned in ascending lexicographic order; the
    witness is the first circuit of the first cyclic pair subdigraph.
    Each pair is tested by a sort of its own arcs; only the first cyclic
    one is searched for its circuit.
    """
    colours = arc_values(d.arc_count, colouring.colour, "uncoloured")
    classes: dict[int, list[int]] = {}
    for arc, c in enumerate(colours):
        classes.setdefault(c, []).append(arc)
    palette = sorted(classes)
    for a_pos, alpha in enumerate(palette):
        for beta in palette[a_pos:]:
            keep = classes.get(alpha, [])
            if beta != alpha:
                keep = keep + classes.get(beta, [])
            if _acyclic_arcs(d.arcs, keep):
                continue
            circ = find_circuit_arcs(d, set(range(d.arc_count)).difference(keep))
            vertices = tuple(d.arcs[i][0] for i in circ)
            k = vertices.index(min(vertices))
            return vertices[k:] + vertices[:k]
    return None


def _acyclic_arcs(arcs, keep: list[int]) -> bool:
    """Whether the arcs numbered in `keep` form no circuit (Kahn)."""
    heads: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for i in keep:
        tail, head = arcs[i]
        heads.setdefault(tail, []).append(head)
        indegree[head] = indegree.get(head, 0) + 1
    ready = [v for v in heads if v not in indegree]
    removed = 0
    while ready:
        for w in heads.get(ready.pop(), ()):
            removed += 1
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return removed == len(keep)


def edge_colouring_3regular(vertex_count: int,
                            edges: list[tuple[int, int]],
                            vertex_limit: int = 20,
                            ) -> dict[int, int] | None:
    """Proper 3-edge-colouring of a cubic graph, or None if impossible.

    Backtracking over edges with per-vertex used-colour masks; edge e
    may use at most one colour above those placed before it.
    """
    degree = [0] * vertex_count
    seen = set()
    for idx, (a, b) in enumerate(edges):
        if not (0 <= a < vertex_count and 0 <= b < vertex_count) or a == b:
            raise ValidateError(f"edge {idx} ({a},{b}) is invalid")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValidateError(f"edge {idx} duplicates {key}")
        seen.add(key)
        degree[a] += 1
        degree[b] += 1
    if any(deg != 3 for deg in degree):
        raise NotCubicError("graph is not 3-regular")
    if vertex_count > vertex_limit:
        raise TooLargeError(f"{vertex_count} vertices exceed the limit {vertex_limit}")

    used = [0] * vertex_count  # bitmask of colours at each vertex

    def fits(i: int, colour: int) -> bool:
        a, b = edges[i]
        return not (used[a] | used[b]) >> (colour - 1) & 1

    def apply(i: int, colour: int, sign: int) -> None:
        # the bit is clear when placing and set when taking back
        a, b = edges[i]
        used[a] ^= 1 << (colour - 1)
        used[b] ^= 1 << (colour - 1)

    result = _backtrack(len(edges), 3, fits, apply)
    if result is None:
        return None
    return dict(enumerate(result))
