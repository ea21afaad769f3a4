"""Verifiers and exact solvers: ground truth at desk scale.

The exact solvers are backtracking with forward checking over bitmask
domains, on their own stack.  They branch dynamically, DSATUR style: the
next arc is the uncoloured one with the fewest colours left, ties going
to more conflicts and then the lower arc index, never to set order, so
the search is deterministic.  Colours are tried ascending, and a new
colour is at most one above the highest placed so far.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations, count
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .colouring import ArcColouring, arc_values
from .digraph import Digraph, LabelledDigraph, _check_count, _check_type, _map_cycles
from .errors import (AboveCapError, BadParamsError, InternalDefectError,
                     InvalidColouringError, TooLargeError, ValidateError)

if TYPE_CHECKING:
    from .fibre import FibreColouring  # unreached: type checkers only

DEFAULT_ARC_LIMIT = 40


class StarViolation(NamedTuple):
    rule: str  # 'i' (consecutive arcs) or 'ii' (converging arcs)
    first_arc: int
    second_arc: int
    colour: int

    def __str__(self) -> str:
        kind = "converging" if self.rule == "ii" else "consecutive"
        return (f"{kind} arcs {self.first_arc} and {self.second_arc}"
                f" share colour {self.colour}")


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
    # the pass found a clash, so the scan returns before it runs out of
    # vertices
    for v in count():
        first_in: dict[int, int] = {}
        for i in in_arcs[v]:
            c = colours[i]
            if c in first_in:
                return StarViolation("ii", first_in[c], i, c)
            first_in[c] = i
        for i in out_arcs[v]:
            c = colours[i]
            if c in first_in:
                return StarViolation("i", first_in[c], i, c)


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


def _dsatur(q: int, degree: list[int], place: Callable[[int, int], list[int]],
            take_back: Callable[[int, int], object]) -> list[int] | None:
    """First colouring of items 0..len(degree)-1 with colours 1..q, or None.

    Each item keeps its domain, the colours it may still take, as a
    bitmask.  place(i, c) records colour c on item i and returns the
    items this rules out of c (it may also list coloured items, and
    items already without c); take_back(i, c) undoes place.  A placement
    that empties a free item's domain is taken back at once (forward
    checking).

    Branching is DSATUR (Brelaz 1979): the next item is the free one
    with the fewest colours left, then the one with the largest
    degree[i], then the lowest index.  rank[i] encodes that key as one
    int, so choosing is one min() over the free items and a pruned
    colour moves an item by a constant.  Colours are tried ascending and
    up to one above the highest placed so far: the colours not yet
    placed are interchangeable.  The search keeps its own stack, so its
    depth is not bounded by the recursion limit.
    """
    count = len(degree)
    colour = [0] * count
    if not count:
        return colour
    domain = [(1 << q) - 1] * count
    most = max(degree)
    step = (most + 1) * count  # one colour fewer outweighs any degree
    rank = [(most - deg) * count + i for i, deg in enumerate(degree)]
    free = set(range(count))
    # per placed item: the item, its untried colours (as bits), the
    # items it pruned and the highest colour placed before it
    stack: list[tuple[int, int, list[int], int]] = []
    ceiling = 0
    i = min(free, key=rank.__getitem__)
    free.remove(i)
    mask = 1
    while True:
        while mask:
            bit = mask & -mask
            mask -= bit
            c = bit.bit_length()
            colour[i] = c
            pruned = []
            for j in place(i, c):
                if not colour[j] and domain[j] & bit:
                    domain[j] -= bit
                    rank[j] -= step
                    pruned.append(j)
                    if not domain[j]:
                        break
            else:
                break  # colour placed without wiping out a domain
            for j in pruned:
                domain[j] += bit
                rank[j] += step
            take_back(i, c)
        else:
            # no colour fits at i: take back the item placed before it
            colour[i] = 0
            free.add(i)
            if not stack:
                return None
            i, mask, pruned, ceiling = stack.pop()
            c = colour[i]
            bit = 1 << (c - 1)
            for j in pruned:
                domain[j] += bit
                rank[j] += step
            take_back(i, c)
            continue
        if not free:
            return colour
        stack.append((i, mask, pruned, ceiling))
        ceiling = max(ceiling, c)
        i = min(free, key=rank.__getitem__)
        free.remove(i)
        mask = domain[i] & ((1 << min(q, ceiling + 1)) - 1)


def _colour_graph(conflicts: list[list[int]], q: int) -> list[int] | None:
    """A colouring with <= q colours in which no item shares its colour
    with one in conflicts[item], or None."""
    return _dsatur(q, list(map(len, conflicts)),
                   lambda i, _c: conflicts[i], lambda _i, _c: None)


def _lower_bound(indegree: tuple[int, ...], tails, n: int) -> int:
    """Largest ceil((indeg(v) + labels leaving v) / n), at least 1.

    `tails` names v once per distinct label on its leaving arcs.  In
    each colour v has in + out <= n, and summed over the colours the in
    parts give indeg(v) and the out parts at least the labels leaving v.
    """
    need = list(indegree)
    for v in tails:
        need[v] += 1
    return max(1, -(-max(need) // n))


def _check_limits(arc_count: int, colour_cap: int | None, arc_limit: int) -> None:
    """BadParamsError unless colour_cap (None for none) and arc_limit are
    plain ints; then TooLargeError when arc_count exceeds arc_limit."""
    if colour_cap is not None and type(colour_cap) is not int:
        raise BadParamsError("colour_cap must be an int or None")
    if type(arc_limit) is not int:
        raise BadParamsError("arc_limit must be an int")
    if arc_count > arc_limit:
        raise TooLargeError(f"{arc_count} arcs exceed the limit {arc_limit}")


def _fewest_colours(lower: int, upper: int, colour_cap: int | None,
                    attempt: Callable[[int], list[int] | None]) -> tuple[int, list[int]]:
    """(q, attempt(q)) for the least q in lower..upper, capped at
    colour_cap, whose attempt succeeds; the one at upper must."""
    if colour_cap is not None and colour_cap < lower:
        raise AboveCapError(colour_cap, f"lower bound is {lower}")
    for q in range(lower, (upper if colour_cap is None else min(upper, colour_cap)) + 1):
        solution = attempt(q)
        if solution is not None:
            return q, solution
    if colour_cap is not None:
        raise AboveCapError(colour_cap)
    raise InternalDefectError("one colour per arc must be feasible")


def exact_dst(d: Digraph, colour_cap: int | None = None,
              arc_limit: int = DEFAULT_ARC_LIMIT) -> tuple[int, ArcColouring]:
    """Exact directed star arboricity with a witness colouring.

    Tries q = lower bound, lower bound + 1, ... and colours the arcs'
    conflict graph with _dsatur: branch on the uncoloured arc with the
    fewest colours left, then the most conflicts, then the lowest index.
    Deterministic, but the witness is the first colouring this order
    finds.  Raises TooLarge over the arc limit and AboveCap when the
    optimum exceeds colour_cap.
    """
    _check_limits(d.arc_count, colour_cap, arc_limit)
    if d.arc_count == 0:
        return 0, ArcColouring((), 0)
    conflicts = _conflict_lists(d)
    lower = _lower_bound(d.profile.indegree, set(map(itemgetter(0), d.arcs)), 1)
    # one arc per colour always verifies
    q, solution = _fewest_colours(lower, d.arc_count, colour_cap,
                                  lambda q: _colour_graph(conflicts, q))
    return q, ArcColouring(solution, q)


def exact_lambda_n(ld: LabelledDigraph, n: int, colour_cap: int | None = None,
                   arc_limit: int = DEFAULT_ARC_LIMIT) -> tuple[int, FibreColouring]:
    """Exact minimum colour count of an n-fibre colouring, with witness.

    Same search as exact_dst (_dsatur, same branching rule), where arc
    (u, v, l) may take colour c while v has in + out < n in c and u has
    in + out < n in c or already sends label l in c.  A colour is taken
    from other arcs' domains only at a (vertex, colour) whose load has
    just reached n; below n no arc can lose it there.
    """
    from .fibre import FibreColouring
    _check_type("exact_lambda_n", ld, LabelledDigraph)
    _check_count("fibre count", n, 1, BadParamsError)
    _check_limits(ld.arc_count, colour_cap, arc_limit)
    if ld.arc_count == 0:
        return 0, FibreColouring(n, (), 0)
    arcs = ld.arcs
    in_arcs, out_arcs = ld.in_arcs, ld.out_arcs
    groups: dict[tuple[int, int], int] = {}  # (tail, label) -> its number
    group = [groups.setdefault(key, len(groups))
             for key in zip(map(itemgetter(0), arcs), ld.labels)]
    lower = _lower_bound(ld.profile.indegree, map(itemgetter(0), groups), n)
    degree = [len(in_arcs[u]) + len(out_arcs[u]) + len(in_arcs[v]) + len(out_arcs[v])
              for u, v in arcs]

    def attempt(q: int) -> list[int] | None:
        # load[v * (q + 1) + c]: in + out of v in colour c, where out
        # counts distinct labels; sent[group[a] * (q + 1) + c]: arcs
        # placed in colour c that leave a's tail with a's label
        load = [0] * (ld.vertex_count * (q + 1))
        sent = [0] * (len(groups) * (q + 1))

        def full(v: int, c: int) -> list[int]:
            # arcs ruled out at v once its load in colour c is n
            return [*in_arcs[v], *(j for j in out_arcs[v]
                                   if not sent[group[j] * (q + 1) + c])]

        def place(a: int, c: int) -> list[int]:
            tail, head = arcs[a]
            at = head * (q + 1) + c
            load[at] += 1
            ruled = full(head, c) if load[at] == n else []
            g = group[a] * (q + 1) + c
            sent[g] += 1
            if sent[g] == 1:
                at = tail * (q + 1) + c
                load[at] += 1
                if load[at] == n:
                    ruled += full(tail, c)
            return ruled

        def take_back(a: int, c: int) -> None:
            tail, head = arcs[a]
            load[head * (q + 1) + c] -= 1
            g = group[a] * (q + 1) + c
            sent[g] -= 1
            if not sent[g]:
                load[tail * (q + 1) + c] -= 1

        return _dsatur(q, degree, place, take_back)

    # all-distinct colours satisfy in+out <= 1+0 at heads
    q, solution = _fewest_colours(lower, ld.arc_count, colour_cap, attempt)
    return q, FibreColouring(n, solution, q)


def find_bicoloured_circuit(d: Digraph, colouring: ArcColouring,
                            ) -> tuple[int, ...] | None:
    """A circuit of d in two colours of a star colouring, as a vertex
    tuple, or None; _bicoloured_circuit says which one.  The paper asks
    this of star colourings only, so on any other colouring it raises
    InvalidColouringError naming verify_star_colouring's clash."""
    bad = verify_star_colouring(d, colouring)
    if bad is not None:
        raise InvalidColouringError(f"not a star colouring: {bad}")
    return _bicoloured_circuit(d, colouring)


def _bicoloured_circuit(d: Digraph, colouring: ArcColouring,
                        ) -> tuple[int, ...] | None:
    """The circuit of the first colour pair α < β, in ascending order,
    that holds one, through the least vertex on any of that pair's
    circuits and listed from it in arc direction; None when no pair
    holds one.

    The colouring must pass verify_star_colouring: each colour then
    enters a vertex at most once and never colours two consecutive
    arcs, so a circuit in α and β alternates them, each vertex lies on
    at most one, and "the α-arc in, then the β-arc in" is a partial map
    on the heads of α's class whose cycles are the α, β circuits.  Each
    pair is walked from the heads of its smaller class, so the search
    costs O(q·A) time for q colours and A arcs, and O(A) memory."""
    into: dict[int, dict[int, int]] = {}  # colour -> head -> tail
    for (tail, head), c in zip(d.arcs, colouring.colour):
        into.setdefault(c, {})[head] = tail
    for alpha, beta in combinations(sorted(into), 2):
        first, then = sorted((into[alpha], into[beta]), key=len)
        # each cycle walks back from heads of `first`; its circuit lists
        # those heads and the tails of their `first` arcs, reversed
        circuits = [[x for h in cycle for x in (h, first[h])][::-1]
                    for cycle in _map_cycles(
                        {h: then[t] for h, t in first.items() if t in then})]
        if circuits:
            circuit = min(circuits, key=min)
            k = circuit.index(min(circuit))
            return tuple(circuit[k:] + circuit[:k])
    return None


def _check_cubic(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """The edges as the arcs of a Digraph, in input order, after checking
    that they form a simple 3-regular graph.  The Digraph constructor
    checks the count and each pair; then a ValidateError names the first
    edge that repeats another in either direction."""
    g = Digraph(vertex_count, edges)
    seen: set[tuple[int, int]] = set()
    for u, v in g.arcs:
        if (u, v) in seen:
            raise ValidateError(f"duplicate edge ({u},{v})")
        seen.update(((u, v), (v, u)))
    if any(deg != 3 for deg in g.profile.degree):
        raise ValidateError("graph is not 3-regular")
    return g


def edge_colouring_3regular(vertex_count: int,
                            edges: Iterable[tuple[int, int]],
                            vertex_limit: int = 20,
                            ) -> tuple[int, ...] | None:
    """Proper 3-edge-colouring of a cubic graph, its colour by edge
    index, or None if impossible.

    Colours the line graph with the exact solvers' search (_dsatur).
    """
    g = _check_cubic(vertex_count, edges)
    if type(vertex_limit) is not int:
        raise BadParamsError("vertex_limit must be an int")
    if vertex_count > vertex_limit:
        raise TooLargeError(f"{vertex_count} vertices exceed the limit {vertex_limit}")

    # the conflicts of an edge are the other edges at its two ends, each
    # an arc that leaves or enters the end
    out_arcs, in_arcs = g.out_arcs, g.in_arcs
    result = _colour_graph([[f for w in (a, b) for f in out_arcs[w] + in_arcs[w]
                             if f != e] for e, (a, b) in enumerate(g.arcs)], 3)
    return None if result is None else tuple(result)
