"""Digraph data model and basic machinery shared by every algorithm.

Vertices are dense 0-based integers.  Arcs live in an ordered tuple and
are referenced everywhere by their index in that tuple, which keeps
colourings unambiguous where arcs repeat, as a Digraph's may.  All types
are immutable values on `_Frozen`, the base the other modules' value
types share; derived structures (adjacency, degrees) are cached lazily
and never exposed mutably.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, attrgetter, itemgetter
from typing import Sequence, TypeVar

from .errors import CyclicError, PreconditionViolatedError, ValidateError

Arc = tuple[int, int]
_V = TypeVar("_V", bound="_Frozen")


class _Frozen:
    """Base of the package's immutable value types.  The attributes named
    in `_fields` (two or more) decide ==, hash and repr, in that order,
    as a frozen dataclass's fields would; a value equals only a value of
    its own class.  No attribute can be assigned or deleted, so
    constructors write them into vars(self)."""

    _fields: tuple[str, ...]

    @classmethod
    def _of(cls: type[_V], *values: object) -> _V:
        """The value of fields this package has already checked, kept as
        they are: `values` in `_fields` order, with no check run.  A
        Digraph's arcs, say, must be a tuple of plain int pairs with ends
        in range and no self-loop."""
        value = object.__new__(cls)
        vars(value).update(zip(cls._fields, values))
        return value

    def _values(self) -> tuple:
        return attrgetter(*self._fields)(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Digraph(_Frozen):
    """Digraph on vertices 0..vertex_count-1 whose arcs may repeat, as
    in the underlying digraph of a LabelledDigraph."""

    vertex_count: int
    arcs: tuple[Arc, ...]
    _fields = ("vertex_count", "arcs")

    def __init__(self, vertex_count: int, arcs: tuple[Arc, ...]) -> None:
        _check_count("vertex_count", vertex_count, 0)
        vars(self).update(vertex_count=vertex_count, arcs=_check_arcs(vertex_count, arcs))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_arcs(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, indices of leaving arcs in ascending arc order."""
        buckets: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (tail, _) in enumerate(self.arcs):
            buckets[tail].append(i)
        return tuple(map(tuple, buckets))

    @cached_property
    def in_arcs(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, indices of entering arcs in ascending arc order."""
        buckets: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (_, head) in enumerate(self.arcs):
            buckets[head].append(i)
        return tuple(map(tuple, buckets))

    @cached_property
    def profile(self) -> DegreeProfile:
        """In- and outdegree of every vertex; see degree_profile."""
        indeg = [0] * self.vertex_count
        outdeg = [0] * self.vertex_count
        for tail, head in self.arcs:
            outdeg[tail] += 1
            indeg[head] += 1
        return DegreeProfile(tuple(indeg), tuple(outdeg))

    @cached_property
    def _sort(self) -> tuple[int, ...]:
        """Kahn's algorithm with a first-in first-out ready list (Kahn,
        1962), so the sources come first, ascending, and every other
        vertex follows as soon as its last entering arc is removed.  The
        order is a topological one exactly when it holds every vertex;
        with a circuit it stops short, and the vertices it leaves out
        are those with an entering arc left."""
        indeg = list(self.profile.indegree)
        order = [v for v in range(self.vertex_count) if indeg[v] == 0]
        out_arcs = self.out_arcs
        arcs = self.arcs
        for v in order:  # grows while it is read
            for i in out_arcs[v]:
                w = arcs[i][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        return tuple(order)

    def has_digon(self) -> bool:
        return not set(self.arcs).isdisjoint(map(itemgetter(1, 0), self.arcs))


class LabelledDigraph(_Frozen):
    """Digraph whose arcs carry a label in 1..label_count.

    (tail, head, label) triples are distinct, so parallel arcs exist
    exactly when the same ordered pair appears under several labels.
    """

    vertex_count: int
    label_count: int
    arcs: tuple[tuple[int, int, int], ...]
    _fields = ("vertex_count", "label_count", "arcs")

    def __init__(self, vertex_count: int, label_count: int,
                 arcs: tuple[tuple[int, int, int], ...]) -> None:
        _check_count("vertex_count", vertex_count, 0)
        _check_count("label_count", label_count, 1)
        vars(self).update(vertex_count=vertex_count, label_count=label_count,
                          arcs=_check_arcs(vertex_count, arcs, label_count))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def profile(self) -> DegreeProfile:
        """In- and outdegree of every vertex; see degree_profile.  Labels
        do not change degrees, so this is the underlying digraph's
        profile, counted once for both."""
        return self.underlying.profile

    @cached_property
    def underlying(self) -> Digraph:
        """The label-stripped multidigraph, same arc indices."""
        return Digraph._of(self.vertex_count,
                           tuple(map(itemgetter(0, 1), self.arcs)))


def _check_count(name: str, value, least: int, error=ValidateError) -> None:
    """Raise error unless value is an int, not a bool, >= least."""
    if type(value) is not int:
        raise error(f"{name} must be an int")
    if value < least:
        raise error(f"{name} must be {'positive' if least else 'non-negative'}")


def _check_arcs(vertex_count: int, arcs,
                label_count: int | None = None) -> tuple:
    """The arcs as a tuple of plain tuples, checked in one pass: each a
    (tail, head) pair, or a (tail, head, label) triple when label_count
    is given, of plain ints (no bool) with distinct ends in range, a label
    in 1..label_count and no triple repeated.  A ValidateError names the
    first arc that fails, or the arcs when they are not iterable."""
    width = 2 if label_count is None else 3
    stored, seen = [], set()
    try:
        arcs = iter(arcs)
    except TypeError:
        raise ValidateError("arcs must be iterable") from None
    for i, arc in enumerate(arcs):
        if type(arc) is not tuple:  # a list, say, is stored as a tuple
            arc = tuple(arc) if hasattr(arc, "__iter__") else ()
        if len(arc) != width:
            shape = "(tail, head) pair" if width == 2 else "(tail, head, label) triple"
            raise ValidateError(f"arc {i} is not a {shape}")
        for entry in arc:
            if type(entry) is not int:
                raise ValidateError(f"arc {i} entry {entry!r} is not an int")
        tail, head = arc[0], arc[1]
        if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
            raise ValidateError(f"arc {i} ({tail},{head}) out of vertex range")
        if tail == head:
            raise ValidateError(f"arc {i} is a self-loop at {tail}")
        if width == 3:
            if not 1 <= arc[2] <= label_count:
                raise ValidateError(f"arc {i} label {arc[2]} outside 1..{label_count}")
            if arc in seen:
                raise ValidateError(f"arc {i} duplicates ({','.join(map(format, arc))})")
            seen.add(arc)
        stored.append(arc)
    return tuple(stored)


def _require_simple(d: Digraph, message: str) -> None:
    """Raise PreconditionViolatedError(message) when an arc of d repeats another."""
    if len(set(d.arcs)) != d.arc_count:
        raise PreconditionViolatedError(message)


def _sub(g: Digraph, ids: Sequence[int], keep: Sequence[int],
         ) -> tuple[Digraph, list[int]]:
    """The arcs `keep` (ascending) of g on the vertices they touch, both
    renumbered in ascending order, and the input index `ids[a]` of each
    arc a kept.  The renumbering keeps the order of vertices and of arcs,
    so every tie-break by index falls as it would in g."""
    arcs = g.arcs
    verts = sorted({v for a in keep for v in arcs[a]})
    index = {v: i for i, v in enumerate(verts)}
    return (Digraph._of(len(verts), tuple([
                (index[arcs[a][0]], index[arcs[a][1]]) for a in keep])),
            [ids[a] for a in keep])


class DegreeProfile(_Frozen):
    indegree: tuple[int, ...]
    outdegree: tuple[int, ...]
    degree: tuple[int, ...]
    max_indegree: int
    max_outdegree: int
    max_degree: int
    _fields = ("indegree", "outdegree", "degree", "max_indegree",
               "max_outdegree", "max_degree")

    def __init__(self, indegree: tuple[int, ...],
                 outdegree: tuple[int, ...]) -> None:
        degree = tuple(map(add, indegree, outdegree))
        vars(self).update(indegree=indegree, outdegree=outdegree, degree=degree,
                          max_indegree=max(indegree, default=0),
                          max_outdegree=max(outdegree, default=0),
                          max_degree=max(degree, default=0))


def degree_profile(d: Digraph | LabelledDigraph) -> DegreeProfile:
    """In- and outdegree of every vertex, counted once per digraph."""
    return d.profile


def strong_components(d: Digraph) -> tuple[tuple[int, ...], ...]:
    """SCCs in reverse-topological order of the condensation.

    Iterative Tarjan; a component is emitted only once everything it can
    reach has been emitted, which is exactly the contract.  Vertices are
    visited ascending and successors in arc order, so the output is a
    pure function of the input.  Members are sorted ascending.  A
    vertex's index is its position on Tarjan's stack, which it keeps
    while it is there, and the search compares only the indices of
    vertices on the stack.
    """
    n = d.vertex_count
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    out_arcs = d.out_arcs
    arcs = d.arcs

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS stack of (vertex, iterator over its out-arcs)
        work = [(root, iter(out_arcs[root]))]
        index[root] = low[root] = 0
        stack.append(root)
        on_stack[root] = True
        while work:
            v, rest = work[-1]
            for i in rest:
                w = arcs[i][1]
                if index[w] == -1:
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out_arcs[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = stack[index[v]:]
                    del stack[index[v]:]
                    for w in comp:
                        on_stack[w] = False
                    components.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return tuple(components)


def topological_order(d: Digraph) -> tuple[int, ...]:
    """Kahn's first-in first-out order: the sources ascending, then every
    other vertex as soon as its last entering arc is removed.  It is one
    valid order, not the lowest-id one, and callers must not rely on
    which valid order it is.

    Raises CyclicError when no order exists, with the tails of
    find_circuit_arcs(d) as its circuit.  The sort runs once per digraph;
    is_acyclic reads the same result.
    """
    order = d._sort
    if len(order) < d.vertex_count:
        raise CyclicError(tuple(d.arcs[i][0] for i in find_circuit_arcs(d)))
    return order


def _pattern_sweep(d: Digraph, reads, source, solve) -> tuple[dict[int, int], list]:
    """The induction both acyclic constructions run: each vertex v in
    topological order takes a state from the states of its tails, and
    its entering arcs take their colours, by `solve(key)` on the key of
    `state[tail][reads[a]]` over the arcs a entering v, in arc order.
    A vertex with no entering arc keeps `source`.  The colours and the
    state depend on the key alone, so each key is solved once per call.

    Returns (colour by arc index, state by vertex).  Raises CyclicError
    on cyclic input.
    """
    order = topological_order(d)
    # tails precede their heads, so a key reads only states already set
    state = [source] * d.vertex_count
    colour: dict[int, int] = {}
    table: dict[tuple, tuple] = {}
    arcs, in_arcs = d.arcs, d.in_arcs
    for v in order:
        entering = in_arcs[v]
        if not entering:
            continue
        read = []  # a loop: a comprehension is one more call per vertex
        for a in entering:
            read.append(state[arcs[a][0]][reads[a]])
        key = tuple(read)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = solve(key)
        colours, state[v] = entry
        colour.update(zip(entering, colours))
    return colour, state


# Entries of each pattern memo (`acyclic._lemma`, `fibre._assign`), kept for
# the process's life; outputs do not depend on what a memo holds.
_MEMO_CAP = 1 << 11


def is_acyclic(d: Digraph) -> bool:
    return len(d._sort) == d.vertex_count


def find_circuit_arcs(d: Digraph) -> tuple[int, ...] | None:
    """Arc indices of a circuit in d, or None.

    The circuit is found among the vertices Kahn's sort (Digraph._sort)
    leaves: from the least of them, walk back along the entering arc with
    the least tail (then the least index) until a vertex repeats.  It is
    returned in arc direction, starting with the arc that leaves its
    least vertex.  Deterministic.
    """
    left = set(range(d.vertex_count)).difference(d._sort)
    if not left:
        return None
    arcs = d.arcs
    # each vertex left is entered by an arc from another one left
    back = {v: min((arcs[i][0], i) for i in d.in_arcs[v] if arcs[i][0] in left)[1]
            for v in sorted(left)}
    # the first cycle is the one the walk from the least vertex reaches
    circuit = [back[v] for v in reversed(_map_cycles(
        {v: arcs[i][0] for v, i in back.items()})[0])]
    tails = [arcs[i][0] for i in circuit]
    k = tails.index(min(tails))
    return tuple(circuit[k:] + circuit[:k])


def _map_cycles(step: dict[int, int]) -> list[list[int]]:
    """The cycles of the partial map v -> step[v], each once, listed
    along the map from the first of its vertices a walk met.  Walks start
    at the keys of step in their order and end at a vertex met before or
    outside the map, so each vertex is walked once."""
    met: set[int] = set()
    cycles = []
    for start in step:
        path = []
        v = start
        while v in step and v not in met:
            met.add(v)
            path.append(v)
            v = step[v]
        if v in path:  # the walk closed on itself
            cycles.append(path[path.index(v):])
    return cycles
