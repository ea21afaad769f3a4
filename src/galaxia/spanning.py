"""Galaxies spanning the degree-4 vertices of a digraph with in- and
outdegree at most two, and the 4-colour star colourings they induce.

`_galaxy_arcs` finds the galaxy by a complete search.  Each arc is a
variable, true when the arc is in the galaxy.  Two arcs conflict when
they share a head or one enters the tail of the other, which is what a
galaxy forbids; each degree-4 vertex has one cover clause, its four
arcs.  The search branches on the first uncovered degree-4 vertex in
index order and puts its least open arc in the galaxy.  Unit
propagation runs from a trail: a chosen arc excludes the arcs it
conflicts with, and a clause left with one open arc takes it.  A
conflict is traced back through the reasons on the trail to a learnt
clause (first unique implication point), and the search jumps back to
the deepest level the clause still needs, where it forces one more
literal.  Undoing only the latest decision instead thrashes: on one in
about 240 random 2-in 2-out digraphs the decision that caused a
conflict lies a thousand levels down, and plain chronological
backtracking made millions of steps there.  Everything lives on
explicit stacks, so the search never recurses.

A search, and not a polynomial rule, because deciding whether a digraph
has a spanning galaxy is NP-complete in general (Goncalves, Havet,
Pinlou and Thomasse, On spanning galaxies in digraphs, Discrete Appl.
Math. 2012).  The theorem guarantees a galaxy spanning the degree-4
vertices when in- and outdegree are at most two, so running out of
choices would be a defect; on random instances the search meets at
most a handful of conflicts.
"""

from __future__ import annotations

from .colouring import ArcColouring
from .digraph import Digraph, _require_simple, degree_profile
from .errors import InternalDefectError, PreconditionViolatedError
from .subcubic import _colour_subcubic


def _galaxy_arcs(d: Digraph) -> list[int]:
    """The arcs, ascending, of a galaxy of d spanning every vertex of
    degree four, for d simple with in- and outdegree at most two.  The
    search is complete, so it ends with a galaxy whenever one exists;
    the theorem says one always does here."""
    arcs, in_arcs, out_arcs = d.arcs, d.in_arcs, d.out_arcs
    degree = d.profile.degree
    heavy = [v for v in range(d.vertex_count) if degree[v] == 4]
    # A literal is a + 1 for "arc a in the galaxy" and -(a + 1) for "out";
    # a clause is a tuple of literals, one of which must hold.
    value = [0] * d.arc_count  # 1 in the galaxy, -1 out of it, 0 open
    level = [0] * d.arc_count  # decision level of each assignment
    reason: list[tuple[int, ...] | None] = [None] * d.arc_count
    covered = [0] * d.vertex_count  # galaxy arcs at each vertex
    trail: list[int] = []
    starts: list[int] = []  # trail length when each decision level began
    resume: list[int] = []  # heavy position of each level's decision
    learnt_at: dict[int, list[tuple[int, ...]]] = {}  # literal -> clauses

    def assign(q: int, why: tuple[int, ...] | None) -> None:
        a = abs(q) - 1
        value[a] = 1 if q > 0 else -1
        level[a] = len(starts)
        reason[a] = why
        trail.append(a)
        if q > 0:
            for v in arcs[a]:
                covered[v] += 1

    def unit(clause: tuple[int, ...]) -> tuple[int, ...] | None:
        """Assign the last open literal of a clause; the clause when it
        has none left and none holds."""
        free = []
        for q in clause:
            b = abs(q) - 1
            if value[b] == 0:
                free.append(q)
            elif (value[b] == 1) == (q > 0):
                return None
        if not free:
            return clause
        if len(free) == 1:
            assign(free[0], clause)
        return None

    def propagate(pos: int) -> tuple[int, ...] | None:
        """Unit propagation over trail[pos:]; the clause that failed, if
        one did."""
        while pos < len(trail):
            a = trail[pos]
            pos += 1
            t, h = arcs[a]
            if value[a] == 1:
                # the arcs sharing a's head, leaving its head or
                # entering its tail
                for b in (*in_arcs[h], *out_arcs[h], *in_arcs[t]):
                    if b != a and value[b] != -1:
                        clause = (-a - 1, -b - 1)
                        if value[b] == 1:
                            return clause
                        assign(-b - 1, clause)
                falsified = -a - 1
            else:
                for v in (t, h):
                    if degree[v] == 4 and not covered[v]:
                        failed = unit(tuple(b + 1 for b in (*in_arcs[v],
                                                            *out_arcs[v])))
                        if failed:
                            return failed
                falsified = a + 1
            for clause in learnt_at.get(falsified, ()):
                failed = unit(clause)
                if failed:
                    return failed  # unreached: no known input fails a learnt clause
        return None

    def analyse(clause: tuple[int, ...]) -> tuple[int, ...]:
        """The first-UIP clause learnt from a failed clause: its last
        literal is the only one assigned at the current level."""
        seen: set[int] = set()
        learnt: list[int] = []
        count = 0
        pos = len(trail)
        while True:
            for q in clause:
                b = abs(q) - 1
                if b not in seen and level[b] > 0:
                    seen.add(b)
                    if level[b] == len(starts):
                        count += 1
                    else:
                        learnt.append(q)
            pos -= 1
            while trail[pos] not in seen:
                pos -= 1
            a = trail[pos]
            count -= 1
            if count == 0:
                learnt.append(-a - 1 if value[a] == 1 else a + 1)
                return tuple(learnt)
            clause = tuple(q for q in reason[a] if abs(q) - 1 != a)

    nxt = 0  # heavy[:nxt] are covered
    failed = None
    while True:
        if failed:
            if not starts:
                raise InternalDefectError(
                    "no galaxy spans the degree-four vertices of a digraph "
                    f"with {d.vertex_count} vertices and {d.arc_count} arcs")
            learnt = analyse(failed)
            # jump back to the deepest level among the other literals,
            # where the learnt clause forces its last one
            back = max((level[abs(q) - 1] for q in learnt[:-1]), default=0)
            cut = starts[back]
            for b in trail[cut:]:
                if value[b] == 1:
                    for v in arcs[b]:
                        covered[v] -= 1
                value[b] = 0
            del trail[cut:]
            nxt = resume[back]
            del starts[back:], resume[back:]
            for q in learnt:
                learnt_at.setdefault(q, []).append(learnt)
            assign(learnt[-1], learnt)
            failed = propagate(cut)
            continue
        while nxt < len(heavy) and covered[heavy[nxt]]:
            nxt += 1
        if nxt == len(heavy):
            return [i for i in range(d.arc_count) if value[i] == 1]
        v = heavy[nxt]
        starts.append(len(trail))
        resume.append(nxt)
        assign(min(b for b in (*in_arcs[v], *out_arcs[v]) if value[b] == 0) + 1,
               None)
        failed = propagate(len(trail) - 1)


def dst4_colouring(d: Digraph) -> ArcColouring:
    """A directed star colouring with at most four colours for
    digraphs with in- and outdegree at most two.

    Colour 4 is a galaxy spanning the degree-4 vertices; what remains has
    maximum degree three and is coloured with 1..3.  Digraphs without
    degree-4 vertices get the empty galaxy.
    """
    profile = degree_profile(d)
    if profile.max_indegree > 2 or profile.max_outdegree > 2:
        raise PreconditionViolatedError(
            f"in/outdegrees ({profile.max_indegree}, {profile.max_outdegree})"
            " exceed two")
    _require_simple(d, "needs a simple digraph")
    galaxy = set(_galaxy_arcs(d))
    rest = [i for i in range(d.arc_count) if i not in galaxy]
    sub = Digraph._of(d.vertex_count, tuple(d.arcs[i] for i in rest))
    colours = [4] * d.arc_count
    for i, c in zip(rest, _colour_subcubic(sub)):
        colours[i] = c
    return ArcColouring(colours, 4 if galaxy else 3 if rest else 0)
