"""Galaxies spanning the degree-4 vertices of a digraph with in- and
outdegree at most two, and the 4-colour star colourings they induce.

The augmentation engine mirrors a maximality argument: starting from a
greedy maximal galaxy, an unspanned degree-4 vertex x admits alternating
paths (galaxy arc, then non-galaxy arc, ending at x), and each way such a
configuration could be rearranged yields a candidate exchange move.  The
four moves, tried in this order, are: flip a path whose first tail keeps
a second star arc; flip a path and drop its first tail or re-cover it
through one of its in-arcs; flip a path and add a tail-to-tail arc; flip
a path together with an alternating circuit.  Every candidate is
validated before committing.  If no move applies, instances of at most
twelve vertices fall back to exhaustive search, and larger ones raise
InternalDefectError rather than return an unchecked result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile
from .errors import DegreeTooHighError, InternalDefectError, ValidateError
from .subcubic import star_colouring_subcubic

_PATH_BUDGET = 20000


@dataclass(frozen=True)
class Galaxy:
    """A vertex-disjoint union of out-stars given by (tail, head) pairs.

    Heads are pairwise distinct and no head is also a tail; the stars are
    recovered by grouping arcs on their tail, the centre.
    """

    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        arcs = tuple(sorted((int(t), int(h)) for t, h in self.arcs))
        heads = [h for _, h in arcs]
        tails = {t for t, _ in arcs}
        if any(t == h for t, h in arcs):
            raise ValidateError("a star arc cannot be a loop")
        if len(heads) != len(set(heads)) or set(heads) & tails:
            raise ValidateError("arcs do not form a galaxy")
        object.__setattr__(self, "arcs", arcs)

    @cached_property
    def centres(self) -> Mapping[int, tuple[int, ...]]:
        by_tail: dict[int, list[int]] = {}
        for t, h in self.arcs:
            by_tail.setdefault(t, []).append(h)
        return MappingProxyType({t: tuple(sorted(hs))
                                 for t, hs in by_tail.items()})

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for arc in self.arcs for v in arc)

    def spans(self, vertex: int) -> bool:
        return vertex in self.vertices


# ---------------------------------------------------------------------------
# spanning galaxies


def _galaxy_ok(arcs: tuple[tuple[int, int], ...], chosen) -> bool:
    heads = [arcs[i][1] for i in chosen]
    tails = {arcs[i][0] for i in chosen}
    return len(heads) == len(set(heads)) and not (set(heads) & tails)


def _extend_greedy(arcs, chosen: set[int]) -> None:
    heads = {arcs[i][1] for i in chosen}
    tails = {arcs[i][0] for i in chosen}
    for i in range(len(arcs)):
        if i in chosen:
            continue
        t, h = arcs[i]
        if h in heads or h in tails or t in heads:
            continue
        chosen.add(i)
        heads.add(h)
        tails.add(t)


def _spanned(arcs, chosen) -> set[int]:
    out: set[int] = set()
    for i in chosen:
        out.update(arcs[i])
    return out


def _alt_reachable(d: Digraph, gset: frozenset[int], x: int) -> set[int]:
    """Galaxy arcs from which an alternating suffix reaches x.

    Arc-level reachability, walked backwards: a galaxy arc (u, v) reaches
    the target w when some non-galaxy arc (v, w) exists; w is x or the
    tail of an already-reachable galaxy arc.
    """
    arcs = d.arcs
    in_arcs = d.in_arcs
    g_by_head = {arcs[i][1]: i for i in gset}  # galaxy heads are distinct
    reach: set[int] = set()
    frontier = [x]
    while frontier:
        w = frontier.pop()
        for j in in_arcs[w]:
            if j in gset:
                continue
            i = g_by_head.get(arcs[j][0])
            if i is not None and i not in reach:
                reach.add(i)
                frontier.append(arcs[i][0])
    return reach


def _alt_path(d: Digraph, gset: frozenset[int], start: int, x: int,
              banned: frozenset[int] = frozenset()) -> list[int] | None:
    """A vertex-simple alternating path from `start` (a galaxy arc) to x.

    The path alternates galaxy and non-galaxy arcs, ends with a
    non-galaxy arc into x and avoids `banned` arcs.  Depth-first with a
    state budget; None when nothing is found within it.
    """
    arcs = d.arcs
    out_arcs = d.out_arcs
    if start in banned:
        return None
    su, sv = arcs[start]
    budget = _PATH_BUDGET
    # stack entries: (vertex, galaxy_next, path, visited)
    stack = [(sv, False, [start], {su, sv})]
    while stack and budget > 0:
        budget -= 1
        vertex, galaxy_next, path, visited = stack.pop()
        for i in reversed(out_arcs[vertex]):
            if (i in gset) != galaxy_next or i in banned:
                continue
            h = arcs[i][1]
            if h == x and not galaxy_next:
                return path + [i]
            if h in visited:
                continue
            stack.append((h, not galaxy_next, path + [i], visited | {h}))
    return None


def _alt_circuit(d: Digraph, gset: frozenset[int], amembers: set[int]
                 ) -> list[int] | None:
    """A vertex-simple circuit alternating reachable galaxy arcs and
    non-galaxy arcs."""
    arcs = d.arcs
    out_arcs = d.out_arcs
    budget = _PATH_BUDGET
    for a0 in sorted(amembers):
        u0, v0 = arcs[a0]
        stack = [(v0, False, [a0], {u0, v0})]
        while stack and budget > 0:
            budget -= 1
            vertex, galaxy_next, path, visited = stack.pop()
            for i in reversed(out_arcs[vertex]):
                if galaxy_next:
                    if i not in amembers:
                        continue
                elif i in gset:
                    continue
                h = arcs[i][1]
                if h == u0 and not galaxy_next:
                    return path + [i]
                if h in visited:
                    continue
                stack.append((h, not galaxy_next, path + [i], visited | {h}))
    return None


def _augment(d: Digraph, gset: frozenset[int], x: int,
             heavy: frozenset[int]) -> frozenset[int] | None:
    """One exchange step spanning x, or None when every candidate fails.

    Candidates mirror the maximality argument: flipping an alternating
    path whose first tail keeps a second star arc; adding an in-arc of a
    path's first tail; flipping a path from one arc and adding a
    tail-to-tail arc; and flipping a path plus an alternating circuit.
    """
    arcs = d.arcs
    in_arcs = d.in_arcs
    old4 = _spanned(arcs, gset) & heavy

    def attempt(cand: set[int]) -> frozenset[int] | None:
        if not _galaxy_ok(arcs, cand):
            return None
        new4 = _spanned(arcs, cand) & heavy
        if x in new4 and old4 <= new4:
            return frozenset(cand)
        return None

    amembers = _alt_reachable(d, gset, x)
    if not amembers:
        raise InternalDefectError(
            "an unspanned degree-4 vertex has no alternating path after "
            "greedy maximalisation")
    out_g: dict[int, int] = {}
    for i in gset:
        out_g[arcs[i][0]] = out_g.get(arcs[i][0], 0) + 1

    # a first arc whose tail keeps another star arc
    for a in sorted(amembers):
        if out_g[arcs[a][0]] >= 2:
            p = _alt_path(d, gset, a, x)
            if p:
                got = attempt(set(gset) ^ set(p))
                if got:
                    return got

    # drop a light first tail, or re-cover it through one of its in-arcs
    for a in sorted(amembers):
        u = arcs[a][0]
        p = _alt_path(d, gset, a, x)
        if not p:
            continue
        flipped = set(gset) ^ set(p)
        if len(in_arcs[u]) < 2:
            got = attempt(flipped)
            if got:
                return got
        for j in in_arcs[u]:
            if j in gset:
                continue
            got = attempt(flipped | {j})
            if got:
                return got

    # tail-to-tail arcs between two reachable galaxy arcs
    idx = {arc: i for i, arc in enumerate(arcs)}
    for b in sorted(amembers):
        s = arcs[b][0]
        for a in sorted(amembers):
            if a == b:
                continue
            u = arcs[a][0]
            j = idx.get((u, s))
            if j is None or j in gset:
                continue
            p = _alt_path(d, gset, b, x, banned=frozenset({a}))
            if p:
                got = attempt((set(gset) ^ set(p)) | {j})
                if got:
                    return got

    # an alternating circuit, flipped together with a path leaving it
    circuit = _alt_circuit(d, gset, amembers)
    if circuit:
        cands = []
        for c in circuit:
            if c in amembers:
                p = _alt_path(d, gset, c, x)
                if p:
                    cands.append(p)
        for p in sorted(cands, key=len):
            got = attempt(set(gset) ^ (set(p) | set(circuit)))
            if got:
                return got
    return None


def _exhaustive_spanning(d: Digraph, heavy: list[int]) -> frozenset[int]:
    """Backtracking search for a galaxy covering `heavy`; small inputs only."""
    arcs = d.arcs
    incident: dict[int, list[int]] = {v: [] for v in heavy}
    for i, (t, h) in enumerate(arcs):
        for v in (t, h):
            if v in incident:
                incident[v].append(i)

    def solve(k: int, chosen: set[int]) -> frozenset[int] | None:
        while k < len(heavy) and heavy[k] in _spanned(arcs, chosen):
            k += 1
        if k == len(heavy):
            return frozenset(chosen)
        for i in incident[heavy[k]]:
            if i in chosen:
                continue
            chosen.add(i)
            if _galaxy_ok(arcs, chosen):
                got = solve(k + 1, chosen)
                if got is not None:
                    return got
            chosen.discard(i)
        return None

    got = solve(0, set())
    if got is None:
        raise InternalDefectError(
            "exhaustive search found no galaxy spanning the degree-four "
            f"vertices of {arcs}")
    return got


def spanning_galaxy(d: Digraph) -> Galaxy:
    """A galaxy of d spanning every vertex of degree four.

    Requires maximum in- and outdegree two.  Starts from a greedy maximal
    galaxy and augments along alternating paths until the degree-4
    vertices are spanned; every exchange is validated before commit.
    """
    profile = degree_profile(d)
    if profile.max_indegree > 2 or profile.max_outdegree > 2:
        raise DegreeTooHighError(
            f"in/outdegrees ({profile.max_indegree}, {profile.max_outdegree})"
            " exceed two")
    if len(set(d.arcs)) != d.arc_count:
        raise ValidateError("needs a simple digraph")
    arcs = d.arcs
    heavy = frozenset(v for v in range(d.vertex_count)
                      if profile.degree[v] == 4)
    chosen: set[int] = set()
    _extend_greedy(arcs, chosen)
    for _ in range(d.vertex_count + 1):
        missing = sorted(heavy - _spanned(arcs, chosen))
        if not missing:
            return Galaxy(tuple(arcs[i] for i in sorted(chosen)))
        x = missing[0]
        before = len(_spanned(arcs, chosen) & heavy)
        got = _augment(d, frozenset(chosen), x, heavy)
        if got is None:
            if d.vertex_count <= 12:
                chosen = set(_exhaustive_spanning(d, sorted(heavy)))
                _extend_greedy(arcs, chosen)
                continue
            raise InternalDefectError(
                f"augmentation stalled at vertex {x} on a digraph with "
                f"{d.vertex_count} vertices; arcs: {arcs}")
        chosen = set(got)
        if len(_spanned(arcs, chosen) & heavy) <= before:
            raise InternalDefectError(
                "an exchange move failed to extend the spanned degree-four "
                "set")
        _extend_greedy(arcs, chosen)
    raise InternalDefectError("spanning augmentation failed to converge")


def dst4_colouring(d: Digraph) -> ArcColouring:
    """A directed star colouring with at most four colours for
    digraphs with in- and outdegree at most two.

    Colour 4 is a galaxy spanning the degree-4 vertices; what remains has
    maximum degree three and is coloured with 1..3.  Digraphs without
    degree-4 vertices skip the galaxy entirely.
    """
    profile = degree_profile(d)
    if profile.max_indegree > 2 or profile.max_outdegree > 2:
        raise DegreeTooHighError(
            f"in/outdegrees ({profile.max_indegree}, {profile.max_outdegree})"
            " exceed two")
    heavy = [v for v in range(d.vertex_count) if profile.degree[v] == 4]
    galaxy_idx: set[int] = set()
    if heavy:
        galaxy = spanning_galaxy(d)
        idx = {arc: i for i, arc in enumerate(d.arcs)}
        galaxy_idx = {idx[arc] for arc in galaxy.arcs}
    rest = [i for i in range(d.arc_count) if i not in galaxy_idx]
    sub = Digraph(d.vertex_count, tuple(d.arcs[i] for i in rest))
    if degree_profile(sub).max_degree > 3:
        raise InternalDefectError(
            "removing the spanning galaxy left a vertex of degree four")
    base = star_colouring_subcubic(sub)
    colours = {rest[j]: c for j, c in base.colour.items()}
    colours.update({i: 4 for i in galaxy_idx})
    return ArcColouring(colours, 4 if galaxy_idx else base.colour_count)
