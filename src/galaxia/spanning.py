"""Galaxies spanning the degree-4 vertices of a digraph with in- and
outdegree at most two, and the 4-colour star colourings they induce.

The augmentation engine mirrors a maximality argument: starting from a
greedy maximal galaxy, an unspanned degree-4 vertex x admits alternating
paths (galaxy arc, then non-galaxy arc, ending at x), and each way such a
configuration could be rearranged yields a candidate exchange move.  Every
candidate is validated before committing; if no move applies, small
instances fall back to exhaustive search and large ones abort loudly
rather than return an unchecked result.

The order-theoretic core is `ordig_witness`: in a digraph carrying a
partial order (backward arcs scarce, indegrees at least two up to one
exception) it returns arcs gamma->alpha and beta->lambda with
alpha <= beta <= gamma, beta <= lambda and gamma not<= lambda.  It follows
the interval-contraction argument, checking each produced witness against
the four relations and falling back to a direct pair scan whenever a
claimed witness fails them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile
from .errors import (DegreeTooHighError, InfeasibleError, InternalDefectError,
                     PreconditionViolatedError, ValidateError)
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


def _closure(vertices: list[int], pairs) -> dict[int, frozenset[int]]:
    """Reflexive-transitive closure of the generating pairs, as upward sets."""
    up: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in pairs:
        up[a].add(b)
    out: dict[int, frozenset[int]] = {}
    for v in vertices:
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for z in up[w]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        out[v] = frozenset(seen)
    return out


@dataclass(frozen=True)
class OrderedDigraph:
    """A digraph together with a partial order on its vertices.

    `hasse` lists generating pairs (a, b) meaning a < b; the order is the
    reflexive-transitive closure of those pairs.  Every covering pair a < b
    of the order must be realised by the arc a -> b, and every arc must
    join comparable vertices.  Arcs with tail below head are forward, the
    rest backward.
    """

    digraph: Digraph
    hasse: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.digraph.vertex_count
        pairs = tuple(sorted({(int(a), int(b)) for a, b in self.hasse}))
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValidateError(f"order pair ({a}, {b}) is out of range")
            if a == b:
                raise ValidateError("order generators must be strict pairs")
        object.__setattr__(self, "hasse", pairs)
        up = _closure(list(range(n)), pairs)
        for a in range(n):
            for b in up[a]:
                if b != a and a in up[b]:
                    raise ValidateError("order generators contain a cycle")
        object.__setattr__(self, "_up", up)
        arcset = set(self.digraph.arcs)
        for a in range(n):
            for b in up[a]:
                if b == a:
                    continue
                if any(c != a and c != b and c in up[a] and b in up[c]
                       for c in range(n)):
                    continue
                if (a, b) not in arcset:
                    raise ValidateError(
                        f"covering pair {a} < {b} lacks the arc {a} -> {b}")
        for t, h in self.digraph.arcs:
            if h not in up[t] and t not in up[h]:
                raise ValidateError(
                    f"arc ({t}, {h}) joins incomparable vertices")

    def leq(self, a: int, b: int) -> bool:
        return b in self._up[a]

    def is_forward(self, arc: int) -> bool:
        t, h = self.digraph.arcs[arc]
        return self.leq(t, h)

    @cached_property
    def forward_arcs(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.digraph.arc_count)
                     if self.is_forward(i))

    @cached_property
    def backward_arcs(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.digraph.arc_count)
                     if not self.is_forward(i))


def _pair_ok(leq, g, a, b, l) -> bool:
    """The four order relations plus distinctness (alpha = beta allowed)."""
    if len({g, a, b, l}) < 4 and not (a == b and len({g, a, l}) == 3):
        return False
    return (b in leq[a] and g in leq[b] and l in leq[b] and l not in leq[g])


def _scan_pairs(leq, arcs):
    """Exhaustive witness search over (backward, forward) arc pairs."""
    backward = sorted((t, h) for t, h in arcs if h not in leq[t])
    forward = sorted((t, h) for t, h in arcs if h in leq[t])
    for g, a in backward:
        for b, l in forward:
            if _pair_ok(leq, g, a, b, l):
                return (g, a), (b, l)
    return None


def _interval(leq, lo: int, hi: int) -> set[int]:
    return {z for z in leq if z in leq[lo] and hi in leq[z]}


def _is_good(leq, arcs, interval: set[int], top: int) -> bool:
    """Every arc leaving the interval tails `top`, and no backward arc
    tails an interval vertex other than `top`."""
    for t, h in arcs:
        if t in interval and t != top:
            if h not in interval or h not in leq[t]:
                return False
    return True


def _validate_hypotheses(leq, arcs, strict: bool):
    """Check the tail and indegree conditions; returns the low vertex.

    Raises PreconditionViolatedError when `strict`, else returns None on
    failure marker 'bad' so callers can fall back.
    """
    back_tails: dict[int, int] = {}
    fwd_tails: dict[int, int] = {}
    indeg: dict[int, int] = {v: 0 for v in leq}
    for t, h in arcs:
        if h in leq[t]:
            fwd_tails[t] = fwd_tails.get(t, 0) + 1
        else:
            back_tails[t] = back_tails.get(t, 0) + 1
        indeg[h] += 1
    for v, k in back_tails.items():
        if k > 1:
            if strict:
                raise PreconditionViolatedError(
                    f"vertex {v} is the tail of {k} backward arcs")
            return "bad"
    for v, k in fwd_tails.items():
        if k > 2:
            if strict:
                raise PreconditionViolatedError(
                    f"vertex {v} is the tail of {k} forward arcs")
            return "bad"
    low = sorted(v for v, k in indeg.items() if k < 2)
    if not low:
        return None
    if len(low) == 1 and indeg[low[0]] == 1:
        return low[0]
    if strict:
        raise PreconditionViolatedError(
            "indegrees below two at vertices "
            f"{low} (at most one vertex of indegree one is allowed)")
    return "bad"


def _witness_search(leq, arcs):
    """The interval-contraction search.

    leq maps live vertex ids to their upward closure, arcs is a list of
    (tail, head) pairs over those ids.  Returns ((gamma, alpha),
    (beta, lambda)) or raises InfeasibleError when no pair exists.
    """
    def fallback():
        found = _scan_pairs(leq, arcs)
        if found is None:
            raise InfeasibleError("the ordered digraph admits no witness pair")
        return found

    backward = sorted((t, h) for t, h in arcs if h not in leq[t])
    if not backward:
        return fallback()
    tails = {t for t, _ in backward}
    minimal = sorted(t for t in tails
                     if not any(s != t and t in leq[s] for s in tails))
    top = minimal[0]
    bottoms = [h for t, h in backward if t == top]
    if len(bottoms) != 1:
        raise InternalDefectError(
            f"vertex {top} tails {len(bottoms)} backward arcs")
    bottom = bottoms[0]
    interval = _interval(leq, bottom, top)

    # goodness of the initial interval; a forward arc escaping it is the
    # direct witness unless the escape lands above `top`
    leaving = sorted((t, h) for t, h in arcs
                     if t in interval and t != top and h not in interval)
    for t, h in leaving:
        if h not in leq[t]:
            raise InternalDefectError(
                "a backward arc tails the interval below the minimal "
                "backward tail")
        if _pair_ok(leq, top, bottom, t, h):
            return (top, bottom), (t, h)
    if leaving:
        return fallback()
    for t, h in arcs:
        if t in interval and t != top and h in interval and h not in leq[t]:
            raise InternalDefectError(
                "a backward arc inside the interval violates minimality")

    # grow to a maximal good interval while entering arcs share one tail
    while True:
        entering = sorted((t, h) for t, h in arcs
                          if t not in interval and h in interval)
        if not entering:
            return fallback()
        heads_by_tail: dict[int, list[int]] = {}
        for t, h in entering:
            heads_by_tail.setdefault(t, []).append(h)
        if len(heads_by_tail) >= 2:
            break
        (v, heads), = heads_by_tail.items()
        if len(heads) < 2:
            break  # a single entering arc: the contracted vertex is the low one
        if any(h not in leq[v] for h in heads):
            raise InternalDefectError(
                "entering arcs of one tail mix directions, so the tail "
                "lies inside the interval")
        grown = _interval(leq, v, top)
        if not (interval < grown) or not _is_good(leq, arcs, grown, top):
            return fallback()
        interval = grown

    # contract the interval to a fresh vertex
    vid = max(leq) + 1
    kept = [v for v in leq if v not in interval]
    raw: dict[int, set[int]] = {v: {w for w in leq[v] if w not in interval}
                                for v in kept}
    raw[vid] = set()
    for v in kept:
        if leq[v] & interval:
            raw[v].add(vid)
    for w in kept:
        if any(w in leq[z] for z in interval):
            raw[vid].add(w)
    raw[vid].add(vid)
    # transitivity through the contracted vertex must already hold
    for u in kept:
        if vid in raw[u]:
            for t in raw[vid]:
                if t != vid and t not in raw[u]:
                    raise InternalDefectError(
                        "contraction broke transitivity despite a good "
                        "interval")
    for u in kept:
        if vid in raw[u] and u in raw[vid]:
            raise InternalDefectError(
                "contraction broke antisymmetry despite a good interval")
    leq2 = {v: frozenset(raw[v]) for v in raw}

    arcs2: set[tuple[int, int]] = set()
    for t, h in arcs:
        t_in, h_in = t in interval, h in interval
        if t_in and h_in:
            continue
        if not t_in and not h_in:
            arcs2.add((t, h))
        elif t_in:
            if t != top:
                raise InternalDefectError(
                    "an arc leaves a good interval from a non-top vertex")
            arcs2.add((vid, h))
        else:
            arcs2.add((t, vid))
    arcs2 = sorted(arcs2)

    if _validate_hypotheses(leq2, arcs2, strict=False) == "bad":
        return fallback()
    try:
        (g, a), (b, l) = _witness_search(leq2, arcs2)
    except InfeasibleError:
        return fallback()

    # lift the contracted witness back through the interval
    if g == vid:
        raise InternalDefectError(
            "the contracted vertex tails a backward arc despite goodness")
    first = (g, a)
    if a == vid:
        cands = sorted(h for t, h in arcs if t == g and h in interval)
        back = [h for h in cands if g in leq[h]]
        if len(back) != 1:
            raise InternalDefectError(
                f"expected one backward arc from {g} into the interval, "
                f"found {len(back)}")
        first = (g, back[0])
    second = (b, l)
    if b == vid:
        srcs = sorted(t for t, h in arcs if h == l and t in interval)
        if srcs != [top]:
            raise InternalDefectError(
                "an arc leaves the interval from a non-top vertex")
        second = (top, l)
    elif l == vid:
        cands = sorted(h for t, h in arcs if t == b and h in interval
                       and h in leq[b])
        if not cands:
            raise InternalDefectError(
                "no forward arc realises the lifted second witness")
        second = (b, cands[0])
    if not _pair_ok(leq, first[0], first[1], second[0], second[1]):
        raise InternalDefectError("the lifted witness violates the order "
                                  "relations")
    return first, second


def ordig_witness(od: OrderedDigraph, x: int | None = None
                  ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Arcs gamma->alpha and beta->lambda with alpha <= beta <= gamma,
    beta <= lambda and gamma not<= lambda (alpha = beta allowed).

    Preconditions: every vertex tails at most one backward and two forward
    arcs, and indegrees are at least two except possibly `x` with
    indegree one.  Raises PreconditionViolatedError otherwise and
    InfeasibleError when no witness pair exists.
    """
    n = od.digraph.vertex_count
    leq = {v: od._up[v] for v in range(n)}
    arcs = list(od.digraph.arcs)
    low = _validate_hypotheses(leq, arcs, strict=True)
    if x is not None and low is not None and low != x:
        raise PreconditionViolatedError(
            f"the low-indegree vertex is {low}, not the announced {x}")
    return _witness_search(leq, arcs)


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
    g_by_head = {arcs[i][1]: i for i in gset}  # galaxy heads are distinct
    nong_into: dict[int, list[int]] = {}
    for j in range(d.arc_count):
        if j not in gset:
            nong_into.setdefault(arcs[j][1], []).append(j)
    reach: set[int] = set()
    frontier = [x]
    while frontier:
        w = frontier.pop()
        for j in nong_into.get(w, ()):
            i = g_by_head.get(arcs[j][0])
            if i is not None and i not in reach:
                reach.add(i)
                frontier.append(arcs[i][0])
    return reach


def _alt_path(d: Digraph, gset: frozenset[int], start: int, x: int,
              banned: frozenset[int] = frozenset(),
              waypoints: tuple[int, ...] = ()) -> list[int] | None:
    """A vertex-simple alternating path from `start` (a galaxy arc) to x.

    The path alternates galaxy and non-galaxy arcs, ends with a
    non-galaxy arc into x, avoids `banned` arcs, and visits the
    `waypoints` arcs in the given order.  Depth-first with a state
    budget; None when nothing is found within it.
    """
    arcs = d.arcs
    if start in banned:
        return None
    wanted = set(waypoints)
    g_by_tail: dict[int, list[int]] = {}
    nong_by_tail: dict[int, list[int]] = {}
    for i in range(d.arc_count):
        t = arcs[i][0]
        if i in gset:
            g_by_tail.setdefault(t, []).append(i)
        else:
            nong_by_tail.setdefault(t, []).append(i)
    for lst in g_by_tail.values():
        lst.sort()
    for lst in nong_by_tail.values():
        lst.sort()

    su, sv = arcs[start]
    wp0 = 1 if waypoints and waypoints[0] == start else 0
    if any(w == start for w in waypoints[wp0:]):
        return None
    budget = _PATH_BUDGET
    # stack entries: (vertex, galaxy_next, wp, path, visited)
    stack = [(sv, False, wp0, [start], {su, sv})]
    while stack and budget > 0:
        budget -= 1
        vertex, galaxy_next, wp, path, visited = stack.pop()
        if galaxy_next:
            for i in reversed(g_by_tail.get(vertex, [])):
                if i in banned:
                    continue
                h = arcs[i][1]
                if h in visited:
                    continue
                nwp = wp
                if wp < len(waypoints) and waypoints[wp] == i:
                    nwp = wp + 1
                elif i in wanted:
                    continue  # out of order
                stack.append((h, False, nwp, path + [i], visited | {h}))
        else:
            for j in reversed(nong_by_tail.get(vertex, [])):
                if j in banned:
                    continue
                h = arcs[j][1]
                if h == x:
                    if wp == len(waypoints):
                        return path + [j]
                    continue
                if h in visited:
                    continue
                stack.append((h, True, wp, path + [j], visited | {h}))
    return None


def _alt_circuit(d: Digraph, gset: frozenset[int], amembers: set[int]
                 ) -> list[int] | None:
    """A vertex-simple circuit alternating reachable galaxy arcs and
    non-galaxy arcs."""
    arcs = d.arcs
    a_by_tail: dict[int, list[int]] = {}
    nong_by_tail: dict[int, list[int]] = {}
    for i in range(d.arc_count):
        t = arcs[i][0]
        if i in amembers:
            a_by_tail.setdefault(t, []).append(i)
        elif i not in gset:
            nong_by_tail.setdefault(t, []).append(i)
    budget = _PATH_BUDGET
    for a0 in sorted(amembers):
        u0, v0 = arcs[a0]
        stack = [(v0, False, [a0], {u0, v0})]
        while stack and budget > 0:
            budget -= 1
            vertex, galaxy_next, path, visited = stack.pop()
            if galaxy_next:
                for i in reversed(a_by_tail.get(vertex, [])):
                    h = arcs[i][1]
                    if h in visited:
                        continue
                    stack.append((h, False, path + [i], visited | {h}))
            else:
                for j in reversed(nong_by_tail.get(vertex, [])):
                    h = arcs[j][1]
                    if h == u0:
                        return path + [j]
                    if h in visited:
                        continue
                    stack.append((h, True, path + [j], visited | {h}))
    return None


def _augment(d: Digraph, gset: frozenset[int], x: int,
             heavy: frozenset[int]) -> frozenset[int] | None:
    """One exchange step spanning x, or None when every candidate fails.

    Candidates mirror the maximality argument: flipping an alternating
    path whose first tail keeps a second star arc; flipping a path plus an
    alternating circuit; flipping a path from one arc and adding a
    tail-to-tail arc; adding an in-arc of a path's first tail; and the
    order-witness exchange.
    """
    arcs = d.arcs
    idx = {arc: i for i, arc in enumerate(arcs)}
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

    indeg_of: dict[int, list[int]] = {}
    for j, (t, h) in enumerate(arcs):
        indeg_of.setdefault(h, []).append(j)

    # drop a light first tail, or re-cover it through one of its in-arcs
    for a in sorted(amembers):
        u = arcs[a][0]
        p = _alt_path(d, gset, a, x)
        if not p:
            continue
        flipped = set(gset) ^ set(p)
        if len(indeg_of.get(u, [])) < 2:
            got = attempt(flipped)
            if got:
                return got
        for j in sorted(indeg_of.get(u, [])):
            if j in gset:
                continue
            got = attempt(flipped | {j})
            if got:
                return got

    # tail-to-tail arcs between two reachable galaxy arcs
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

    return _order_move(d, gset, x, amembers, idx, attempt)


def _order_move(d: Digraph, gset, x, amembers, idx, attempt):
    """The witness-based exchange on the digraph of reachable galaxy arcs."""
    arcs = d.arcs
    alist = sorted(amembers)
    pos = {a: k for k, a in enumerate(alist)}
    xid = len(alist)

    a_by_tail: dict[int, list[int]] = {}
    for b in alist:
        a_by_tail.setdefault(arcs[b][0], []).append(b)
    nong_from: dict[int, list[int]] = {}
    for j in range(d.arc_count):
        if j not in gset:
            nong_from.setdefault(arcs[j][0], []).append(j)
    succ: dict[int, set[int]] = {a: set() for a in alist}
    for a in alist:
        for j in nong_from.get(arcs[a][1], ()):
            for b in a_by_tail.get(arcs[j][1], ()):
                succ[a].add(b)
    reach: dict[int, set[int]] = {}
    for a in alist:
        seen: set[int] = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(succ[b])
        reach[a] = seen
    for a in alist:
        if a in reach[a]:
            return None  # an alternating circuit survived the circuit move

    darcs: set[tuple[int, int]] = set()
    for a in alist:
        ua, va = arcs[a]
        for b in alist:
            if a == b:
                continue
            ub = arcs[b][0]
            if (ua, ub) in idx or (va, ub) in idx:
                darcs.add((pos[a], pos[b]))
        if (ua, x) in idx or (va, x) in idx:
            darcs.add((pos[a], xid))
    for b in alist:
        if (x, arcs[b][0]) in idx:
            darcs.add((xid, pos[b]))

    hasse = [(pos[a], pos[b]) for a in alist for b in reach[a]]
    hasse += [(pos[a], xid) for a in alist]

    x_backward = sorted(h for t, h in darcs if t == xid)
    deletions: list[tuple[int | None, set[tuple[int, int]]]] = []
    if len(x_backward) > 2:
        return None
    if len(x_backward) == 2:
        for victim in x_backward:
            deletions.append((victim, {(xid, victim)}))
    else:
        deletions.append((None, set()))

    for exceptional, removed in deletions:
        try:
            od = OrderedDigraph(
                Digraph(xid + 1, tuple(sorted(darcs - removed))),
                tuple(sorted(set(hasse))))
            (g, a), (b, l) = ordig_witness(od, exceptional)
        except (ValidateError, PreconditionViolatedError, InfeasibleError):
            continue
        if a == xid or b == xid or l == xid:
            continue
        alpha, beta, lam = alist[a], alist[b], alist[l]
        gamma = None if g == xid else alist[g]
        gamma_tail = x if gamma is None else arcs[gamma][0]
        j = idx.get((gamma_tail, arcs[alpha][0]))
        if j is None:
            raise InternalDefectError(
                "a backward order arc lacks its tail-to-tail arc")
        waypoints = (lam,) if beta == alpha else (beta, lam)
        banned = frozenset() if gamma is None else frozenset({gamma})
        p = _alt_path(d, gset, alpha, x, banned=banned, waypoints=waypoints)
        if not p:
            continue
        got = attempt((set(gset) ^ set(p)) | {j})
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
