"""Directed star colourings of subcubic digraphs with at most 3 colours.

The pipeline peels sources and even circuits of the low-indegree part,
3-colours a conflict graph built over the arcs that end in low-indegree
vertices, and finishes the remaining arcs with a list-colouring engine
that eats terminal strong components one at a time.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .colouring import ArcColouring
from .digraph import (Digraph, _map_cycles, _require_simple, _sub,
                      degree_profile, strong_components)
from .errors import (InfeasibleError, InternalDefectError,
                     PreconditionViolatedError)

COLOURS = (1, 2, 3)
FULL = frozenset(COLOURS)
# A colour list as an int: bit c stands for colour c.
_FULL_MASK = 0b1110
# Free colours by a mask whose bit c marks colour c as taken (bit 0 is
# ignored).
_FREE = [tuple(c for c in COLOURS if not mask >> c & 1) for mask in range(16)]


# ---------------------------------------------------------------------------
# Brooks' theorem, maximum degree three.


def _greedy_fill(adj: list[set[int]], order: Iterable[int],
                 colours: list[int]) -> None:
    # Every vertex must see at most two coloured neighbours when its
    # turn comes; the caller's ordering guarantees that.
    for v in order:
        seen = 0  # a loop, not a set display: no call per vertex
        for u in adj[v]:
            seen |= 1 << colours[u]
        free = _FREE[seen]
        if not free:
            raise InternalDefectError(
                f"vertex {v} saw all three colours during greedy fill")
        colours[v] = free[0]


def _bfs(adj: Sequence[set[int]], root: int,
         allowed: Container[int]) -> list[int]:
    """Vertices of `allowed` reachable from root inside it, in
    breadth-first order from root, neighbours taken ascending."""
    seen = {root}
    queue = [root]
    for v in queue:
        for u in sorted(adj[v]):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return queue


def _brooks_component(adj: list[set[int]], comp: list[int],
                      colours: list[int]) -> None:
    compset = set(comp)
    low = [v for v in comp if len(adj[v]) <= 2]
    if low:
        _greedy_fill(adj, _bfs(adj, min(low), compset)[::-1], colours)
        return

    # Cubic component with a bridge x-y (a cubic graph's cut vertices are
    # exactly its bridges' ends).  Without the bridge, each side is
    # connected and its end has degree 2, so each side colours greedily
    # towards its end; swapping y's colour with another on y's side then
    # keeps the bridge proper.
    bridge = _least_bridge(adj, comp)
    if bridge is not None:
        x, y = bridge
        cut = adj[:]
        cut[x], cut[y] = adj[x] - {y}, adj[y] - {x}
        for end in bridge:
            side = _bfs(cut, end, compset)
            _greedy_fill(cut, side[::-1], colours)
        if colours[x] == colours[y]:
            a = colours[y]
            b = a % 3 + 1
            for v in side:  # y's, filled last
                if colours[v] == a:
                    colours[v] = b
                elif colours[v] == b:
                    colours[v] = a
        return

    # Two-connected cubic: some vertex has two non-adjacent neighbours
    # whose removal keeps the rest connected (K4 has none, and no caller
    # passes it; it would end at the raise below).  Colour those two
    # alike so the final vertex sees two colours only.
    for v in comp:
        for u, w in combinations(sorted(adj[v]), 2):
            if u in adj[w]:
                continue
            order = _bfs(adj, v, compset - {u, w})
            if len(order) < len(comp) - 2:
                continue
            colours[u] = colours[w] = 1
            _greedy_fill(adj, order[::-1], colours)
            return
    raise InternalDefectError("no admissible pair in a cubic component")


def _least_bridge(adj: list[set[int]], comp: list[int],
                  ) -> tuple[int, int] | None:
    """The least bridge of a connected cubic component, as (least end,
    other end), or None.

    Orient each edge the way a depth-first search first walks it, tree
    edges down and the others up: the bridges are then exactly the arcs
    between strong components (Robbins, 1939)."""
    local = {v: k for k, v in enumerate(comp)}
    depth = [-1] * len(comp)  # in the search tree, -1 while unseen
    depth[0] = 0
    arcs: list[tuple[int, int]] = []
    work = [(0, iter(adj[comp[0]]))]
    while work:
        v, rest = work[-1]
        for u in map(local.__getitem__, rest):
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                arcs.append((v, u))
                work.append((u, iter(adj[comp[u]])))
                break
            if depth[u] < depth[v] - 1:  # an ancestor, not the parent
                arcs.append((v, u))
        else:
            work.pop()
    strong = {v: c for c, members in enumerate(strong_components(
        Digraph._of(len(comp), tuple(arcs)))) for v in members}
    return min((tuple(sorted((comp[v], comp[u]))) for v, u in arcs
                if strong[v] != strong[u]), default=None)


def _brooks(adj: list[set[int]]) -> list[int]:
    """Proper colouring with 1..3, by Brooks' theorem, of a graph given
    by symmetric neighbour sets, without loops, of at most three
    vertices each and with no K4 component.  Returns a list indexed by
    vertex; isolated vertices get 1."""
    colours = [0] * len(adj)
    done: set[int] = set()
    for v0 in range(len(adj)):
        if v0 in done:
            continue
        comp = _bfs(adj, v0, range(len(adj)))
        done.update(comp)
        if len(comp) == 1:
            colours[v0] = 1
        else:
            _brooks_component(adj, sorted(comp), colours)
    return colours


# ---------------------------------------------------------------------------
# Exact solver for circuits with constrained entering colours.
#
# Positions 0..l-1 around the circuit.  Variable a_i is the colour of
# the circuit arc leaving position i, variable v_i the colour tied to
# position i itself (an entering arc, where present).  Constraints:
# a_i != a_{i+1}, v_i not in {a_{i-1}, a_i}, all indices mod l.  Each
# position's colours come as an int mask, bit c for colour c.


def _follow(c: int, vertex_mask: int, mask: int) -> int:
    """The colours d of `mask` that can follow an arc of colour c through
    a vertex whose colour comes from vertex_mask: d != c, and the vertex
    keeps a colour outside {c, d}."""
    rest = vertex_mask & ~(1 << c)
    if not rest & (rest - 1):  # at most one colour left, which d avoids
        mask &= ~rest
    return mask & ~(1 << c) if rest else 0


def _cycle_dp(vertex_masks: Sequence[int], arc_masks: Sequence[int],
              ) -> tuple[list[int], list[int]] | None:
    """Lexicographically smallest (a_0..a_{l-1}) solution with each v_i
    the least colour it can take, or None.

    Both sequences hold one mask per position of a circuit of length >= 2.
    """
    length = len(vertex_masks)
    for start in _colours_of(arc_masks[0]):
        # close[i]: the colours c for which a_i = c still allows finishing
        # the circuit and wrapping back onto a_0 = start
        close = [0] * length
        close[-1] = _follow(start, vertex_masks[0], arc_masks[-1])
        for i in range(length - 2, 0, -1):
            after, vmask = close[i + 1], vertex_masks[i + 1]
            close[i] = sum(1 << c for c in _colours_of(arc_masks[i])
                           if _follow(c, vmask, after))
        if not _follow(start, vertex_masks[1], close[1]):
            continue
        arcs = [start]
        for i in range(1, length):
            options = _follow(arcs[-1], vertex_masks[i], close[i])
            if not options:
                raise InternalDefectError("cycle reconstruction dead end")
            arcs.append((options & -options).bit_length() - 1)
        ends = zip(arcs[-1:] + arcs[:-1], arcs)  # (a_{i-1}, a_i)
        return arcs, [_colours_of(m & ~(1 << a | 1 << b))[0]
                      for m, (a, b) in zip(vertex_masks, ends)]
    return None


def lemma_cycle_colouring(circuit: Digraph,
                          vertex_lists: Mapping[int, Iterable[int]],
                          ) -> tuple[dict[int, int], dict[int, int]]:
    """Colour the arcs and vertices of a circuit.

    Every vertex takes a colour from its 2-element list, arcs range
    over {1,2,3}; an arc differs from both its endpoints and from the
    next arc.  Returns (arc colours by arc index, vertex colours).
    Raises InfeasibleError exactly when the circuit has odd length and
    all vertex lists are equal.

    The engine solves it: each vertex v is entered by one more arc, from
    a fresh source n + v, whose list is v's and whose colour is v's.
    """
    n = circuit.vertex_count
    if n == 0 or circuit.arc_count == 0:
        raise PreconditionViolatedError("empty digraph is not a circuit")
    for v in range(n):
        if len(circuit.in_arcs[v]) != 1 or len(circuit.out_arcs[v]) != 1:
            raise PreconditionViolatedError(
                f"vertex {v} has degrees other than one in and one out")
    if len(strong_components(circuit)) > 1:
        raise PreconditionViolatedError("digraph is a union of several circuits")
    lists = []
    for v in range(n):
        if v not in vertex_lists:
            raise PreconditionViolatedError(f"vertex {v} has no list")
        lst = set(vertex_lists[v])
        if len(lst) != 2 or not lst <= FULL:
            raise PreconditionViolatedError(
                f"vertex {v} needs exactly two colours from 1..3")
        lists.append(sum(1 << c for c in lst))

    e = Digraph._of(2 * n, circuit.arcs + tuple((n + v, v) for v in range(n)))
    try:
        colours = _extension_engine(e, [_FULL_MASK] * n + lists,
                                    strong_components(e))
    except PreconditionViolatedError as exc:
        if n % 2 == 0 or any(l != lists[0] for l in lists):
            raise InternalDefectError(
                "solver gave up outside the odd uniform case") from exc
        raise InfeasibleError(
            "odd circuit with all vertex lists equal has no colouring") from None
    return ({a: colours[a] for a in range(n)},
            {v: colours[n + v] for v in range(n)})


# ---------------------------------------------------------------------------
# List-extension engine.
#
# The engine colours the arcs of a digraph from per-arc colour lists,
# each an int mask whose bit c stands for colour c, so a list of any
# positive colours fits.  It repeatedly takes a terminal strong
# component of the uncoloured arcs: a lone sink gets its in-arcs
# coloured pairwise distinct from their lists, a circuit is solved
# exactly together with its entering arcs.  Whenever an arc u->v is
# coloured c, bit c is cleared in the masks of the arcs entering u.  A
# sink's choice depends only on its entering masks, in arc order, so
# each call keeps a table from those masks to the choice.


def _colours_of(mask: int) -> list[int]:
    """The colours of a mask, ascending."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def _first_fit(masks: Sequence[int],
               clash: Callable[[int, int], bool]) -> list[int] | None:
    """The first picks, one colour from each of `masks` (bit c stands
    for colour c), where items i < j with clash(i, j) take distinct
    colours, in product order over ascending colours; None when no
    choice fits.

    Whether two picks fit is one symmetric test per pair, so
    backtracking over the items in order, each tried against those set
    before it, meets that choice first.
    """
    picks: list[int] = []
    tries: list[Iterator[int]] = []  # the untried colours of each pick
    while len(picks) < len(masks):
        j = len(picks)
        if len(tries) == j:
            mask = masks[j]
            for i, c in enumerate(picks):
                if clash(i, j):
                    mask &= ~(1 << c)
            tries.append(iter(_colours_of(mask)))
        c = next(tries[-1], 0)
        if c:
            picks.append(c)
        elif picks:
            tries.pop()
            picks.pop()
        else:
            return None
    return picks


def _extension_engine(e: Digraph, lists: list[int],
                      components: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """Colour the arcs of e from the colour masks lists[arc], taking
    strong components sinks first; the masks are struck in place.

    `components` are e's strong components in a reverse topological
    order of their condensation (strong_components(e), or on acyclic e
    its vertices one by one in a reverse topological order), so each one
    is terminal among the uncoloured arcs when its turn comes; only the
    arcs entering a listed component are coloured.  Any such order gives
    the same colours as always taking the first terminal component of
    what is left.  Taking a component colours exactly the arcs whose
    heads lie in it, from their lists, and strikes each new colour at
    the arc's tail.  So the list of an arc into a vertex w is
    struck only by the colours of arcs leaving w, whose heads lie in w's
    component or downstream of it.  Every reverse topological order has
    coloured all of those, with the same colours by induction, before
    w's component comes up, and a component incomparable with it strikes
    none of its lists.  A vertex without entering arcs is skipped.  The
    arcs entering a component, and those entering the tail of an arc
    into it, are all uncoloured when it comes up, since their heads lie
    in it or upstream of it.
    """
    colours: dict[int, int] = {}
    arcs, in_arcs, out_arcs = e.arcs, e.in_arcs, e.out_arcs
    first: dict[tuple[int, ...], list[int]] = {}

    for comp in components:
        if len(comp) == 1:
            v = comp[0]
            ins = in_arcs[v]
            if not ins:
                continue
            key = tuple(map(lists.__getitem__, ins))
            choice = first.get(key)
            if choice is None:
                choice = first[key] = _first_fit(key, lambda i, j: True)
            if choice is None:
                raise InternalDefectError(
                    f"no distinct colours for the arcs into {v}")
            strikes = zip(ins, choice)
        else:
            # Terminal component on several vertices: must be a circuit.
            seq = [comp[0]]
            circ = []
            while True:
                outs = [a for a in out_arcs[seq[-1]] if a not in colours]
                if len(outs) != 1:
                    raise InternalDefectError(
                        f"vertex {seq[-1]} of a terminal component has "
                        f"{len(outs)} out-arcs")
                circ.append(outs[0])
                nxt = arcs[outs[0]][1]
                if nxt == seq[0]:
                    break
                seq.append(nxt)
            if len(seq) != len(comp):
                raise InternalDefectError("terminal component is not a circuit")

            entering: list[int | None] = []
            vertex_masks = []
            for i, v in enumerate(seq):
                extra = [a for a in in_arcs[v] if a != circ[i - 1]]
                if len(extra) > 1:
                    raise InternalDefectError(
                        f"circuit vertex {v} has several entering arcs")
                entering.append(extra[0] if extra else None)
                vertex_masks.append(lists[extra[0]] if extra else _FULL_MASK)

            solution = _cycle_dp(vertex_masks, [lists[a] for a in circ])
            if solution is None:
                raise PreconditionViolatedError(
                    "odd circuit whose entering arcs all carry the same "
                    "two-colour list")
            arc_cols, vert_cols = solution
            colours.update(zip(circ, arc_cols))
            strikes = sorted((a, c) for a, c in zip(entering, vert_cols)
                             if a is not None)
        # each arc coloured here strikes its colour from the lists of the
        # arcs entering its tail; inline, as lone vertices come up once
        # per vertex
        for a, c in strikes:
            colours[a] = c
            off = ~(1 << c)
            for b in in_arcs[arcs[a][0]]:
                lists[b] &= off
                if not lists[b]:
                    raise InternalDefectError(
                        f"arc {b} lost its last colour during propagation")
    return colours


def _normalised_lists(d: Digraph, lists: Mapping[int, Iterable[int]],
                      ) -> list[int]:
    out = []
    for i in range(d.arc_count):
        if i not in lists:
            raise PreconditionViolatedError(f"arc {i} has no colour list")
        lst = frozenset(lists[i])
        if not lst or not lst <= FULL:
            raise PreconditionViolatedError(
                f"arc {i} has list outside 1..3")
        out.append(sum(1 << c for c in lst))
    return out


def lemma_extension_colouring(d: Digraph,
                              lists: Mapping[int, Iterable[int]],
                              ) -> ArcColouring:
    """Directed star colouring picking every arc's colour from its list.

    Requires a subcubic digraph with no (indegree 1, outdegree 2)
    vertex; arcs into a sink carry lists at least as large as the
    sink's indegree, arcs out of a source at least two colours, all
    other arcs the full three.  Two initial arcs sharing a head must
    cover all three colours between their lists.  Violations raise
    PreconditionViolatedError, including the one detected lazily: an
    odd circuit whose entering arcs all carry the same 2-colour list.
    """
    _require_simple(d, "needs a simple digraph")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise PreconditionViolatedError("digraph is not subcubic")
    for v in range(d.vertex_count):
        if profile.indegree[v] == 1 and profile.outdegree[v] == 2:
            raise PreconditionViolatedError(
                f"vertex {v} has indegree 1 and outdegree 2")
    norm = _normalised_lists(d, lists)

    initial_at: dict[int, list[int]] = {}
    for i, (t, h) in enumerate(d.arcs):
        if profile.outdegree[h] == 0:
            if norm[i].bit_count() < profile.indegree[h]:
                raise PreconditionViolatedError(
                    f"arc {i} into sink {h} has a list smaller than "
                    f"the sink's indegree")
        elif profile.indegree[t] == 0:
            if norm[i].bit_count() < 2:
                raise PreconditionViolatedError(
                    f"initial arc {i} has fewer than two colours")
            initial_at.setdefault(h, []).append(i)
        elif norm[i] != _FULL_MASK:
            raise PreconditionViolatedError(
                f"arc {i} must carry the full list")
    for h, group in initial_at.items():
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                if norm[group[x]] | norm[group[y]] != _FULL_MASK:
                    raise PreconditionViolatedError(
                        f"initial arcs {group[x]} and {group[y]} into "
                        f"{h} do not cover all three colours")

    colours = _extension_engine(d, norm, strong_components(d))
    return ArcColouring(colours, 3 if d.arc_count else 0)


# ---------------------------------------------------------------------------
# The full pipeline.
#
# Every stage reads a Digraph's arc buckets.  A stage that keeps some
# arcs of its digraph goes on with the sub-digraph `digraph._sub` builds
# of those arcs.  Next to each sub-digraph runs `ids`, its arcs' indices
# in the input, which index the run's one colour list (0 while an arc
# is uncoloured).


def _peel(g: Digraph) -> tuple[list[int], list[tuple[str, list[int]]]]:
    """Peel sources and even circuits of the low-indegree part.

    Returns the arcs left, ascending, and the peeled batches in peeling
    order.  Sources go in layers: each batch is every live arc whose
    tail has no live entering arc.
    """
    arcs, in_arcs, out_arcs = g.arcs, g.in_arcs, g.out_arcs
    live = [True] * g.arc_count
    indeg = list(g.profile.indegree)
    deferred: list[tuple[str, list[int]]] = []

    def peel_sources(frontier: Iterable[int]) -> list[int]:
        """Peel source layers from vertices just left without entering
        arcs; return the heads whose indegree fell."""
        touched = []
        while True:
            batch = [a for v in frontier for a in out_arcs[v] if live[a]]
            batch.sort()
            if not batch:
                return touched
            deferred.append(("sources", batch))
            frontier = []
            for a in batch:
                live[a] = False
                h = arcs[a][1]
                indeg[h] -= 1
                touched.append(h)
                if indeg[h] == 0:
                    frontier.append(h)

    # Once no sources are left, a live vertex is low when one live arc
    # enters it.  step[h] = (arc, tail) for each low h whose tail is low
    # too, kept as it grows in a union-find over the low vertices; a new
    # step arc from h hangs h's tree below the root of the other end's
    # component, and closes a circuit of the map when both ends share a
    # root.  Even circuits are peeled in the order they close.  Any order
    # leaves the same core: a circuit keeps its one live entering arc at
    # each of its vertices until it is peeled, and peeling it with its
    # sources removes its own basin (the step vertices whose walk along
    # step reaches it) and leaves every other basin and circuit alive.
    low: dict[int, int] = {}  # union-find parent
    circuits: list[list[int]] = []  # entering arcs, even only
    step: dict[int, tuple[int, int]] = {}

    def make_low(vertices: Iterable[int]) -> None:
        """Make each vertex of indegree 1 low, in turn, and link each new
        step arc: its live entering arc from a low tail, then each live
        arc it sends to a low vertex.  The union-find runs inline, with
        path halving, as this loop meets every vertex."""
        for w in vertices:
            if indeg[w] != 1:
                continue
            low[w] = w
            links = []
            for a in in_arcs[w]:
                if live[a]:
                    if arcs[a][0] in low:
                        links.append(a)
                    break
            for a in out_arcs[w]:
                if live[a] and arcs[a][1] in low:
                    links.append(a)
            for a in links:
                # h is low with this arc its one live entering arc, so it
                # has no step yet and is the root of its own tree
                t, h = arcs[a]
                step[h] = (a, t)
                rt = t
                while low[rt] != rt:
                    low[rt] = low[low[rt]]
                    rt = low[rt]
                low[h] = rt
                if h == rt:
                    cyc = [h]
                    while step[cyc[-1]][1] != h:
                        cyc.append(step[cyc[-1]][1])
                    if len(cyc) % 2 == 0:
                        # opened at its least vertex, whichever arc closed it
                        j = cyc.index(min(cyc))
                        circuits.append([step[x][0] for x in cyc[j:] + cyc[:j]])

    peel_sources([v for v in range(g.vertex_count) if indeg[v] == 0])
    make_low(range(g.vertex_count))
    for circ in circuits:
        # the circuit follows entering arcs, so flip to arc order
        deferred.append(("circuit", circ[::-1]))
        for a in circ:
            live[a] = False
            indeg[arcs[a][1]] -= 1
        make_low(set(peel_sources([arcs[a][1] for a in circ])))
    return [a for a in range(g.arc_count) if live[a]], deferred


def _colour_subcubic(d: Digraph) -> list[int]:
    """Star-colour a subcubic digraph with colours 1..3, listed by arc.

    Each level peels its digraph and colours the core left, unless the
    core's conflict graph has complete components: then the level cuts
    the arcs at the four vertices of each out of the core, one batch per
    component, and the next level runs on the rest.  Peeled and cut arcs
    keep a free colour whenever they are put back, so they are completed
    in reverse order, in d: every arc outside the level that peeled or
    cut an arc, or in an earlier cut batch of it, is still uncoloured then.
    """
    colour = [0] * d.arc_count
    batches = []  # peeled and cut arcs in order, by input index
    g, ids = d, list(range(d.arc_count))
    while True:
        live, peeled = _peel(g)
        batches += [(kind, list(map(ids.__getitem__, batch)))
                    for kind, batch in peeled]
        g, ids = _sub(g, ids, live)
        cuts = _colour_core(g, ids, colour) if live else []
        if not cuts:
            break
        batches += [("cut", [ids[a] for a in batch]) for batch in cuts]
        cut = {a for batch in cuts for a in batch}
        g, ids = _sub(g, ids, [a for a in range(g.arc_count) if a not in cut])

    # Bit c of into[v] (outof[v]) is set when an arc of colour c enters
    # (leaves) v; an uncoloured arc sets none, and no arc is uncoloured
    # again, so each colouring below keeps the masks exact by its bits.
    arcs = d.arcs
    into = [0] * d.vertex_count
    outof = [0] * d.vertex_count
    for (t, h), c in zip(compress(arcs, colour), filter(None, colour)):
        outof[t] |= 1 << c
        into[h] |= 1 << c

    # An arc t->h may not take a colour entering h or t or leaving h.
    # The loops below test and set these bits inline, as every source
    # arc passes through them; a call per arc costs as much as the work.
    for kind, batch in reversed(batches):
        if kind == "sources":
            for a in batch:
                t, h = arcs[a]
                options = _FREE[into[h] | outof[h] | into[t]]
                if not options:
                    raise InternalDefectError(
                        f"deferred arc {a} has no free colour")
                c = colour[a] = options[0]
                outof[t] |= 1 << c
                into[h] |= 1 << c
            continue
        free = [_FULL_MASK & ~(into[h] | outof[h] | into[t])
                for t, h in map(arcs.__getitem__, batch)]
        if kind == "circuit":
            solution = _cycle_dp([_FULL_MASK] * len(batch), free)
            if solution is None:
                raise InternalDefectError("even circuit completion failed")
            picks = solution[0]
        else:
            # an arc clashes with an earlier one that enters either of
            # its ends or leaves its head, as the bits above do
            picks = _first_fit(
                free, lambda i, j: (arcs[batch[i]][1] in arcs[batch[j]]
                                    or arcs[batch[i]][0] == arcs[batch[j]][1]))
            if picks is None:
                raise InternalDefectError(
                    "no completion around a complete conflict component")
        for a, c in zip(batch, picks):
            colour[a] = c
            t, h = arcs[a]
            outof[t] |= 1 << c
            into[h] |= 1 << c
    return colour


def _colour_core(core: Digraph, ids: Sequence[int],
                 colour: list[int]) -> list[list[int]]:
    """Core step: no sources, no even circuit in the low part.

    Colours every arc of the core and returns [], or, when the conflict
    graph has complete components on four arcs, colours nothing and
    returns a batch for each, by least arc: the arcs at its four
    vertices that no earlier batch holds, ascending.
    """
    arcs, in_arcs, out_arcs = core.arcs, core.in_arcs, core.out_arcs
    low = [i <= 1 for i in core.profile.indegree]
    aprime = [a for a, (_, h) in enumerate(arcs) if low[h]]

    # Critical sets: a high vertex with two in-arcs from the low part,
    # or an odd circuit of the high part fed only from the low part.
    # Each gets two entering arcs with distinct tails marked, forcing
    # the marked arcs' conflict colours (and hence their residual
    # lists) apart.
    selected_pairs: list[tuple[int, int]] = []
    for v in range(core.vertex_count):
        if low[v]:
            continue
        from_low = []  # loops, not comprehensions, in the per-vertex passes
        for a in in_arcs[v]:
            if low[arcs[a][0]]:
                from_low.append(a)
        if len(from_low) >= 2:
            selected_pairs.append((from_low[0], from_low[1]))
    step = {}
    for a, (t, h) in enumerate(arcs):
        if not low[t] and not low[h]:
            if t in step:
                raise InternalDefectError(
                    f"high vertex {t} has two out-arcs")
            step[t] = (a, h)
    for cyc in _map_cycles({t: h for t, (_, h) in step.items()}):
        if len(cyc) % 2 == 0:
            continue
        entering = []
        ok = True
        for i, v in enumerate(cyc):
            for a in in_arcs[v]:
                if a == step[cyc[i - 1]][0]:
                    continue
                if not low[arcs[a][0]]:
                    ok = False
                entering.append(a)
        if not ok:
            continue
        entering.sort()
        first = entering[0]
        partner = next((a for a in entering[1:]
                        if arcs[a][0] != arcs[first][0]), None)
        if partner is None:
            raise InternalDefectError(
                "critical circuit fed from a single tail")
        selected_pairs.append((first, partner))

    # The conflict graph on A', each arc by its rank in aprime.
    rank = [0] * core.arc_count
    for i, a in enumerate(aprime):
        rank[a] = i
    conflict: list[set[int]] = [set() for _ in aprime]
    for i, a in enumerate(aprime):
        for j in out_arcs[arcs[a][1]]:
            if low[arcs[j][1]]:
                conflict[i].add(rank[j])
                conflict[rank[j]].add(i)
    # the marked arcs' tails are low, so every arc into them is in A'
    for s1, s2 in selected_pairs:
        in1, in2 = in_arcs[arcs[s1][0]], in_arcs[arcs[s2][0]]
        if len(in1) != 1 or len(in2) != 1:
            raise InternalDefectError(
                "marked arc tail without a unique entering arc")
        if in1[0] != in2[0]:
            x, y = rank[in1[0]], rank[in2[0]]
            conflict[x].add(y)
            conflict[y].add(x)
    for i, nb in enumerate(conflict):
        if len(nb) > 3:
            raise InternalDefectError(
                f"conflict graph degree {len(nb)} at arc {ids[aprime[i]]}")

    # A complete component on four arcs cannot be Brooks-coloured.  Each
    # one, met at its least arc, has its four incident vertices cut out;
    # the rest is coloured on the next level, the cut arcs after it.
    cuts: list[list[int]] = []
    taken: set[int] = set()
    for i0, nb in enumerate(conflict):
        comp = nb | {i0}
        if (len(comp) == 4 and i0 == min(comp)
                and all(conflict[i] | {i} == comp for i in nb)):
            removed = {a for v in {v for i in comp for v in arcs[aprime[i]]}
                       for a in in_arcs[v] + out_arcs[v]}
            if len(removed) > 10:
                raise InternalDefectError(
                    "oversized neighbourhood around a complete component")
            cuts.append(sorted(removed - taken))
            taken |= removed
    if cuts:
        return cuts

    cprime = dict(zip(aprime, _brooks(conflict)))

    # Arcs between low vertices are coloured via the conflict graph; the
    # engine colours the rest.  Low vertices keeping both an in-arc and
    # out-arcs would sit in the engine as pass-through points; detach
    # the in-arc onto a fresh sink (its constraint is already burnt into
    # the lists).
    fresh = core.vertex_count
    detached: dict[int, int] = {}
    for v in range(core.vertex_count):
        if not low[v]:
            continue
        for a in in_arcs[v]:  # at most one, as v is low
            if low[arcs[a][0]]:
                continue
            for b in out_arcs[v]:
                if not low[arcs[b][1]]:
                    detached[a] = fresh
                    fresh += 1
                    break
    engine_arcs = []
    engine_ids = []
    lists = []
    for a, (t, h) in enumerate(arcs):
        if low[t] and low[h]:
            continue
        if low[h]:
            lists.append(1 << cprime[a])
        elif low[t]:
            if len(in_arcs[t]) != 1:
                raise InternalDefectError(
                    f"low vertex {t} lacks a unique entering arc")
            lists.append(_FULL_MASK ^ 1 << cprime[in_arcs[t][0]])
        else:
            lists.append(_FULL_MASK)
        engine_arcs.append((t, detached.get(a, h)))
        engine_ids.append(a)

    # core arcs, some with a fresh head: nothing to check again
    core = Digraph._of(fresh, tuple(engine_arcs))
    try:
        engine = _extension_engine(core, lists, strong_components(core))
    except PreconditionViolatedError as exc:
        raise InternalDefectError(
            f"engine rejected a pipeline instance: {exc}") from exc
    for a, c in cprime.items():
        colour[ids[a]] = c
    for j, c in engine.items():
        colour[ids[engine_ids[j]]] = c
    return []


def star_colouring_subcubic(d: Digraph) -> ArcColouring:
    """Directed star colouring with at most three colours.

    Works for any digraph whose total degree is at most three at
    every vertex; raises PreconditionViolatedError otherwise, and for
    parallel arcs.
    """
    _require_simple(d, "needs a simple digraph")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise PreconditionViolatedError(
            f"maximum total degree {profile.max_degree} exceeds three")
    colours = _colour_subcubic(d)
    return ArcColouring(dict(enumerate(colours)), 3 if d.arc_count else 0)
