"""Directed star colourings of subcubic digraphs with at most 3 colours.

The pipeline peels sources and even circuits of the low-indegree part,
3-colours a conflict graph built over the arcs that end in low-indegree
vertices, and finishes the remaining arcs with a list-colouring engine
that eats terminal strong components one at a time.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, Sequence

from .colouring import ArcColouring
from .digraph import Digraph, degree_profile, strong_components
from .errors import (
    BadListsError,
    BadShapeError,
    HasK4Error,
    InfeasibleError,
    InternalDefectError,
    NotSubcubicError,
    PreconditionViolatedError,
    ValidateError,
)

COLOURS = (1, 2, 3)
FULL = frozenset(COLOURS)


# ---------------------------------------------------------------------------
# Brooks' theorem, maximum degree three.


def _greedy_fill(adj: list[set[int]], order: Iterable[int],
                 colours: list[int]) -> None:
    # Every vertex must see at most two coloured neighbours when its
    # turn comes; the caller's ordering guarantees that.
    for v in order:
        used = {colours[u] for u in adj[v] if colours[u]}
        for c in COLOURS:
            if c not in used:
                colours[v] = c
                break
        else:
            raise InternalDefectError(
                f"vertex {v} saw all three colours during greedy fill")


def _reverse_bfs(adj: list[set[int]], root: int,
                 allowed: set[int]) -> list[int]:
    """Vertices of `allowed` reachable from root, root last."""
    seen = {root}
    queue = [root]
    for v in queue:
        for u in sorted(adj[v]):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    queue.reverse()
    return queue


def _component_connected_without(adj: list[set[int]], comp: list[int],
                                 banned: set[int]) -> bool:
    rest = [v for v in comp if v not in banned]
    if not rest:
        return True
    seen = {rest[0]}
    queue = [rest[0]]
    for v in queue:
        for u in adj[v]:
            if u not in banned and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(rest)


def _brooks_component(adj: list[set[int]], comp: list[int],
                      colours: list[int]) -> None:
    compset = set(comp)
    if len(comp) == 4 and all(len(adj[v]) == 3 for v in comp):
        raise HasK4Error("a component is the complete graph on four vertices")

    low = [v for v in comp if len(adj[v]) <= 2]
    if low:
        _greedy_fill(adj, _reverse_bfs(adj, min(low), compset), colours)
        return

    # Cubic component.  A cut vertex lets us colour the pieces
    # separately and align them on the shared vertex afterwards.
    for c in comp:
        if not _component_connected_without(adj, comp, {c}):
            _split_on_cut_vertex(adj, comp, c, colours)
            return

    # Two-connected cubic, not complete: some vertex has two
    # non-adjacent neighbours whose removal keeps the rest connected.
    # Colour those two alike so the final vertex sees two colours only.
    for v in comp:
        nbrs = sorted(adj[v])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[j]
                if u in adj[w]:
                    continue
                if not _component_connected_without(adj, comp, {u, w}):
                    continue
                colours[u] = colours[w] = 1
                _greedy_fill(adj, _reverse_bfs(adj, v, compset - {u, w}),
                             colours)
                return
    raise InternalDefectError("no admissible pair in a cubic component")


def _split_on_cut_vertex(adj: list[set[int]], comp: list[int], cut: int,
                         colours: list[int]) -> None:
    remaining = set(comp) - {cut}
    target = 0
    while remaining:
        seed = min(remaining)
        part = {seed}
        queue = [seed]
        for v in queue:
            for u in adj[v]:
                if u != cut and u not in part:
                    part.add(u)
                    queue.append(u)
        remaining -= part
        part.add(cut)
        sub_adj = [adj[v] & part if v in part else set()
                   for v in range(len(adj))]
        colours[cut] = 0
        _brooks_component(sub_adj, sorted(part), colours)
        if target == 0:
            target = colours[cut]
        elif colours[cut] != target:
            # swap the two colours inside this part only
            a, b = colours[cut], target
            for v in part:
                if v == cut:
                    continue
                if colours[v] == a:
                    colours[v] = b
                elif colours[v] == b:
                    colours[v] = a
            colours[cut] = target


def brooks_three_colouring(vertex_count: int,
                           edges: Iterable[tuple[int, int]]) -> list[int]:
    """Proper 3-colouring of an undirected graph with degree <= 3.

    Components that are complete on four vertices are the one
    obstruction and raise HasK4Error.  Returns a list indexed by
    vertex with colours in 1..3 (isolated vertices get 1).
    """
    adj: list[set[int]] = [set() for _ in range(vertex_count)]
    seen_edges = set()
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValidateError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValidateError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise ValidateError(f"duplicate edge ({u}, {v})")
        seen_edges.add(key)
        adj[u].add(v)
        adj[v].add(u)
    for v in range(vertex_count):
        if len(adj[v]) > 3:
            raise NotSubcubicError(f"vertex {v} has degree {len(adj[v])}")

    colours = [0] * vertex_count
    done: set[int] = set()
    for v0 in range(vertex_count):
        if v0 in done:
            continue
        comp = {v0}
        queue = [v0]
        for v in queue:
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        done |= comp
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
# a_i != a_{i+1}, v_i not in {a_{i-1}, a_i}, all indices mod l.


def _vertex_fits(vlist: Sequence[int], before: int, after: int) -> bool:
    return any(c != before and c != after for c in vlist)


def _cycle_dp(vertex_lists: Sequence[Sequence[int]],
              arc_lists: Sequence[Sequence[int]],
              ) -> tuple[list[int], list[int]] | None:
    """Lexicographically smallest (a_0..a_{l-1}) solution, or None."""
    length = len(vertex_lists)
    if length != len(arc_lists) or length < 2:
        raise InternalDefectError("degenerate circuit in cycle solver")

    for start in arc_lists[0]:
        # can_close[i][c]: choosing a_i = c still allows finishing the
        # circuit and wrapping back onto a_0 = start.
        can_close: list[dict[int, bool]] = [dict() for _ in range(length)]
        for c in arc_lists[length - 1]:
            can_close[length - 1][c] = (
                c != start and _vertex_fits(vertex_lists[0], c, start))
        for i in range(length - 2, 0, -1):
            for c in arc_lists[i]:
                can_close[i][c] = any(
                    c != d and _vertex_fits(vertex_lists[i + 1], c, d)
                    and can_close[i + 1][d]
                    for d in arc_lists[i + 1])
        if not any(start != d and _vertex_fits(vertex_lists[1], start, d)
                   and can_close[1][d] for d in arc_lists[1]):
            continue
        arcs = [start]
        for i in range(1, length):
            prev = arcs[-1]
            for c in sorted(arc_lists[i]):
                if (c != prev and _vertex_fits(vertex_lists[i], prev, c)
                        and can_close[i][c]):
                    arcs.append(c)
                    break
            else:
                raise InternalDefectError("cycle reconstruction dead end")
        verts = []
        for i in range(length):
            before = arcs[(i - 1) % length]
            after = arcs[i]
            verts.append(min(c for c in vertex_lists[i]
                             if c != before and c != after))
        return arcs, verts
    return None


def _circuit_sequence(circuit: Digraph) -> tuple[list[int], list[int]]:
    """Vertex order and arc order of a digraph that is one circuit."""
    if circuit.vertex_count == 0 or circuit.arc_count == 0:
        raise BadShapeError("empty digraph is not a circuit")
    for v in range(circuit.vertex_count):
        if len(circuit.in_arcs[v]) != 1 or len(circuit.out_arcs[v]) != 1:
            raise BadShapeError(
                f"vertex {v} has degrees other than one in and one out")
    verts = [0]
    arcs = []
    cur = 0
    while True:
        arc = circuit.out_arcs[cur][0]
        arcs.append(arc)
        cur = circuit.arcs[arc][1]
        if cur == 0:
            break
        verts.append(cur)
    if len(verts) != circuit.vertex_count:
        raise BadShapeError("digraph is a union of several circuits")
    return verts, arcs


def lemma_cycle_colouring(circuit: Digraph,
                          vertex_lists: Mapping[int, Iterable[int]],
                          ) -> tuple[dict[int, int], dict[int, int]]:
    """Colour the arcs and vertices of a circuit.

    Every vertex takes a colour from its 2-element list, arcs range
    over {1,2,3}; an arc differs from both its endpoints and from the
    next arc.  Returns (arc colours by arc index, vertex colours).
    Raises InfeasibleError exactly when the circuit has odd length and
    all vertex lists are equal.
    """
    verts, arcs = _circuit_sequence(circuit)
    lists = []
    for v in verts:
        if v not in vertex_lists:
            raise BadListsError(f"vertex {v} has no list")
        lst = sorted(set(vertex_lists[v]))
        if len(lst) != 2 or not set(lst) <= FULL:
            raise BadListsError(
                f"vertex {v} needs exactly two colours from 1..3")
        lists.append(lst)

    solution = _cycle_dp(lists, [COLOURS] * len(verts))
    if solution is None:
        if len(verts) % 2 == 0 or any(l != lists[0] for l in lists):
            raise InternalDefectError(
                "solver gave up outside the odd uniform case")
        raise InfeasibleError(
            "odd circuit with all vertex lists equal has no colouring")
    arc_cols, vert_cols = solution
    return ({arcs[i]: arc_cols[i] for i in range(len(arcs))},
            {verts[i]: vert_cols[i] for i in range(len(verts))})


# ---------------------------------------------------------------------------
# List-extension engine.
#
# Records map an arc key to [tail, head, set of allowed colours].  The
# engine repeatedly takes a terminal strong component of what is left:
# a lone sink gets its in-arcs coloured pairwise distinct from their
# lists, a circuit is solved exactly together with its entering arcs.
# Whenever an arc u->v is coloured, its colour is struck from the
# lists of the arcs entering u.


def _distinct_assignment(lists: list[list[int]]) -> tuple[int, ...] | None:
    for combo in product(*lists):
        if len(set(combo)) == len(combo):
            return combo
    return None


def _strike_at_tail(records: dict[int, list], by_head: dict[int, set[int]],
                    tail: int, colour: int) -> None:
    for k in by_head.get(tail, ()):
        rec = records[k]
        rec[2].discard(colour)
        if not rec[2]:
            raise InternalDefectError(
                f"arc {k} lost its last colour during propagation")


def _extension_engine(records: dict[int, list]) -> dict[int, int]:
    colours: dict[int, int] = {}
    by_head: dict[int, set[int]] = {}
    by_tail: dict[int, set[int]] = {}
    for k, (t, h, _) in records.items():
        by_head.setdefault(h, set()).add(k)
        by_tail.setdefault(t, set()).add(k)

    def drop(k: int) -> None:
        t, h, _ = records.pop(k)
        by_tail[t].discard(k)
        by_head[h].discard(k)

    while records:
        verts = sorted({r[0] for r in records.values()}
                       | {r[1] for r in records.values()})
        remap = {v: i for i, v in enumerate(verts)}
        keys = sorted(records)
        dense = Digraph(len(verts),
                        tuple((remap[records[k][0]], remap[records[k][1]])
                              for k in keys))
        comp = strong_components(dense)[0]  # emitted first = terminal
        comp_verts = [verts[i] for i in comp]

        if len(comp_verts) == 1:
            v = comp_verts[0]
            if by_tail.get(v):
                raise InternalDefectError(
                    f"terminal vertex {v} still has out-arcs")
            in_keys = sorted(by_head.get(v, ()))
            if not in_keys:
                raise InternalDefectError(
                    f"vertex {v} owns no arcs yet reached the engine")
            assignment = _distinct_assignment(
                [sorted(records[k][2]) for k in in_keys])
            if assignment is None:
                raise InternalDefectError(
                    f"no distinct colours for the arcs into {v}")
            tails = [records[k][0] for k in in_keys]
            for k, c in zip(in_keys, assignment):
                colours[k] = c
                drop(k)
            for t, c in zip(tails, assignment):
                _strike_at_tail(records, by_head, t, c)
            continue

        # Terminal component on several vertices: must be a circuit.
        comp_set = set(comp_verts)
        seq = [min(comp_set)]
        circ_keys = []
        while True:
            outs = sorted(by_tail.get(seq[-1], ()))
            if len(outs) != 1:
                raise InternalDefectError(
                    f"vertex {seq[-1]} of a terminal component has "
                    f"{len(outs)} out-arcs")
            k = outs[0]
            circ_keys.append(k)
            nxt = records[k][1]
            if nxt == seq[0]:
                break
            seq.append(nxt)
        if len(seq) != len(comp_set):
            raise InternalDefectError("terminal component is not a circuit")

        entering: list[int | None] = []
        vertex_lists: list[Sequence[int]] = []
        arc_lists: list[Sequence[int]] = []
        for i, v in enumerate(seq):
            into = sorted(by_head.get(v, ()))
            circ_in = circ_keys[(i - 1) % len(seq)]
            extra = [k for k in into if k != circ_in]
            if len(extra) > 1:
                raise InternalDefectError(
                    f"circuit vertex {v} has several entering arcs")
            entering.append(extra[0] if extra else None)
            vertex_lists.append(sorted(records[extra[0]][2]) if extra
                                else COLOURS)
            arc_lists.append(sorted(records[circ_keys[i]][2]))

        solution = _cycle_dp(vertex_lists, arc_lists)
        if solution is None:
            raise PreconditionViolatedError(
                "odd circuit whose entering arcs all carry the same "
                "two-colour list")
        arc_cols, vert_cols = solution
        strikes = []
        for i, k in enumerate(circ_keys):
            colours[k] = arc_cols[i]
            drop(k)
        for i, k in enumerate(entering):
            if k is not None:
                colours[k] = vert_cols[i]
                strikes.append((records[k][0], vert_cols[i], k))
                drop(k)
        for t, c, _ in sorted(strikes, key=lambda s: s[2]):
            _strike_at_tail(records, by_head, t, c)
    return colours


def _normalised_lists(d: Digraph, lists: Mapping[int, Iterable[int]],
                      ) -> list[frozenset[int]]:
    out = []
    for i in range(d.arc_count):
        if i not in lists:
            raise PreconditionViolatedError(f"arc {i} has no colour list")
        lst = frozenset(lists[i])
        if not lst or not lst <= FULL:
            raise PreconditionViolatedError(
                f"arc {i} has list outside 1..3")
        out.append(lst)
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
    if len(set(d.arcs)) != d.arc_count:
        raise ValidateError("needs a simple digraph")
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
            if len(norm[i]) < profile.indegree[h]:
                raise PreconditionViolatedError(
                    f"arc {i} into sink {h} has a list smaller than "
                    f"the sink's indegree")
        elif profile.indegree[t] == 0:
            if len(norm[i]) < 2:
                raise PreconditionViolatedError(
                    f"initial arc {i} has fewer than two colours")
            initial_at.setdefault(h, []).append(i)
        elif len(norm[i]) != 3:
            raise PreconditionViolatedError(
                f"arc {i} must carry the full list")
    for h, group in initial_at.items():
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                if norm[group[x]] | norm[group[y]] != FULL:
                    raise PreconditionViolatedError(
                        f"initial arcs {group[x]} and {group[y]} into "
                        f"{h} do not cover all three colours")

    records = {i: [t, h, set(norm[i])]
               for i, (t, h) in enumerate(d.arcs)}
    colours = _extension_engine(records)
    for i in range(d.arc_count):
        if colours[i] not in norm[i]:
            raise InternalDefectError(f"arc {i} coloured off its list")
    return ArcColouring(colours, 3 if d.arc_count else 0)


# ---------------------------------------------------------------------------
# The full pipeline.


def _functional_cycles(step: dict[int, tuple[int, int]],
                       ) -> list[tuple[list[int], list[int]]]:
    """Cycles of a map vertex -> (arc key, next vertex).

    Returns (vertex order, arc keys) pairs, each cycle reported once,
    discovered in ascending order of its smallest vertex.
    """
    state: dict[int, int] = {}
    cycles = []
    for v0 in sorted(step):
        if state.get(v0):
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        cur = v0
        while True:
            if cur in pos:
                cyc = path[pos[cur]:]
                keys = [step[x][0] for x in cyc]
                # keys[i] leaves cyc[i]; rotate so the smallest
                # vertex opens the cycle
                j = cyc.index(min(cyc))
                cycles.append((cyc[j:] + cyc[:j], keys[j:] + keys[:j]))
                break
            if state.get(cur) == 2 or cur not in step:
                break
            pos[cur] = len(path)
            path.append(cur)
            cur = step[cur][1]
        for x in path:
            state[x] = 2
    return cycles


def _free_colours(key: int, arcs: Mapping[int, tuple[int, int]],
                  colours: Mapping[int, int],
                  by_head: Mapping[int, Sequence[int]],
                  by_tail: Mapping[int, Sequence[int]]) -> list[int]:
    t, h = arcs[key]
    forbidden = set()
    for j in by_head.get(h, ()):
        if j != key and j in colours:
            forbidden.add(colours[j])
    for j in by_tail.get(h, ()):
        if j in colours:
            forbidden.add(colours[j])
    for j in by_head.get(t, ()):
        if j in colours:
            forbidden.add(colours[j])
    return [c for c in COLOURS if c not in forbidden]


def _colour_subcubic_arcs(arcs: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Star-colour an arbitrary subcubic arc set with colours 1..3."""
    by_head: dict[int, list[int]] = {}
    by_tail: dict[int, list[int]] = {}
    for k in sorted(arcs):
        t, h = arcs[k]
        by_tail.setdefault(t, []).append(k)
        by_head.setdefault(h, []).append(k)

    # Peel sources and even circuits of the low-indegree part; both
    # kinds of arcs keep at least one free colour whenever they are
    # put back, so they are completed after everything else.
    live = dict(arcs)
    deferred: list[tuple[str, list[int]]] = []
    while live:
        indeg: dict[int, int] = {}
        outdeg: dict[int, int] = {}
        for t, h in live.values():
            outdeg[t] = outdeg.get(t, 0) + 1
            indeg[h] = indeg.get(h, 0) + 1
        batch = sorted(k for k, (t, _) in live.items()
                       if indeg.get(t, 0) == 0)
        if batch:
            deferred.append(("sources", batch))
            for k in batch:
                del live[k]
            continue
        low = {v for v in set(indeg) | set(outdeg) if indeg.get(v, 0) <= 1}
        step: dict[int, tuple[int, int]] = {}
        for k in sorted(live):
            t, h = live[k]
            if t in low and h in low:
                if h in step:
                    raise InternalDefectError(
                        f"vertex {h} has two entering arcs in the low part")
                step[h] = (k, t)
        even = [(cyc, keys) for cyc, keys in _functional_cycles(step)
                if len(cyc) % 2 == 0]
        if not even:
            break
        cyc, keys = even[0]
        # the walk above follows entering arcs, so flip to arc order
        forward = list(reversed(keys))
        deferred.append(("circuit", forward))
        for k in keys:
            del live[k]

    colours: dict[int, int] = {}
    if live:
        colours.update(_colour_core(live, arcs))

    for kind, batch in reversed(deferred):
        if kind == "sources":
            for k in batch:
                free = _free_colours(k, arcs, colours, by_head, by_tail)
                if not free:
                    raise InternalDefectError(
                        f"deferred arc {k} has no free colour")
                colours[k] = free[0]
        else:
            lists = []
            for k in batch:
                free = _free_colours(k, arcs, colours, by_head, by_tail)
                if len(free) < 2:
                    raise InternalDefectError(
                        f"circuit arc {k} kept fewer than two colours")
                lists.append(free)
            solution = _cycle_dp([COLOURS] * len(batch), lists)
            if solution is None:
                raise InternalDefectError(
                    "even circuit completion failed")
            for k, c in zip(batch, solution[0]):
                colours[k] = c
    return colours


def _colour_core(live: dict[int, tuple[int, int]],
                 arcs: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Core step: no sources, no even circuit in the low part."""
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for t, h in live.values():
        outdeg[t] = outdeg.get(t, 0) + 1
        indeg[h] = indeg.get(h, 0) + 1
    verts = set(indeg) | set(outdeg)
    low = {v for v in verts if indeg.get(v, 0) <= 1}
    high = verts - low
    by_head: dict[int, list[int]] = {}
    by_tail: dict[int, list[int]] = {}
    for k in sorted(live):
        t, h = live[k]
        by_tail.setdefault(t, []).append(k)
        by_head.setdefault(h, []).append(k)

    aprime = sorted(k for k in live if live[k][1] in low)

    # Critical sets: a high vertex with two in-arcs from the low part,
    # or an odd circuit of the high part fed only from the low part.
    # Each gets two entering arcs with distinct tails marked, forcing
    # the marked arcs' conflict colours (and hence their residual
    # lists) apart.
    selected_pairs: list[tuple[int, int]] = []
    for v in sorted(high):
        from_low = [k for k in by_head[v] if live[k][0] in low]
        if len(from_low) >= 2:
            selected_pairs.append((from_low[0], from_low[1]))
    step = {}
    for k in sorted(live):
        t, h = live[k]
        if t in high and h in high:
            if t in step:
                raise InternalDefectError(
                    f"high vertex {t} has two out-arcs")
            step[t] = (k, h)
    for cyc, keys in _functional_cycles(step):
        if len(cyc) % 2 == 0:
            continue
        entering = []
        ok = True
        for i, v in enumerate(cyc):
            circ_in = keys[(i - 1) % len(keys)]
            for k in by_head[v]:
                if k == circ_in:
                    continue
                if live[k][0] not in low:
                    ok = False
                entering.append(k)
        if not ok:
            continue
        entering.sort()
        first = entering[0]
        partner = next((k for k in entering[1:]
                        if live[k][0] != live[first][0]), None)
        if partner is None:
            raise InternalDefectError(
                "critical circuit fed from a single tail")
        selected_pairs.append((first, partner))

    conflict: dict[int, set[int]] = {k: set() for k in aprime}
    aset = set(aprime)
    for k in aprime:
        t, h = live[k]
        for j in by_tail.get(h, ()):
            if j in aset and j != k:
                conflict[k].add(j)
                conflict[j].add(k)
    for s1, s2 in selected_pairs:
        y1, y2 = live[s1][0], live[s2][0]
        in1 = [k for k in by_head.get(y1, ()) if k in aset]
        in2 = [k for k in by_head.get(y2, ()) if k in aset]
        if len(in1) != 1 or len(in2) != 1:
            raise InternalDefectError(
                "marked arc tail without a unique entering arc")
        if in1[0] != in2[0]:
            conflict[in1[0]].add(in2[0])
            conflict[in2[0]].add(in1[0])
    for k, nb in conflict.items():
        if len(nb) > 3:
            raise InternalDefectError(
                f"conflict graph degree {len(nb)} at arc {k}")

    # A complete component on four arcs cannot be Brooks-coloured.
    # Its four incident vertices are cut out, the rest is coloured
    # recursively, and the handful of removed arcs is completed by
    # exhaustive search.
    comp_seen: set[int] = set()
    for k0 in aprime:
        if k0 in comp_seen:
            continue
        comp = {k0}
        queue = [k0]
        for k in queue:
            for j in conflict[k]:
                if j not in comp:
                    comp.add(j)
                    queue.append(j)
        comp_seen |= comp
        if len(comp) == 4 and all(len(conflict[k]) == 3 for k in comp):
            bad_verts = set()
            for k in comp:
                bad_verts.update(live[k])
            if len(bad_verts) != 4:
                raise InternalDefectError(
                    "complete conflict component not on four vertices")
            removed = sorted(k for k in live
                             if set(live[k]) & bad_verts)
            if len(removed) > 10:
                raise InternalDefectError(
                    "oversized neighbourhood around a complete component")
            rest = {k: live[k] for k in live if k not in removed}
            colours = _colour_subcubic_arcs(rest)
            for combo in product(COLOURS, repeat=len(removed)):
                trial = dict(colours)
                trial.update(zip(removed, combo))
                if all(trial[k] in _free_colours(k, live, trial,
                                                 by_head, by_tail)
                       for k in removed):
                    return trial
            raise InternalDefectError(
                "no completion around a complete conflict component")

    nodes = aprime
    index = {k: i for i, k in enumerate(nodes)}
    edges = sorted({(min(index[k], index[j]), max(index[k], index[j]))
                    for k in nodes for j in conflict[k]})
    node_colours = brooks_three_colouring(len(nodes), edges)
    cprime = {k: node_colours[index[k]] for k in nodes}

    fresh = max(verts) + 1
    records: dict[int, list] = {}
    for k in sorted(live):
        t, h = live[k]
        if t in low and h in low:
            continue  # coloured via the conflict graph
        if h in low:
            records[k] = [t, h, {cprime[k]}]
        elif t in low:
            tk = [j for j in by_head[t] if j in aset]
            if len(tk) != 1:
                raise InternalDefectError(
                    f"low vertex {t} lacks a unique entering arc")
            records[k] = [t, h, set(COLOURS) - {cprime[tk[0]]}]
        else:
            records[k] = [t, h, set(COLOURS)]
    # Low vertices keeping both an in-arc and out-arcs would sit in
    # the engine as pass-through points; detach the in-arc onto a
    # fresh sink (its constraint is already burnt into the lists).
    for v in sorted(low):
        ins = [k for k in records if records[k][1] == v]
        outs = [k for k in records if records[k][0] == v]
        if ins and outs:
            if len(ins) != 1:
                raise InternalDefectError(
                    f"low vertex {v} with several engine in-arcs")
            records[ins[0]][1] = fresh
            fresh += 1

    try:
        engine = _extension_engine(records)
    except PreconditionViolatedError as exc:
        raise InternalDefectError(
            f"engine rejected a pipeline instance: {exc}") from exc
    colours = dict(cprime)
    for k, c in engine.items():
        if k in colours and colours[k] != c:
            raise InternalDefectError(
                f"arc {k} coloured twice with different colours")
        colours[k] = c
    return colours


def star_colouring_subcubic(d: Digraph) -> ArcColouring:
    """Directed star colouring with at most three colours.

    Works for any digraph whose total degree is at most three at
    every vertex; raises NotSubcubicError otherwise.
    """
    if len(set(d.arcs)) != d.arc_count:
        raise ValidateError("needs a simple digraph")
    profile = degree_profile(d)
    if profile.max_degree > 3:
        raise NotSubcubicError(
            f"maximum total degree {profile.max_degree} exceeds three")
    colours = _colour_subcubic_arcs(dict(enumerate(d.arcs)))
    return ArcColouring(colours, 3 if d.arc_count else 0)
