"""Forest-plus-galaxy arc partitions and the 2k+1 colouring bound.

A k-decomposition splits the arcs into k forests and a galaxy with all
sources isolated in the galaxy; u-suitable adds that no galaxy arc
points at u.  Every k-nice multidigraph has one, and turning each
forest into two galaxies colours any simple digraph with 2k+1 colours
for k its maximum indegree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count

from .colouring import ArcColouring, from_class_list
from .digraph import Digraph, degree_profile, strong_components
from .errors import (BadParamsError, InternalDefectError, NotForestError,
                     NotNiceError, TooLargeError, ValidateError)

# contraction recursion is linear in the vertex count
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

InternalArc = tuple[int, int, int]  # (tail, head, original arc index)


def is_galaxy_arcs(d: Digraph, arc_set: frozenset[int] | set[int]) -> bool:
    """A set of arcs is a galaxy iff heads are pairwise distinct and no
    head is also a tail: components are then exactly stars."""
    heads = [d.arcs[i][1] for i in arc_set]
    tails = {d.arcs[i][0] for i in arc_set}
    return len(heads) == len(set(heads)) and not (set(heads) & tails)


def is_forest_arcs(d: Digraph, arc_set: frozenset[int] | set[int]) -> bool:
    """Union of arborescences: every head occurs once and no circuit."""
    heads = [d.arcs[i][1] for i in arc_set]
    if len(heads) != len(set(heads)):
        return False
    parent = {d.arcs[i][1]: d.arcs[i][0] for i in arc_set}
    # with indegree <= 1 a circuit is a parent-walk returning to its start
    state: dict[int, int] = {}  # 1 walking, 2 safe
    for start in parent:
        v = start
        trail = []
        while v in parent and state.get(v) != 2:
            if state.get(v) == 1:
                return False
            state[v] = 1
            trail.append(v)
            v = parent[v]
        for w in trail:
            state[w] = 2
    return True


@dataclass(frozen=True)
class ForestGalaxyDecomposition:
    digraph: Digraph
    forests: tuple[frozenset[int], ...]
    galaxy: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "forests",
                           tuple(frozenset(f) for f in self.forests))
        object.__setattr__(self, "galaxy", frozenset(self.galaxy))
        d = self.digraph
        pieces = [*self.forests, self.galaxy]
        total = sum(len(p) for p in pieces)
        union = set().union(*pieces) if pieces else set()
        if total != d.arc_count or union != set(range(d.arc_count)):
            raise ValidateError("forests and galaxy do not partition the arcs")
        for pos, forest in enumerate(self.forests):
            if not is_forest_arcs(d, forest):
                raise ValidateError(f"piece {pos} is not a forest")
        if not is_galaxy_arcs(d, self.galaxy):
            raise ValidateError("galaxy piece is not a galaxy")

    def sources_isolated(self) -> bool:
        profile = degree_profile(self.digraph)
        sources = {v for v in range(self.digraph.vertex_count)
                   if profile.indegree[v] == 0}
        for i in self.galaxy:
            t, h = self.digraph.arcs[i]
            if t in sources or h in sources:
                return False
        return True

    def suitable_for(self, u: int) -> bool:
        return self.sources_isolated() and all(
            self.digraph.arcs[i][1] != u for i in self.galaxy)


def is_k_nice(d: Digraph, k: int) -> bool:
    profile = degree_profile(d)
    if profile.max_indegree > k:
        return False
    by_pair: dict[tuple[int, int], int] = {}
    for t, h in d.arcs:
        by_pair[(t, h)] = by_pair.get((t, h), 0) + 1
    for (t, _), mult in by_pair.items():
        if mult > 1 and profile.indegree[t] != 0:
            return False
    return True


def _weak_components(vertices: list[int],
                     arcs: list[InternalArc]) -> list[set[int]]:
    neighbours: dict[int, set[int]] = {v: set() for v in vertices}
    for t, h, _ in arcs:
        neighbours[t].add(h)
        neighbours[h].add(t)
    seen: set[int] = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            for x in neighbours[w]:
                if x not in seen:
                    seen.add(x)
                    comp.add(x)
                    stack.append(x)
        comps.append(comp)
    return comps


def _local_sccs(vertices: list[int],
                arcs: list[InternalArc]) -> list[list[int]]:
    """SCCs on an arbitrary vertex-id set, reverse-topological order."""
    index = {v: i for i, v in enumerate(vertices)}
    local = Digraph(len(vertices),
                    tuple((index[t], index[h]) for t, h, _ in arcs),
                    allow_parallel=True)
    return [[vertices[i] for i in comp] for comp in strong_components(local)]


def _bfs_arborescence(vertices: list[int], arcs: list[InternalArc], root: int,
                      seed_all_root_arcs: bool) -> list[InternalArc]:
    """Spanning arborescence by BFS, lowest original arc index first.

    With seed_all_root_arcs every arc leaving the root is forced into
    the tree (their heads must be distinct, which holds where it is
    used: strongly connected pieces have no parallel arcs).
    """
    out_of: dict[int, list[InternalArc]] = {v: [] for v in vertices}
    for arc in sorted(arcs, key=lambda a: a[2]):
        out_of[arc[0]].append(arc)
    tree: list[InternalArc] = []
    reached = {root}
    queue = [root]
    if seed_all_root_arcs:
        for arc in out_of[root]:
            if arc[1] in reached:
                raise InternalDefectError(
                    "root has parallel leaving arcs in a strong piece")
            tree.append(arc)
            reached.add(arc[1])
            queue.append(arc[1])
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for arc in out_of[v]:
            if arc[1] not in reached:
                tree.append(arc)
                reached.add(arc[1])
                queue.append(arc[1])
    if len(reached) != len(vertices):
        raise InternalDefectError("arborescence does not span its piece")
    return tree


def _decompose(vertices: list[int], arcs: list[InternalArc], u: int, k: int,
               fresh: count) -> tuple[list[list[int]], list[int]]:
    """Returns (k forests, galaxy) as lists of original arc indices."""
    if not arcs:
        return [[] for _ in range(k)], []

    comps = _weak_components(vertices, arcs)
    if len(comps) > 1:
        forests: list[list[int]] = [[] for _ in range(k)]
        galaxy: list[int] = []
        for comp in comps:
            comp_arcs = [a for a in arcs if a[0] in comp]
            u_c = u if u in comp else min(comp)
            sub_f, sub_g = _decompose(sorted(comp), comp_arcs, u_c, k, fresh)
            for i in range(k):
                forests[i].extend(sub_f[i])
            galaxy.extend(sub_g)
        return forests, galaxy

    sccs = _local_sccs(vertices, arcs)
    if len(sccs) == 1 and len(vertices) > 1:
        # strongly connected: peel a spanning arborescence rooted at an
        # outneighbour v of u, recurse without v, then spread v's other
        # entering arcs one per forest and send uv to the galaxy.
        out_heads = sorted(h for t, h, _ in arcs if t == u)
        if not out_heads:
            raise InternalDefectError("strong piece where u has no leaving arc")
        v = out_heads[0]
        tree = _bfs_arborescence(vertices, arcs, v, seed_all_root_arcs=True)
        tree_set = {a[2] for a in tree}
        into_v = sorted((a for a in arcs if a[1] == v and a[2] not in tree_set),
                        key=lambda a: a[2])
        uv_candidates = [a for a in into_v if a[0] == u]
        if len(uv_candidates) != 1:
            raise InternalDefectError("expected exactly one arc from u to v")
        uv = uv_candidates[0]
        others = [a for a in into_v if a is not uv]
        rest = [a for a in arcs
                if a[2] not in tree_set and a[1] != v and a[0] != v]
        sub_vertices = [w for w in vertices if w != v]
        forests, galaxy = _decompose(sub_vertices, rest, u, k - 1, fresh)
        if len(others) > k - 1:
            raise InternalDefectError("more entering arcs at v than forests")
        for i, arc in enumerate(others):
            forests[i].append(arc[2])
        forests.append([a[2] for a in tree])
        galaxy.append(uv[2])
        return forests, galaxy

    # connected but not strong: take the terminal component with the
    # lowest vertex id (reverse-topological SCC order lists terminal
    # components before anything that reaches them).
    has_leaving = set()
    scc_of: dict[int, int] = {}
    for pos, comp in enumerate(sccs):
        for w in comp:
            scc_of[w] = pos
    for t, h, _ in arcs:
        if scc_of[t] != scc_of[h]:
            has_leaving.add(scc_of[t])
    terminal = [comp for pos, comp in enumerate(sccs) if pos not in has_leaving]
    if not terminal:
        raise InternalDefectError("no terminal strong component found")
    d1 = set(min(terminal, key=min))
    d2 = [w for w in vertices if w not in d1]
    u1 = u if u in d1 else min(d1)

    if len(d2) == 1:
        v = d2[0]
        if any(a[1] == v for a in arcs):
            raise InternalDefectError("lone vertex outside a terminal "
                                      "component must be a source")
        tree = _bfs_arborescence(vertices, arcs, v, seed_all_root_arcs=False)
        tree_set = {a[2] for a in tree}
        rest = [a for a in arcs if a[2] not in tree_set]
        forests, galaxy = _decompose(vertices, rest, u, k - 1, fresh)
        forests.append([a[2] for a in tree])
        return forests, galaxy

    u2 = u if u in d2 else min(d2)
    if any(a[0] in d1 and a[1] not in d1 for a in arcs):
        raise InternalDefectError("terminal component has a leaving arc")
    internal2 = [a for a in arcs if a[0] not in d1 and a[1] not in d1]
    f2, g2 = _decompose(sorted(d2), internal2, u2, k, fresh)

    v_new = next(fresh)
    internal1 = [a for a in arcs if a[0] in d1 and a[1] in d1]
    crossing = [(v_new, a[1], a[2]) for a in arcs
                if a[0] not in d1 and a[1] in d1]
    f1, g1 = _decompose(sorted(d1) + [v_new], internal1 + crossing, u1, k, fresh)

    forests = [f1[i] + f2[i] for i in range(k)]
    return forests, g1 + g2


def u_suitable_decomposition(d: Digraph, u: int, k: int,
                             ) -> ForestGalaxyDecomposition:
    """A u-suitable k-decomposition of a k-nice multidigraph."""
    if not (0 <= u < d.vertex_count):
        raise BadParamsError(f"vertex {u} outside 0..{d.vertex_count - 1}")
    if k < 0:
        raise BadParamsError("k must be non-negative")
    if not is_k_nice(d, k):
        raise NotNiceError(f"digraph is not {k}-nice")
    arcs = [(t, h, i) for i, (t, h) in enumerate(d.arcs)]
    forests, galaxy = _decompose(list(range(d.vertex_count)), arcs, u, k,
                                 count(d.vertex_count))
    decomposition = ForestGalaxyDecomposition(
        d, tuple(frozenset(f) for f in forests), frozenset(galaxy))
    if not decomposition.suitable_for(u):
        raise InternalDefectError("decomposition lost u-suitability")
    return decomposition


def forest_to_two_galaxies(d: Digraph, forest: frozenset[int] | set[int],
                           ) -> tuple[frozenset[int], frozenset[int]]:
    """Split a forest into two galaxies by the parity of tail depth."""
    if not is_forest_arcs(d, forest):
        raise NotForestError("arc set is not a forest")
    parent: dict[int, tuple[int, int]] = {}
    for i in forest:
        t, h = d.arcs[i]
        parent[h] = (t, i)
    depth: dict[int, int] = {}

    def depth_of(v: int) -> int:
        path = []
        w = v
        while w not in depth and w in parent:
            path.append(w)
            w = parent[w][0]
        base = depth.get(w, 0)
        for x in reversed(path):
            base += 1
            depth[x] = base
        return depth.get(v, 0)

    even: set[int] = set()
    odd: set[int] = set()
    for i in sorted(forest):
        tail = d.arcs[i][0]
        (even if depth_of(tail) % 2 == 0 else odd).add(i)
    return frozenset(even), frozenset(odd)


def dst_upper_2k1(d: Digraph) -> ArcColouring:
    """Directed star colouring with at most 2*max_indegree + 1 colours."""
    if d.allow_parallel and len(set(d.arcs)) != d.arc_count:
        raise ValidateError("2k+1 colouring needs a simple digraph")
    if d.arc_count == 0:
        return ArcColouring({}, 0)
    k = degree_profile(d).max_indegree
    decomposition = u_suitable_decomposition(d, 0, k)
    classes: list[set[int]] = []
    for forest in decomposition.forests:
        first, second = forest_to_two_galaxies(d, forest)
        classes.append(set(first))
        classes.append(set(second))
    classes.append(set(decomposition.galaxy))
    return from_class_list(classes)


def frank_condition_check(d: Digraph, k: int,
                          vertex_limit: int = 20,
                          ) -> tuple[bool, frozenset[int] | None]:
    """Frank's forest-partition condition by exhaustive subset sweep.

    Returns (True, None) when an arc-partition into k forests exists,
    else (False, U) for the first dense subset found (masks ascending),
    or (False, None) when only the indegree condition fails.
    """
    n = d.vertex_count
    if n > vertex_limit:
        raise TooLargeError(f"{n} vertices exceed the limit {vertex_limit}")
    if k < 1:
        raise BadParamsError("k must be positive")
    if degree_profile(d).max_indegree > k:
        return False, None
    simple = len(set(d.arcs)) == d.arc_count
    out_mask = [0] * n
    in_mask = [0] * n
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    by_pair: dict[tuple[int, int], int] = {}
    for t, h in d.arcs:
        out_mask[t] |= 1 << h
        in_mask[h] |= 1 << t
        by_pair[(t, h)] = by_pair.get((t, h), 0) + 1
    for (t, h), mult in by_pair.items():
        touching[t].append((h, mult))
        touching[h].append((t, mult))
    inside = [0] * (1 << n)  # arcs of D[U] per vertex mask U
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if simple:
            added = ((out_mask[v] & rest).bit_count()
                     + (in_mask[v] & rest).bit_count())
        else:
            added = sum(mult for w, mult in touching[v] if rest >> w & 1)
        inside[mask] = inside[rest] + added
        size = mask.bit_count()
        if inside[mask] > k * (size - 1):
            members = frozenset(w for w in range(n) if mask >> w & 1)
            return False, members
    return True, None
