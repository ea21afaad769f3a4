"""Forest-plus-galaxy arc partitions and the 2k+1 colouring bound.

A k-decomposition splits the arcs into k forests and a galaxy with all
sources isolated in the galaxy.  Every k-nice multidigraph (indegree at
most k, parallel arcs only out of sources) has one, which `_decompose`
builds.  A simple digraph is k-nice for k its maximum indegree, and
`_split_forest` turns each forest into two galaxies, so `dst_upper_2k1`
colours it with 2k+1 colours.

The proof is an induction on k.  A strong piece S, rooted at its least
vertex r, gives forest k-1 a spanning arborescence rooted at the least
outneighbour v of r, puts v's other entering arcs one per lower forest
and rv in the galaxy, and leaves S - v to level k-1.  A piece that is
not strong peels a terminal strong component D1 (the one with the
lowest vertex), keeps D - D1 at level k, and contracts the arcs
entering D1 to a fresh source: a breadth-first arborescence from that
source goes to forest k-1 and the rest of D1 plus the source to level
k-1.

`_decompose` does one strong-component pass per level instead of one
per peel.  Peeling a terminal component leaves the strong components
of the rest unchanged, and a component peeled earlier has no arc into
one peeled later, since it was terminal when it went.  So in any
peeling order each component S with an entering arc is peeled once,
with all its entering arcs crossing, and each source component of
more than one vertex ends as a strong piece of its own, rooted at its
least vertex: what S receives depends on S alone.  The contracted
source keeps no vertex of its own: at level k-1 its arcs keep their
real tails, which lie in other components of level k and so on no
circuit, since arcs only ever leave.  A single vertex w with j
entering arcs takes its lowest one per level, so its arcs go straight
to forests k-1, k-2, ... in ascending order.
"""

from __future__ import annotations

from typing import Collection

from .colouring import ArcColouring, from_class_list
from .digraph import (Digraph, _require_simple, _sub, degree_profile,
                      strong_components)


def _bfs_tree(local: Digraph, comp_of: list[int], component: int,
              first: list[int] | tuple[int, ...],
              reached: list[bool]) -> list[int]:
    """Breadth-first arborescence spanning one strong component of `local`.

    `first` are the arcs leaving the root, ascending: the out-arcs of a
    member, or the component's entering arcs standing for a contracted
    source.  Each reached vertex then scans its out-arcs in ascending
    order, keeping those to unreached members of the component.
    """
    arcs = local.arcs
    out_arcs = local.out_arcs
    tree: list[int] = []
    frontier = [first]
    for scan in frontier:
        for j in scan:
            head = arcs[j][1]
            if comp_of[head] == component and not reached[head]:
                reached[head] = True
                tree.append(j)
                frontier.append(out_arcs[head])
    return tree


def _decompose(d: Digraph, k: int) -> tuple[list[list[int]], list[int]]:
    """Returns (k forests, galaxy) as lists of arc indices of d.

    Level l (k down to 1) fills forest l-1 from the strong components of
    the arcs still unplaced, as the sub-digraph `_sub` builds of them, so
    its vertices keep their order; see the module docstring.  Each level
    takes at least one entering arc of every vertex that has one, so with
    all indegrees at most k no vertex has more entering arcs than levels
    left.
    """
    forests: list[list[int]] = [[] for _ in range(k)]
    galaxy: list[int] = []
    local, live = d, list(range(d.arc_count))  # live[j]: d's index of local arc j
    for level in range(k, 0, -1):
        if not live:
            break
        local_arcs, in_arcs, out_arcs = local.arcs, local.in_arcs, local.out_arcs
        comps = strong_components(local)
        comp_of = [0] * local.vertex_count
        for c, members in enumerate(comps):
            for x in members:
                comp_of[x] = c
        placed: set[int] = set()  # local arcs that found their piece
        reached = [False] * local.vertex_count
        for c, members in enumerate(comps):
            if len(members) == 1:
                # every arc into a lone vertex enters it, and each level
                # would take the lowest one left
                entering = in_arcs[members[0]]
                for pos, j in enumerate(entering):
                    forests[level - 1 - pos].append(live[j])
                placed.update(entering)
                continue
            entering = sorted(j for x in members for j in in_arcs[x]
                              if comp_of[local_arcs[j][0]] != c)
            if entering:
                tree = _bfs_tree(local, comp_of, c, entering, reached)
                forests[level - 1].extend(live[j] for j in tree)
                placed.update(tree)
            else:
                # strong piece: an arborescence rooted at the least
                # outneighbour v of its least vertex r, then v's other
                # entering arcs one per lower forest and rv to the galaxy
                lr = members[0]
                lv = min(local_arcs[j][1] for j in out_arcs[lr]
                         if comp_of[local_arcs[j][1]] == c)
                reached[lv] = True
                tree = _bfs_tree(local, comp_of, c, out_arcs[lv], reached)
                forests[level - 1].extend(live[j] for j in tree)
                others = [j for j in in_arcs[lv] if local_arcs[j][0] != lr]
                for pos, j in enumerate(others):
                    forests[pos].append(live[j])
                galaxy.extend(live[j] for j in in_arcs[lv] if local_arcs[j][0] == lr)
                placed.update(tree, in_arcs[lv])
        local, live = _sub(local, live, [j for j in range(local.arc_count)
                                         if j not in placed])
    return forests, galaxy


def _split_forest(d: Digraph, forest: Collection[int],
                  ) -> tuple[frozenset[int], frozenset[int]]:
    """Two galaxies that split a forest by the parity of tail depth."""
    parent = {d.arcs[i][1]: d.arcs[i][0] for i in forest}
    depth: dict[int, int] = {}

    def depth_of(v: int) -> int:
        path = []
        w = v
        while w not in depth and w in parent:
            path.append(w)
            w = parent[w]
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
    _require_simple(d, "2k+1 colouring needs a simple digraph")
    # a simple digraph is k-nice for k its maximum indegree
    forests, galaxy = _decompose(d, degree_profile(d).max_indegree)
    classes: list[set[int]] = []
    for forest in forests:
        classes.extend(map(set, _split_forest(d, forest)))
    classes.append(set(galaxy))
    return from_class_list(classes)

