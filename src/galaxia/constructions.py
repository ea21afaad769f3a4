"""Instance generators.

Three families live here: the layered extremal digraphs G_{n,m,k}
witnessing the fibre lower bound, the reduction from 3-edge-colouring
of cubic graphs (with a gadget whose two defining properties are
counted by exhaustive enumeration and pinned by the tests), and
seeded random families used by the property suites, each built in one
pass by pairing shuffled degree stubs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Iterable
from typing import NamedTuple

from .digraph import Digraph, LabelledDigraph, degree_profile
from .errors import (BadParamsError, InfeasibleError, InternalDefectError,
                     TooLargeError)
from .oracle import _check_cubic, _conflict_lists

ARC_BUDGET = 1_000_000

# Refuse to even do the size arithmetic beyond this exponent; 2^4096 is
# already far past any budget and keeps hostile parameters cheap.
_MAX_EXPONENT = 4096


class GnmkSizes(NamedTuple):
    x: int
    y: int
    z: int
    arcs: int
    reduced: bool


def gnmk_sizes(n: int, m: int, k: int, y_cap: int | None = None) -> GnmkSizes:
    """Layer sizes and arc count of G_{n,m,k}, before building anything.

    The digraph itself does not depend on n; the parameter is kept so
    callers state which lambda_n they are probing.  With y_cap, the Y
    layer is truncated and the result is flagged as reduced.
    """
    _check_gnmk_params(n, m, k, y_cap)
    exponent = (m + 1) * k
    if exponent > _MAX_EXPONENT:
        raise TooLargeError(
            f"G_{{{n},{m},{k}}} has |Y| = {k}*2^{exponent}, beyond any budget")
    full_y = k * (1 << exponent)
    y = full_y if y_cap is None else min(full_y, y_cap)
    z = m * math.comb(y, k)
    arcs = k * y + k * z
    return GnmkSizes(k, y, z, arcs, y < full_y)


def _check_ints(**counts: object) -> None:
    """Raise BadParamsError naming the first count, seed or budget that
    is not a plain int (a bool is refused), before any range is checked."""
    for name, value in counts.items():
        if type(value) is not int:
            raise BadParamsError(f"{name} must be an int")


def _check_gnmk_params(n: int, m: int, k: int, y_cap: int | None) -> None:
    _check_ints(n=n, m=m, k=k)
    if n < 1 or m < 1 or k < 1:
        raise BadParamsError(f"need n,m,k >= 1, got ({n},{m},{k})")
    if y_cap is not None:
        _check_ints(y_cap=y_cap)
        if y_cap < 1:
            raise BadParamsError(f"y_cap must be positive, got {y_cap}")


def extremal_gnmk(n: int, m: int, k: int, y_cap: int | None = None,
                  arc_budget: int = ARC_BUDGET) -> LabelledDigraph:
    """The three-layer digraph forcing ceil((m/n)ceil(k/n) + k/n) colours.

    Layers X, Y, Z with |X| = k and |Y| = k*2^((m+1)k): every x in X
    dominates every y in Y (labelled 1; the labels of these arcs carry
    no weight), and for every k-subset S of Y and every label i there
    is a vertex z dominated by all of S via arcs labelled i.  Every
    vertex outside X has indegree exactly k.

    Full sizes explode immediately, so without y_cap anything beyond
    arc_budget raises TooLargeError; y_cap truncates Y (and with it
    the Z layer) to a reduced probe instance.
    """
    _check_ints(arc_budget=arc_budget)
    sizes = gnmk_sizes(n, m, k, y_cap)
    if sizes.arcs > arc_budget:
        hint = "" if y_cap is not None else "; pass y_cap for a reduced variant"
        raise TooLargeError(
            f"G_{{{n},{m},{k}}} needs {sizes.arcs} arcs, budget is {arc_budget}{hint}")
    y_base = sizes.x
    z_base = y_base + sizes.y
    arcs: list[tuple[int, int, int]] = []
    for x in range(sizes.x):
        for j in range(sizes.y):
            arcs.append((x, y_base + j, 1))
    z_vertex = z_base
    for subset in itertools.combinations(range(sizes.y), k):
        for label in range(1, m + 1):
            for j in subset:
                arcs.append((y_base + j, z_vertex, label))
            z_vertex += 1
    assert z_vertex - z_base == sizes.z
    return LabelledDigraph(z_base + sizes.z, m, tuple(arcs))


# ---------------------------------------------------------------------------
# hardness reduction


class GadgetCertificate(NamedTuple):
    colourings: int        # directed star 3-colourings of the gadget
    p1_ok: bool            # every one gives distinct interface colours
    p2_triples: int        # distinct interface triples that extend (= 6)


class NpGadget(NamedTuple):
    digraph: Digraph
    a_in: int
    b_out: int
    c_out: int
    certificate: GadgetCertificate


# Vertex 0 is the external tail of the entering arc, 4 and 5 the
# external heads of the two leaving arcs; 1..3 are internal.
_GADGET_ARCS = (
    (0, 1),   # a_in
    (1, 4),   # b_out
    (1, 2),
    (2, 1),
    (2, 5),   # c_out
    (3, 2),
)
_GADGET_A, _GADGET_B, _GADGET_C = 0, 1, 4


@functools.cache
def np_gadget() -> NpGadget:
    """The substitution gadget for the hardness reduction, certified.

    One arc enters it and two leave.  The certificate comes from all 3^6
    arc colourings: every directed star 3-colouring makes the three
    interface arcs pairwise distinct, and all 6 distinct interface
    triples extend to the whole gadget.  The gadget is a constant, so
    the tests pin its certificate instead of a check at run time.
    """
    d = Digraph(6, _GADGET_ARCS)
    pairs = [(a, b) for a, near in enumerate(_conflict_lists(d))
             for b in near if a < b]
    valid = [phi for phi in itertools.product((1, 2, 3), repeat=len(d.arcs))
             if all(phi[i] != phi[j] for i, j in pairs)]
    triples = {(phi[_GADGET_A], phi[_GADGET_B], phi[_GADGET_C]) for phi in valid}
    cert = GadgetCertificate(len(valid), all(len(set(t)) == 3 for t in triples),
                             len(triples))
    return NpGadget(d, _GADGET_A, _GADGET_B, _GADGET_C, cert)


def _orient_no_sink_source(vertex_count: int, edges: Iterable[tuple[int, int]],
                           ) -> list[tuple[int, int]]:
    """Orient a graph with min degree >= 2 so every vertex keeps indegree
    and outdegree at least one; the i-th arc is the i-th edge.

    Closed trails (Hierholzer, 1873): an extra vertex joined to every
    odd-degree vertex makes every degree even.  From each vertex in
    ascending order, a walk takes the lowest unused edge until it
    stops, which on even degrees it can do only where it began; each
    edge is oriented the way it was walked.  So every vertex is left as
    often as it is entered, and dropping its extra edge, if it has one,
    takes one arc from one side: a vertex of degree d >= 2 keeps at
    least floor(d/2) >= 1 of each, a cubic one (1,2) or (2,1), all in
    linear time.
    """
    ends = list(edges)
    edge_count, extra = len(ends), vertex_count
    incident: list[list[int]] = [[] for _ in range(vertex_count + 1)]
    for e, (u, v) in enumerate(ends):
        incident[u].append(e)
        incident[v].append(e)
    for v in range(vertex_count):
        if len(incident[v]) % 2:
            incident[v].append(len(ends))
            incident[extra].append(len(ends))
            ends.append((v, extra))
    arcs: list[tuple[int, int] | None] = [None] * len(ends)
    unused = [0] * (vertex_count + 1)
    for start in range(vertex_count):
        u = start
        while True:
            at = incident[u]
            while unused[u] < len(at) and arcs[at[unused[u]]] is not None:
                unused[u] += 1
            if unused[u] == len(at):
                break
            e = at[unused[u]]
            w = ends[e][0] + ends[e][1] - u
            arcs[e] = (u, w)
            u = w
    return arcs[:edge_count]


def np_reduction(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """Digraph whose directed star arboricity is 3 exactly when the
    cubic graph is 3-edge-colourable.

    The graph is oriented without sinks or sources, which leaves every
    vertex with degrees (1,2) or (2,1).  A (2,1)-vertex already forces
    its three arcs apart in any 3-colouring; each (1,2)-vertex v is
    replaced by the certified gadget, as its vertex 1 with two new
    vertices 2 and 3, and gadget vertex 2 takes over the tail of v's
    second leaving arc.  Output degrees stay <= 2.
    """
    arcs = _orient_no_sink_source(vertex_count, _check_cubic(vertex_count, edges).arcs)
    oriented = Digraph._of(vertex_count, tuple(arcs))
    fresh = vertex_count
    extra: list[tuple[int, int]] = []
    for v, degrees in enumerate(zip(oriented.profile.indegree,
                                    oriented.profile.outdegree)):
        if degrees == (2, 1):
            continue
        at = {1: v, 2: fresh, 3: fresh + 1}
        fresh += 2
        second = oriented.out_arcs[v][1]
        arcs[second] = (at[_GADGET_ARCS[_GADGET_C][0]], arcs[second][1])
        extra.extend((at[t], at[h]) for t, h in _GADGET_ARCS
                     if t in at and h in at)
    result = Digraph(fresh, tuple(arcs) + tuple(extra))
    profile = degree_profile(result)
    if profile.max_indegree > 2 or profile.max_outdegree > 2:
        raise InternalDefectError("reduction output exceeds in/outdegree two")
    return result


CUBIC_GRAPHS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "k33": (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                (2, 3), (2, 4), (2, 5))),
    "prism": (6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5))),
    "petersen": (10, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                      (5, 7), (6, 8), (7, 9), (5, 8), (6, 9))),
    # generalized Petersen graph GP(8,3)
    "moebius-kantor": (16, tuple((i, (i + 1) % 8) for i in range(8))
                       + tuple((i, 8 + i) for i in range(8))
                       + tuple((8 + i, 8 + (i + 3) % 8) for i in range(8))),
}


def triangle_multidigraph(multiplicity: int) -> Digraph:
    """Directed triangle with every arc repeated; needs 3*multiplicity
    galaxies since parallel arcs share a head and consecutive blocks
    collide pairwise."""
    _check_ints(multiplicity=multiplicity)
    if multiplicity < 1:
        raise BadParamsError(f"multiplicity must be positive, got {multiplicity}")
    arcs = []
    for pair in ((0, 1), (1, 2), (2, 0)):
        arcs.extend([pair] * multiplicity)
    return Digraph(3, tuple(arcs))


# ---------------------------------------------------------------------------
# seeded random families


def _stub_digraph(n: int, arcs: list[tuple[int, int]], tails: list[int],
                  heads: list[int], oriented: bool = False) -> Digraph:
    """The arcs given plus one arc per (tail, head) stub pair, in order.

    A pair is dropped when it is a loop, repeats an arc or, when
    oriented, reverses one; so each vertex keeps at most as many arcs
    as it has stubs, and the pairing is one pass over the stubs.
    """
    present = set(arcs)
    for u, v in zip(tails, heads):
        if u != v and (u, v) not in present and not (oriented and (v, u) in present):
            present.add((u, v))
            arcs.append((u, v))
    return Digraph(n, tuple(arcs))


def random_digraph(n: int, in_cap: int, out_cap: int, seed: int) -> Digraph:
    """Random simple digraph with max in/outdegree capped and attained.

    Both caps are hit exactly at some vertex whenever both are positive
    (Infeasible when n is too small for that); a zero cap on either
    side forces the arcless digraph.
    """
    _check_ints(n=n, in_cap=in_cap, out_cap=out_cap, seed=seed)
    if n < 1 or in_cap < 0 or out_cap < 0:
        raise BadParamsError(f"bad parameters n={n}, caps=({in_cap},{out_cap})")
    if in_cap == 0 or out_cap == 0:
        return Digraph(n, ())
    if in_cap > n - 1 or out_cap > n - 1:
        raise InfeasibleError(
            f"caps ({in_cap},{out_cap}) unattainable on {n} vertices")
    rng = random.Random(seed)
    # plant the attainment structure first: one vertex drinks in_cap
    # arcs, and the first of its tails also emits out_cap arcs; the
    # stubs paired below are what each vertex has left under its caps.
    target_in = rng.randrange(n)
    others = [v for v in range(n) if v != target_in]
    tails = rng.sample(others, in_cap)
    target_out = tails[0]
    spare_heads = [v for v in others if v != target_out]
    chosen = [(u, target_in) for u in tails]
    chosen += [(target_out, v) for v in rng.sample(spare_heads, out_cap - 1)]
    outdeg = Counter(u for u, _ in chosen)
    indeg = Counter(v for _, v in chosen)
    out_stubs = [u for u in range(n) for _ in range(out_cap - outdeg[u])]
    in_stubs = [v for v in range(n) for _ in range(in_cap - indeg[v])]
    rng.shuffle(out_stubs)
    rng.shuffle(in_stubs)
    return _stub_digraph(n, chosen, out_stubs, in_stubs)


def _random_subcubic(n: int, seed: int, oriented: bool) -> Digraph:
    """Three shuffled stubs per vertex, paired off in consecutive twos."""
    _check_ints(n=n, seed=seed)
    if n < 1:
        raise BadParamsError(f"need n >= 1, got {n}")
    stubs = [v for v in range(n) for _ in range(3)]
    random.Random(seed).shuffle(stubs)
    return _stub_digraph(n, [], stubs[0::2], stubs[1::2], oriented)


def random_subcubic(n: int, seed: int) -> Digraph:
    """Random digraph with total degree at most 3 everywhere."""
    return _random_subcubic(n, seed, oriented=False)


def random_oriented_subcubic(n: int, seed: int) -> Digraph:
    """Random subcubic digraph without digons."""
    return _random_subcubic(n, seed, oriented=True)


def random_labelled_dag(n: int, m: int, k: int, seed: int) -> LabelledDigraph:
    """Random acyclic m-labelled digraph with max indegree at most k.

    Arcs respect a hidden random topological order; the last vertex in
    that order attains indegree min(k, n-1) so the bound is tight.
    """
    _check_ints(n=n, m=m, k=k, seed=seed)
    if n < 1 or m < 1 or k < 0:
        raise BadParamsError(f"bad parameters n={n}, m={m}, k={k}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    arcs: list[tuple[int, int, int]] = []
    for pos in range(1, n):
        v = order[pos]
        cap = min(k, pos)
        quota = cap if pos == n - 1 else rng.randint(0, cap)
        for p in sorted(rng.sample(range(pos), quota)):
            arcs.append((order[p], v, rng.randint(1, m)))
    return LabelledDigraph(n, m, tuple(arcs))
