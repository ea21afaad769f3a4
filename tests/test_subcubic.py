"""Subcubic 3-colouring and its two lemma engines."""
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    Digraph,
    InfeasibleError,
    InternalDefectError,
    PreconditionViolatedError,
    exact_dst,
    lemma_cycle_colouring,
    lemma_extension_colouring,
    random_oriented_subcubic,
    random_subcubic,
    star_colouring_subcubic,
    subcubic,
    verify_star_colouring,
)
from conftest import circuit

TWO_LISTS = ((1, 2), (1, 3), (2, 3))


def check_cycle_colouring(d, vertex_lists, arc_cols, vert_cols):
    for v, allowed in vertex_lists.items():
        assert vert_cols[v] in allowed
    successor = {t: i for i, (t, h) in enumerate(d.arcs)}
    for i, (t, h) in enumerate(d.arcs):
        assert arc_cols[i] in (1, 2, 3)
        assert arc_cols[i] != vert_cols[t]
        assert arc_cols[i] != vert_cols[h]
        assert arc_cols[i] != arc_cols[successor[h]]


def cycle_feasible_brute(length, lists):
    """Ground truth by full enumeration; only for short circuits."""
    d = circuit(length)
    for verts in itertools.product(*lists):
        for arcs in itertools.product((1, 2, 3), repeat=length):
            ok = all(arcs[i] != verts[i]
                     and arcs[i] != verts[(i + 1) % length]
                     and arcs[i] != arcs[(i + 1) % length]
                     for i in range(length))
            if ok:
                return True
    return False


def least_cycle_solution(vertex_masks, arc_masks):
    """_cycle_dp's answer by enumeration: the least tuple of arc colours,
    each in its position's mask and apart from the next around the
    circuit, that leaves each position a colour of its vertex mask
    outside its two arcs' colours, with each position's least such."""
    length = len(vertex_masks)
    for arcs in itertools.product((1, 2, 3), repeat=length):
        if not all(arc_masks[i] >> arcs[i] & 1 and arcs[i] != arcs[i - 1]
                   for i in range(length)):
            continue
        verts = [min((c for c in (1, 2, 3) if vertex_masks[i] >> c & 1
                      and c not in (arcs[i - 1], arcs[i])), default=None)
                 for i in range(length)]
        if None not in verts:
            return list(arcs), verts
    return None


@pytest.mark.parametrize("length", range(2, 8))
def test_cycle_dp_takes_the_least_solution_of_any_masks(length):
    # masks are any subsets of {1, 2, 3}, bit c for colour c
    rng = random.Random(length)
    found = 0
    for _ in range(150):
        vertex_masks = [rng.choice(range(0, 16, 2)) for _ in range(length)]
        arc_masks = [rng.choice(range(0, 16, 2)) for _ in range(length)]
        expected = least_cycle_solution(vertex_masks, arc_masks)
        assert subcubic._cycle_dp(vertex_masks, arc_masks) == expected
        found += expected is not None
    assert 0 < found < 150


def first_fit_brute(masks, clashes):
    """The first choice in product order over ascending colours, one from
    each mask, that gives each clashing pair distinct colours; None if
    there is none."""
    lists = [[c for c in range(mask.bit_length()) if mask >> c & 1] for mask in masks]
    return next((list(picks) for picks in itertools.product(*lists)
                 if all(picks[i] != picks[j] for i, j in clashes)), None)


def first_fit_greedy(masks, clashes):
    """Each item's least colour apart from its earlier clashing items',
    with no backtracking; None where an item finds none."""
    picks = []
    for j, mask in enumerate(masks):
        taken = {picks[i] for i, k in clashes if k == j}
        picks.append(next((c for c in range(mask.bit_length())
                           if mask >> c & 1 and c not in taken), None))
        if picks[-1] is None:
            return None
    return picks


def test_first_fit_takes_the_first_choice_in_product_order():
    # masks inside {1, 2, 3} as the pipeline's, or {1..4} as list
    # colouring allows; clash relations are random and symmetric
    rng = random.Random(38)
    seen = Counter()
    for _ in range(400):
        width = rng.choice((0b1110, 0b11110))
        masks = [rng.randrange(32) & width for _ in range(rng.randint(1, 6))]
        clashes = {(i, j) for j in range(len(masks)) for i in range(j)
                   if rng.random() < 0.6}
        symmetric = clashes | {(j, i) for i, j in clashes}
        expected = first_fit_brute(masks, clashes)
        assert subcubic._first_fit(masks, lambda i, j: (i, j) in symmetric) == expected
        if expected is None:
            seen["none, all masks nonempty" if all(masks) else "none"] += 1
        elif expected != first_fit_greedy(masks, clashes):
            seen["backtracked"] += 1
    assert min(seen[k] for k in ("none", "none, all masks nonempty", "backtracked")) >= 5


def test_cycle_even_uniform():
    d = circuit(4)
    arc_cols, vert_cols = lemma_cycle_colouring(d, {v: (1, 2) for v in range(4)})
    check_cycle_colouring(d, {v: (1, 2) for v in range(4)}, arc_cols, vert_cols)
    assert len(set(vert_cols.values())) == 1
    assert len(set(arc_cols.values())) == 2


def test_cycle_odd_uniform_infeasible():
    with pytest.raises(InfeasibleError):
        lemma_cycle_colouring(circuit(3), {v: (1, 2) for v in range(3)})


def test_cycle_odd_mixed_lists():
    d = circuit(3)
    lists = {0: (1, 2), 1: (2, 3), 2: (1, 2)}
    arc_cols, vert_cols = lemma_cycle_colouring(d, lists)
    check_cycle_colouring(d, lists, arc_cols, vert_cols)


def test_cycle_rejects_bad_lists():
    with pytest.raises(PreconditionViolatedError,
                       match=r"^vertex 0 needs exactly two colours from 1\.\.3$"):
        lemma_cycle_colouring(circuit(3), {0: (1,), 1: (1, 2), 2: (1, 2)})
    with pytest.raises(PreconditionViolatedError,
                       match=r"^vertex 0 needs exactly two colours from 1\.\.3$"):
        lemma_cycle_colouring(circuit(3), {0: (1, 2, 3), 1: (1, 2), 2: (1, 2)})


def test_cycle_rejects_non_circuit():
    with pytest.raises(PreconditionViolatedError,
                       match=r"^vertex 0 has degrees other than one in and one out$"):
        lemma_cycle_colouring(Digraph(3, ((0, 1), (1, 2))),
                              {v: (1, 2) for v in range(3)})


@pytest.mark.parametrize("d, lists, message", [
    (Digraph(0, ()), {}, "empty digraph is not a circuit"),
    (Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2))), {v: (1, 2) for v in range(4)},
     "digraph is a union of several circuits"),
    (circuit(3), {0: (1, 2), 1: (1, 2)}, "vertex 2 has no list"),
], ids=["empty", "two_circuits", "missing_list"])
def test_cycle_rejects_bad_input(d, lists, message):
    with pytest.raises(PreconditionViolatedError, match=f"^{message}$"):
        lemma_cycle_colouring(d, lists)


@pytest.mark.parametrize("length", [3, 4, 5])
def test_cycle_feasibility_characterisation(length):
    d = circuit(length)
    for choice in itertools.product(range(3), repeat=length):
        lists = {v: TWO_LISTS[choice[v]] for v in range(length)}
        uniform = len(set(choice)) == 1
        expect = not (length % 2 and uniform)
        assert cycle_feasible_brute(length, [TWO_LISTS[c] for c in choice]) == expect
        if expect:
            arc_cols, vert_cols = lemma_cycle_colouring(d, lists)
            check_cycle_colouring(d, lists, arc_cols, vert_cols)
        else:
            with pytest.raises(InfeasibleError):
                lemma_cycle_colouring(d, lists)


def test_extension_single_arc():
    col = lemma_extension_colouring(Digraph(2, ((0, 1),)), {0: (1,)})
    assert dict(col.colour) == {0: 1}


def test_extension_two_arc_path():
    d = Digraph(3, ((0, 1), (1, 2)))
    col = lemma_extension_colouring(d, {0: (1, 2), 1: (1, 2, 3)})
    assert col.colour[0] in (1, 2)
    assert col.colour[1] in (1, 2, 3)
    assert col.colour[0] != col.colour[1]
    assert verify_star_colouring(d, col) is None


def test_extension_circuit_with_entering_arc():
    d = Digraph(4, ((0, 1), (1, 2), (2, 0), (3, 0)))
    lists = {0: (1, 2, 3), 1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 2)}
    col = lemma_extension_colouring(d, lists)
    assert all(col.colour[i] in lists[i] for i in range(4))
    assert verify_star_colouring(d, col) is None


def test_extension_deterministic():
    d = Digraph(4, ((0, 1), (1, 2), (2, 0), (3, 0)))
    lists = {0: (1, 2, 3), 1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 2)}
    assert lemma_extension_colouring(d, lists) == lemma_extension_colouring(d, lists)


def test_extension_rejects_split_vertex():
    # vertex 0 has indegree 1 and outdegree 2, which the lemma forbids
    d = Digraph(4, ((1, 0), (0, 2), (0, 3)))
    with pytest.raises(PreconditionViolatedError):
        lemma_extension_colouring(d, {0: (1, 2, 3), 1: (1, 2, 3), 2: (1, 2, 3)})


def test_extension_rejects_short_list():
    with pytest.raises(PreconditionViolatedError):
        lemma_extension_colouring(Digraph(3, ((0, 2), (1, 2))),
                                  {0: (1,), 1: (1, 2)})


PATH4 = Digraph(4, ((0, 1), (1, 2), (2, 3)))


@pytest.mark.parametrize("d, lists, message", [
    (Digraph(2, ((0, 1), (0, 1))), {0: (1,), 1: (2,)}, "needs a simple digraph"),
    (Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4))), {i: (1, 2, 3) for i in range(4)},
     "digraph is not subcubic"),
    (PATH4, {0: (1, 2), 1: (1, 2, 3)}, "arc 2 has no colour list"),
    (PATH4, {0: (1, 2), 1: (1, 2, 3), 2: (1, 4)}, "arc 2 has list outside 1..3"),
    (PATH4, {0: (1,), 1: (1, 2, 3), 2: (1,)}, "initial arc 0 has fewer than two colours"),
    (PATH4, {0: (1, 2), 1: (1, 2), 2: (1,)}, "arc 1 must carry the full list"),
], ids=["parallel", "degree_four", "missing_list", "colour_four",
        "short_initial_list", "short_inner_list"])
def test_extension_rejects_bad_input(d, lists, message):
    with pytest.raises(PreconditionViolatedError, match=f"^{message}$"):
        lemma_extension_colouring(d, lists)


def test_extension_initial_pair_must_cover_all_colours():
    # two initial arcs into vertex 2, whose out-arc takes colour 1
    d = Digraph(4, ((0, 2), (1, 2), (2, 3)))
    col = lemma_extension_colouring(d, {0: (1, 2), 1: (2, 3), 2: (1,)})
    assert dict(col.colour) == {0: 2, 1: 3, 2: 1}
    with pytest.raises(PreconditionViolatedError, match=(
            "^initial arcs 0 and 1 into 2 do not cover all three colours$")):
        lemma_extension_colouring(d, {0: (1, 2), 1: (1, 2), 2: (1,)})


def brooks(vertex_count, edges):
    """subcubic._brooks on the graph with these edges, checked to be a
    proper colouring with 1..3."""
    adj = [set() for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colours = subcubic._brooks(adj)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert set(colours) <= {1, 2, 3}
    return colours


def test_brooks_triangle():
    colours = brooks(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(colours) == [1, 2, 3]


def test_brooks_k4_rejected():
    # K4 is the one connected cubic graph without an admissible pair;
    # every caller cuts K4 components off first, so meeting one is a
    # defect
    with pytest.raises(InternalDefectError,
                       match="^no admissible pair in a cubic component$"):
        brooks(4, list(itertools.combinations(range(4), 2)))


def test_brooks_petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    colours = brooks(10, edges)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert set(colours) <= {1, 2, 3}


def test_brooks_cubic_with_bridge():
    # K4 with edge 0-1 subdivided by vertex 4, a copy shifted by 5, and the
    # bridge 4-9: a cubic graph with cut vertices, coloured piece by piece
    half = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1)]
    edges = half + [(u + 5, v + 5) for u, v in half] + [(4, 9)]
    colours = brooks(10, edges)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert colours == [3, 3, 2, 1, 1, 3, 3, 1, 2, 2]


def test_brooks_pair_that_disconnects_is_skipped():
    # bridgeless cubic: at vertex 0, removing its one non-adjacent pair
    # 1, 3 leaves 0 with only 6, so the search goes on to another vertex
    edges = [(0, 1), (0, 3), (0, 6), (1, 6), (1, 7), (2, 7), (2, 8), (2, 9),
             (3, 5), (3, 6), (4, 7), (4, 8), (4, 9), (5, 8), (5, 9)]
    colours = brooks(10, edges)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert colours == [1, 3, 2, 3, 2, 2, 2, 1, 1, 1]


def bridged_cubic(blocks, seed):
    """A cubic graph with bridges: a chain of `blocks` copies of K4 minus
    an edge, each joined to the next by a bridge between their degree-2
    ends, capped at both ends by a K4 with one edge subdivided, and the
    vertex ids shuffled by `seed`."""
    cap = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1)]
    edges, ends = [], []
    for b in range(blocks):
        a, c, x, y = range(4 * b, 4 * b + 4)
        edges += [(a, x), (a, y), (c, x), (c, y), (x, y)]
        ends.append((a, c))
    edges += [(ends[b][1], ends[b + 1][0]) for b in range(blocks - 1)]
    n = 4 * blocks
    for end in (ends[0][0], ends[-1][1]):
        edges += [(u + n, v + n) for u, v in cap] + [(end, n + 4)]
        n += 5
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return n, [(ids[u], ids[v]) for u, v in edges]


def test_brooks_bridged_cubic_pinned():
    # each split takes the least cut vertex, wherever the shuffle puts it
    n, edges = bridged_cubic(3, 28)
    assert sorted(Counter(v for e in edges for v in e).values()) == [3] * n
    colours = brooks(n, edges)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert colours == [3, 1, 3, 1, 2, 3, 3, 3, 3, 1, 2, 2, 2, 2, 1, 1, 2, 1,
                       1, 2, 1, 3]


def test_brooks_generalized_petersen_is_linear():
    # GP(4000, 3) is cubic and 2-connected: the cut-vertex search is one
    # depth-first pass, where one search per vertex took about 1.5 s at
    # 2,000 vertices and grew about 4x per doubling
    n = 4000
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + 3) % n) for i in range(n)]
    start = time.perf_counter()
    colours = brooks(2 * n, edges)
    elapsed = time.perf_counter() - start
    assert all(colours[u] != colours[v] for u, v in edges)
    assert elapsed < 2.0, elapsed


def check_subcubic(d):
    col = star_colouring_subcubic(d)
    assert col.colour_count <= 3
    assert verify_star_colouring(d, col) is None
    return col


def test_subcubic_odd_circuit():
    col = check_subcubic(circuit(5))
    assert len(set(col.colour.values())) == 3
    assert exact_dst(circuit(5))[0] == 3


@pytest.mark.parametrize("length", [3, 5, 7, 9])
def test_subcubic_odd_circuits_need_three(length):
    assert exact_dst(circuit(length))[0] == 3
    check_subcubic(circuit(length))


def test_subcubic_even_circuit():
    assert exact_dst(circuit(6))[0] == 2
    check_subcubic(circuit(6))


def test_subcubic_galaxy():
    check_subcubic(Digraph(5, ((0, 1), (0, 2), (3, 4))))


def test_subcubic_digon():
    check_subcubic(Digraph(2, ((0, 1), (1, 0))))


def test_subcubic_rejects_high_degree():
    with pytest.raises(PreconditionViolatedError,
                       match=r"^maximum total degree 4 exceeds three$"):
        star_colouring_subcubic(Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4))))


@given(st.integers(1, 40), st.integers(0, 999))
def test_subcubic_random(n, seed):
    check_subcubic(random_subcubic(n, seed))


@given(st.integers(2, 9), st.integers(0, 499))
def test_subcubic_exact_cross_check(n, seed):
    d = random_subcubic(n, seed)
    check_subcubic(d)
    assert exact_dst(d)[0] <= 3


def test_subcubic_scale_gate():
    # near-linear in arcs: source peeling recounted every degree once
    # per layer, 10 s on an 8,000-vertex path
    path = Digraph(100_000, tuple((i, i + 1) for i in range(99_999)))
    start = time.perf_counter()
    col = star_colouring_subcubic(path)
    assert time.perf_counter() - start < 15.0
    assert col.colour_count == 3
    assert verify_star_colouring(path, col) is None


# Colourings recorded before the pipeline moved onto Digraph buckets, one
# instance per branch: a peeled even circuit (the digon 1 <-> 2), a
# critical odd circuit of the high part, a low vertex detached from the
# engine, a circuit taken by the engine, and the K4 conflict gadget.
K4_GADGET = ((2, 1), (0, 3), (4, 5), (2, 3), (5, 2), (4, 1), (0, 4), (3, 1),
             (5, 0))
K4_GADGET_COLOURS = (2, 2, 2, 3, 1, 3, 1, 1, 3)


def gadget_copies(copies):
    return Digraph(6 * copies, tuple((t + 6 * c, h + 6 * c)
                                     for c in range(copies)
                                     for t, h in K4_GADGET))


@pytest.mark.parametrize("d, expected", [
    (Digraph(3, ((2, 0), (2, 1), (1, 2))), (1, 1, 2)),
    (Digraph(6, ((2, 4), (0, 3), (4, 0), (1, 3), (2, 1), (1, 5), (5, 2),
                 (5, 0), (3, 4))),
     (2, 2, 1, 1, 3, 2, 1, 3, 3)),
    (Digraph(3, ((2, 1), (1, 0), (0, 2), (0, 1))), (3, 2, 1, 1)),
    (Digraph(5, ((1, 0), (4, 3), (0, 2), (0, 4), (2, 3), (3, 2), (4, 1))),
     (3, 1, 1, 2, 2, 3, 1)),
    (gadget_copies(1), K4_GADGET_COLOURS),
    (gadget_copies(2), K4_GADGET_COLOURS * 2),
], ids=["even-circuit", "critical-odd-circuit", "detached-low-vertex",
        "engine-circuit", "k4-gadget", "k4-gadget-twice"])
def test_subcubic_pinned_colouring(d, expected):
    col = check_subcubic(d)
    assert tuple(col.colour[i] for i in range(d.arc_count)) == expected
    assert col.colour_count == 3


@pytest.mark.parametrize("d, lists, expected", [
    (Digraph(4, ((1, 2), (1, 3), (1, 0))),
     {0: (1,), 1: (2, 3), 2: (1, 2, 3)}, (1, 2, 1)),
    (Digraph(9, ((2, 4), (6, 8), (5, 2), (3, 8), (1, 0), (5, 3), (8, 0),
                 (1, 4), (0, 3), (5, 7))),
     {0: (2, 3), 1: (1, 2), 2: (1, 2), 9: (1, 3),
      **{i: (1, 2, 3) for i in range(3, 9)}},
     (2, 1, 1, 2, 2, 3, 3, 1, 1, 1)),
], ids=["sinks-only", "engine-circuit"])
def test_extension_pinned_colouring(d, lists, expected):
    col = lemma_extension_colouring(d, lists)
    assert tuple(col.colour[i] for i in range(d.arc_count)) == expected
    assert verify_star_colouring(d, col) is None


def test_extension_odd_circuit_uniform_entering_lists():
    # the circuit 1 -> 0 -> 3 -> 1 is entered by three arcs from vertex 2,
    # each listing {1, 3}: only the engine finds it, when it reaches it
    d = Digraph(4, ((1, 0), (2, 0), (2, 3), (2, 1), (3, 1), (0, 3)))
    lists = {0: (1, 2, 3), 1: (1, 3), 2: (1, 3), 3: (1, 3), 4: (1, 2, 3),
             5: (1, 2, 3)}
    with pytest.raises(PreconditionViolatedError) as info:
        lemma_extension_colouring(d, lists)
    assert str(info.value) == ("odd circuit whose entering arcs all carry "
                               "the same two-colour list")


def test_subcubic_many_k4_components():
    # one level cuts every K4 conflict component; a level per component
    # re-ran the pipeline on the rest, about 10 s for 1,000 copies, and
    # once overflowed Python's recursion limit
    d = gadget_copies(4000)
    start = time.perf_counter()
    col = check_subcubic(d)
    assert time.perf_counter() - start < 5.0
    assert (tuple(col.colour[i] for i in range(d.arc_count))
            == K4_GADGET_COLOURS * 4000)


def test_one_level_cuts_every_complete_component(monkeypatch):
    calls = []
    core = subcubic._colour_core

    def counted(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(subcubic, "_colour_core", counted)
    d = gadget_copies(50)
    col = check_subcubic(d)
    assert len(calls) == 1
    assert (tuple(col.colour[i] for i in range(d.arc_count))
            == K4_GADGET_COLOURS * 50)


def digons_with_pendant_arcs(n, seed):
    """Digons on 0,1 / 2,3 / ..., each vertex with one spare stub, and n
    more vertices with three stubs each, all stubs paired at random."""
    rng = random.Random(seed)
    arcs = {arc for u in range(0, 2 * n, 2)
            for arc in ((u, u + 1), (u + 1, u))}
    stubs = list(range(2 * n)) + [v for v in range(2 * n, 3 * n)
                                  for _ in range(3)]
    rng.shuffle(stubs)
    for u, v in zip(stubs[0::2], stubs[1::2]):
        if rng.random() < 0.5:
            u, v = v, u
        if u != v and (u, v) not in arcs:
            arcs.add((u, v))
    return Digraph(3 * n, tuple(sorted(arcs)))


@pytest.mark.parametrize("make", [random_subcubic, random_oriented_subcubic,
                                  digons_with_pendant_arcs],
                         ids=["subcubic", "oriented", "digons"])
@pytest.mark.parametrize("seed", range(20))
def test_peel_leaves_a_core(make, seed):
    # what any peel order must leave: no sources among the live arcs and
    # no even circuit among the low vertices that step back to low tails
    d = make(random.Random(seed).randint(2, 150), seed)
    arcs = d.arcs
    live, deferred = subcubic._peel(d)
    assert (sorted(live + [a for _, batch in deferred for a in batch])
            == list(range(d.arc_count)))

    entering: dict[int, list[int]] = {}
    for a in live:
        entering.setdefault(arcs[a][1], []).append(a)
    assert {v for a in live for v in arcs[a]} <= entering.keys()
    step = {h: arcs[ins[0]][0] for h, ins in entering.items()
            if len(ins) == 1 and len(entering[arcs[ins[0]][0]]) == 1}
    done: set[int] = set()
    for v in step:
        path = []
        while v in step and v not in done:
            done.add(v)
            path.append(v)
            v = step[v]
        if v in path:
            assert (len(path) - path.index(v)) % 2 == 1

    for kind, batch in deferred:
        if kind == "circuit":
            assert len(batch) % 2 == 0
            tails = [arcs[a][0] for a in batch]
            assert len(set(tails)) == len(batch)
            assert [arcs[a][1] for a in batch] == tails[1:] + tails[:1]
