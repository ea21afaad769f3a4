"""Data model and basic graph machinery."""
import random
import re
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    ArcColouring,
    CyclicError,
    Digraph,
    LabelledDigraph,
    PreconditionViolatedError,
    ValidateError,
    acircuitic_colouring,
    degree_profile,
    digraph,
    dst4_colouring,
    dst_upper_2k1,
    exact_dst,
    exact_lambda_n,
    fibre_colouring_acyclic,
    find_bicoloured_circuit,
    find_circuit_arcs,
    is_acyclic,
    lemma_extension_colouring,
    random_digraph,
    random_labelled_dag,
    random_oriented_subcubic,
    random_subcubic,
    solve,
    star_colouring_acyclic,
    star_colouring_subcubic,
    strong_components,
    topological_order,
    verify_star_colouring,
)
from galaxia.cli import _as_labelled
from conftest import circuit


def arc_sets(max_vertices=8):
    """Strategy producing (vertex_count, arcs) for simple digraphs."""
    def build(n, pair_indices):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        arcs = tuple(pairs[i % len(pairs)] for i in sorted(set(pair_indices)))
        return Digraph(n, tuple(dict.fromkeys(arcs)))
    return st.integers(2, max_vertices).flatmap(
        lambda n: st.lists(st.integers(0, n * (n - 1) - 1), max_size=2 * n)
        .map(lambda idx: build(n, idx)))


def test_digraph_rejects_out_of_range():
    with pytest.raises(ValidateError):
        Digraph(2, ((0, 2),))
    with pytest.raises(ValidateError):
        Digraph(2, ((-1, 0),))


def test_digraph_rejects_self_loop():
    with pytest.raises(ValidateError):
        Digraph(3, ((1, 1),))


def test_a_digraph_may_repeat_arcs():
    # a multidigraph, as the underlying digraph of an m-labelled one is
    d = Digraph(2, ((0, 1), (0, 1)))
    assert d.arc_count == 2 and d == Digraph(2, [[0, 1], (0, 1)])
    assert d.out_arcs == ((0, 1), ()) and d.profile.indegree == (0, 2)
    colouring, _ = star_colouring_acyclic(d)
    value, witness = exact_dst(d)
    assert value == 2
    for found in (colouring, witness):
        assert verify_star_colouring(d, found) is None


@pytest.mark.parametrize("solve, message", [
    (dst_upper_2k1, "2k+1 colouring needs a simple digraph"),
    (star_colouring_subcubic, "needs a simple digraph"),
    (lambda d: lemma_extension_colouring(d, {0: (1,), 1: (2,)}), "needs a simple digraph"),
    (acircuitic_colouring, "needs a simple digraph"),
    (dst4_colouring, "needs a simple digraph"),
], ids=["2k1", "subcubic", "extension", "acircuitic", "dst4"])
def test_simple_only_theorems_refuse_a_repeated_arc(solve, message):
    with pytest.raises(PreconditionViolatedError, match=f"^{re.escape(message)}$"):
        solve(Digraph(2, ((0, 1), (0, 1))))


@pytest.mark.parametrize("make, message", [
    (lambda: Digraph(3.0, ((0, 1),)), "vertex_count must be an int"),
    (lambda: Digraph("3", ((0, 1),)), "vertex_count must be an int"),
    (lambda: Digraph(True, ()), "vertex_count must be an int"),
    (lambda: Digraph(None, ()), "vertex_count must be an int"),
    (lambda: LabelledDigraph(2.0, 1, ((0, 1, 1),)), "vertex_count must be an int"),
    (lambda: LabelledDigraph(False, 1, ()), "vertex_count must be an int"),
    (lambda: LabelledDigraph(3, 1.5, ((0, 1, 1),)), "label_count must be an int"),
    (lambda: LabelledDigraph(3, True, ((0, 1, 1),)), "label_count must be an int"),
    (lambda: LabelledDigraph(3, "2", ()), "label_count must be an int"),
    (lambda: LabelledDigraph(-1, 1.5, ()), "vertex_count must be non-negative"),
    (lambda: LabelledDigraph(0, 0, ()), "label_count must be positive"),
], ids=["digraph-float", "digraph-str", "digraph-bool", "digraph-none",
        "labelled-float-vertices", "labelled-bool-vertices", "float-labels",
        "bool-labels", "str-labels", "negative-vertices-first", "zero-labels"])
def test_counts_must_be_ints(make, message):
    with pytest.raises(ValidateError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: Digraph(-1, ()), "vertex_count must be non-negative"),
    (lambda: Digraph(2, ((0, 1), (0, 2))), "arc 1 (0,2) out of vertex range"),
    (lambda: Digraph(2, ((-1, 0),)), "arc 0 (-1,0) out of vertex range"),
    (lambda: Digraph(3, ((0, 1), (1, 1), (0, 5))), "arc 1 is a self-loop at 1"),
    (lambda: LabelledDigraph(-1, 1, ()), "vertex_count must be non-negative"),
    (lambda: LabelledDigraph(2, 0, ()), "label_count must be positive"),
    (lambda: LabelledDigraph(2, 1, ((0, 1, 1), (0, 3, 1))), "arc 1 (0,3) out of vertex range"),
    (lambda: LabelledDigraph(2, 1, ((1, 1, 7),)), "arc 0 is a self-loop at 1"),
    (lambda: LabelledDigraph(2, 2, ((0, 1, 1), (1, 0, 3))), "arc 1 label 3 outside 1..2"),
    (lambda: LabelledDigraph(2, 2, ((0, 1, 0),)), "arc 0 label 0 outside 1..2"),
    (lambda: LabelledDigraph(3, 2, ((0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 1, 2))),
     "arc 3 duplicates (0,1,2)"),
])
def test_constructor_error_text(make, message):
    with pytest.raises(ValidateError) as info:
        make()
    assert str(info.value) == message


def test_constructors_store_arcs_as_tuples():
    assert Digraph(3, [[0, 1], (1, 2)]).arcs == ((0, 1), (1, 2))
    ld = LabelledDigraph(3, 2, iter([[0, 1, 2], (1, 2, 1)]))
    assert ld.arcs == ((0, 1), (1, 2)) and ld.labels == (2, 1)
    assert type(ld.arcs[0]) is tuple
    assert ld.underlying.arcs == ((0, 1), (1, 2))


def test_digon_is_allowed():
    d = Digraph(2, ((0, 1), (1, 0)))
    assert d.has_digon()
    assert not circuit(3).has_digon()


def test_out_and_in_arcs_hold_arc_indices():
    d = Digraph(3, ((1, 2), (0, 1)))
    assert d.out_arcs[0] == (1,)
    assert d.out_arcs[1] == (0,)
    assert d.in_arcs[2] == (0,)
    assert d.in_arcs[0] == ()


def test_labelled_digraph_label_range():
    with pytest.raises(ValidateError):
        LabelledDigraph(2, 1, ((0, 1, 0),))
    with pytest.raises(ValidateError):
        LabelledDigraph(2, 1, ((0, 1, 2),))


def test_labelled_digraph_rejects_duplicate_triples():
    with pytest.raises(ValidateError):
        LabelledDigraph(2, 2, ((0, 1, 1), (0, 1, 1)))
    ld = LabelledDigraph(2, 2, ((0, 1, 1), (0, 1, 2)))
    assert ld.arc_count == 2


def test_underlying_strips_labels():
    ld = LabelledDigraph(3, 2, ((0, 1, 1), (0, 1, 2), (1, 2, 1)))
    d = ld.underlying
    assert type(d) is Digraph and d.arcs == ((0, 1), (0, 1), (1, 2))


def test_underlying_reuses_checks_and_profile(monkeypatch):
    ld = LabelledDigraph(3, 2, ((0, 1, 1), (0, 1, 2), (1, 2, 1)))
    checked = Digraph(3, ((0, 1), (0, 1), (1, 2)))
    checks = []
    monkeypatch.setattr(digraph, "_check_arcs",
                        lambda *args: checks.append(args))
    d = ld.underlying
    assert checks == []
    # the view shares ld's arcs tuple, so it counts the same degrees
    assert d.arcs is ld.arcs and d.profile == ld.profile
    assert d == checked
    assert d.in_arcs == ((), (0, 1), (2,)) and d.out_arcs == ((0, 1), (2,), ())


def seeded_labelled(seed: int) -> LabelledDigraph:
    """A random 3-labelled digraph on 6 vertices; on odd seeds its first
    ordered pair is an arc under labels 1 and 2, so arcs repeat."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(6), 2)) for _ in range(8)]
    triples = {(t, h, rng.randint(1, 3)) for t, h in pairs}
    if seed % 2:
        triples |= {(*pairs[0], 1), (*pairs[0], 2)}
    return LabelledDigraph(6, 3, tuple(sorted(triples)))


def outcome(f, *args):
    """What f(*args) returns, or the class and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the class and text are compared
        return type(exc), str(exc)


LABEL_BLIND = (star_colouring_acyclic, star_colouring_subcubic, dst4_colouring,
               dst_upper_2k1, acircuitic_colouring, exact_dst, topological_order,
               strong_components, find_circuit_arcs, is_acyclic)


@pytest.mark.parametrize("ld", [seeded_labelled(seed) for seed in range(12)]
                         + [random_labelled_dag(10, 2, 2, seed) for seed in range(4)])
def test_a_labelled_digraph_is_its_own_underlying_digraph(ld):
    # what reads no label answers alike on ld and on the plain view of
    # its arcs, raising or not, though the two values are not equal
    d = ld.underlying
    assert ld != d and type(d) is Digraph
    for f in LABEL_BLIND:
        assert outcome(f, ld) == outcome(f, d), f.__name__
    clash = ArcColouring((1,) * ld.arc_count, 1)
    assert verify_star_colouring(d, clash) is not None
    for colouring in (clash, exact_dst(d)[1]):
        for f in (verify_star_colouring, find_bicoloured_circuit):
            assert outcome(f, ld, colouring) == outcome(f, d, colouring), f.__name__


def test_no_solve_copies_the_instance():
    # every solve path and the exact fibre search read ld's own arcs, so
    # none builds the plain view; that view and `_as_labelled` share the
    # arcs tuple they are given
    for fibres, algorithm in ((None, "acyclic"), (1, "acyclic"), (3, "smallm")):
        ld = random_labelled_dag(40, 2, 3, 7)
        assert solve(ld, fibres).algorithm == algorithm
        assert "underlying" not in vars(ld)
    ld = random_labelled_dag(8, 2, 2, 7)
    exact_lambda_n(ld, 2)
    assert "underlying" not in vars(ld)
    assert ld.underlying.arcs is ld.arcs
    d = random_digraph(20, 2, 2, 7)
    assert _as_labelled(d).arcs is d.arcs


def test_degree_profile_empty():
    p = degree_profile(Digraph(3, ()))
    assert p.max_degree == 0
    assert all(p.indegree[v] == 0 and p.outdegree[v] == 0 for v in range(3))


def test_degree_profile_circuit():
    p = degree_profile(circuit(3))
    assert all(p.indegree[v] == 1 and p.outdegree[v] == 1 for v in range(3))
    assert p.max_degree == 2


def test_degree_profile_complete_digraph():
    k3 = Digraph(3, tuple((a, b) for a in range(3) for b in range(3) if a != b))
    p = degree_profile(k3)
    assert all(p.indegree[v] == 2 and p.outdegree[v] == 2 for v in range(3))
    assert all(p.degree[v] == 4 for v in range(3))
    assert p.max_indegree == p.max_outdegree == 2


@given(arc_sets())
def test_degree_sums_match_arc_count(d):
    p = degree_profile(d)
    assert sum(p.indegree) == sum(p.outdegree) == d.arc_count


def test_strong_components_circuit():
    assert strong_components(circuit(3)) == ((0, 1, 2),)


def test_strong_components_path_reverse_topological():
    d = Digraph(3, ((0, 1), (1, 2)))
    assert strong_components(d) == ((2,), (1,), (0,))


def test_strong_components_two_digons():
    # digon {0,1} feeds digon {2,3}; the fed one comes out first
    d = Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2), (1, 2)))
    comps = strong_components(d)
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]
    assert set(comps[0]) == {2, 3}


@given(arc_sets())
def test_strong_components_partition_and_determinism(d):
    comps = strong_components(d)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(d.vertex_count))
    assert strong_components(d) == comps


def test_topological_order_path():
    assert topological_order(Digraph(3, ((0, 1), (1, 2)))) == (0, 1, 2)


def test_topological_order_digon_raises():
    with pytest.raises(CyclicError) as info:
        topological_order(Digraph(2, ((0, 1), (1, 0))))
    assert sorted(info.value.circuit) == [0, 1]


@pytest.mark.parametrize("d, witness", [
    (Digraph(6, ((0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0))), (1, 2, 3)),
    (Digraph(7, ((0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (4, 5), (6, 2))),
     (0, 1)),
    (Digraph(12, ((10, 3), (9, 3), (10, 2), (3, 10), (8, 9), (7, 6), (0, 7),
                  (2, 11), (11, 1), (3, 5), (6, 8), (1, 10), (4, 11), (9, 0),
                  (0, 4), (7, 0), (11, 7), (5, 9))), (0, 7)),
])
def test_topological_order_names_the_pinned_circuit(d, witness):
    # vertices past a circuit (4 in the first) have entering arcs left
    # too, so the walk starts from the least vertex the sort left out
    assert not is_acyclic(d)
    with pytest.raises(CyclicError) as info:
        topological_order(d)
    assert info.value.circuit == witness


def test_topological_order_diamond():
    d = Digraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    order = topological_order(d)
    assert order[0] == 0 and order[-1] == 3
    position = {v: i for i, v in enumerate(order)}
    assert all(position[t] < position[h] for t, h in d.arcs)


@given(arc_sets())
def test_acyclic_iff_topological_order(d):
    if is_acyclic(d):
        order = topological_order(d)
        position = {v: i for i, v in enumerate(order)}
        assert all(position[t] < position[h] for t, h in d.arcs)
        assert all(len(c) == 1 for c in strong_components(d))
    else:
        with pytest.raises(CyclicError) as info:
            topological_order(d)
        cyc = info.value.circuit
        arcset = set(d.arcs)
        assert len(set(cyc)) == len(cyc) >= 2
        assert all((cyc[i], cyc[(i + 1) % len(cyc)]) in arcset
                   for i in range(len(cyc)))


def lowest_id_sort(d):
    """Kahn's sort always removing the lowest-id ready vertex, the order
    Digraph._sort once had; a reference for acyclic digraphs only."""
    indeg = list(d.profile.indegree)
    ready = [v for v in range(d.vertex_count) if indeg[v] == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for i in d.out_arcs[v]:
            w = d.arcs[i][1]
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(ready, w)
    assert len(order) == d.vertex_count
    return tuple(order)


def test_topological_order_is_first_in_first_out():
    # 4 is ready before 2, so it comes first, where lowest id puts 2 first
    d = Digraph(5, ((0, 4), (1, 2), (4, 3), (2, 3)))
    assert topological_order(d) == (0, 1, 4, 2, 3)
    assert lowest_id_sort(d) == (0, 1, 2, 4, 3)


@given(st.integers(1, 30), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 10**6))
def test_acyclic_theorems_do_not_depend_on_the_order(n, m, k, seed):
    fibres = 1 + seed % m
    fifo = (star_colouring_acyclic(random_labelled_dag(n, m, k, seed).underlying),
            fibre_colouring_acyclic(random_labelled_dag(n, m, k, seed), fibres))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Digraph, "_sort", property(lowest_id_sort))
        ld = random_labelled_dag(n, m, k, seed)
        lowest = (star_colouring_acyclic(ld.underlying),
                  fibre_colouring_acyclic(ld, fibres))
    (colouring, certificates), fc = fifo
    (colouring_low, certificates_low), fc_low = lowest
    assert colouring == colouring_low and certificates == certificates_low
    assert fc == fc_low


@pytest.mark.parametrize("solve, family", [
    (dst_upper_2k1, lambda seed: random_digraph(40, 3, 3, seed)),
    (dst4_colouring, lambda seed: random_digraph(60, 2, 2, seed)),
    (star_colouring_subcubic, lambda seed: random_subcubic(60, seed)),
    (acircuitic_colouring, lambda seed: random_oriented_subcubic(60, seed)),
])
def test_trusted_sub_digraphs_pass_the_arc_check(monkeypatch, solve, family):
    # every sub-digraph a solver builds unchecked would pass the check
    seeds = range(8)
    unpatched = [solve(family(seed)) for seed in seeds]
    real = Digraph._of.__func__
    built = []

    def checked(cls, vertex_count, arcs):
        # plain tuples, kept as the checked constructor would store them
        assert type(arcs) is tuple and set(map(type, arcs)) <= {tuple}
        assert digraph._check_arcs(vertex_count, arcs) == arcs
        assert len(set(arcs)) == len(arcs)  # simple, as the solvers need
        built.append(len(arcs))
        return real(cls, vertex_count, arcs)

    monkeypatch.setattr(Digraph, "_of", classmethod(checked))
    assert [solve(family(seed)) for seed in seeds] == unpatched
    assert built


def test_sub_renumbers_touched_vertices_ascending_and_keeps_arc_order():
    g = Digraph(7, ((5, 1), (6, 5), (1, 3), (3, 6), (0, 2)))
    ids = [10, 11, 12, 13, 14]
    sub, kept = digraph._sub(g, ids, [0, 1, 3])
    # vertices 1, 3, 5 and 6 are touched, and become 0, 1, 2 and 3
    assert sub == Digraph(4, ((2, 0), (3, 2), (1, 3)))
    assert kept == [10, 11, 13]
    assert digraph._sub(g, ids, []) == (Digraph(0, ()), [])


def test_find_circuit_arcs_dag_and_circuit():
    assert find_circuit_arcs(Digraph(3, ((0, 1), (0, 2)))) is None
    found = find_circuit_arcs(circuit(4))
    assert found is not None and sorted(found) == [0, 1, 2, 3]


def test_find_circuit_respects_removed():
    # the sub-digraph of the arcs kept is where a search with arcs removed
    # looks
    c = circuit(3)
    assert find_circuit_arcs(Digraph(3, (c.arcs[0], c.arcs[2]))) is None


def test_find_circuit_arcs_closes_a_circuit_exactly_when_one_is_kept():
    # seeded random digraphs, some with parallel arcs, and the sub-digraphs
    # of random kept sets; Kahn's sort runs on arc sets with distinct
    # heads too
    rng = random.Random(28)
    cyclic = 0
    for _ in range(2000):
        n = rng.randint(2, 9)
        pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
        parallel = rng.random() < 0.2
        arcs = tuple(rng.choice(pairs) if parallel else pair
                     for pair in rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))))
        d = Digraph(n, arcs)
        kept = tuple(arc for arc in arcs if rng.random() >= 0.3)
        sub = Digraph(n, kept)
        found = find_circuit_arcs(sub)
        assert (found is None) == all(len(c) == 1 for c in strong_components(sub))
        if found is not None:
            cyclic += 1
            tails = [kept[i][0] for i in found]
            assert all(kept[i][1] == kept[j][0]
                       for i, j in zip(found, found[1:] + found[:1]))
            assert len(set(tails)) == len(tails) and tails[0] == min(tails)
        whole = find_circuit_arcs(d)
        if whole is None:
            assert len(topological_order(d)) == n
        else:
            with pytest.raises(CyclicError) as info:
                topological_order(d)
            assert info.value.circuit == tuple(arcs[i][0] for i in whole)
        first_in = tuple({h: (t, h) for t, h in reversed(kept)}.values())
        # with at most one arc into each vertex, a circuit is a cycle of
        # the map from a head to its tail
        assert is_acyclic(Digraph(n, first_in)) == (
            not digraph._map_cycles({h: t for t, h in first_in}))
    assert 500 < cyclic < 1900
