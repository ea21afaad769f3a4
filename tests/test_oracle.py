"""Exact solvers and verifiers."""
import itertools
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    AboveCapError,
    ArcColouring,
    BadParamsError,
    Digraph,
    FibreColouring,
    InvalidColouringError,
    LabelledDigraph,
    StarViolation,
    TooLargeError,
    ValidateError,
    degree_profile,
    edge_colouring_3regular,
    exact_dst,
    exact_lambda_n,
    find_bicoloured_circuit,
    from_class_list,
    is_acyclic,
    np_reduction,
    oracle,
    random_digraph,
    triangle_multidigraph,
    verify_fibre_colouring,
    verify_star_colouring,
)
from conftest import circuit


def test_verify_star_monochromatic_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    col = ArcColouring((1, 1, 1), 1)
    assert verify_star_colouring(d, col) is None


def test_verify_star_rule_i():
    d = Digraph(3, ((0, 1), (1, 2)))
    violation = verify_star_colouring(d, ArcColouring((1, 1), 1))
    assert violation == StarViolation("i", 0, 1, 1)
    assert str(violation) == "consecutive arcs 0 and 1 share colour 1"


def test_verify_star_rule_ii():
    d = Digraph(3, ((0, 2), (1, 2)))
    violation = verify_star_colouring(d, ArcColouring((1, 1), 1))
    assert violation == StarViolation("ii", 0, 1, 1)
    assert str(violation) == "converging arcs 0 and 1 share colour 1"


def test_verify_star_rule_ii_before_rule_i_at_one_vertex():
    # at vertex 2 the consecutive pair (1, 0) has the lower arc, but the
    # converging pair (1, 2) is reported first
    d = Digraph(4, ((2, 3), (0, 2), (1, 2)))
    col = ArcColouring((1, 1, 1), 1)
    assert verify_star_colouring(d, col) == StarViolation("ii", 1, 2, 1)


@pytest.mark.parametrize("check", [verify_star_colouring, find_bicoloured_circuit])
def test_partial_colouring_names_first_uncoloured_arc(check):
    with pytest.raises(ValidateError) as info:
        check(circuit(3), ArcColouring((1,), 1))
    assert str(info.value) == "arc 1 is uncoloured"


def test_arc_colouring_names_first_colour_out_of_range():
    with pytest.raises(ValidateError) as info:
        ArcColouring((1, 3, 0), 2)
    assert str(info.value) == "arc 1 has colour 3 outside 1..2"


def test_verify_star_rejects_partial():
    with pytest.raises(ValidateError):
        verify_star_colouring(circuit(3), ArcColouring((1,), 1))


def test_exact_dst_circuits():
    assert exact_dst(circuit(5))[0] == 3
    assert exact_dst(circuit(4))[0] == 2
    assert exact_dst(circuit(3))[0] == 3


def test_exact_dst_galaxy():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    value, witness = exact_dst(d)
    assert value == 1
    assert witness.colour_count == 1
    assert verify_star_colouring(d, witness) is None


def test_exact_dst_witness_is_valid():
    d = random_digraph(7, 2, 2, 3)
    value, witness = exact_dst(d)
    assert witness.colour_count == value
    assert verify_star_colouring(d, witness) is None


def test_exact_dst_above_cap():
    with pytest.raises(AboveCapError) as info:
        exact_dst(circuit(5), colour_cap=2)
    assert info.value.cap == 2


def test_from_class_list_rejects_an_arc_in_two_classes():
    with pytest.raises(ValidateError, match="^arc 1 appears in two colour classes$"):
        from_class_list([{0, 1}, set(), {1}])


@pytest.mark.parametrize("classes", [[{0}, {2}], [{-1}, {0}]], ids=["gap", "negative"])
def test_from_class_list_rejects_classes_that_are_not_the_arcs(classes):
    # two classes of one arc each must hold the arcs 0 and 1
    with pytest.raises(ValidateError, match=r"^arc -?\d is outside 0..1$"):
        from_class_list(classes)


def test_exact_dst_arc_limit():
    with pytest.raises(TooLargeError):
        exact_dst(circuit(5), arc_limit=4)


def test_exact_dst_deterministic():
    d = random_digraph(8, 2, 2, 9)
    value, witness = exact_dst(d)
    assert (value, witness) == exact_dst(d)
    assert verify_star_colouring(d, witness) is None


@given(st.integers(2, 8), st.integers(0, 499))
def test_exact_dst_bounds(n, seed):
    d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed)
    if d.arc_count == 0:
        return
    value, _ = exact_dst(d)
    k = degree_profile(d).max_indegree
    assert k <= value <= 2 * k + 1


def test_exact_lambda_equals_dst_for_one_label():
    for seed in range(8):
        d = random_digraph(6, 2, 2, seed)
        ld = LabelledDigraph(6, 1, tuple((t, h, 1) for t, h in d.arcs))
        assert exact_lambda_n(ld, 1)[0] == exact_dst(d)[0]


def test_exact_lambda_in_star_capacity():
    ld = LabelledDigraph(4, 1, ((0, 3, 1), (1, 3, 1), (2, 3, 1)))
    assert exact_lambda_n(ld, 3)[0] == 1
    assert exact_lambda_n(ld, 2)[0] == 2


def test_exact_lambda_above_cap():
    ld = LabelledDigraph(4, 1, ((0, 3, 1), (1, 3, 1), (2, 3, 1)))
    with pytest.raises(AboveCapError):
        exact_lambda_n(ld, 1, colour_cap=2)


def _colourings(count):
    """Every colouring of `count` items up to renaming colours: colour
    i + 1 is used only after colour i (restricted growth strings)."""
    def grow(prefix, top):
        if len(prefix) == count:
            yield prefix
            return
        for c in range(1, top + 2):
            yield from grow(prefix + [c], max(top, c))
    yield from grow([], 0)


@st.composite
def small_labelled(draw):
    vertices = draw(st.integers(2, 5))
    labels = draw(st.integers(1, 3))
    arc = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1),
                    st.integers(1, labels)).filter(lambda a: a[0] != a[1])
    arcs = draw(st.lists(arc, min_size=1, max_size=8, unique=True))
    return LabelledDigraph(vertices, labels, tuple(arcs))


@given(small_labelled(), st.integers(1, 3))
def test_exact_values_match_brute_force(ld, n):
    # the least colour count of any colouring that passes the verifier
    d = ld.underlying
    colourings = [(c, max(c)) for c in _colourings(ld.arc_count)]
    dst = min(q for col, q in colourings
              if verify_star_colouring(d, ArcColouring(col, q)) is None)
    lam = min(q for col, q in colourings
              if verify_fibre_colouring(ld, FibreColouring(n, col, q)) is None)
    value, witness = exact_dst(d)
    assert (value, witness.colour_count) == (dst, dst)
    assert verify_star_colouring(d, witness) is None
    value, fc = exact_lambda_n(ld, n)
    assert (value, fc.colour_count) == (lam, lam)
    assert verify_fibre_colouring(ld, fc) is None


# The slowest of 8,000 random 16-vertex digraphs of indegree 2 (half of
# them with outdegree at most 2, this one with every head drawing two random
# tails) for the static arc order this search replaced: 16.5 s there for
# dst = 4.
HARD_DST = Digraph(16, (
    (14, 0), (13, 0), (13, 1), (14, 1), (9, 2), (7, 2), (13, 3), (5, 3),
    (5, 4), (15, 4), (8, 5), (3, 5), (11, 6), (8, 6), (12, 7), (2, 7),
    (11, 8), (13, 8), (4, 9), (8, 9), (15, 10), (11, 10), (8, 11), (6, 11),
    (5, 12), (7, 12), (1, 13), (9, 13), (13, 14), (5, 14), (5, 15), (1, 15)))


def test_exact_dst_hard_instance_is_fast():
    start = time.perf_counter()
    value, witness = exact_dst(HARD_DST)
    assert time.perf_counter() - start < 1.0
    assert value == 4
    assert verify_star_colouring(HARD_DST, witness) is None


# The slowest of 3,000 random cyclic labelled digraphs (indegree <= 3,
# labels <= 3, fibres <= labels + 1, at most 40 arcs) that the search this
# one replaced finished within 20 s: 14.9 s there for lambda_1 = 5.
HARD_LAMBDA = LabelledDigraph(13, 2, (
    (0, 12, 1), (1, 4, 1), (1, 10, 2), (2, 1, 1), (2, 12, 1), (3, 4, 1),
    (3, 6, 2), (3, 9, 1), (4, 6, 1), (5, 0, 1), (5, 3, 2), (6, 0, 1),
    (6, 5, 1), (6, 9, 1), (8, 11, 1), (8, 11, 2), (9, 0, 2), (9, 3, 1),
    (9, 8, 1), (9, 12, 1), (10, 2, 1), (10, 2, 2), (11, 1, 2), (11, 5, 2),
    (11, 7, 1), (12, 1, 1), (12, 2, 2), (12, 7, 2), (12, 8, 2), (12, 10, 1)))


def test_exact_lambda_hard_instance_is_fast():
    start = time.perf_counter()
    value, fc = exact_lambda_n(HARD_LAMBDA, 1)
    assert time.perf_counter() - start < 1.0
    assert value == 5
    assert verify_fibre_colouring(HARD_LAMBDA, fc) is None


def test_bicoloured_circuit_absent():
    col = ArcColouring((1, 2, 3), 3)
    assert find_bicoloured_circuit(circuit(3), col) is None


def test_bicoloured_circuit_found():
    col = ArcColouring((1, 2, 1, 2), 2)
    found = find_bicoloured_circuit(circuit(4), col)
    assert found is not None
    assert sorted(found) == [0, 1, 2, 3]


def test_bicoloured_circuit_acyclic():
    d = Digraph(3, ((0, 1), (1, 2), (0, 2)))
    col = ArcColouring((1, 2, 1), 2)
    assert find_bicoloured_circuit(d, col) is None


@pytest.mark.parametrize("arcs, colours, clash", [
    # colour 1 alone closes 0->1->2 with consecutive arcs
    (((0, 1), (1, 2), (2, 0)), (1, 1, 1), "consecutive arcs 2 and 0 share colour 1"),
    # two arcs of colour 1 converge at 2, on no circuit
    (((0, 2), (1, 2)), (1, 1), "converging arcs 0 and 1 share colour 1"),
], ids=["monochromatic-circuit", "converging"])
def test_find_bicoloured_circuit_rejects_a_non_star_colouring(arcs, colours, clash):
    col = ArcColouring(colours, 2)
    with pytest.raises(InvalidColouringError) as info:
        find_bicoloured_circuit(Digraph(3, arcs), col)
    assert str(info.value) == f"not a star colouring: {clash}"


def test_bicoloured_circuit_of_the_first_pair_through_its_least_vertex():
    # pairs (1, 2) and (2, 3) each hold a circuit, and (1, 2) comes first
    # though 0 lies on the (2, 3) circuit.  The walk from the heads of
    # colour 2, the smaller class, meets the (1, 2) circuit through 8
    # first; the one through 4 is named, and 4 is the head of a colour-1
    # arc
    arcs = ((8, 9), (9, 10), (10, 11), (11, 8),
            (7, 4), (4, 5), (5, 6), (6, 7),
            (0, 1), (1, 2), (2, 3), (3, 0),
            (12, 13), (12, 14), (12, 15))
    colours = (1, 2, 1, 2, 1, 2, 1, 2, 2, 3, 2, 3, 1, 1, 1)
    d = Digraph(16, arcs)
    col = ArcColouring(colours, 3)
    assert verify_star_colouring(d, col) is None
    assert find_bicoloured_circuit(d, col) == (4, 5, 6, 7)


def all_classes_scan(d, colouring):
    """Whether some colour class, or some pair of classes, holds a
    circuit, by Kahn's sort of the sub-digraph of its arcs: the
    reference for whether find_bicoloured_circuit finds one."""
    classes = {}
    for arc in range(d.arc_count):
        classes.setdefault(colouring[arc], []).append(d.arcs[arc])
    palette = sorted(classes)
    for a_pos, alpha in enumerate(palette):
        for beta in palette[a_pos:]:
            keep = classes[alpha] + (classes[beta] if beta != alpha else [])
            if not is_acyclic(Digraph(d.vertex_count, tuple(keep))):
                return True
    return False


def pair_scan(d, colouring):
    """The circuit find_bicoloured_circuit names, by a walk from each
    vertex: for the first colour pair α < β that has one, the least
    vertex from which walking back along the α-arc in, then the β-arc in
    (or β first), returns to it, and the walk read in arc direction."""
    into = {(colouring[a], h): t for a, (t, h) in enumerate(d.arcs)}
    palette = sorted({colouring[a] for a in range(d.arc_count)})
    for alpha, beta in itertools.combinations(palette, 2):
        for v in range(d.vertex_count):
            for order in ((alpha, beta), (beta, alpha)):
                back = [v]
                while len(back) <= d.vertex_count:
                    key = (order[(len(back) - 1) % 2], back[-1])
                    if key not in into:
                        break
                    back.append(into[key])
                    if back[-1] == v:
                        return tuple([v] + back[-2:0:-1])
    return None


def random_star_colouring(rng, d, q):
    """A star colouring of d: each arc, in random order, draws from the
    colours 1..q its coloured conflicts leave, or takes a colour of its
    own above q when they leave none."""
    conflicts = oracle._conflict_lists(d)
    colour = [None] * d.arc_count
    for a in rng.sample(range(d.arc_count), d.arc_count):
        taken = {colour[b] for b in conflicts[a]}
        free = [c for c in range(1, q + 1) if c not in taken]
        colour[a] = rng.choice(free) if free else q + 1 + a
    return ArcColouring(colour, max(colour, default=0))


def random_star_coloured(rng, count, max_arcs):
    """count random star colourings, in two to four colours, of small
    digraphs with digons allowed and at most max_arcs(n) arcs."""
    for _ in range(count):
        n = rng.randint(2, 8)
        pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
        d = Digraph(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), max_arcs(n))))))
        col = random_star_colouring(rng, d, rng.randint(2, 4))
        assert verify_star_colouring(d, col) is None
        yield d, col


def test_bicoloured_circuit_matches_the_scan_of_every_class():
    # a star colouring has a bicoloured circuit exactly when some class
    # or pair of classes is cyclic; most of these dense digraphs have one
    found = 0
    for d, col in random_star_coloured(random.Random(20), 3000, lambda n: 3 * n):
        expected = all_classes_scan(d, col)
        assert (find_bicoloured_circuit(d, col) is not None) == expected
        found += expected
    assert 1000 < found < 3000, found


def test_alternating_walk_matches_the_pair_scan():
    # the walk over the smaller class of each pair names the circuit the
    # walk from every vertex in turn names
    outcomes = {True: 0, False: 0}
    for d, col in random_star_coloured(random.Random(31), 4000, lambda n: 2 * n):
        named = oracle._bicoloured_circuit(d, col)
        assert named == pair_scan(d, col)
        outcomes[named is not None] += 1
    assert min(outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("n, colours, held", [
    (2, (1, 2), True),
    (4, (1, 10 ** 14, 1, 10 ** 14), True),
    (4, (1, 10 ** 14, 3, 10 ** 14), False),
    (6, (1, 2, 3, 1, 2, 3), False),
])
def test_alternating_walk_on_circuits(n, colours, held):
    col = ArcColouring(colours, max(colours))
    assert verify_star_colouring(circuit(n), col) is None
    assert (oracle._bicoloured_circuit(circuit(n), col) is not None) is held


def test_bicoloured_circuit_refuses_keys_that_are_not_arcs():
    # colour 1 on the entry 4 is refused, not read as a fifth arc
    colours = (2, 3, 2, 3)
    assert find_bicoloured_circuit(circuit(4), ArcColouring(colours, 3)) == (0, 1, 2, 3)
    with pytest.raises(ValidateError, match="^entry 4 names no arc$"):
        find_bicoloured_circuit(circuit(4), ArcColouring(colours + (1,), 3))


def k4_edges():
    return list(itertools.combinations(range(4), 2))


def k33_edges():
    return [(a, 3 + b) for a in range(3) for b in range(3)]


def petersen_edges():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return edges


def check_proper_edge_colouring(edges, colouring):
    assert len(colouring) == len(edges) and set(colouring) <= {1, 2, 3}
    at_vertex = {}
    for e, c in enumerate(colouring):
        for v in edges[e]:
            assert c not in at_vertex.setdefault(v, set())
            at_vertex[v].add(c)


def test_edge_colouring_k4():
    edges = k4_edges()
    check_proper_edge_colouring(edges, edge_colouring_3regular(4, edges))


def test_edge_colouring_k33():
    edges = k33_edges()
    check_proper_edge_colouring(edges, edge_colouring_3regular(6, edges))


def test_edge_colouring_empty_graph():
    # no edges: the search returns before it builds a domain
    assert edge_colouring_3regular(0, []) == ()


def test_edge_colouring_petersen_infeasible():
    assert edge_colouring_3regular(10, petersen_edges()) is None


def test_edge_colouring_rejects_non_cubic():
    with pytest.raises(ValidateError, match=r"^graph is not 3-regular$"):
        edge_colouring_3regular(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 4)], "arc 0 (0,4) out of vertex range"),
    ([(2, 2)], "arc 0 is a self-loop at 2"),
    ([(0, 1), (1, 0)], "duplicate edge (1,0)"),
])
def test_edge_colouring_rejects_bad_edges(edges, message):
    with pytest.raises(ValidateError, match=f"^{re.escape(message)}$"):
        edge_colouring_3regular(4, edges)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("vertex_count, edges, message", [
    (4, [(0, 1.0)] + K4_EDGES[1:], "arc 0 entry 1.0 is not an int"),
    (4, [(0, True)] + K4_EDGES[1:], "arc 0 entry True is not an int"),
    (4.0, K4_EDGES, "vertex_count must be an int"),
    (4, [(0, 1, 2)] + K4_EDGES[1:], "arc 0 is not a (tail, head) pair"),
    (4, K4_EDGES[:2] + [5] + K4_EDGES[3:], "arc 2 is not a (tail, head) pair"),
    (4, None, "arcs must be iterable"),
], ids=["float-end", "bool-end", "float-count", "triple", "not-a-pair", "not-iterable"])
def test_cubic_graph_entries_must_be_plain_ints(vertex_count, edges, message):
    # the edge checks behind both the exact edge colouring and the
    # hardness reduction: the edges are read as a Digraph's arcs, so a
    # malformed one gets that constructor's text
    for make in (edge_colouring_3regular, np_reduction):
        with pytest.raises(ValidateError, match=f"^{re.escape(message)}$"):
            make(vertex_count, edges)


PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize("vertex_count, edges", [(4, K4_EDGES), (6, PRISM_EDGES)],
                         ids=["k4", "prism"])
def test_cubic_graph_edges_may_come_from_any_iterable(vertex_count, edges):
    # the edges are read once, so an iterator colours and reduces the
    # graph its list does, not a graph of no edges
    for make in (edge_colouring_3regular, np_reduction):
        expected = make(vertex_count, edges)
        assert make(vertex_count, iter(edges)) == expected
        assert make(vertex_count, (e for e in edges)) == expected


def test_exact_lambda_rejects_bad_fibres_and_large_input():
    ld = LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1)))
    with pytest.raises(BadParamsError, match="^fibre count must be positive$"):
        exact_lambda_n(ld, 0)
    with pytest.raises(TooLargeError, match="^2 arcs exceed the limit 1$"):
        exact_lambda_n(ld, 1, arc_limit=1)


def test_edge_colouring_vertex_limit():
    edges = [(i, (i + 1) % 22) for i in range(22)]
    edges += [(i, (i + 11) % 22) for i in range(11)]
    with pytest.raises(TooLargeError):
        edge_colouring_3regular(22, edges)


def test_exact_lambda_n_memory_follows_the_arcs_not_the_labels():
    # two arcs under a header of a million labels: the search keeps one
    # count per (tail, label) group and colour, not one per label
    ld = LabelledDigraph(3, 10**6, ((0, 1, 1), (1, 2, 10**6)))
    tracemalloc.start()
    try:
        assert exact_lambda_n(ld, 1)[0] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_triangle_multidigraph_dst():
    assert exact_dst(triangle_multidigraph(1))[0] == 3
    assert exact_dst(triangle_multidigraph(2))[0] == 6


def test_exact_solvers_search_deeper_than_recursion_limit():
    # the backtracking keeps its own stack: one level per arc or edge
    n = 2 * sys.getrecursionlimit()
    path = Digraph(n + 1, tuple((i, i + 1) for i in range(n)))
    value, witness = exact_dst(path, arc_limit=n)
    assert value == 2
    assert verify_star_colouring(path, witness) is None
    labelled = LabelledDigraph(n + 1, 1, tuple((i, i + 1, 1) for i in range(n)))
    assert exact_lambda_n(labelled, 1, arc_limit=n)[0] == 2
    # prism C_m x K2: rung, outer and inner edge at each step
    m = n // 3
    edges = [e for i in range(m) for e in ((i, m + i), (i, (i + 1) % m),
                                           (m + i, m + (i + 1) % m))]
    colours = edge_colouring_3regular(2 * m, edges, vertex_limit=2 * m)
    assert colours is not None
    for v in range(2 * m):
        assert sorted(colours[i] for i, e in enumerate(edges) if v in e) == [1, 2, 3]

