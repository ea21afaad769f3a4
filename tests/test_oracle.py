"""Exact solvers and verifiers."""
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    AboveCapError,
    ArcColouring,
    Digraph,
    LabelledDigraph,
    NotCubicError,
    StarViolation,
    TooLargeError,
    ValidateError,
    arc_limit_default,
    degree_profile,
    edge_colouring_3regular,
    exact_dst,
    exact_lambda_n,
    find_bicoloured_circuit,
    random_digraph,
    triangle_multidigraph,
    verify_star_colouring,
)
from conftest import circuit


def test_verify_star_monochromatic_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    col = ArcColouring({0: 1, 1: 1, 2: 1}, 1)
    assert verify_star_colouring(d, col) is None


def test_verify_star_rule_i():
    d = Digraph(3, ((0, 1), (1, 2)))
    violation = verify_star_colouring(d, ArcColouring({0: 1, 1: 1}, 1))
    assert violation == StarViolation("i", 0, 1)


def test_verify_star_rule_ii():
    d = Digraph(3, ((0, 2), (1, 2)))
    violation = verify_star_colouring(d, ArcColouring({0: 1, 1: 1}, 1))
    assert violation == StarViolation("ii", 0, 1)


def test_verify_star_rule_ii_before_rule_i_at_one_vertex():
    # at vertex 2 the consecutive pair (1, 0) has the lower arc, but the
    # converging pair (1, 2) is reported first
    d = Digraph(4, ((2, 3), (0, 2), (1, 2)))
    col = ArcColouring({0: 1, 1: 1, 2: 1}, 1)
    assert verify_star_colouring(d, col) == StarViolation("ii", 1, 2)


@pytest.mark.parametrize("check", [verify_star_colouring, find_bicoloured_circuit])
def test_partial_colouring_names_first_uncoloured_arc(check):
    with pytest.raises(ValidateError) as info:
        check(circuit(3), ArcColouring({0: 1, 2: 1}, 1))
    assert str(info.value) == "arc 1 is uncoloured"


def test_arc_colouring_names_first_colour_out_of_range():
    with pytest.raises(ValidateError) as info:
        ArcColouring({0: 1, 1: 3, 2: 0}, 2)
    assert str(info.value) == "arc 1 has colour 3 outside 1..2"


def test_verify_star_rejects_partial():
    with pytest.raises(ValidateError):
        verify_star_colouring(circuit(3), ArcColouring({0: 1}, 1))


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


def test_exact_dst_arc_limit():
    with pytest.raises(TooLargeError):
        exact_dst(circuit(5), arc_limit=4)


def test_arc_limit_env_override(monkeypatch):
    monkeypatch.delenv("GALAXIA_ARC_LIMIT", raising=False)
    assert arc_limit_default() == 40
    monkeypatch.setenv("GALAXIA_ARC_LIMIT", "7")
    assert arc_limit_default() == 7
    with pytest.raises(ValidateError):
        monkeypatch.setenv("GALAXIA_ARC_LIMIT", "zero")
        arc_limit_default()


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


def test_bicoloured_circuit_absent():
    col = ArcColouring({0: 1, 1: 2, 2: 3}, 3)
    assert find_bicoloured_circuit(circuit(3), col) is None


def test_bicoloured_circuit_found():
    col = ArcColouring({0: 1, 1: 2, 2: 1, 3: 2}, 2)
    found = find_bicoloured_circuit(circuit(4), col)
    assert found is not None
    assert sorted(found) == [0, 1, 2, 3]


def test_bicoloured_circuit_acyclic():
    d = Digraph(3, ((0, 1), (1, 2), (0, 2)))
    col = ArcColouring({0: 1, 1: 2, 2: 2}, 2)
    assert find_bicoloured_circuit(d, col) is None


def test_bicoloured_circuit_monochromatic_pair_first():
    # colour 1 alone closes 3->4->5; the pair (1, 2) also closes 0->1->2,
    # which a search from vertex 0 would report, but (1, 1) comes first
    d = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    col = ArcColouring({0: 1, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1}, 2)
    assert find_bicoloured_circuit(d, col) == (3, 4, 5)


def test_bicoloured_circuit_ignores_keys_that_are_not_arcs():
    # the pair (2, 3) closes 0->1->2 before colour 3 alone closes 3->4->5;
    # colour 1 on the non-arc key 6 must not add the pair (1, 3) first
    d = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    colours = {0: 2, 1: 2, 2: 3, 3: 3, 4: 3, 5: 3}
    assert find_bicoloured_circuit(d, ArcColouring(colours, 3)) == (0, 1, 2)
    colours[6] = 1
    assert find_bicoloured_circuit(d, ArcColouring(colours, 3)) == (0, 1, 2)


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
    assert set(colouring.values()) <= {1, 2, 3}
    at_vertex = {}
    for e, c in colouring.items():
        for v in edges[e]:
            assert c not in at_vertex.setdefault(v, set())
            at_vertex[v].add(c)


def test_edge_colouring_k4():
    edges = k4_edges()
    check_proper_edge_colouring(edges, edge_colouring_3regular(4, edges))


def test_edge_colouring_k33():
    edges = k33_edges()
    check_proper_edge_colouring(edges, edge_colouring_3regular(6, edges))


def test_edge_colouring_petersen_infeasible():
    assert edge_colouring_3regular(10, petersen_edges()) is None


def test_edge_colouring_rejects_non_cubic():
    with pytest.raises(NotCubicError):
        edge_colouring_3regular(3, [(0, 1), (1, 2), (0, 2)])


def test_edge_colouring_vertex_limit():
    edges = [(i, (i + 1) % 22) for i in range(22)]
    edges += [(i, (i + 11) % 22) for i in range(11)]
    with pytest.raises(TooLargeError):
        edge_colouring_3regular(22, edges)


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

