"""Subcubic 3-colouring and its two lemma engines."""
import itertools

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadListsError,
    BadShapeError,
    Digraph,
    HasK4Error,
    InfeasibleError,
    NotSubcubicError,
    PreconditionViolatedError,
    ValidateError,
    brooks_three_colouring,
    exact_dst,
    lemma_cycle_colouring,
    lemma_extension_colouring,
    random_subcubic,
    star_colouring_subcubic,
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
    with pytest.raises(BadListsError):
        lemma_cycle_colouring(circuit(3), {0: (1,), 1: (1, 2), 2: (1, 2)})
    with pytest.raises(BadListsError):
        lemma_cycle_colouring(circuit(3), {0: (1, 2, 3), 1: (1, 2), 2: (1, 2)})


def test_cycle_rejects_non_circuit():
    with pytest.raises(BadShapeError):
        lemma_cycle_colouring(Digraph(3, ((0, 1), (1, 2))),
                              {v: (1, 2) for v in range(3)})


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


def test_brooks_triangle():
    colours = brooks_three_colouring(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(colours) == [1, 2, 3]


def test_brooks_k4_rejected():
    with pytest.raises(HasK4Error):
        brooks_three_colouring(4, list(itertools.combinations(range(4), 2)))


def test_brooks_petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    colours = brooks_three_colouring(10, edges)
    assert all(colours[u] != colours[v] for u, v in edges)
    assert set(colours) <= {1, 2, 3}


def test_brooks_rejects_bad_edges():
    with pytest.raises(ValidateError):
        brooks_three_colouring(2, [(0, 2)])
    with pytest.raises(ValidateError):
        brooks_three_colouring(2, [(1, 1)])


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
    with pytest.raises(NotSubcubicError):
        star_colouring_subcubic(Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4))))


@given(st.integers(1, 40), st.integers(0, 999))
def test_subcubic_random(n, seed):
    check_subcubic(random_subcubic(n, seed))


@given(st.integers(2, 9), st.integers(0, 499))
def test_subcubic_exact_cross_check(n, seed):
    d = random_subcubic(n, seed)
    check_subcubic(d)
    assert exact_dst(d)[0] <= 3
