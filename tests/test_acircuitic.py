"""Acircuitic 4-colouring of oriented subcubic digraphs."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    Digraph,
    HasDigonError,
    NotSubcubicError,
    PreconditionViolatedError,
    acircuitic_colouring,
    find_bicoloured_circuit,
    list_colouring_acyclic,
    random_oriented_subcubic,
    verify_star_colouring,
)
from conftest import circuit


def check_acircuitic(d):
    col = acircuitic_colouring(d)
    assert col.colour_count <= 4
    assert verify_star_colouring(d, col) is None
    ends = set()
    for i, c in col.colour.items():
        if c == 4:  # colour 4 must form a matching
            t, h = d.arcs[i]
            assert t not in ends and h not in ends
            ends.update((t, h))
    assert find_bicoloured_circuit(d, col) is None
    return col


def test_list_colouring_single_arc():
    col = list_colouring_acyclic(Digraph(2, ((0, 1),)), {0: (2,)})
    assert dict(col.colour) == {0: 2}


def test_list_colouring_in_star():
    d = Digraph(3, ((0, 2), (1, 2)))
    col = list_colouring_acyclic(d, {0: (1, 2), 1: (1, 2)})
    assert col.colour[0] != col.colour[1]
    assert set(col.colour.values()) <= {1, 2}


def test_list_colouring_path():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    col = list_colouring_acyclic(d, {i: (1, 2, 3) for i in range(3)})
    assert verify_star_colouring(d, col) is None


def test_list_colouring_rejects_circuit():
    with pytest.raises(PreconditionViolatedError):
        list_colouring_acyclic(circuit(3), {i: (1, 2, 3) for i in range(3)})


def test_list_colouring_rejects_short_list():
    with pytest.raises(PreconditionViolatedError):
        list_colouring_acyclic(Digraph(3, ((0, 2), (1, 2))),
                               {0: (1,), 1: (1, 2)})


def test_acircuitic_oriented_five_circuit():
    col = check_acircuitic(circuit(5))
    assert col.colour_count <= 4


def test_acircuitic_tree_orientation():
    check_acircuitic(Digraph(6, ((0, 1), (0, 2), (3, 1), (4, 2), (2, 5))))


def test_acircuitic_rejects_digon():
    with pytest.raises(HasDigonError):
        acircuitic_colouring(Digraph(2, ((0, 1), (1, 0))))


def test_acircuitic_rejects_high_degree():
    with pytest.raises(NotSubcubicError):
        acircuitic_colouring(Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4))))


def test_acircuitic_deterministic():
    d = random_oriented_subcubic(25, 4)
    assert acircuitic_colouring(d) == acircuitic_colouring(d)


def test_acircuitic_both_part_circuits():
    # circuits inside both halves of the vertex split get a colour-4 arc
    d = Digraph(6, ((0, 1), (1, 2), (1, 4), (2, 3), (3, 0), (3, 5)))
    col = check_acircuitic(d)
    assert 4 in set(col.colour.values())


@given(st.integers(1, 40), st.integers(0, 999))
def test_acircuitic_random(n, seed):
    check_acircuitic(random_oriented_subcubic(n, seed))
