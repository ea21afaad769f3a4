"""2k-colouring of acyclic digraphs with in-colour locality."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    CyclicError,
    Digraph,
    degree_profile,
    exact_dst,
    extremal_gnmk,
    interval_members,
    random_labelled_dag,
    star_colouring_acyclic,
    verify_star_colouring,
)
from conftest import circuit


def check_locality(d, colouring, intervals, k):
    assert all(1 <= c <= 2 * k for c in colouring.colour.values())
    for v in range(d.vertex_count):
        entering = d.in_arcs[v]
        if not entering:
            continue
        members = interval_members(intervals[v])
        assert intervals[v].length == k and intervals[v].modulus == 2 * k
        assert {colouring[i] for i in entering} <= members


def test_single_arc():
    d = Digraph(2, ((0, 1),))
    colouring, intervals = star_colouring_acyclic(d)
    assert verify_star_colouring(d, colouring) is None
    assert colouring.colour_count == 2
    assert len(set(colouring.colour.values())) == 1
    check_locality(d, colouring, intervals, 1)


def test_in_star_two_arcs():
    d = Digraph(3, ((0, 2), (1, 2)))
    colouring, intervals = star_colouring_acyclic(d)
    assert colouring[0] != colouring[1]
    check_locality(d, colouring, intervals, 2)


def test_arcless():
    colouring, intervals = star_colouring_acyclic(Digraph(4, ()))
    assert colouring.colour_count == 0
    assert intervals == {}


def test_cyclic_rejected():
    with pytest.raises(CyclicError):
        star_colouring_acyclic(circuit(3))


def test_brandt_instance_needs_both_colours():
    d = extremal_gnmk(1, 1, 1).underlying
    colouring, intervals = star_colouring_acyclic(d)
    assert verify_star_colouring(d, colouring) is None
    check_locality(d, colouring, intervals, 1)
    assert exact_dst(d)[0] == 2  # dst meets the 2k ceiling here


def test_deterministic():
    d = random_labelled_dag(12, 1, 3, 5).underlying
    assert star_colouring_acyclic(d) == star_colouring_acyclic(d)


@given(st.integers(1, 24), st.integers(1, 5), st.integers(0, 999))
def test_random_dags(n, k, seed):
    d = random_labelled_dag(n, 1, k, seed).underlying
    colouring, intervals = star_colouring_acyclic(d)
    assert verify_star_colouring(d, colouring) is None
    k_actual = degree_profile(d).max_indegree
    if k_actual:
        check_locality(d, colouring, intervals, k_actual)


@given(st.integers(2, 9), st.integers(1, 3), st.integers(0, 299))
def test_exact_dst_at_most_2k(n, k, seed):
    d = random_labelled_dag(n, 1, k, seed).underlying
    k_actual = degree_profile(d).max_indegree
    if k_actual:
        assert exact_dst(d)[0] <= 2 * k_actual
