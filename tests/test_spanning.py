"""Spanning galaxies for 2-in 2-out digraphs and the ordered-digraph lemma."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    DegreeTooHighError,
    Digraph,
    Galaxy,
    InfeasibleError,
    OrderedDigraph,
    PreconditionViolatedError,
    ValidateError,
    degree_profile,
    dst4_colouring,
    exact_dst,
    is_galaxy_arcs,
    ordig_witness,
    random_digraph,
    spanning_galaxy,
    verify_star_colouring,
)
from conftest import circuit

K3 = Digraph(3, tuple((a, b) for a in range(3) for b in range(3) if a != b))


def check_witness(od, witness):
    (gamma, alpha), (beta, lam) = witness
    arcset = set(od.digraph.arcs)
    assert (gamma, alpha) in arcset and (beta, lam) in arcset
    assert od.leq(alpha, beta)
    assert od.leq(beta, gamma)
    assert od.leq(beta, lam)
    assert not od.leq(gamma, lam)


def test_galaxy_type_groups_stars():
    g = Galaxy(((0, 1), (0, 2), (3, 4)))
    assert dict(g.centres) == {0: (1, 2), 3: (4,)}
    assert g.vertices == {0, 1, 2, 3, 4}
    assert g.spans(4) and not g.spans(5)


def test_galaxy_type_rejects_shared_head():
    with pytest.raises(ValidateError):
        Galaxy(((0, 2), (1, 2)))


def test_galaxy_type_rejects_head_as_tail():
    with pytest.raises(ValidateError):
        Galaxy(((0, 1), (1, 2)))


def test_ordered_digraph_needs_covering_arcs():
    with pytest.raises(ValidateError):
        OrderedDigraph(Digraph(2, ((1, 0),)), ((0, 1),))


def test_ordered_digraph_rejects_incomparable_arc():
    d = Digraph(3, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValidateError):
        OrderedDigraph(d, ((0, 1),))  # arc 0 -> 2 joins incomparable vertices


def test_ordered_digraph_rejects_order_cycle():
    d = Digraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValidateError):
        OrderedDigraph(d, ((0, 1), (1, 0)))


def test_ordig_witness_basic():
    d = Digraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 0), (3, 0)))
    od = OrderedDigraph(d, ((0, 1), (1, 2), (2, 3)))
    witness = ordig_witness(od, x=1)
    assert witness == ((2, 0), (0, 1))
    check_witness(od, witness)


def test_ordig_witness_chain():
    d = Digraph(5, ((0, 1), (1, 0), (1, 2), (2, 0), (3, 1), (4, 2),
                    (2, 3), (3, 4), (2, 4)))
    od = OrderedDigraph(d, ((0, 1), (1, 2), (2, 3), (3, 4)))
    witness = ordig_witness(od)
    assert witness == ((4, 2), (2, 3))
    check_witness(od, witness)


def test_ordig_rejects_low_indegree():
    d = Digraph(5, ((0, 1), (1, 0), (1, 2), (2, 0), (3, 1), (4, 2),
                    (2, 3), (3, 4)))
    od = OrderedDigraph(d, ((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(PreconditionViolatedError) as info:
        ordig_witness(od)
    assert "indegree" in str(info.value)


def test_ordig_statement_fails_on_tight_instance():
    # all hypotheses hold, yet no witness pair exists
    d = Digraph(3, ((0, 1), (0, 2), (1, 0), (1, 2), (2, 1)))
    od = OrderedDigraph(d, ((0, 1), (1, 2)))
    with pytest.raises(InfeasibleError):
        ordig_witness(od)


def test_spanning_galaxy_complete_digraph():
    g = spanning_galaxy(K3)
    assert g.arcs == ((0, 1), (0, 2))
    assert all(g.spans(v) for v in range(3))


def test_spanning_galaxy_shared_digon_centre():
    d = Digraph(3, ((0, 1), (1, 0), (1, 2), (2, 1)))
    g = spanning_galaxy(d)
    assert g.spans(1)  # the only degree-4 vertex


def test_spanning_galaxy_no_heavy_vertices():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    g = spanning_galaxy(d)
    arcset = set(d.arcs)
    assert all(arc in arcset for arc in g.arcs)


def test_spanning_galaxy_rejects_high_degree():
    with pytest.raises(DegreeTooHighError):
        spanning_galaxy(Digraph(4, ((0, 3), (1, 3), (2, 3))))


@given(st.integers(2, 40), st.integers(0, 999))
def test_spanning_galaxy_random(n, seed):
    d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed)
    g = spanning_galaxy(d)
    profile = degree_profile(d)
    arc_index = {arc: i for i, arc in enumerate(d.arcs)}
    assert is_galaxy_arcs(d, {arc_index[a] for a in g.arcs})
    heavy = [v for v in range(n) if profile.degree[v] == 4]
    assert all(g.spans(v) for v in heavy)
    # removing the galaxy leaves a subcubic digraph
    rest = [arc for arc in d.arcs if arc not in set(g.arcs)]
    rest_profile = degree_profile(Digraph(n, tuple(rest)))
    assert rest_profile.max_degree <= 3


def test_dst4_complete_digraph():
    col = dst4_colouring(K3)
    assert col.colour_count <= 4
    assert verify_star_colouring(K3, col) is None
    assert dict(col.colour) == {0: 4, 1: 4, 2: 1, 3: 1, 4: 2, 5: 2}


@pytest.mark.parametrize("length", [3, 5, 7, 9])
def test_dst4_odd_circuits(length):
    col = dst4_colouring(circuit(length))
    assert col.colour_count == 3
    assert verify_star_colouring(circuit(length), col) is None


def test_dst4_rejects_high_degree():
    with pytest.raises(DegreeTooHighError):
        dst4_colouring(Digraph(4, ((0, 3), (1, 3), (2, 3))))


@given(st.integers(2, 30), st.integers(0, 999))
def test_dst4_random(n, seed):
    d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed)
    col = dst4_colouring(d)
    assert col.colour_count <= 4
    assert verify_star_colouring(d, col) is None


def test_dst4_exact_cross_check():
    value, _ = exact_dst(K3)
    assert value <= 4
    assert dst4_colouring(K3).colour_count >= value
