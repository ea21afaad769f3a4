"""Spanning galaxies for 2-in 2-out digraphs and the dst <= 4 colouring."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    DegreeTooHighError,
    Digraph,
    Galaxy,
    InternalDefectError,
    ValidateError,
    degree_profile,
    dst4_colouring,
    exact_dst,
    is_galaxy_arcs,
    random_digraph,
    spanning_galaxy,
    verify_star_colouring,
)
from conftest import circuit

K3 = Digraph(3, tuple((a, b) for a in range(3) for b in range(3) if a != b))


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


# The two galaxies below come from the named exchange move; with that
# move disabled, spanning_galaxy returns a different galaxy.
def test_spanning_galaxy_alternating_circuit_move():
    d = Digraph(8, ((7, 6), (7, 4), (4, 7), (4, 6), (5, 3), (5, 7), (0, 4),
                    (0, 1), (2, 5), (2, 0), (3, 2), (3, 0), (6, 3), (6, 1),
                    (1, 5), (1, 2)))
    assert spanning_galaxy(d).arcs == ((1, 5), (3, 0), (3, 2), (7, 4), (7, 6))


def test_spanning_galaxy_tail_to_tail_move():
    d = Digraph(7, ((2, 1), (2, 4), (3, 4), (3, 0), (4, 6), (4, 3), (1, 5),
                    (1, 0), (5, 2), (5, 3), (0, 6), (0, 5), (6, 1), (6, 2)))
    assert spanning_galaxy(d).arcs == ((0, 6), (2, 1), (2, 4), (5, 3))


@pytest.mark.xfail(strict=True, raises=InternalDefectError,
                   reason="no exchange move applies and the digraph is above "
                          "the exhaustive-search size")
def test_spanning_galaxy_known_stall():
    d = Digraph(13, ((2, 0), (2, 3), (8, 12), (8, 3), (10, 1), (10, 9),
                     (12, 11), (12, 5), (0, 9), (0, 1), (7, 12), (7, 8),
                     (9, 0), (9, 6), (1, 2), (1, 4), (5, 10), (5, 6), (4, 2),
                     (4, 7), (3, 10), (3, 4), (6, 11), (6, 7), (11, 8),
                     (11, 5)))
    heavy = [v for v in range(13) if degree_profile(d).degree[v] == 4]
    g = spanning_galaxy(d)
    assert all(g.spans(v) for v in heavy)


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
