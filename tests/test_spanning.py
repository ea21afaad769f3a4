"""Spanning galaxies for 2-in 2-out digraphs and the dst <= 4 colouring."""
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    Digraph,
    PreconditionViolatedError,
    degree_profile,
    dst4_colouring,
    exact_dst,
    random_digraph,
    star_colouring_subcubic,
    verify_star_colouring,
)
from galaxia.spanning import _galaxy_arcs
from conftest import circuit, is_galaxy

K3 = Digraph(3, tuple((a, b) for a in range(3) for b in range(3) if a != b))


def galaxy_of(d):
    """The arcs of _galaxy_arcs(d) as sorted (tail, head) pairs, after
    checking that they form a galaxy."""
    found = _galaxy_arcs(d)
    assert is_galaxy(d, found)
    return tuple(sorted(d.arcs[i] for i in found))


def spans(galaxy, v):
    return any(v in arc for arc in galaxy)


def test_spanning_galaxy_complete_digraph():
    g = galaxy_of(K3)
    assert g == ((0, 1), (0, 2))
    assert all(spans(g, v) for v in range(3))


def test_spanning_galaxy_shared_digon_centre():
    d = Digraph(3, ((0, 1), (1, 0), (1, 2), (2, 1)))
    g = galaxy_of(d)
    assert spans(g, 1)  # the only degree-4 vertex


def test_spanning_galaxy_no_heavy_vertices():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    g = galaxy_of(d)
    arcset = set(d.arcs)
    assert all(arc in arcset for arc in g)


@pytest.mark.parametrize("d, galaxy", [
    (Digraph(8, ((7, 6), (7, 4), (4, 7), (4, 6), (5, 3), (5, 7), (0, 4),
                 (0, 1), (2, 5), (2, 0), (3, 2), (3, 0), (6, 3), (6, 1),
                 (1, 5), (1, 2))),
     ((0, 4), (3, 2), (5, 7), (6, 1))),
    (Digraph(7, ((2, 1), (2, 4), (3, 4), (3, 0), (4, 6), (4, 3), (1, 5),
                 (1, 0), (5, 2), (5, 3), (0, 6), (0, 5), (6, 1), (6, 2))),
     ((1, 5), (3, 0), (3, 4), (6, 2))),
], ids=["eight_vertices", "seven_vertices"])
def test_spanning_galaxy_search_pinned(d, galaxy):
    assert galaxy_of(d) == galaxy


def test_spanning_galaxy_known_stall():
    # the exchange-move engine this search replaced stalled here
    d = Digraph(13, ((2, 0), (2, 3), (8, 12), (8, 3), (10, 1), (10, 9),
                     (12, 11), (12, 5), (0, 9), (0, 1), (7, 12), (7, 8),
                     (9, 0), (9, 6), (1, 2), (1, 4), (5, 10), (5, 6), (4, 2),
                     (4, 7), (3, 10), (3, 4), (6, 11), (6, 7), (11, 8),
                     (11, 5)))
    heavy = [v for v in range(13) if degree_profile(d).degree[v] == 4]
    g = galaxy_of(d)
    assert all(spans(g, v) for v in heavy)


def _capped_digraphs(n):
    """Every labelled simple digraph on n vertices with in- and outdegree
    at most two."""
    choices = [[s for r in range(3)
                for s in itertools.combinations(
                    [w for w in range(n) if w != v], r)]
               for v in range(n)]
    indeg = [0] * n
    heads = []

    def extend(v):
        if v == n:
            yield tuple((t, h) for t in range(n) for h in heads[t])
            return
        for s in choices[v]:
            if all(indeg[h] < 2 for h in s):
                for h in s:
                    indeg[h] += 1
                heads.append(s)
                yield from extend(v + 1)
                heads.pop()
                for h in s:
                    indeg[h] -= 1

    yield from extend(0)


def test_spanning_galaxy_every_small_digraph():
    counts = []
    for n in range(1, 6):
        counts.append(0)
        for arcs in _capped_digraphs(n):
            d = Digraph(n, arcs)
            degree = degree_profile(d).degree
            g = galaxy_of(d)
            assert all(spans(g, v) for v in range(n) if degree[v] == 4)
            counts[-1] += 1
    assert counts == [1, 4, 64, 1699, 67561]


@given(st.integers(2, 40), st.integers(0, 999))
def test_spanning_galaxy_random(n, seed):
    d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed)
    g = galaxy_of(d)
    profile = degree_profile(d)
    heavy = [v for v in range(n) if profile.degree[v] == 4]
    assert all(spans(g, v) for v in heavy)
    # removing the galaxy leaves a subcubic digraph
    rest = [arc for arc in d.arcs if arc not in set(g)]
    rest_profile = degree_profile(Digraph(n, tuple(rest)))
    assert rest_profile.max_degree <= 3


@st.composite
def near_two_regular(draw):
    """A simple digraph whose arcs follow two permutations of the vertices,
    so in- and outdegree are at most two and most vertices have degree 4."""
    n = draw(st.integers(2, 40))
    arcs = set()
    for _ in range(2):
        heads = draw(st.permutations(range(n)))
        arcs.update((t, h) for t, h in enumerate(heads) if t != h)
    dropped = draw(st.sets(st.sampled_from(sorted(arcs)), max_size=3)
                   if arcs else st.just(set()))
    return Digraph(n, tuple(sorted(arcs - dropped)))


@given(near_two_regular())
def test_spanning_galaxy_capped_property(d):
    g = galaxy_of(d)
    degree = degree_profile(d).degree
    assert set(g) <= set(d.arcs)
    assert all(spans(g, v) for v in range(d.vertex_count) if degree[v] == 4)
    col = dst4_colouring(d)
    assert col.colour_count <= 4
    assert verify_star_colouring(d, col) is None


def _two_regular_arcs(n, seed):
    """Arcs along two random permutations, loops and repeats dropped, O(n)."""
    rng = random.Random(seed)
    arcs = set()
    for _ in range(2):
        heads = list(range(n))
        rng.shuffle(heads)
        arcs.update((t, h) for t, h in enumerate(heads) if t != h)
    return tuple(sorted(arcs))


def test_spanning_galaxy_deep_conflicts():
    # a search that only undoes its latest decision took 330,000
    # backtracks on seed 16; clause learning meets a few conflicts
    for seed in (16, 76, 113):
        d = Digraph(1000, _two_regular_arcs(1000, seed))
        degree = degree_profile(d).degree
        start = time.perf_counter()
        g = galaxy_of(d)
        assert time.perf_counter() - start < 2.0
        assert all(spans(g, v) for v in range(1000) if degree[v] == 4)


def test_dst4_scale_gate():
    # near-linear in arcs: the exchange-move search took about 40 s on
    # 1,000 vertices, and the subcubic engine rebuilt its strong
    # components once per peeled component
    d = Digraph(16_000, _two_regular_arcs(16_000, seed=6))
    assert degree_profile(d).max_indegree == 2
    start = time.perf_counter()
    col = dst4_colouring(d)
    assert time.perf_counter() - start < 15.0
    assert col.colour_count == 4
    assert verify_star_colouring(d, col) is None

    galaxy = set(galaxy_of(d))
    residue = Digraph(d.vertex_count,
                      tuple(arc for arc in d.arcs if arc not in galaxy))
    start = time.perf_counter()
    col = star_colouring_subcubic(residue)
    assert time.perf_counter() - start < 15.0
    assert verify_star_colouring(residue, col) is None


def test_dst4_complete_digraph():
    col = dst4_colouring(K3)
    assert col.colour_count <= 4
    assert verify_star_colouring(K3, col) is None
    assert col.colour == (4, 4, 1, 1, 2, 2)


@pytest.mark.parametrize("length", [3, 5, 7, 9])
def test_dst4_odd_circuits(length):
    col = dst4_colouring(circuit(length))
    assert col.colour_count == 3
    assert verify_star_colouring(circuit(length), col) is None


def test_dst4_rejects_high_degree():
    with pytest.raises(PreconditionViolatedError,
                       match=r"^in/outdegrees \(3, 1\) exceed two$"):
        dst4_colouring(Digraph(4, ((0, 3), (1, 3), (2, 3))))


def test_spanning_galaxy_rejects_high_degree():
    # a spanning galaxy needs outdegree at most two as well
    with pytest.raises(PreconditionViolatedError, match=r"^in/outdegrees \(1, 3\) exceed two$"):
        dst4_colouring(Digraph(4, ((3, 0), (3, 1), (3, 2))))


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
