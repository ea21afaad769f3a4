"""Forest/galaxy decompositions and the 2k+1 colouring."""
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import galaxia
from galaxia import (
    Digraph,
    PreconditionViolatedError,
    ValidateError,
    degree_profile,
    dst_upper_2k1,
    exact_dst,
    random_digraph,
    verify_star_colouring,
)
from galaxia.galaxy import _decompose, _split_forest
from conftest import circuit, is_forest, is_galaxy


def check_decomposition(d, forests, galaxy, k):
    """(forests, galaxy) is a k-decomposition of d: k forests and a
    galaxy that partition the arcs, no galaxy arc at a source and none
    into vertex 0; and each forest splits into two galaxies."""
    assert sorted(i for piece in (*forests, galaxy) for i in piece) == list(
        range(d.arc_count))
    assert len(forests) == k
    assert all(is_forest(d, f) for f in forests)
    assert is_galaxy(d, galaxy)
    indegree = degree_profile(d).indegree
    assert all(indegree[v] for i in galaxy for v in d.arcs[i])
    assert all(d.arcs[i][1] != 0 for i in galaxy)
    for f in forests:
        first, second = _split_forest(d, f)
        assert first | second == set(f) and not first & second
        assert is_galaxy(d, first) and is_galaxy(d, second)


def test_decomposition_out_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    forests, galaxy = _decompose(d, 1)
    check_decomposition(d, forests, galaxy, 1)
    # the root is a source, so it must sit isolated in the galaxy
    assert galaxy == []
    assert sorted(forests[0]) == [0, 1, 2]


def test_decomposition_circuit():
    d = circuit(3)
    check_decomposition(d, *_decompose(d, 1), 1)


def test_decomposition_two_components():
    arcs = tuple((i, (i + 1) % 3) for i in range(3))
    arcs += tuple((3 + i, 3 + (i + 1) % 3) for i in range(3))
    d = Digraph(6, arcs)
    check_decomposition(d, *_decompose(d, 1), 1)


@given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 999))
def test_decomposition_random(n, k, seed):
    d = random_digraph(n, min(k, n - 1), min(3, n - 1), seed)
    check_decomposition(d, *_decompose(d, k), k)


def test_forest_split_path():
    d = Digraph(3, ((0, 1), (1, 2)))
    assert _split_forest(d, {0, 1}) == ({0}, {1})


def test_forest_split_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    first, second = _split_forest(d, {0, 1, 2})
    assert first == {0, 1, 2} and second == frozenset()


def test_forest_split_spider():
    # a->b->c plus b->d: depth parity splits ab from {bc, bd}
    d = Digraph(4, ((0, 1), (1, 2), (1, 3)))
    assert _split_forest(d, {0, 1, 2}) == ({0}, {1, 2})


def test_2k1_odd_circuit():
    d = circuit(5)
    col = dst_upper_2k1(d)
    assert col.colour_count <= 3
    assert verify_star_colouring(d, col) is None
    assert exact_dst(d)[0] == 3


def test_2k1_galaxy_input():
    d = Digraph(5, ((0, 1), (0, 2), (3, 4)))
    col = dst_upper_2k1(d)
    assert col.colour_count <= 3
    assert verify_star_colouring(d, col) is None


def test_2k1_rejects_true_parallel_arcs():
    # a solver's verdict on its input, so no ValidateError
    with pytest.raises(PreconditionViolatedError,
                       match=r"^2k\+1 colouring needs a simple digraph$") as caught:
        dst_upper_2k1(Digraph(2, ((0, 1), (0, 1))))
    assert not isinstance(caught.value, ValidateError)


@given(st.integers(2, 20), st.integers(0, 999))
def test_2k1_bound_random(n, seed):
    d = random_digraph(n, min(3, n - 1), min(3, n - 1), seed)
    col = dst_upper_2k1(d)
    k = degree_profile(d).max_indegree
    assert col.colour_count <= 2 * k + 1
    assert verify_star_colouring(d, col) is None


# Decompositions recorded from the recursive peeling construction (one
# terminal strong component per level); the per-level strong-component
# pass must give the same forests and galaxy.  Each entry: digraph, k,
# and the forests and the galaxy as sorted arc-index lists.
PINNED_DECOMPOSITIONS = {
    "lone_source_into_terminal_component": (
        Digraph(4, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 1))), 2,
        [[2, 4], [0, 1, 3]], []),
    "chain_of_three_components": (
        Digraph(6, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5),
                    (5, 4))), 2,
        [[4, 7], [1, 2, 3, 5, 6]], [0]),
    "two_source_components_into_one_sink": (
        Digraph(8, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (0, 5), (3, 6),
                    (5, 6), (6, 7), (7, 5))), 2,
        [[7, 9], [1, 2, 4, 5, 6, 8]], [0, 3]),
    "two_weak_components": (
        Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (3, 5))), 2,
        [[5], [1, 2, 3, 4]], [0]),
    "strong_piece_without_vertex_0": (
        Digraph(7, ((0, 1), (1, 2), (2, 3), (3, 1), (2, 1), (4, 5), (5, 6),
                    (6, 4), (4, 6), (6, 5))), 3,
        [[4, 9], [3, 8], [0, 1, 2, 6, 7]], [5]),
    "parallel_arcs_leaving_a_source": (
        Digraph(5, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 1), (0, 3),
                    (0, 3), (4, 3))), 4,
        [[8], [4, 5], [1, 3, 7], [0, 2, 6]], []),
}


@pytest.mark.parametrize("name", sorted(PINNED_DECOMPOSITIONS))
def test_decomposition_pinned(name):
    d, k, forests, galaxy = PINNED_DECOMPOSITIONS[name]
    found = _decompose(d, k)
    check_decomposition(d, *found, k)
    assert [sorted(f) for f in found[0]] == forests
    assert sorted(found[1]) == galaxy


# (n, cap, seed) -> the arcs that random_digraph(n, cap, cap, seed) built
# before the generator changed, kept literal so that the colourings
# below keep checking dst_upper_2k1 and not the generator
PINNED_2K1_ARCS = {
    (9, 2, 11): ((8, 7), (3, 7), (8, 4), (4, 3), (3, 8), (2, 4), (7, 5),
                 (4, 6), (1, 2), (2, 0), (0, 8), (1, 6), (6, 1), (7, 3),
                 (0, 5), (6, 2), (5, 1), (5, 0)),
    (12, 3, 1): ((10, 2), (1, 2), (5, 2), (10, 1), (10, 8), (3, 9), (9, 4),
                 (6, 0), (11, 3), (8, 0), (6, 9), (8, 3), (8, 9), (0, 10),
                 (7, 4), (3, 7), (1, 11), (1, 10), (9, 11), (11, 0), (5, 6),
                 (7, 3), (0, 8), (6, 7), (11, 10), (7, 1), (9, 5), (2, 4),
                 (0, 11), (2, 5), (4, 8), (5, 7), (3, 6), (2, 6), (4, 5)),
    (15, 2, 7): ((2, 5), (7, 5), (2, 12), (0, 14), (11, 3), (12, 0), (3, 6),
                 (10, 12), (14, 3), (11, 8), (8, 10), (5, 10), (6, 7), (1, 6),
                 (5, 2), (4, 9), (6, 11), (0, 2), (12, 13), (10, 11), (7, 8),
                 (4, 14), (9, 7), (13, 4), (14, 0), (3, 9), (13, 1), (8, 1),
                 (9, 4), (1, 13)),
    (20, 4, 3): ((19, 7), (18, 7), (4, 7), (12, 7), (19, 16), (19, 2),
                 (19, 0), (3, 2), (15, 3), (8, 17), (12, 9), (16, 3), (7, 12),
                 (2, 3), (4, 14), (5, 2), (6, 14), (13, 18), (9, 13), (3, 16),
                 (17, 6), (1, 0), (1, 19), (7, 6), (16, 10), (9, 15), (2, 4),
                 (1, 13), (5, 6), (15, 4), (1, 10), (13, 15), (12, 14),
                 (0, 3), (6, 16), (12, 1), (7, 8), (16, 1), (13, 8), (0, 5),
                 (0, 12), (3, 6), (14, 12), (0, 18), (8, 12), (13, 14),
                 (8, 19), (18, 8), (6, 17), (15, 0), (5, 11), (5, 10),
                 (15, 2), (2, 11), (6, 1), (10, 15), (4, 11), (18, 10),
                 (8, 15), (17, 13), (3, 5), (10, 4), (4, 19), (14, 18),
                 (14, 9), (17, 9), (14, 0), (7, 17), (2, 18), (18, 17),
                 (17, 8), (9, 1), (10, 19), (11, 9)),
}


# (n, cap, seed) -> colour of each arc in arc order, recorded likewise
PINNED_2K1 = {
    (12, 3, 1): (5, 7, 1, 5, 1, 7, 6, 4, 2, 5, 4, 5, 5, 6, 1, 6, 4, 4, 1, 2,
                 1, 3, 7, 2, 2, 3, 6, 3, 6, 3, 4, 4, 6, 3, 7),
    (15, 2, 7): (3, 2, 3, 3, 4, 4, 2, 2, 1, 4, 1, 4, 1, 4, 1, 4, 1, 5, 4, 3,
                 2, 2, 3, 3, 1, 5, 3, 1, 1, 2),
    (20, 4, 3): (5, 4, 7, 1, 5, 5, 5, 7, 1, 2, 3, 3, 6, 6, 5, 3, 8, 1, 5, 7,
                 3, 7, 4, 2, 8, 5, 8, 7, 5, 3, 4, 4, 3, 9, 4, 3, 6, 8, 1, 9,
                 9, 7, 7, 3, 2, 1, 2, 7, 8, 1, 5, 5, 1, 8, 6, 7, 4, 2, 2, 3,
                 7, 6, 7, 6, 6, 1, 4, 6, 8, 4, 3, 2, 6, 7),
    (9, 2, 11): (3, 5, 1, 4, 2, 3, 1, 2, 4, 2, 4, 4, 1, 1, 5, 1, 3, 3),
}


@pytest.mark.parametrize("n, cap, seed", sorted(PINNED_2K1))
def test_2k1_pinned(n, cap, seed):
    d = Digraph(n, PINNED_2K1_ARCS[n, cap, seed])
    col = dst_upper_2k1(d)
    assert tuple(col[i] for i in range(d.arc_count)) == PINNED_2K1[n, cap, seed]
    assert col.colour_count == max(PINNED_2K1[n, cap, seed])
    assert verify_star_colouring(d, col) is None


def test_import_keeps_recursion_limit():
    # a fresh interpreter at the default limit: importing the package
    # must not raise it, and an in-star with 3000 sources (k = 3000)
    # must still decompose and colour
    script = textwrap.dedent("""
        import sys
        before = sys.getrecursionlimit()
        import galaxia
        assert sys.getrecursionlimit() == before, sys.getrecursionlimit()
        k = 3000
        d = galaxia.Digraph(k + 1, tuple((i, k) for i in range(k)))
        col = galaxia.dst_upper_2k1(d)
        assert galaxia.verify_star_colouring(d, col) is None
        assert col.colour_count == k
        print("ok")
    """)
    src = Path(galaxia.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def _capped_arcs(n, cap, seed):
    """Simple digraph with in- and outdegree at most cap, O(n * cap)."""
    rng = random.Random(seed)
    arcs = set()
    indeg = [0] * n
    for t in range(n):
        for _ in range(cap):
            h = rng.randrange(n)
            if h != t and indeg[h] < cap and (t, h) not in arcs:
                arcs.add((t, h))
                indeg[h] += 1
    return tuple(sorted(arcs))


def test_2k1_scale_gate():
    # ROADMAP item 3: near-linear in arcs, where the peeling recursion
    # was quadratic in the number of strong components
    path = Digraph(100_000, tuple((i, i + 1) for i in range(99_999)))
    start = time.perf_counter()
    col = dst_upper_2k1(path)
    assert time.perf_counter() - start < 30.0
    assert col.colour_count == 2
    assert verify_star_colouring(path, col) is None

    d = Digraph(4000, _capped_arcs(4000, 3, seed=4))
    assert degree_profile(d).max_indegree == 3
    start = time.perf_counter()
    col = dst_upper_2k1(d)
    assert time.perf_counter() - start < 10.0
    assert col.colour_count <= 7
    assert verify_star_colouring(d, col) is None
