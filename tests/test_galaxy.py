"""Forest/galaxy decompositions and the 2k+1 colouring."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadParamsError,
    Digraph,
    ForestGalaxyDecomposition,
    NotForestError,
    NotNiceError,
    TooLargeError,
    ValidateError,
    degree_profile,
    dst_upper_2k1,
    exact_dst,
    forest_to_two_galaxies,
    frank_condition_check,
    is_galaxy_arcs,
    is_k_nice,
    random_digraph,
    u_suitable_decomposition,
    verify_star_colouring,
)
from conftest import circuit


def check_decomposition(d, dec, u, k):
    all_arcs = set()
    for f in dec.forests:
        all_arcs |= f
    all_arcs |= dec.galaxy
    assert all_arcs == set(range(d.arc_count))
    assert len(dec.forests) == k
    assert is_galaxy_arcs(d, dec.galaxy)
    assert dec.sources_isolated()
    assert dec.suitable_for(u)
    assert all(d.arcs[i][1] != u for i in dec.galaxy)


def test_is_k_nice_simple():
    d = Digraph(3, ((0, 2), (1, 2)))
    assert is_k_nice(d, 2)
    assert not is_k_nice(d, 1)  # indegree 2 at vertex 2


def test_is_k_nice_parallel_from_source():
    d = Digraph(2, ((0, 1), (0, 1)), allow_parallel=True)
    assert is_k_nice(d, 2)


def test_is_k_nice_parallel_from_non_source():
    d = Digraph(3, ((2, 0), (0, 1), (0, 1)), allow_parallel=True)
    assert not is_k_nice(d, 3)


def test_decomposition_out_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    dec = u_suitable_decomposition(d, 0, 1)
    check_decomposition(d, dec, 0, 1)
    # the root is a source, so it must sit isolated in the galaxy
    assert dec.galaxy == frozenset()
    assert dec.forests[0] == frozenset({0, 1, 2})


def test_decomposition_circuit():
    d = circuit(3)
    dec = u_suitable_decomposition(d, 0, 1)
    check_decomposition(d, dec, 0, 1)


def test_decomposition_two_components():
    arcs = tuple((i, (i + 1) % 3) for i in range(3))
    arcs += tuple((3 + i, 3 + (i + 1) % 3) for i in range(3))
    d = Digraph(6, arcs)
    dec = u_suitable_decomposition(d, 0, 1)
    check_decomposition(d, dec, 0, 1)


def test_decomposition_rejects_non_nice():
    with pytest.raises(NotNiceError):
        u_suitable_decomposition(Digraph(3, ((0, 2), (1, 2))), 0, 1)


def test_decomposition_rejects_bad_vertex():
    with pytest.raises(BadParamsError):
        u_suitable_decomposition(circuit(3), 7, 1)


@given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 999))
def test_decomposition_random(n, k, seed):
    d = random_digraph(n, min(k, n - 1), min(3, n - 1), seed)
    for u in (0, n - 1):
        dec = u_suitable_decomposition(d, u, k)
        check_decomposition(d, dec, u, k)


def test_decomposition_type_validates_partition():
    d = circuit(3)
    with pytest.raises(ValidateError):
        ForestGalaxyDecomposition(d, (frozenset({0, 1, 2}),), frozenset({2}))


def test_decomposition_type_rejects_circular_forest():
    d = circuit(3)
    with pytest.raises(ValidateError):
        ForestGalaxyDecomposition(d, (frozenset({0, 1, 2}),), frozenset())


def test_forest_split_path():
    d = Digraph(3, ((0, 1), (1, 2)))
    assert forest_to_two_galaxies(d, {0, 1}) == ({0}, {1})


def test_forest_split_star():
    d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
    first, second = forest_to_two_galaxies(d, {0, 1, 2})
    assert first == {0, 1, 2} and second == frozenset()


def test_forest_split_spider():
    # a->b->c plus b->d: depth parity splits ab from {bc, bd}
    d = Digraph(4, ((0, 1), (1, 2), (1, 3)))
    assert forest_to_two_galaxies(d, {0, 1, 2}) == ({0}, {1, 2})


def test_forest_split_rejects_circuit():
    with pytest.raises(NotForestError):
        forest_to_two_galaxies(circuit(3), {0, 1, 2})


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
    with pytest.raises(ValidateError):
        dst_upper_2k1(Digraph(2, ((0, 1), (0, 1)), allow_parallel=True))


def test_2k1_accepts_parallel_flag_without_duplicates():
    d = Digraph(3, ((0, 1), (1, 2)), allow_parallel=True)
    assert verify_star_colouring(d, dst_upper_2k1(d)) is None


@given(st.integers(2, 20), st.integers(0, 999))
def test_2k1_bound_random(n, seed):
    d = random_digraph(n, min(3, n - 1), min(3, n - 1), seed)
    col = dst_upper_2k1(d)
    k = degree_profile(d).max_indegree
    assert col.colour_count <= 2 * k + 1
    assert verify_star_colouring(d, col) is None


def test_frank_circuit_k1():
    ok, witness = frank_condition_check(circuit(3), 1)
    assert not ok
    assert witness == frozenset({0, 1, 2})  # 3 arcs > 1 * 2


def test_frank_circuit_k2():
    assert frank_condition_check(circuit(3), 2) == (True, None)


def test_frank_forest():
    d = Digraph(4, ((0, 1), (1, 2), (1, 3)))
    assert frank_condition_check(d, 1) == (True, None)


def test_frank_vertex_limit():
    with pytest.raises(TooLargeError):
        frank_condition_check(Digraph(21, ()), 1)


@given(st.integers(2, 10), st.integers(0, 499))
def test_frank_holds_at_k_plus_one(n, seed):
    d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed)
    k = degree_profile(d).max_indegree
    assert frank_condition_check(d, k + 1) == (True, None)
