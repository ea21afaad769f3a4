"""2k-colouring of acyclic digraphs with in-colour locality."""
import functools
import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import galaxia.acyclic
import galaxia.digraph
from galaxia import (
    CyclicError,
    CyclicInterval,
    Digraph,
    degree_profile,
    exact_dst,
    extremal_gnmk,
    random_labelled_dag,
    sdr_in_cyclic_interval,
    star_colouring_acyclic,
    verify_star_colouring,
)
from conftest import circuit


def check_locality(d, colouring, intervals, k):
    assert all(1 <= c <= 2 * k for c in colouring.colour)
    for v in range(d.vertex_count):
        entering = d.in_arcs[v]
        if not entering:
            continue
        members = set(intervals[v].members_tuple())
        assert intervals[v].length == k and intervals[v].modulus == 2 * k
        assert {colouring[i] for i in entering} <= members


def test_single_arc():
    d = Digraph(2, ((0, 1),))
    colouring, intervals = star_colouring_acyclic(d)
    assert verify_star_colouring(d, colouring) is None
    assert colouring.colour_count == 2
    assert len(set(colouring.colour)) == 1
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


def test_pinned_colouring_and_certificates():
    # recorded with the greedy sweep's representatives; here 12 vertices
    # with entering arcs have only 10 distinct patterns
    d = Digraph(14, (
        (4, 11), (11, 6), (4, 9), (6, 9), (6, 1), (1, 5), (4, 7), (9, 7),
        (5, 7), (4, 10), (9, 10), (7, 10), (4, 13), (4, 2), (11, 2),
        (6, 2), (1, 12), (7, 12), (13, 12), (1, 0), (6, 3), (5, 3),
        (12, 3)))
    colouring, intervals = star_colouring_acyclic(d)
    assert colouring.colour_count == 6
    assert colouring.colour == (
        4, 5, 5, 6, 6, 1, 4, 3, 5, 4, 3, 2, 4, 4, 5, 6, 3, 2, 1, 1, 6, 4, 5)
    assert {v: iv.start for v, iv in intervals.items()} == {
        0: 1, 1: 4, 2: 4, 3: 4, 4: 1, 5: 1, 6: 3, 7: 3, 8: 1, 9: 4, 10: 2,
        11: 2, 12: 1, 13: 2}
    check_locality(d, colouring, intervals, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_represents_the_opposite_intervals_and_certifies_by_least_start(k):
    # each tail's arc draws from the k-interval made of the colours
    # outside the tail's own, padded to k intervals with the last one,
    # and the certificate is the least start whose interval holds the
    # colours used
    intervals = [CyclicInterval(2 * k, s, k) for s in range(1, 2 * k + 1)]
    for count in range(1, k + 1):
        for starts in itertools.product(range(1, 2 * k + 1), repeat=count):
            opposite = [next(iv for iv in intervals if not set(iv.members_tuple())
                             & set(intervals[s - 1].members_tuple()))
                        for s in starts]
            opposite += opposite[-1:] * (k - count)
            reps, (start,) = galaxia.acyclic._solve(k, starts)
            assert reps == sdr_in_cyclic_interval(opposite)[1]
            used = set(reps[:count])
            assert intervals[start - 1] == next(
                iv for iv in intervals if used <= set(iv.members_tuple()))


def test_sdr_solved_once_per_entering_pattern(monkeypatch):
    # with k = 2 a pattern is 1 or 2 starts out of 4: at most 4 + 16;
    # an empty memo makes the count this call's own
    galaxia.acyclic._lemma.cache_clear()
    calls = []
    real = galaxia.acyclic.sdr_in_cyclic_interval

    def counting(intervals):
        calls.append(len(intervals))
        return real(intervals)

    monkeypatch.setattr(galaxia.acyclic, "sdr_in_cyclic_interval", counting)
    d = random_labelled_dag(3000, 1, 2, 11).underlying
    assert degree_profile(d).max_indegree == 2
    colouring, intervals = star_colouring_acyclic(d)
    assert verify_star_colouring(d, colouring) is None
    check_locality(d, colouring, intervals, 2)
    assert 0 < len(calls) <= 4 + 16


def test_second_call_solves_no_lemma_instance(monkeypatch):
    # the first call leaves every pattern of the instance in the memo
    d = random_labelled_dag(500, 1, 3, 4).underlying
    first = star_colouring_acyclic(d)

    def refuse(intervals):
        raise AssertionError("an entering pattern was solved twice")

    monkeypatch.setattr(galaxia.acyclic, "sdr_in_cyclic_interval", refuse)
    colouring, intervals = star_colouring_acyclic(d)
    assert colouring == first[0]
    assert intervals == first[1]


def runs_on_empty_memo(monkeypatch, dags):
    """Each dag's (colouring, certificates) and its number of SDR calls,
    each call made on an empty memo, as a new process makes it."""
    real = galaxia.acyclic.sdr_in_cyclic_interval
    calls = []

    def counting(intervals):
        calls.append(1)
        return real(intervals)

    monkeypatch.setattr(galaxia.acyclic, "sdr_in_cyclic_interval", counting)
    runs = []
    for d in dags:
        galaxia.acyclic._lemma.cache_clear()
        calls.clear()
        runs.append((star_colouring_acyclic(d), len(calls)))
    return runs


def test_memo_never_grows_past_its_cap(monkeypatch):
    dags = [random_labelled_dag(300, 1, k, seed).underlying
            for k, seed in ((2, 1), (3, 2), (3, 3), (4, 5), (3, 2))]
    fresh = runs_on_empty_memo(monkeypatch, dags)
    solve = galaxia.acyclic._solve
    monkeypatch.setattr(galaxia.acyclic, "_lemma", functools.lru_cache(maxsize=5)(solve))
    for d, (output, _) in zip(dags, fresh):
        assert star_colouring_acyclic(d) == output
        assert galaxia.acyclic._lemma.cache_info().currsize == 5
    # with no room at all, each call still solves each of its own
    # patterns once, as on an empty memo
    monkeypatch.setattr(galaxia.acyclic, "_lemma", functools.lru_cache(maxsize=0)(solve))
    assert runs_on_empty_memo(monkeypatch, dags) == fresh


def test_memo_keeps_no_pattern_past_k_4(monkeypatch):
    d = random_labelled_dag(300, 1, 5, 3).underlying
    assert degree_profile(d).max_indegree == 5
    galaxia.acyclic._lemma.cache_clear()
    output = star_colouring_acyclic(d)
    assert galaxia.acyclic._lemma.cache_info().currsize == 0
    monkeypatch.setattr(galaxia.acyclic, "_MEMO_MAX_K", 5)
    assert star_colouring_acyclic(d) == output
    assert galaxia.acyclic._lemma.cache_info().currsize > 0


def test_full_memo_stays_near_a_megabyte():
    # the widest entries, k = 4, fill the memo: its bytes stay bounded
    cap = galaxia.digraph._MEMO_CAP
    galaxia.acyclic._lemma.cache_clear()
    patterns = itertools.product(range(1, 9), repeat=4)
    tracemalloc.start()
    try:
        for starts in itertools.islice(patterns, cap):
            galaxia.acyclic._lemma(4, starts)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert galaxia.acyclic._lemma.cache_info().currsize == cap
    assert held < 3 << 19  # about 0.8 MB on CPython 3.11


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
