"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they are produced.  Every criterion is also an ordinary test, so the
plain suite fails loudly if any of them regresses.
"""
import functools
import itertools
import math
import random
import time

import pytest

from galaxia import (
    CUBIC_GRAPHS,
    CyclicInterval,
    Digraph,
    InfeasibleError,
    LabelledDigraph,
    acircuitic_colouring,
    degree_profile,
    dst_upper_2k1,
    dst4_colouring,
    edge_colouring_3regular,
    exact_dst,
    exact_lambda_n,
    expand_to_wavelength_assignment,
    extremal_gnmk,
    fibre_colouring_acyclic,
    fibre_colouring_smallm,
    find_bicoloured_circuit,
    lemma_cycle_colouring,
    np_gadget,
    np_reduction,
    random_digraph,
    random_labelled_dag,
    random_oriented_subcubic,
    random_subcubic,
    sdr_in_cyclic_interval,
    star_colouring_acyclic,
    star_colouring_subcubic,
    triangle_multidigraph,
    upper_bound_acyclic,
    verify_fibre_colouring,
    verify_star_colouring,
    verify_wavelength_assignment,
)
from galaxia.spanning import _galaxy_arcs
from conftest import circuit, is_galaxy

TWO_LISTS = ((1, 2), (1, 3), (2, 3))


def criterion(number, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {text}")
                raise
            print(f"PASS criterion {number}: {text}")
        return run
    return wrap


@criterion(1, "2k+1 colouring verified on 500 random digraphs, <1s each")
def test_criterion_1():
    rng = random.Random(1001)
    for trial in range(500):
        n = rng.randint(2, 200)
        d = random_digraph(n, min(rng.randint(1, 5), n - 1),
                           min(rng.randint(1, 5), n - 1), seed=trial)
        start = time.perf_counter()
        col = dst_upper_2k1(d)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"instance {trial} took {elapsed:.2f}s"
        k = degree_profile(d).max_indegree
        assert col.colour_count <= 2 * k + 1
        assert verify_star_colouring(d, col) is None


@criterion(2, "acyclic 2k colouring with interval locality; small exact <= 2k; "
              "extremal instance needs exactly 2")
def test_criterion_2():
    rng = random.Random(1002)
    for trial in range(500):
        n = rng.randint(1, 200)
        ld = random_labelled_dag(n, 1, rng.randint(1, 5), seed=trial)
        d = ld.underlying
        colouring, intervals = star_colouring_acyclic(d)
        assert verify_star_colouring(d, colouring) is None
        k = degree_profile(d).max_indegree
        if k == 0:
            continue
        assert all(1 <= c <= 2 * k for c in colouring.colour)
        for v in range(d.vertex_count):
            entering = d.in_arcs[v]
            if entering:
                iv = intervals[v]
                assert iv.length == k and iv.modulus == 2 * k
                assert {colouring[i] for i in entering} <= set(iv.members_tuple())
        if d.vertex_count <= 9:
            assert exact_dst(d)[0] <= 2 * k
    brandt = extremal_gnmk(1, 1, 1).underlying
    assert exact_dst(brandt)[0] == 2


@criterion(3, "SDR in a cyclic interval: exhaustive k<=3, random k in 4..6, <10s")
def test_criterion_3():
    start = time.perf_counter()

    def check(intervals, k):
        j, reps = sdr_in_cyclic_interval(intervals)
        assert len(set(reps)) == k
        assert all(reps[i] in intervals[i] for i in range(k))
        assert set(reps) == set(j.members_tuple()) and j.length == k

    for k in (1, 2, 3):
        for starts in itertools.product(range(1, 2 * k + 1), repeat=k):
            check([CyclicInterval(2 * k, s, k) for s in starts], k)
    rng = random.Random(1003)
    for k in (4, 5, 6):
        for _ in range(2000):
            starts = [rng.randint(1, 2 * k) for _ in range(k)]
            check([CyclicInterval(2 * k, s, k) for s in starts], k)
    assert time.perf_counter() - start < 10.0


@criterion(4, "subcubic 3-colouring on 500 large and 10^4 small instances; "
              "odd circuits take exactly 3")
def test_criterion_4():
    rng = random.Random(1004)
    for trial in range(500):
        d = random_subcubic(rng.randint(1, 200), seed=trial)
        col = star_colouring_subcubic(d)
        assert col.colour_count <= 3
        assert verify_star_colouring(d, col) is None
    for trial in range(10_000):
        d = random_subcubic(1 + trial % 9, seed=20_000 + trial)
        col = star_colouring_subcubic(d)
        assert col.colour_count <= 3
        assert verify_star_colouring(d, col) is None
        assert exact_dst(d)[0] <= 3
    for length in (3, 5, 7, 9):
        assert exact_dst(circuit(length))[0] == 3
        assert star_colouring_subcubic(circuit(length)).colour_count == 3


def spanning_exists_exhaustive(d):
    """Ground truth: some galaxy covers all degree-4 vertices.

    Tries one incident arc per heavy vertex; any spanning galaxy
    restricts to such a choice, so the search is complete.
    """
    profile = degree_profile(d)
    heavy = [v for v in range(d.vertex_count) if profile.degree[v] == 4]
    incident = {v: [a for a in d.arcs if v in a] for v in heavy}

    def galaxy_ok(chosen):
        heads = [h for _, h in chosen]
        tails = {t for t, _ in chosen}
        return len(heads) == len(set(heads)) and not set(heads) & tails

    def place(i, chosen):
        if i == len(heavy):
            return True
        v = heavy[i]
        if any(v in arc for arc in chosen):
            return place(i + 1, chosen)
        for arc in incident[v]:
            trial = chosen | {arc}
            if galaxy_ok(trial) and place(i + 1, trial):
                return True
        return False

    return place(0, set())


@criterion(5, "spanning galaxy covers degree-4 vertices, residual subcubic, "
              "4 colours; exhaustive existence agrees on small instances")
def test_criterion_5():
    rng = random.Random(1005)
    small = 0
    for trial in range(500):
        n = rng.randint(2, 100)
        d = random_digraph(n, min(2, n - 1), min(2, n - 1), seed=trial)
        g = set(_galaxy_arcs(d))
        assert is_galaxy(d, g)
        profile = degree_profile(d)
        heavy = [v for v in range(n) if profile.degree[v] == 4]
        assert all(any(v in d.arcs[i] for i in g) for v in heavy)
        rest = tuple(d.arcs[i] for i in range(d.arc_count) if i not in g)
        assert degree_profile(Digraph(n, rest)).max_degree <= 3
        col = dst4_colouring(d)
        assert col.colour_count <= 4
        assert verify_star_colouring(d, col) is None
        if n <= 8:
            small += 1
            assert spanning_exists_exhaustive(d)
    assert small > 0  # the size distribution must actually hit the small range


def cycle_feasible_reference(length, lists):
    """Ground truth by enumerating vertex colourings, then a reachability
    sweep over arc colours around the circuit."""
    for verts in itertools.product(*(lists[v] for v in range(length))):
        allowed = [{1, 2, 3} - {verts[i], verts[(i + 1) % length]}
                   for i in range(length)]
        for first in allowed[0]:
            reach = {first}
            for i in range(1, length):
                reach = {c for c in allowed[i] if reach - {c}}
            if reach - {first}:
                return True
    return False


@criterion(6, "cycle lemma infeasible exactly on odd circuits with uniform "
              "lists, every pattern cross-checked")
def test_criterion_6():
    for length in range(3, 9):
        d = circuit(length)
        for choice in itertools.product(range(3), repeat=length):
            lists = {v: TWO_LISTS[choice[v]] for v in range(length)}
            expect = not (length % 2 == 1 and len(set(choice)) == 1)
            assert cycle_feasible_reference(length, lists) == expect, (
                length, choice)
            if expect:
                arc_cols, vert_cols = lemma_cycle_colouring(d, lists)
                for v in range(length):
                    assert vert_cols[v] in lists[v]
                for i, (t, h) in enumerate(d.arcs):
                    nxt = next(j for j, (a, _) in enumerate(d.arcs) if a == h)
                    assert arc_cols[i] not in (vert_cols[t], vert_cols[h])
                    assert arc_cols[i] != arc_cols[nxt]
            else:
                with pytest.raises(InfeasibleError):
                    lemma_cycle_colouring(d, lists)


@criterion(7, "fibre bounds: acyclic formula, small-m formula (cyclic too), "
              "expansion conditions, exact never above the bound")
def test_criterion_7():
    rng = random.Random(1007)
    seed = 0
    for n in (1, 2, 3):
        for m in range(n, 4):
            for k in range(1, 7):
                for _ in range(200):
                    seed += 1
                    ld = random_labelled_dag(rng.randint(1, 12), m, k, seed)
                    fc = fibre_colouring_acyclic(ld, n)
                    k_actual = degree_profile(ld).max_indegree
                    assert fc.colour_count <= upper_bound_acyclic(n, m, k_actual)
                    assert verify_fibre_colouring(ld, fc) is None
                    wa = expand_to_wavelength_assignment(ld, fc)
                    assert verify_wavelength_assignment(ld, wa) is None
    for m in (1, 2, 3):
        for n in range(m + 1, 5):
            for trial in range(50):
                nv = rng.randint(2, 15)
                base = random_digraph(nv, min(3, nv - 1), min(3, nv - 1),
                                      seed=trial)
                arcs = tuple((t, h, rng.randint(1, m)) for t, h in base.arcs)
                ld = LabelledDigraph(nv, m, arcs)
                fc = fibre_colouring_smallm(ld, n)
                k_actual = degree_profile(ld).max_indegree
                if k_actual:
                    assert fc.colour_count <= math.ceil(k_actual / (n - m))
                assert verify_fibre_colouring(ld, fc) is None
                wa = expand_to_wavelength_assignment(ld, fc)
                assert verify_wavelength_assignment(ld, wa) is None
    for trial in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, m)
        ld = random_labelled_dag(rng.randint(1, 8), m, rng.randint(1, 3),
                                 seed=5000 + trial)
        k_actual = degree_profile(ld).max_indegree
        value, witness = exact_lambda_n(ld, n)
        assert value <= upper_bound_acyclic(n, m, k_actual)
        assert verify_fibre_colouring(ld, witness) is None


@criterion(8, "hardness reduction: dst 3 iff 3-edge-colourable on the five "
              "named cubic graphs; gadget certificate re-verified; <5min")
def test_criterion_8():
    start = time.perf_counter()
    gadget = np_gadget()
    assert gadget.certificate.colourings == 6
    assert gadget.certificate.p1_ok
    assert gadget.certificate.p2_triples == 6
    for name in ("k4", "k33", "prism", "moebius-kantor", "petersen"):
        vertex_count, edges = CUBIC_GRAPHS[name]
        d = np_reduction(vertex_count, edges)
        colourable = edge_colouring_3regular(vertex_count, edges) is not None
        value, witness = exact_dst(d, arc_limit=60)
        assert verify_star_colouring(d, witness) is None
        assert (value == 3) == colourable, name
        assert value == (4 if name == "petersen" else 3)
    assert time.perf_counter() - start < 300.0


@criterion(9, "acircuitic 4-colouring: star-valid, colour 4 a matching, "
              "no bicoloured circuit, on 500 oriented subcubic instances")
def test_criterion_9():
    rng = random.Random(1009)
    for trial in range(500):
        d = random_oriented_subcubic(rng.randint(1, 200), seed=trial)
        col = acircuitic_colouring(d)
        assert col.colour_count <= 4
        assert verify_star_colouring(d, col) is None
        ends = set()
        for i, c in enumerate(col.colour):
            if c == 4:
                t, h = d.arcs[i]
                assert t not in ends and h not in ends
                ends.update((t, h))
        assert find_bicoloured_circuit(d, col) is None


@criterion(10, "triangle multidigraph needs 3 colours per arc multiplicity")
def test_criterion_10():
    assert exact_dst(triangle_multidigraph(1))[0] == 3
    assert exact_dst(triangle_multidigraph(2))[0] == 6
