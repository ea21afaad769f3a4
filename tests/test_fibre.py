"""n-fibre colourings and wavelength assignments."""
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    ArcColouring,
    BadParamsError,
    CyclicError,
    FibreColouring,
    FibreViolation,
    InvalidColouringError,
    LabelledDigraph,
    WavelengthAssignment,
    ValidateError,
    WavelengthViolation,
    degree_profile,
    digraph,
    exact_lambda_n,
    expand_to_wavelength_assignment,
    fibre,
    fibre_colouring_acyclic,
    fibre_colouring_smallm,
    random_labelled_dag,
    upper_bound_acyclic,
    verify_fibre_colouring,
    verify_wavelength_assignment,
)


def check_pipeline(ld, fc):
    assert verify_fibre_colouring(ld, fc) is None
    wa = expand_to_wavelength_assignment(ld, fc)
    assert verify_wavelength_assignment(ld, wa) is None
    return wa


def test_upper_bound_formula():
    assert upper_bound_acyclic(2, 2, 2) == 2
    assert upper_bound_acyclic(1, 1, 3) == 6  # collapses to 2k
    assert upper_bound_acyclic(2, 3, 5) == 7  # ceil((3*3 + 5) / 2)
    assert upper_bound_acyclic(3, 3, 1) == 2
    assert upper_bound_acyclic(2, 2, 0) == 0


def test_acyclic_two_label_in_star():
    ld = LabelledDigraph(3, 2, ((0, 2, 1), (1, 2, 2)))
    fc = fibre_colouring_acyclic(ld, 2)
    assert fc.colour_count <= 2
    check_pipeline(ld, fc)


def test_acyclic_arcless():
    fc = fibre_colouring_acyclic(LabelledDigraph(3, 1, ()), 1)
    assert fc.colour_count == 0
    assert verify_fibre_colouring(LabelledDigraph(3, 1, ()), fc) is None


def test_acyclic_single_fibre_single_label():
    # n = m = 1 behaves like a directed star colouring with 2k colours
    ld = random_labelled_dag(10, 1, 2, 3)
    k = degree_profile(ld).max_indegree
    fc = fibre_colouring_acyclic(ld, 1)
    assert fc.colour_count <= 2 * k
    check_pipeline(ld, fc)


def test_acyclic_rejects_small_m():
    with pytest.raises(BadParamsError):
        fibre_colouring_acyclic(LabelledDigraph(2, 1, ((0, 1, 1),)), 2)


def test_fibre_count_must_be_positive():
    with pytest.raises(ValidateError, match="^fibre count must be positive$"):
        FibreColouring(0, {}, 0)
    with pytest.raises(BadParamsError, match="^fibre count must be positive$"):
        fibre_colouring_acyclic(LabelledDigraph(2, 1, ((0, 1, 1),)), 0)
    for n in (0, -1):
        with pytest.raises(BadParamsError, match="^fibre count must be positive$"):
            fibre_colouring_smallm(LabelledDigraph(2, 1, ((0, 1, 1),)), n)


def test_acyclic_rejects_circuit():
    ld = LabelledDigraph(2, 1, ((0, 1, 1), (1, 0, 1)))
    with pytest.raises(CyclicError):
        fibre_colouring_acyclic(ld, 1)


def test_smallm_in_star():
    ld = LabelledDigraph(4, 1, ((0, 3, 1), (1, 3, 1), (2, 3, 1)))
    fc = fibre_colouring_smallm(ld, 2)
    assert fc.colour_count <= 3  # ceil(3 / (2 - 1))
    check_pipeline(ld, fc)


def test_smallm_circuit_single_colour():
    ld = LabelledDigraph(4, 1, tuple((i, (i + 1) % 4, 1) for i in range(4)))
    fc = fibre_colouring_smallm(ld, 3)
    assert fc.colour_count == 1
    check_pipeline(ld, fc)


def test_smallm_two_labels():
    arcs = ((0, 1, 1), (1, 0, 1), (0, 1, 2), (1, 0, 2))
    ld = LabelledDigraph(3, 2, arcs)
    fc = fibre_colouring_smallm(ld, 3)
    assert fc.colour_count <= 2  # ceil(k / (n - m)) with k = 2
    check_pipeline(ld, fc)


def test_smallm_rejects_large_m():
    ld = LabelledDigraph(2, 2, ((0, 1, 1),))
    with pytest.raises(BadParamsError) as info:
        fibre_colouring_smallm(ld, 2)
    assert "m" in str(info.value)


def test_expand_single_arc():
    ld = LabelledDigraph(2, 1, ((0, 1, 1),))
    wa = expand_to_wavelength_assignment(ld, FibreColouring(1, {0: 1}, 1))
    assert wa[0] == (1, 1, 1)


def test_expand_same_colour_in_arcs_get_distinct_fibres():
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    fc = FibreColouring(2, {0: 1, 1: 1}, 1)
    wa = check_pipeline(ld, fc)
    assert {wa[0][2], wa[1][2]} == {1, 2}


def test_expand_through_vertex():
    # one in-arc and one out-arc of the middle vertex share a colour
    ld = LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1)))
    fc = FibreColouring(2, {0: 1, 1: 1}, 1)
    wa = check_pipeline(ld, fc)
    assert (wa[0][0], wa[0][2]) != (wa[1][0], wa[1][1])


def test_expand_pins_fibre_numbers():
    # three fibres, two labels, two colours over five vertices: in-fibres
    # count up per (head, colour) in arc order, then each (colour, label)
    # group leaving a vertex takes the next fibre after that vertex's
    # in-fibres of the colour, shared by the group's arcs
    arcs = ((0, 2, 1), (1, 2, 2), (0, 3, 1), (2, 3, 1), (2, 4, 2),
            (2, 4, 1), (3, 4, 1), (0, 2, 2), (2, 3, 2), (1, 4, 1))
    ld = LabelledDigraph(5, 2, arcs)
    colours = {0: 1, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 1, 9: 1}
    wa = check_pipeline(ld, FibreColouring(3, colours, 2))
    assert dict(wa.triple) == {
        0: (1, 1, 1), 1: (2, 1, 1), 2: (2, 1, 1), 3: (1, 2, 1), 4: (1, 3, 1),
        5: (1, 2, 2), 6: (2, 2, 1), 7: (2, 2, 2), 8: (1, 3, 2), 9: (1, 1, 3)}


def test_expand_rejects_invalid_colouring():
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    with pytest.raises(InvalidColouringError):
        expand_to_wavelength_assignment(ld, FibreColouring(1, {0: 1, 1: 1}, 1))


@pytest.mark.parametrize("arcs, n, message", [
    (((0, 2, 1), (1, 2, 1)), 1,
     "fibre colouring invalid at vertex 2, colour 1: 2+0 > 1"),
    (((0, 1, 1), (3, 1, 1), (1, 2, 1)), 2,
     "fibre colouring invalid at vertex 1, colour 1: 2+1 > 2"),
])
def test_expand_names_the_overload_it_rejects(arcs, n, message):
    ld = LabelledDigraph(4, 1, arcs)
    fc = FibreColouring(n, dict.fromkeys(range(len(arcs)), 1), 1)
    with pytest.raises(InvalidColouringError) as info:
        expand_to_wavelength_assignment(ld, fc)
    assert str(info.value) == message


def test_value_types_compare_by_content_and_do_not_hash():
    assert ArcColouring({0: 1, 1: 2}, 2) == ArcColouring({1: 2, 0: 1}, 2)
    assert ArcColouring({0: 1}, 1) != ArcColouring({0: 1}, 2)
    assert ArcColouring({0: 1}, 2) != ArcColouring({0: 2}, 2)
    assert FibreColouring(2, {0: 1, 1: 1}, 1) == FibreColouring(2, {1: 1, 0: 1}, 1)
    assert FibreColouring(1, {0: 1}, 1) != FibreColouring(2, {0: 1}, 1)
    assert FibreColouring(1, {0: 1}, 2) != FibreColouring(1, {0: 1}, 1)
    assert ArcColouring({0: 1}, 1) != FibreColouring(1, {0: 1}, 1)
    for value in (ArcColouring({0: 1}, 1), FibreColouring(1, {0: 1}, 1)):
        with pytest.raises(TypeError):
            hash(value)


# Colourings recorded with first-fit placement of the entering arcs;
# arc i's colour is digit i.
@pytest.mark.parametrize("vertices, m, k, seed, n, colour_count, colours", [
    (40, 2, 3, 1, 2, 4, "111223313211212112121211121211311311121222321123121"
                        "112211132112111322312221112"),
    (30, 3, 4, 2, 2, 5, "31122113113523522131212223241212212122131215"),
    (25, 2, 2, 3, 1, 6, "1134214233111122313325"),
], ids=["40-2-3-1-2", "30-3-4-2-2", "25-2-2-3-1"])
def test_acyclic_colouring_pinned(vertices, m, k, seed, n, colour_count, colours):
    ld = random_labelled_dag(vertices, m, k, seed)
    fc = fibre_colouring_acyclic(ld, n)
    assert fc.colour_count == colour_count
    assert "".join(str(fc[arc]) for arc in range(ld.arc_count)) == colours


def counted_placements(monkeypatch, maxsize=digraph._MEMO_CAP):
    """The inputs of every placement from here on, on both paths: `_place`
    counts them, and the memo is a new `lru_cache` of `maxsize` entries
    around the counting `_place`."""
    inputs = []
    real = fibre._place

    def counting(n, m, k, draws):
        inputs.append((n, m, k, draws))
        return real(n, m, k, draws)

    monkeypatch.setattr(fibre, "_place", counting)
    monkeypatch.setattr(fibre, "_assign", functools.lru_cache(maxsize=maxsize)(counting))
    return inputs


def test_acyclic_assigns_each_entering_pattern_once(monkeypatch):
    # 146 vertices have entering arcs, but only 57 distinct placement
    # inputs arise; each is solved once, and an empty memo makes the
    # count this call's own
    inputs = counted_placements(monkeypatch)
    ld = random_labelled_dag(200, 2, 3, 5)
    fc = fibre_colouring_acyclic(ld, 2)
    assert check_pipeline(ld, fc)
    assert len(inputs) == len(set(inputs)) == 57
    assert sum(map(bool, degree_profile(ld).indegree)) == 146


def test_acyclic_second_call_solves_no_assignment(monkeypatch):
    # the first call leaves every pattern of the instance in the memo
    inputs = counted_placements(monkeypatch)
    ld = random_labelled_dag(400, 3, 4, 6)
    first = fibre_colouring_acyclic(ld, 2)
    assert inputs
    inputs.clear()
    assert fibre_colouring_acyclic(ld, 2) == first
    assert inputs == []


def runs_on_empty_memo(monkeypatch, cases, maxsize=digraph._MEMO_CAP):
    """Each (instance, n)'s colouring and its number of placement calls,
    each call made on an empty memo of `maxsize` entries, as a new
    process makes it."""
    inputs = counted_placements(monkeypatch, maxsize)
    runs = []
    for ld, n in cases:
        fibre._assign.cache_clear()
        inputs.clear()
        runs.append((fibre_colouring_acyclic(ld, n), len(inputs)))
    return runs


@given(st.data())
def test_first_fit_places_every_counted_family(data):
    # the counting argument: at most k arcs, each drawing from ceil(k/n)
    # distinct colours of 1..L, fit at most n to a colour by first fit
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 6))
    k = data.draw(st.integers(1, 12))
    big_k, total = math.ceil(k / n), upper_bound_acyclic(n, m, k)
    one_set = st.lists(st.integers(1, total), min_size=big_k, max_size=big_k,
                       unique=True).map(tuple)
    draws = tuple(data.draw(st.lists(one_set, min_size=1, max_size=k)))
    colours, sets_v = fibre._place(n, m, k, draws)
    assert all(c in sets for c, sets in zip(colours, draws, strict=True))
    assert max(Counter(colours).values()) <= n
    assert len(sets_v) == m
    assert all(len(set(sets)) == len(sets) == big_k for sets in sets_v)


def test_acyclic_memo_never_grows_past_its_cap(monkeypatch):
    # the same instance under two fibre counts has two sets of patterns
    cases = [(random_labelled_dag(300, m, k, seed), n)
             for m, k, seed, n in ((2, 3, 1, 2), (2, 3, 1, 1), (3, 4, 2, 2),
                                   (1, 2, 3, 1), (2, 3, 1, 2))]
    fresh = runs_on_empty_memo(monkeypatch, cases)
    assert all(calls for _, calls in fresh)
    monkeypatch.setattr(fibre, "_assign", functools.lru_cache(maxsize=5)(fibre._place))
    for (ld, n), (output, _) in zip(cases, fresh):
        assert fibre_colouring_acyclic(ld, n) == output
        assert fibre._assign.cache_info().currsize == 5
    # with no room at all, each call still solves each of its own
    # patterns once, as on an empty memo
    assert runs_on_empty_memo(monkeypatch, cases, maxsize=0) == fresh


@pytest.mark.parametrize("m, k", [(5, 3), (2, 5)])
def test_acyclic_memo_keeps_no_pattern_past_four(monkeypatch, m, k):
    ld = random_labelled_dag(300, m, k, 3)
    assert degree_profile(ld).max_indegree == k
    fibre._assign.cache_clear()
    output = fibre_colouring_acyclic(ld, 2)
    assert fibre._assign.cache_info().currsize == 0
    monkeypatch.setattr(fibre, "_MEMO_MAX_M", 5)
    monkeypatch.setattr(fibre, "_MEMO_MAX_K", 5)
    assert fibre_colouring_acyclic(ld, 2) == output
    assert fibre._assign.cache_info().currsize > 0


def fresh_draws(seed):
    """Endless placement inputs for n = 1 and m = k = 4, each four 4-sets
    of 20 colours built from fresh tuples."""
    rng = random.Random(seed)
    while True:
        yield tuple(tuple(sorted(rng.sample(range(1, 21), 4))) for _ in range(4))


def test_full_acyclic_memo_stays_near_two_megabytes():
    # the widest entries, n = 1 and m = k = 4, fill the memo; the fill
    # stops after 4 * cap draws, so a memo that does not grow fails here
    cap = digraph._MEMO_CAP
    fibre._assign.cache_clear()
    tracemalloc.start()
    try:
        for draws in itertools.islice(fresh_draws(4), 4 * cap):
            fibre._assign(1, 4, 4, draws)
            if fibre._assign.cache_info().currsize == cap:
                break
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fibre._assign.cache_info().currsize == cap
    assert held < 3 << 20  # about 2.1 MB on CPython 3.11
    # the same draws again find their entries
    for draws in itertools.islice(fresh_draws(4), cap // 2):
        fibre._assign(1, 4, 4, draws)
    assert fibre._assign.cache_info().misses == cap


def test_verify_fibre_reports_first_violation():
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    fc = FibreColouring(1, {0: 1, 1: 1}, 1)
    assert verify_fibre_colouring(ld, fc) == FibreViolation(2, 1, 2, 0)


def test_verify_fibre_first_violation_by_vertex_then_colour():
    # (3, 1) and (3, 2) are overloaded through lower-numbered arcs, but
    # (1, 3) comes first in (vertex, colour) order
    ld = LabelledDigraph(4, 2, ((0, 3, 1), (1, 3, 1), (3, 2, 1), (3, 1, 2),
                                (0, 1, 1), (2, 1, 1)))
    fc = FibreColouring(1, {0: 2, 1: 2, 2: 1, 3: 1, 4: 3, 5: 3}, 3)
    assert verify_fibre_colouring(ld, fc) == FibreViolation(1, 3, 2, 0)


def test_verify_fibre_witness_of_out_load_alone():
    # vertex 0 sends two labels in colour 1 on one fibre; nothing enters it
    ld = LabelledDigraph(3, 2, ((0, 1, 1), (0, 2, 2)))
    fc = FibreColouring(1, {0: 1, 1: 1}, 1)
    assert verify_fibre_colouring(ld, fc) == FibreViolation(0, 1, 0, 2)


@pytest.mark.parametrize("check, output, message", [
    (verify_fibre_colouring, FibreColouring(1, {0: 1}, 1), "arc 1 is unassigned"),
    (expand_to_wavelength_assignment, FibreColouring(1, {1: 1}, 1),
     "arc 0 is unassigned"),
    (verify_wavelength_assignment, WavelengthAssignment(1, {2: (1, 1, 1)}),
     "arc 0 is unassigned"),
])
def test_partial_output_names_first_missing_arc(check, output, message):
    ld = LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    with pytest.raises(ValidateError) as info:
        check(ld, output)
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: FibreColouring(1, {0: 1, 1: 3}, 2), "arc 1 has colour 3 outside 1..2"),
    (lambda: FibreColouring(1, {0: 0}, 1), "arc 0 has colour 0 outside 1..1"),
    (lambda: WavelengthAssignment(2, {0: (0, 1, 1)}),
     "arc 0 wavelength must be positive"),
    (lambda: WavelengthAssignment(2, {0: (1, 1, 1), 1: (1, 3, 1)}),
     "arc 1 fibre outside 1..2"),
])
def test_value_types_name_first_bad_arc(make, message):
    with pytest.raises(ValidateError) as info:
        make()
    assert str(info.value) == message


def test_verify_wavelength_condition_i_reports_sorted_pair():
    # at vertex 1 the leaving arc 0 and the entering arc 1 share
    # (wavelength 1, fibre 1); the record lists the lower arc first
    ld = LabelledDigraph(3, 1, ((1, 2, 1), (0, 1, 1)))
    wa = WavelengthAssignment(1, {0: (1, 1, 1), 1: (1, 1, 1)})
    assert verify_wavelength_assignment(ld, wa) == WavelengthViolation("i", 0, 1)


def test_verify_wavelength_condition_ii():
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    wa = WavelengthAssignment(2, {0: (1, 1, 1), 1: (1, 1, 1)})
    violation = verify_wavelength_assignment(ld, wa)
    assert violation is not None and violation.condition == "ii"


def test_verify_wavelength_condition_iii():
    # same tail, same (wavelength, out-fibre), different labels
    ld = LabelledDigraph(3, 2, ((0, 1, 1), (0, 2, 2)))
    wa = WavelengthAssignment(2, {0: (1, 1, 1), 1: (1, 1, 2)})
    violation = verify_wavelength_assignment(ld, wa)
    assert violation is not None and violation.condition == "iii"


def test_verify_wavelength_condition_i():
    ld = LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1)))
    wa = WavelengthAssignment(1, {0: (1, 1, 1), 1: (1, 1, 1)})
    violation = verify_wavelength_assignment(ld, wa)
    assert violation is not None and violation.condition == "i"


def test_verify_wavelength_reports_first_violation_in_arc_order():
    # at vertex 0 the leaving arcs 0 and 1 clash (iii) before the
    # entering arcs 2 and 3 clash (ii)
    ld = LabelledDigraph(4, 2, ((0, 1, 1), (0, 2, 2), (3, 0, 1), (1, 0, 1)))
    wa = WavelengthAssignment(2, {arc: (1, 1, 1) for arc in range(4)})
    assert verify_wavelength_assignment(ld, wa) == WavelengthViolation("iii", 0, 1)


def test_same_label_out_arcs_may_share_a_fibre():
    ld = LabelledDigraph(3, 1, ((0, 1, 1), (0, 2, 1)))
    wa = WavelengthAssignment(1, {0: (1, 1, 1), 1: (1, 1, 1)})
    assert verify_wavelength_assignment(ld, wa) is None


@given(st.integers(1, 14), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 499), st.data())
def test_acyclic_bound_random(n_vertices, m, k, seed, data):
    n = data.draw(st.integers(1, m))
    ld = random_labelled_dag(n_vertices, m, k, seed)
    fc = fibre_colouring_acyclic(ld, n)
    k_actual = degree_profile(ld).max_indegree
    assert fc.colour_count <= upper_bound_acyclic(n, m, k_actual)
    check_pipeline(ld, fc)


@given(st.integers(1, 14), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 499), st.data())
def test_smallm_bound_random(n_vertices, m, k, seed, data):
    n = data.draw(st.integers(m + 1, 4))
    ld = random_labelled_dag(n_vertices, m, k, seed)
    fc = fibre_colouring_smallm(ld, n)
    k_actual = degree_profile(ld).max_indegree
    if k_actual:
        assert fc.colour_count <= math.ceil(k_actual / (n - m))
    check_pipeline(ld, fc)


def test_exact_lambda_matches_construction_bound():
    ld = random_labelled_dag(6, 2, 3, 11)
    k = degree_profile(ld).max_indegree
    value, witness = exact_lambda_n(ld, 2)
    assert value <= upper_bound_acyclic(2, 2, k)
    assert verify_fibre_colouring(ld, witness) is None


def test_expand_runs_no_verifier(monkeypatch):
    ld = random_labelled_dag(60, 2, 3, 7)
    fc = fibre_colouring_acyclic(ld, 2)
    expected = expand_to_wavelength_assignment(ld, fc)

    def refuse(*args):
        raise AssertionError("expansion called a verifier")

    for name in ("verify_fibre_colouring", "verify_wavelength_assignment"):
        monkeypatch.setattr(fibre, name, refuse)
    assert expand_to_wavelength_assignment(ld, fc) == expected
