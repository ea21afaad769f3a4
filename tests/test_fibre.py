"""n-fibre colourings and wavelength assignments."""
import math

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadParamsError,
    CyclicError,
    FibreColouring,
    FibreViolation,
    InvalidColouringError,
    LabelledDigraph,
    WavelengthAssignment,
    WavelengthViolation,
    degree_profile,
    exact_lambda_n,
    expand_to_wavelength_assignment,
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


def test_verify_fibre_reports_first_violation():
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    fc = FibreColouring(1, {0: 1, 1: 1}, 1)
    assert verify_fibre_colouring(ld, fc) == FibreViolation(2, 1, 2, 0)


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
