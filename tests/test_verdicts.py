"""Every verifier's verdict against a pairwise check from the definitions.

Outputs start valid (from a solver) and get up to three random edits, so
both verdicts turn up.  Each verifier must return None exactly when the
brute-force check below finds no clash; find_bicoloured_circuit, defined
on star colourings only, must refuse every other colouring.
"""
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from galaxia import (ArcColouring, Digraph, FibreColouring,
                     InvalidColouringError, LabelledDigraph, ValidateError,
                     WavelengthAssignment, exact_dst, exact_lambda_n,
                     expand_to_wavelength_assignment,
                     find_bicoloured_circuit, verify_fibre_colouring,
                     verify_star_colouring, verify_wavelength_assignment)


@st.composite
def labelled_digraphs(draw, max_labels=3):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, max_labels))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                  st.integers(1, m)),
                        max_size=9, unique=True))
    arcs = tuple(dict.fromkeys((t, (t + d) % n, l) for t, d, l in raw))
    return LabelledDigraph(n, m, arcs)


def edited(draw, values: dict, choices: st.SearchStrategy) -> dict:
    """Up to three entries replaced, each by a drawn value or by a copy
    of another entry's value."""
    values = dict(values)
    if values:
        keys = st.sampled_from(sorted(values))
        for _ in range(draw(st.integers(0, 3))):
            values[draw(keys)] = draw(st.one_of(choices, keys.map(values.get)))
    return values


def star_clash(d: Digraph, colour) -> bool:
    """Two arcs of one colour converge (same head) or are consecutive
    (one's head is the other's tail)."""
    for a, b in combinations(range(d.arc_count), 2):
        (ta, ha), (tb, hb) = d.arcs[a], d.arcs[b]
        if colour[a] == colour[b] and (ha == hb or ha == tb or hb == ta):
            return True
    return False


def bicoloured_circuit(d: Digraph, colour) -> bool:
    """Some pair of colours (possibly equal) has a closed walk, by the
    transitive closure of its arcs."""
    palette = sorted(set(colour.values()))
    for alpha, beta in product(palette, repeat=2):
        reach = {(t, h) for i, (t, h) in enumerate(d.arcs)
                 if colour[i] in (alpha, beta)}
        for w, u, v in product(range(d.vertex_count), repeat=3):
            if (u, w) in reach and (w, v) in reach:
                reach.add((u, v))
        if any((v, v) in reach for v in range(d.vertex_count)):
            return True
    return False


def fibre_overload(ld: LabelledDigraph, colour, n: int) -> bool:
    """in(v, w) plus the number of labels leaving v in colour w exceeds
    n somewhere."""
    for v, w in product(range(ld.vertex_count), set(colour.values())):
        entering = sum(1 for i, (_, h, _) in enumerate(ld.arcs)
                       if h == v and colour[i] == w)
        labels = {l for i, (t, _, l) in enumerate(ld.arcs)
                  if t == v and colour[i] == w}
        if entering + len(labels) > n:
            return True
    return False


def wavelength_clash(ld: LabelledDigraph, triple) -> bool:
    """Conditions (i)-(iii) over every ordered pair of arcs."""
    for a, b in product(range(ld.arc_count), repeat=2):
        if a == b:
            continue
        (ta, ha, la), (tb, hb, lb) = ld.arcs[a], ld.arcs[b]
        (wa, out_a, in_a), (wb, out_b, in_b) = triple[a], triple[b]
        if wa != wb:
            continue
        if ha == tb and in_a == out_b:
            return True  # (i) entering and leaving share a fibre
        if ha == hb and in_a == in_b:
            return True  # (ii) two entering arcs share a fibre
        if ta == tb and la != lb and out_a == out_b:
            return True  # (iii) two labels leaving share a fibre
    return False


@settings(max_examples=200)
@given(labelled_digraphs(max_labels=1), st.data())
def test_star_verdicts_match_pairwise_check(ld, data):
    d = ld.underlying
    _, witness = exact_dst(d)
    colour = edited(data.draw, witness.colour, st.integers(1, 4))
    colouring = ArcColouring(colour, max(colour.values(), default=0))
    assert ((verify_star_colouring(d, colouring) is None)
            == (not star_clash(d, colour)))
    if star_clash(d, colour):
        with pytest.raises(InvalidColouringError):
            find_bicoloured_circuit(d, colouring)
    else:
        assert ((find_bicoloured_circuit(d, colouring) is None)
                == (not bicoloured_circuit(d, colour)))


@settings(max_examples=200)
@given(labelled_digraphs(), st.integers(1, 3), st.data())
def test_fibre_verdicts_match_pairwise_check(ld, n, data):
    _, fc = exact_lambda_n(ld, n)
    colour = edited(data.draw, fc.colour, st.integers(1, 3))
    fc = FibreColouring(n, colour, max(colour.values(), default=0))
    valid = not fibre_overload(ld, colour, n)
    assert (verify_fibre_colouring(ld, fc) is None) == valid
    if valid:
        wa = expand_to_wavelength_assignment(ld, fc)
        triple = edited(data.draw, wa.triple,
                        st.tuples(st.integers(1, 3), st.integers(1, n),
                                  st.integers(1, n)))
        assert ((verify_wavelength_assignment(ld, WavelengthAssignment(n, triple))
                 is None) == (not wavelength_clash(ld, triple)))


@settings(max_examples=300)
@given(labelled_digraphs(), st.integers(1, 3), st.data())
def test_valid_assignment_has_a_valid_fibre_colouring(ld, n, data):
    """Fibres lie in 1..n, and (i)-(iii) make the in-fibres and the
    fibres of the distinct labels leaving a vertex in one wavelength
    pairwise distinct, so in + out <= n there."""
    triple = dict(enumerate(data.draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, n), st.integers(1, n)),
        min_size=ld.arc_count, max_size=ld.arc_count))))
    if verify_wavelength_assignment(ld, WavelengthAssignment(n, triple)) is None:
        colour = {arc: wl for arc, (wl, _, _) in triple.items()}
        fc = FibreColouring(n, colour, max(colour.values(), default=0))
        assert verify_fibre_colouring(ld, fc) is None


@settings(max_examples=300)
@given(labelled_digraphs(), st.integers(1, 3), st.data())
def test_expansion_rejects_what_the_fibre_verifier_names(ld, n, data):
    colour = dict(enumerate(data.draw(st.lists(
        st.integers(1, 3), min_size=ld.arc_count, max_size=ld.arc_count))))
    fc = FibreColouring(n, colour, max(colour.values(), default=0))
    violation = verify_fibre_colouring(ld, fc)
    try:
        wa = expand_to_wavelength_assignment(ld, fc)
    except InvalidColouringError as exc:
        assert violation is not None
        assert str(exc) == (
            f"fibre colouring invalid at vertex {violation.vertex}, colour "
            f"{violation.colour}: {violation.in_count}+{violation.out_count}"
            f" > {n}")
    else:
        assert violation is None
        assert verify_wavelength_assignment(ld, wa) is None


PATH = LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1)))
# each verdict on the path's two arcs with an entry for `key` added
WITH_KEY = {
    "verify_star_colouring": lambda key: verify_star_colouring(
        PATH.underlying, ArcColouring({0: 1, 1: 2, key: 1}, 2)),
    "find_bicoloured_circuit": lambda key: find_bicoloured_circuit(
        PATH.underlying, ArcColouring({0: 1, 1: 2, key: 1}, 2)),
    "verify_fibre_colouring": lambda key: verify_fibre_colouring(
        PATH, FibreColouring(1, {0: 1, 1: 2, key: 1}, 2)),
    "expand_to_wavelength_assignment": lambda key: expand_to_wavelength_assignment(
        PATH, FibreColouring(1, {0: 1, 1: 2, key: 1}, 2)),
    "verify_wavelength_assignment": lambda key: verify_wavelength_assignment(
        PATH, WavelengthAssignment(1, {0: (1, 1, 1), 1: (2, 1, 1), key: (1, 1, 1)})),
}


@pytest.mark.parametrize("key", ["x", 7, 2, -4, 2.5, None])
@pytest.mark.parametrize("verdict", sorted(WITH_KEY))
def test_verdicts_refuse_keys_that_name_no_arc(verdict, key):
    with pytest.raises(ValidateError, match=f"^key {re.escape(repr(key))} names no arc$"):
        WITH_KEY[verdict](key)


def test_the_first_foreign_key_is_named():
    colouring = ArcColouring({0: 1, 1: 2, "x": 1, 7: 2}, 2)
    with pytest.raises(ValidateError, match="^key 'x' names no arc$"):
        verify_star_colouring(PATH.underlying, colouring)
