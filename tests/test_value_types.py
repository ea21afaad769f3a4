"""The contract of the seven frozen value types: equality, hashing and
repr by their fields, no assignment or deletion, keyword construction,
copying and pickling; and the refusal, by a documented error that names
the arc or field, of every entry or solver parameter that is no plain
int."""
import copy
import pickle
from types import MappingProxyType

import pytest

from galaxia import (ArcColouring, CyclicInterval, DegreeProfile, Digraph,
                     FibreColouring, LabelledDigraph, WavelengthAssignment,
                     edge_colouring_3regular, exact_dst, exact_lambda_n,
                     fibre_colouring_acyclic, fibre_colouring_smallm)
from galaxia.errors import BadParamsError, ValidateError

# Per type: the keyword arguments of one value, for each argument a
# value that makes another instance with the rest unchanged, and the
# first value's repr.
CASES = {
    "Digraph": (
        Digraph, dict(vertex_count=3, arcs=((0, 1), (1, 2))),
        dict(vertex_count=4, arcs=((1, 2),)),
        "Digraph(vertex_count=3, arcs=((0, 1), (1, 2)))"),
    "LabelledDigraph": (
        LabelledDigraph, dict(vertex_count=2, label_count=2, arcs=((0, 1, 1), (0, 1, 2))),
        dict(vertex_count=3, label_count=3, arcs=((0, 1, 1),)),
        "LabelledDigraph(vertex_count=2, label_count=2, arcs=((0, 1, 1), (0, 1, 2)))"),
    "DegreeProfile": (
        DegreeProfile, dict(indegree=(0, 1), outdegree=(1, 0)),
        dict(indegree=(1, 0), outdegree=(0, 1)),
        "DegreeProfile(indegree=(0, 1), outdegree=(1, 0), degree=(1, 1),"
        " max_indegree=1, max_outdegree=1, max_degree=1)"),
    "ArcColouring": (
        ArcColouring, dict(colour={0: 1, 1: 2}, colour_count=2),
        dict(colour={0: 2, 1: 1}, colour_count=3),
        "ArcColouring(colour=mappingproxy({0: 1, 1: 2}), colour_count=2)"),
    "CyclicInterval": (
        CyclicInterval, dict(modulus=4, start=1, length=2),
        dict(modulus=5, start=2, length=3),
        "CyclicInterval(modulus=4, start=1, length=2)"),
    "FibreColouring": (
        FibreColouring, dict(n=2, colour={0: 1}, colour_count=1),
        dict(n=3, colour={0: 1, 1: 1}, colour_count=2),
        "FibreColouring(n=2, colour=mappingproxy({0: 1}), colour_count=1)"),
    "WavelengthAssignment": (
        WavelengthAssignment, dict(n=2, triple={0: (1, 1, 2)}),
        dict(n=3, triple={0: (2, 1, 2)}),
        "WavelengthAssignment(n=2, triple=mappingproxy({0: (1, 1, 2)}))"),
}
HASHABLE = ["Digraph", "LabelledDigraph", "DegreeProfile", "CyclicInterval"]
MAPPED = ["ArcColouring", "FibreColouring", "WavelengthAssignment"]


def build(name, **change):
    cls, kwargs, _, _ = CASES[name]
    return cls(**{**kwargs, **change})


@pytest.mark.parametrize("name", CASES)
def test_equal_exactly_when_every_field_is(name):
    value = build(name)
    assert value == build(name) and not value != build(name)
    for field, other in CASES[name][2].items():
        changed = build(name, **{field: other})
        assert value != changed and not value == changed, field


@pytest.mark.parametrize("name", CASES)
def test_equal_only_to_its_own_type(name):
    cls, kwargs, _, _ = CASES[name]
    value = build(name)
    subclass = type("Sub", (cls,), {})(**kwargs)
    for other in (subclass, tuple(kwargs.values()), object()):
        assert value != other and not value == other


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_alike(name):
    assert hash(build(name)) == hash(build(name))
    assert len({build(name), build(name)}) == 1


@pytest.mark.parametrize("name", MAPPED)
def test_a_mapping_field_makes_a_value_unhashable(name):
    with pytest.raises(TypeError, match="unhashable type"):
        hash(build(name))


@pytest.mark.parametrize("name", CASES)
def test_repr_names_every_field(name):
    assert repr(build(name)) == CASES[name][3]


@pytest.mark.parametrize("name", CASES)
def test_no_attribute_can_be_assigned_or_deleted(name):
    value = build(name)
    for attribute in [*vars(value), "other"]:
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)
        with pytest.raises(AttributeError):
            delattr(value, attribute)
    assert value == build(name)


@pytest.mark.parametrize("name", CASES)
def test_keyword_and_positional_construction_agree(name):
    cls, kwargs, _, _ = CASES[name]
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_keyword_defaults_and_derived_fields():
    assert Digraph(vertex_count=3, arcs=((0, 1), (1, 2))) == build("Digraph")
    with pytest.raises(TypeError):
        DegreeProfile(indegree=(0, 1), outdegree=(1, 0), degree=(1, 1))


@pytest.mark.parametrize("name", CASES)
def test_copy_is_an_equal_value(name):
    value = build(name)
    twin = copy.copy(value)
    assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize("name", HASHABLE)
def test_pickle_round_trip(name):
    value = build(name)
    twin = pickle.loads(pickle.dumps(value))
    assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("name", MAPPED)
def test_a_mapping_field_round_trips_through_pickle_and_deepcopy(name):
    # rebuilt through the checked constructor, with a read-only map again
    value = build(name)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == CASES[name][3]


def test_cached_structures_enter_no_comparison():
    d, plain = build("Digraph"), build("Digraph")
    assert d.out_arcs == ((0,), (1,), ()) and d.profile.max_degree == 2
    assert d == plain and hash(d) == hash(plain) and repr(d) == repr(plain)
    twin = pickle.loads(pickle.dumps(d))
    assert twin == d and twin.in_arcs == ((), (0,), (1,))


def test_unchecked_constructors_make_equal_values():
    assert Digraph._of(3, ((0, 1), (1, 2))) == build("Digraph")
    assert LabelledDigraph._of(2, 2, ((0, 1, 1), (0, 1, 2))) == build("LabelledDigraph")
    assert WavelengthAssignment._of(
        2, MappingProxyType({0: (1, 1, 2)})) == build("WavelengthAssignment")


PATH = LabelledDigraph(3, 2, ((0, 1, 1), (1, 2, 2)))
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("make, error, message", [
    (lambda: Digraph(3, ((0, 1.0),)), ValidateError, "arc 0 entry 1.0 is not an int"),
    (lambda: LabelledDigraph(3, 2, ((0, 1, 1.0),)), ValidateError,
     "arc 0 entry 1.0 is not an int"),
    (lambda: LabelledDigraph(3, 2, ((0, 1, 1.0), (0, True, 1))), ValidateError,
     "arc 0 entry 1.0 is not an int"),
    (lambda: LabelledDigraph(3, 2, ((0, 1, 1), (0, True, 1))), ValidateError,
     "arc 1 entry True is not an int"),
    (lambda: Digraph(3, ((0, 1, 2),)), ValidateError, "arc 0 is not a (tail, head) pair"),
    (lambda: LabelledDigraph(3, 1, ((0, 1),)), ValidateError,
     "arc 0 is not a (tail, head, label) triple"),
    (lambda: Digraph(3, (0, 1)), ValidateError, "arc 0 is not a (tail, head) pair"),
    (lambda: ArcColouring({0: 2.0}, 3), ValidateError, "arc 0 colour 2.0 is not an int"),
    (lambda: ArcColouring({0: 1, 1: True}, 3), ValidateError,
     "arc 1 colour True is not an int"),
    (lambda: ArcColouring({0: 1}, 1.5), ValidateError, "colour_count must be an int"),
    (lambda: ArcColouring({}, -1), ValidateError, "colour_count must be non-negative"),
    (lambda: FibreColouring(2, {0: 1.5}, 3), ValidateError, "arc 0 colour 1.5 is not an int"),
    (lambda: FibreColouring(1.5, {0: 1}, 3), ValidateError,
     "fibre count must be an int"),
    (lambda: WavelengthAssignment(2, {0: (1.0, 1, 2)}), ValidateError,
     "arc 0 entry 1.0 is not an int"),
    (lambda: WavelengthAssignment(2, {0: (1, True, 2)}), ValidateError,
     "arc 0 entry True is not an int"),
    (lambda: WavelengthAssignment(2, {0: [1, 1, 2]}), ValidateError,
     "arc 0 is not a (wavelength, f_out, f_in) tuple"),
    (lambda: WavelengthAssignment(2, {0: (1, 1)}), ValidateError,
     "arc 0 is not a (wavelength, f_out, f_in) tuple"),
    (lambda: WavelengthAssignment(2.5, {0: (1, 1, 2)}), ValidateError,
     "fibre count must be an int"),
    (lambda: WavelengthAssignment(0, {}), ValidateError, "fibre count must be positive"),
    (lambda: CyclicInterval(4, 1.5, 2), BadParamsError, "start must be an int"),
    (lambda: CyclicInterval(4.0, 1, 2), BadParamsError, "modulus must be an int"),
    (lambda: CyclicInterval(4, 1, True), BadParamsError, "length must be an int"),
    (lambda: fibre_colouring_acyclic(PATH, 2.0), BadParamsError,
     "fibre count must be an int"),
    (lambda: fibre_colouring_acyclic(PATH, True), BadParamsError,
     "fibre count must be an int"),
    (lambda: fibre_colouring_smallm(PATH, 3.0), BadParamsError,
     "fibre count must be an int"),
    (lambda: exact_lambda_n(PATH, 1.5), ValidateError,
     "fibre count must be an int"),
    (lambda: exact_dst(PATH.underlying, arc_limit=True), BadParamsError,
     "arc_limit must be an int"),
    (lambda: exact_dst(PATH.underlying, colour_cap=2.5), BadParamsError,
     "colour_cap must be an int or None"),
    (lambda: exact_lambda_n(PATH, 1, colour_cap=2.5), BadParamsError,
     "colour_cap must be an int or None"),
    (lambda: exact_lambda_n(PATH, 1, arc_limit=40.0), BadParamsError,
     "arc_limit must be an int"),
    (lambda: edge_colouring_3regular(4, K4_EDGES, vertex_limit=None), BadParamsError,
     "vertex_limit must be an int"),
    (lambda: edge_colouring_3regular(4, K4_EDGES, vertex_limit=20.0), BadParamsError,
     "vertex_limit must be an int"),
    (lambda: Digraph(3, None), ValidateError, "arcs must be iterable"),
    (lambda: LabelledDigraph(3, 1, 5), ValidateError, "arcs must be iterable"),
    (lambda: ArcColouring(None, 1), ValidateError, "colour must be a mapping"),
    (lambda: ArcColouring([(0, 1, 1)], 1), ValidateError, "colour must be a mapping"),
    (lambda: FibreColouring(1, None, 1), ValidateError, "colour must be a mapping"),
    (lambda: WavelengthAssignment(1, None), ValidateError, "triple must be a mapping"),
], ids=["digraph-float-head", "labelled-float-label", "first-arc-named",
        "labelled-bool-tail", "digraph-triple", "labelled-pair", "digraph-flat",
        "colour-float", "colour-bool", "colour-count-float", "colour-count-negative",
        "fibre-colour-float", "fibre-count-float", "wavelength-float",
        "fibre-out-bool", "wavelength-list", "wavelength-pair",
        "wavelength-fibre-count-float", "wavelength-fibre-count-zero",
        "interval-start-float", "interval-modulus-float", "interval-length-bool",
        "fibre-acyclic-float", "fibre-acyclic-bool", "fibre-smallm-float",
        "exact-lambda-float", "exact-dst-bool-limit", "exact-dst-float-cap",
        "exact-lambda-float-cap", "exact-lambda-float-limit",
        "cubic-none-vertex-limit", "cubic-float-vertex-limit", "digraph-arcs-none",
        "labelled-arcs-int", "colour-none", "colour-triples", "fibre-colour-none",
        "wavelength-triple-none"])
def test_entries_and_parameters_must_be_plain_ints(make, error, message):
    # one rule per entry, checked in one pass: a plain int (no bool) in
    # its range; the error names the arc or field, and a count takes the
    # class its site raises for a count below its least value
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message
