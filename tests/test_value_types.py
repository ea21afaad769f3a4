"""The contract of the seven frozen value types: equality, hashing and
repr by their fields, no assignment or deletion, keyword construction,
copying and pickling."""
import copy
import pickle

import pytest

from galaxia import (ArcColouring, CyclicInterval, DegreeProfile, Digraph,
                     FibreColouring, LabelledDigraph, WavelengthAssignment)

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
    assert WavelengthAssignment._of(2, {0: (1, 1, 2)}) == build("WavelengthAssignment")
