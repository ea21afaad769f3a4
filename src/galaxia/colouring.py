"""Arc colouring value type shared by the solvers and verifiers."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .digraph import _Frozen, _check_count
from .errors import ValidateError


class _Mapped(_Frozen):
    """Base of the value types with a read-only map field, whose
    constructors take their fields in order.  A mappingproxy does not
    pickle, so pickle and copy rebuild such a value through its checked
    constructor, from a plain dict of the map."""

    def __reduce__(self) -> tuple:
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v
                                 for v in self._values())


class ArcColouring(_Mapped):
    """Total map arc index -> colour in 1..colour_count.

    A value of this type carries no proof of validity: the solvers
    return it unchecked and oracle.verify_star_colouring decides.
    """

    colour: Mapping[int, int]
    colour_count: int
    _fields = ("colour", "colour_count")

    def __init__(self, colour: Mapping[int, int], colour_count: int) -> None:
        # the loop runs only when `ints_within` fails, to name the first
        # arc whose colour is no plain int (no bool) in 1..colour_count
        _check_count("colour_count", colour_count, 0)
        colour = _read_only("colour", colour)
        if not ints_within(colour.values(), 1, colour_count):
            for arc, c in colour.items():
                if type(c) is not int:
                    raise ValidateError(f"arc {arc} colour {c!r} is not an int")
                if not 1 <= c <= colour_count:
                    raise ValidateError(
                        f"arc {arc} has colour {c} outside 1..{colour_count}")
        vars(self).update(colour=colour, colour_count=colour_count)

    def __getitem__(self, arc: int) -> int:
        return self.colour[arc]


def _read_only(name: str, mapping) -> Mapping:
    """A read-only copy of `mapping`, the field `name` of a value type; a
    ValidateError names the field when dict() cannot read it."""
    try:
        return MappingProxyType(dict(mapping))
    except (TypeError, ValueError):
        raise ValidateError(f"{name} must be a mapping") from None


def ints_within(values, low: int, high: int) -> bool:
    """Whether every value is a plain int (no bool) in low..high, by
    built-ins alone."""
    return set(map(type, values)) <= {int} and (
        not values or (low <= min(values) and max(values) <= high))


def arc_values(arc_count: int, mapping: Mapping[int, object], missing: str) -> tuple:
    """mapping[0], ..., mapping[arc_count - 1]; a ValidateError names the
    first arc the mapping lacks as 'arc i is <missing>', or else the
    first key that names no arc."""
    try:
        values = tuple(map(mapping.__getitem__, range(arc_count)))
    except KeyError:
        arc = next(a for a in range(arc_count) if a not in mapping)
        raise ValidateError(f"arc {arc} is {missing}") from None
    if len(mapping) != arc_count:
        key = next(k for k in mapping if k not in range(arc_count))
        raise ValidateError(f"key {key!r} names no arc")
    return values


def from_class_list(classes: list[set[int]] | tuple[set[int], ...]) -> ArcColouring:
    """Build a colouring from colour classes; class i gets colour i+1.

    Empty classes are dropped so colour_count equals the number of
    colours actually used.
    """
    mapping: dict[int, int] = {}
    used = 0
    for cls in classes:
        if not cls:
            continue
        used += 1
        for arc in cls:
            if arc in mapping:
                raise ValidateError(f"arc {arc} appears in two colour classes")
            mapping[arc] = used
    return ArcColouring(mapping, used)
