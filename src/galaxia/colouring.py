"""Arc colouring value type shared by the solvers and verifiers."""

from __future__ import annotations

from typing import Mapping, Sequence

from .digraph import _Frozen, _check_count
from .errors import ValidateError


class ArcColouring(_Frozen):
    """Colour by arc index: colour[i] in 1..colour_count is arc i's.

    A value of this type carries no proof of validity: the solvers
    return it unchecked and oracle.verify_star_colouring decides.
    """

    colour: tuple[int, ...]
    colour_count: int
    _fields = ("colour", "colour_count")

    def __init__(self, colour: Sequence[int], colour_count: int) -> None:
        # built-ins decide whether every colour is a plain int (no bool)
        # in 1..colour_count; the loop runs only when one is not, to name
        # the first arc whose colour is None (a solver left it) or no such int
        _check_count("colour_count", colour_count, 0)
        colour = _by_arc("colour", colour)
        if not (set(map(type, colour)) <= {int} and (
                not colour or 1 <= min(colour) and max(colour) <= colour_count)):
            for arc, c in enumerate(colour):
                if c is None:
                    raise ValidateError(f"arc {arc} is uncoloured")
                if type(c) is not int:
                    raise ValidateError(f"arc {arc} colour {c!r} is not an int")
                if not 1 <= c <= colour_count:
                    raise ValidateError(
                        f"arc {arc} has colour {c} outside 1..{colour_count}")
        vars(self).update(colour=colour, colour_count=colour_count)

    def __getitem__(self, arc: int) -> int:
        return self.colour[arc]


def _by_arc(name: str, values) -> tuple:
    """`values`, the field `name` of a value type, as a tuple whose entry
    i is arc i's; a ValidateError refuses a mapping, whose keys a tuple
    would take for the entries, and what is not iterable."""
    if isinstance(values, Mapping) or not hasattr(values, "__iter__"):
        raise ValidateError(
            f"{name} must be a sequence by arc index, not {type(values).__name__}")
    return tuple(values)


def arc_values(arc_count: int, values: tuple, missing: str) -> tuple:
    """`values`, which must hold one entry per arc; a ValidateError names
    the first arc they lack as 'arc i is <missing>', or the first entry
    past the last arc."""
    if len(values) < arc_count:
        raise ValidateError(f"arc {len(values)} is {missing}")
    if len(values) > arc_count:
        raise ValidateError(f"entry {arc_count} names no arc")
    return values


def from_class_list(classes: list[set[int]] | tuple[set[int], ...]) -> ArcColouring:
    """Build a colouring from colour classes that partition the arcs
    0..A-1; class i gets colour i+1.

    Empty classes are dropped so colour_count equals the number of
    colours actually used.
    """
    colour: list[int | None] = [None] * sum(map(len, classes))
    used = 0
    for cls in classes:
        if not cls:
            continue
        used += 1
        for arc in cls:
            if not 0 <= arc < len(colour):
                raise ValidateError(f"arc {arc} is outside 0..{len(colour) - 1}")
            if colour[arc] is not None:
                raise ValidateError(f"arc {arc} appears in two colour classes")
            colour[arc] = used
    return ArcColouring(colour, used)
