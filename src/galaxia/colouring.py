"""Arc colouring value type shared by the solvers and verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import ValidateError


@dataclass(frozen=True)
class ArcColouring:
    """Total map arc index -> colour in 1..colour_count.

    A value of this type carries no proof of validity: the solvers
    return it unchecked and oracle.verify_star_colouring decides.
    """

    colour: Mapping[int, int]
    colour_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colour", MappingProxyType(dict(self.colour)))
        for arc, c in self.colour.items():
            if not (1 <= c <= self.colour_count):
                raise ValidateError(
                    f"arc {arc} has colour {c} outside 1..{self.colour_count}")

    def __getitem__(self, arc: int) -> int:
        return self.colour[arc]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArcColouring):
            return NotImplemented
        return (dict(self.colour) == dict(other.colour)
                and self.colour_count == other.colour_count)

    def __hash__(self) -> int:
        return hash((frozenset(self.colour.items()), self.colour_count))


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
