"""Cyclic intervals of residues and distinct representatives inside one.

A cyclic n-interval of {1..p} is a block of n consecutive values modulo
p, kept in 1..p.  The star colouring of acyclic digraphs records one
k-interval of {1..2k} per vertex; its machinery needs complements and a
system of distinct representatives lying inside a common interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParamsError, BadShapeError, InternalDefectError
from .matching import capacitated_assignment


@dataclass(frozen=True)
class CyclicInterval:
    modulus: int
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise BadParamsError("modulus must be positive")
        if not (1 <= self.start <= self.modulus):
            raise BadParamsError(f"start {self.start} outside 1..{self.modulus}")
        if not (1 <= self.length <= self.modulus):
            raise BadParamsError(f"length {self.length} outside 1..{self.modulus}")

    def members_tuple(self) -> tuple[int, ...]:
        p = self.modulus
        return tuple((self.start - 1 + i) % p + 1 for i in range(self.length))

    def __contains__(self, value: int) -> bool:
        return (value - self.start) % self.modulus < self.length


def interval_complement(interval: CyclicInterval) -> CyclicInterval:
    """Complement of a k-interval of {1..2k}: the opposite k-interval."""
    p = interval.modulus
    if p != 2 * interval.length:
        raise BadShapeError(f"complement needs modulus {2 * interval.length}, got {p}")
    start = (interval.start - 1 + interval.length) % p + 1
    return CyclicInterval(modulus=p, start=start, length=interval.length)


def smallest_interval_containing(values: set[int], modulus: int,
                                 length: int) -> CyclicInterval | None:
    """The containing interval of given length with the smallest start."""
    for start in range(1, modulus + 1):
        candidate = CyclicInterval(modulus=modulus, start=start, length=length)
        if all(v in candidate for v in values):
            return candidate
    return None


def sdr_in_cyclic_interval(intervals: list[CyclicInterval],
                           ) -> tuple[CyclicInterval, tuple[int, ...]]:
    """Distinct representatives of k k-intervals, themselves filling a
    k-interval of {1..2k}.

    Tries each of the 2k candidate intervals J by ascending start and
    takes the first perfect matching interval -> member of J, found as a
    `capacitated_assignment` with unit capacities.  Existence is
    guaranteed, so exhausting all candidates is an internal defect and
    aborts loudly.
    """
    k = len(intervals)
    if k < 1:
        raise BadParamsError("need at least one interval")
    for pos, iv in enumerate(intervals):
        if iv.modulus != 2 * k or iv.length != k:
            raise BadParamsError(
                f"interval {pos} is not a {k}-interval of 1..{2 * k}")
    for start in range(1, 2 * k + 1):
        j = CyclicInterval(modulus=2 * k, start=start, length=k)
        members = j.members_tuple()
        adjacency = [[pos for pos, value in enumerate(members) if value in iv]
                     for iv in intervals]
        match = capacitated_assignment(adjacency, [1] * k)
        if match is not None:
            return j, tuple(members[right] for right in match)
    raise InternalDefectError(
        "no candidate interval admits an SDR; existence is guaranteed")
