"""Cyclic intervals of residues and distinct representatives inside one.

A cyclic n-interval of {1..p} is a block of n consecutive values modulo
p, kept in 1..p.  The star colouring of acyclic digraphs records one
k-interval of {1..2k} per vertex; its machinery needs a system of
distinct representatives lying inside a common interval, which a greedy
sweep finds.
"""

from __future__ import annotations

from typing import Iterable

from .digraph import _Frozen, _check_count
from .errors import BadParamsError, InternalDefectError


class CyclicInterval(_Frozen):
    modulus: int
    start: int
    length: int
    _fields = ("modulus", "start", "length")

    def __init__(self, modulus: int, start: int, length: int) -> None:
        _check_count("modulus", modulus, 1, BadParamsError)
        for name, value in ("start", start), ("length", length):
            if type(value) is not int:
                raise BadParamsError(f"{name} must be an int")
        if not (1 <= start <= modulus):
            raise BadParamsError(f"start {start} outside 1..{modulus}")
        if not (1 <= length <= modulus):
            raise BadParamsError(f"length {length} outside 1..{modulus}")
        vars(self).update(modulus=modulus, start=start, length=length)

    def members_tuple(self) -> tuple[int, ...]:
        p = self.modulus
        return tuple((self.start - 1 + i) % p + 1 for i in range(self.length))

    def __contains__(self, value: int) -> bool:
        return (1 <= value <= self.modulus
                and (value - self.start) % self.modulus < self.length)


def _sweep(spans: list[tuple[int, int]]) -> list[int] | None:
    """Distinct positions 0..k-1 for the spans [lo, hi] by Glover's
    earliest-end greedy (Naval Res. Logist. Q. 14, 1967): each position
    in turn goes to the unplaced span open there that ends first, the
    lowest index on ties.  Returns each span's position, or None when a
    position finds no open span, which happens only when no distinct
    positions exist."""
    where: list = [None] * len(spans)
    for pos in range(len(spans)):
        open_here = [(hi, i) for i, (lo, hi) in enumerate(spans)
                     if lo <= pos <= hi and where[i] is None]
        if not open_here:
            return None
        where[min(open_here)[1]] = pos
    return where


def sdr_in_cyclic_interval(intervals: Iterable[CyclicInterval],
                           ) -> tuple[CyclicInterval, tuple[int, ...]]:
    """Distinct representatives of k k-intervals, themselves filling a
    k-interval of {1..2k}.

    Tries each of the 2k candidate intervals J by ascending start and
    takes the first that `_sweep` fills.  An interval starting d steps
    after J (mod 2k) meets J in its positions d..k-1 when d < k and
    0..d-k-1 otherwise, so the SDR is a convex bipartite matching, which
    the greedy solves exactly.  Existence is guaranteed, so exhausting
    all candidates is an internal defect and aborts loudly.
    """
    try:
        intervals = list(intervals)
    except TypeError:
        raise BadParamsError("intervals must be iterable") from None
    k = len(intervals)
    if k < 1:
        raise BadParamsError("need at least one interval")
    for pos, iv in enumerate(intervals):
        if not isinstance(iv, CyclicInterval):
            raise BadParamsError(f"interval {pos} is not a CyclicInterval")
        if iv.modulus != 2 * k or iv.length != k:
            raise BadParamsError(
                f"interval {pos} is not a {k}-interval of 1..{2 * k}")
    for start in range(1, 2 * k + 1):
        steps = [(iv.start - start) % (2 * k) for iv in intervals]
        where = _sweep([(d, k - 1) if d < k else (0, d - k - 1) for d in steps])
        if where is not None:
            j = CyclicInterval(modulus=2 * k, start=start, length=k)
            members = j.members_tuple()
            return j, tuple(members[pos] for pos in where)
    raise InternalDefectError(
        "no candidate interval admits an SDR; existence is guaranteed")
