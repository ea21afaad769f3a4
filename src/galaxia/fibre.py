"""n-fibre colourings of labelled digraphs and wavelength assignments.

A transmitter with n fibres per link can realize colour ω at vertex v
only if in(v,ω) + out(v,ω) <= n, where in counts entering ω-arcs and
out counts the DISTINCT labels with at least one ω-arc leaving v (arcs
of one label share a fibre, they carry the same multicast).  A valid
n-fibre colouring expands mechanically into a full assignment of
(wavelength, tail fibre, head fibre) triples, and a valid assignment
proves the colouring of its wavelengths valid, so the wavelength
verifier alone decides an expanded output.

The acyclic construction's sweep is `digraph._pattern_sweep`, with a
vertex's state its m rebuilt sets; for k <= `_MEMO_MAX_K` and
m <= `_MEMO_MAX_M` the placement is remembered in `_assign`, a
`functools.lru_cache` of `digraph._MEMO_CAP` entries (about 2.1 MB when
full).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import count
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .colouring import ArcColouring, _Mapped, _read_only, arc_values
from .digraph import _MEMO_CAP, LabelledDigraph, _check_count, _pattern_sweep
from .errors import (BadParamsError, InternalDefectError, InvalidColouringError,
                     ValidateError)

# An entry holds at most k = 4 colours and m = 4 rebuilt sets of at most
# 4 colours each; wider instances solve their patterns afresh.
_MEMO_MAX_K = 4
_MEMO_MAX_M = 4


class FibreColouring(ArcColouring):
    """An arc colouring under n fibres; it equals no ArcColouring."""

    n: int
    _fields = ("n", "colour", "colour_count")

    def __init__(self, n: int, colour: Mapping[int, int],
                 colour_count: int) -> None:
        _check_count("fibre count", n, 1)
        super().__init__(colour, colour_count)
        vars(self)["n"] = n


class WavelengthAssignment(_Mapped):
    """Per arc: wavelength plus fibre numbers at the tail and head, each
    a plain int (no bool), like the fibre count n; a wavelength is
    positive and a fibre in 1..n."""

    n: int
    triple: Mapping[int, tuple[int, int, int]]  # arc -> (wavelength, f_out, f_in)
    _fields = ("n", "triple")

    def __init__(self, n: int,
                 triple: Mapping[int, tuple[int, int, int]]) -> None:
        _check_count("fibre count", n, 1)
        vars(self).update(n=n, triple=_read_only("triple", triple))
        for arc, entries in self.triple.items():
            if type(entries) is not tuple or len(entries) != 3:
                raise ValidateError(f"arc {arc} is not a (wavelength, f_out, f_in) tuple")
            for entry in entries:
                if type(entry) is not int:
                    raise ValidateError(f"arc {arc} entry {entry!r} is not an int")
            wl, f_out, f_in = entries
            if wl < 1:
                raise ValidateError(f"arc {arc} wavelength must be positive")
            if not (1 <= f_out <= n and 1 <= f_in <= n):
                raise ValidateError(f"arc {arc} fibre outside 1..{n}")

    def __getitem__(self, arc: int) -> tuple[int, int, int]:
        return self.triple[arc]


class FibreViolation(NamedTuple):
    vertex: int
    colour: int
    in_count: int
    out_count: int


class WavelengthViolation(NamedTuple):
    condition: str  # 'i', 'ii' or 'iii'
    first_arc: int
    second_arc: int


def _first_overload(ld: LabelledDigraph, colours: tuple, n: int,
                    load: Mapping[tuple[int, int], int]) -> FibreViolation:
    """The least (vertex, colour) whose load, in + out, exceeds n; its
    entering arcs are counted again to split the load."""
    key = min(key for key, count in load.items() if count > n)
    in_count = list(zip(map(itemgetter(1), ld.arcs), colours)).count(key)
    return FibreViolation(*key, in_count, load[key] - in_count)


def verify_fibre_colouring(ld: LabelledDigraph, fc: FibreColouring,
                           ) -> FibreViolation | None:
    """First (vertex, colour) whose in+out exceeds n, or None if valid.

    First by ascending vertex then colour, so the witness is stable.
    """
    colours = arc_values(ld.arc_count, fc.colour, "unassigned")
    if not colours:
        return None
    tails, heads, labels = zip(*ld.arcs)
    load = Counter(zip(heads, colours))
    load.update(map(itemgetter(0, 1), set(zip(tails, colours, labels))))
    if max(load.values()) <= fc.n:
        return None
    return _first_overload(ld, colours, fc.n, load)


def verify_wavelength_assignment(ld: LabelledDigraph, wa: WavelengthAssignment,
                                 ) -> WavelengthViolation | None:
    """Check the three collision conditions, first violation wins.

    (i)   an arc entering v and an arc leaving v may not share
          (wavelength, fibre-at-v);
    (ii)  two arcs entering v may not share (wavelength, fibre-at-v);
    (iii) two arcs leaving v with different labels may not share
          (wavelength, fibre-at-v).
    """
    triples = arc_values(ld.arc_count, wa.triple, "unassigned")
    if not triples:
        return None
    tails, heads, labels = zip(*ld.arcs)
    wls, f_outs, f_ins = zip(*triples)
    entering = set(zip(heads, wls, f_ins))
    leaving = set(zip(tails, wls, f_outs))
    if (len(entering) == ld.arc_count and entering.isdisjoint(leaving)
            and len(leaving) == len(set(zip(tails, wls, f_outs, labels)))):
        return None
    d = ld.underlying
    # the test above found a violation, so the scan returns before it
    # runs out of vertices
    for v in count():
        in_here: dict[tuple[int, int], int] = {}
        out_here: dict[tuple[int, int], int] = {}
        # both directions in arc order, so the first violation is stable
        for arc in sorted(d.in_arcs[v] + d.out_arcs[v]):
            wl, f_out, f_in = wa[arc]
            if d.arcs[arc][1] == v:
                key = (wl, f_in)
                if key in in_here:
                    return WavelengthViolation("ii", in_here[key], arc)
                in_here[key] = arc
            else:
                key = (wl, f_out)
                prev = out_here.get(key)
                if prev is None:
                    out_here[key] = arc
                elif ld.arcs[prev][2] != ld.arcs[arc][2]:
                    return WavelengthViolation("iii", prev, arc)
        for key, arc in sorted(out_here.items()):
            if key in in_here:
                a, b = in_here[key], arc
                return WavelengthViolation("i", min(a, b), max(a, b))


def upper_bound_acyclic(n: int, m: int, k: int) -> int:
    """Colour budget of the acyclic construction for m >= n."""
    if k == 0:
        return 0
    big_k = math.ceil(k / n)
    return math.ceil((m * big_k + k) / n)


def _place(n: int, m: int, k: int, draws: tuple[tuple[int, ...], ...],
           ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The colours of arcs entering a vertex, arc i drawing from the set
    `draws[i]`, and the vertex's m rebuilt potential sets.

    Each arc in turn takes the first colour of its set that fewer than n
    arcs entering here have taken.  First fit cannot get stuck: a set
    holds K = ceil(k/n) distinct colours, so it is used up only after
    n*K >= k earlier arcs, and at most k arcs enter a vertex.
    """
    big_k = math.ceil(k / n)
    total = upper_bound_acyclic(n, m, k)
    load = [0] * (total + 1)  # this vertex's in-count per colour
    colours = []
    for sets in draws:
        c = next((c for c in sets if load[c] < n), 0)
        if not c:
            raise InternalDefectError(
                "in-arc colour assignment infeasible; the counting "
                "argument guarantees a placement")
        load[c] += 1
        colours.append(c)
    # residual: colours ascending, colour c repeated n - load[c] times;
    # C_i(v) takes every m-th entry.  A colour runs at most n <= m long,
    # so each set sees it once.
    residual: list[int] = []
    for c in range(1, total + 1):
        residual.extend([c] * (n - load[c]))
    sets_v = tuple(tuple(residual[i::m][:big_k]) for i in range(m))
    return tuple(colours), sets_v


_assign = lru_cache(maxsize=_MEMO_CAP)(_place)


def fibre_colouring_acyclic(ld: LabelledDigraph, n: int) -> FibreColouring:
    """n-fibre colouring of an acyclic m-labelled digraph, m >= n >= 1.

    Vertices in topological order; each vertex v keeps m potential-colour
    sets C_1(v)..C_m(v) of size K = ceil(k/n); an arc with label i out of
    u must take a colour from C_i(u).  In-arcs are placed first fit, at
    most n per colour, then the C_i are rebuilt from the residual
    in-capacities so that any future colour still fits.
    """
    _check_count("fibre count", n, 1, BadParamsError)
    m = ld.label_count
    if m < n:
        raise BadParamsError(f"need m >= n, got m={m} n={n}")
    k = ld.profile.max_indegree
    if ld.arc_count == 0:
        return FibreColouring(n, {}, 0)
    big_k = math.ceil(k / n)
    total = upper_bound_acyclic(n, m, k)

    # Sources start from the generic family: C_i covers block i of the
    # colour wheel.  m*K can exceed total, so blocks wrap around; any
    # colour lands in at most ceil(m*K/total) <= n of the sets because
    # m*K <= n*total - k < n*total.
    generic = tuple(tuple((i * big_k + t) % total + 1 for t in range(big_k))
                    for i in range(m))
    assign = _assign if k <= _MEMO_MAX_K and m <= _MEMO_MAX_M else _place
    # an arc with label i draws from its tail's C_i
    reads = [label - 1 for _, _, label in ld.arcs]
    colour_of, _ = _pattern_sweep(ld.underlying, reads, generic,
                                  lambda draws: assign(n, m, k, draws))
    return FibreColouring(n, colour_of, total)


def fibre_colouring_smallm(ld: LabelledDigraph, n: int) -> FibreColouring:
    """n-fibre colouring with ceil(k/(n-m)) colours when m < n.

    Works on arbitrary digraphs: spreading the entering arcs of each
    vertex so no colour enters more than n-m times leaves room for the
    at most m label-slots leaving it.
    """
    _check_count("fibre count", n, 1, BadParamsError)
    m = ld.label_count
    if m >= n:
        raise BadParamsError(f"need m < n, got m={m} n={n}")
    k = ld.profile.max_indegree
    if ld.arc_count == 0:
        return FibreColouring(n, {}, 0)
    total = math.ceil(k / (n - m))
    colours: list[int] = []
    seen_in = [0] * ld.vertex_count
    for head in map(itemgetter(1), ld.arcs):
        colours.append(seen_in[head] // (n - m) + 1)
        seen_in[head] += 1
    return FibreColouring(n, dict(enumerate(colours)), total)


def expand_to_wavelength_assignment(ld: LabelledDigraph, fc: FibreColouring,
                                    ) -> WavelengthAssignment:
    """Turn a valid n-fibre colouring into explicit fibre numbers.

    At each vertex v and colour ω: entering ω-arcs get head fibres
    1,2,... in arc order; the label groups of leaving ω-arcs get tail
    fibres continuing after them, one fibre per label, shared within a
    label.  in+out <= n makes every number fit in 1..n.  Once every
    fibre is numbered, the last number at (v, ω) is in(v,ω) + out(v,ω),
    so the numbering decides validity itself: InvalidColouringError
    names the witness verify_fibre_colouring would when a number
    exceeds n.  No verifier runs here.
    """
    colours = arc_values(ld.arc_count, fc.colour, "unassigned")
    arcs = ld.arcs
    taken: dict[tuple[int, int], int] = {}  # (vertex, colour) -> fibres used
    f_in: list[int] = []
    for key in zip(map(itemgetter(1), arcs), colours):
        taken[key] = fibre = taken.get(key, 0) + 1
        f_in.append(fibre)
    # every in-fibre is numbered before the first out-fibre is placed
    group_fibre: dict[tuple[int, int, int], int] = {}
    f_out: list[int] = []
    for group in zip(map(itemgetter(0), arcs), colours, map(itemgetter(2), arcs)):
        fibre = group_fibre.get(group)  # group is (tail, colour, label)
        if fibre is None:
            key = group[:2]
            taken[key] = group_fibre[group] = fibre = taken.get(key, 0) + 1
        f_out.append(fibre)
    if max(taken.values(), default=0) > fc.n:
        v = _first_overload(ld, colours, fc.n, taken)
        raise InvalidColouringError(
            f"fibre colouring invalid at vertex {v.vertex}, colour {v.colour}:"
            f" {v.in_count}+{v.out_count} > {fc.n}")
    # every fibre is in 1..n now, and the colours are positive
    return WavelengthAssignment._of(
        fc.n, MappingProxyType(dict(enumerate(zip(colours, f_out, f_in)))))
