"""n-fibre colourings of labelled digraphs and wavelength assignments.

A transmitter with n fibres per link can realize colour ω at vertex v
only if in(v,ω) + out(v,ω) <= n, where in counts entering ω-arcs and
out counts the DISTINCT labels with at least one ω-arc leaving v (arcs
of one label share a fibre, they carry the same multicast).  A valid
n-fibre colouring expands mechanically into a full assignment of
(wavelength, tail fibre, head fibre) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .digraph import LabelledDigraph, degree_profile, topological_order
from .errors import (BadParamsError, InternalDefectError, InvalidColouringError,
                     ValidateError)
from .matching import capacitated_assignment


@dataclass(frozen=True)
class FibreColouring:
    """Total map arc index -> colour in 1..colour_count under n fibres."""

    n: int
    colour: Mapping[int, int]
    colour_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colour", MappingProxyType(dict(self.colour)))
        if self.n < 1:
            raise ValidateError("fibre count must be positive")
        for arc, c in self.colour.items():
            if not (1 <= c <= self.colour_count):
                raise ValidateError(
                    f"arc {arc} has colour {c} outside 1..{self.colour_count}")

    def __getitem__(self, arc: int) -> int:
        return self.colour[arc]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FibreColouring):
            return NotImplemented
        return (self.n == other.n and dict(self.colour) == dict(other.colour)
                and self.colour_count == other.colour_count)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.colour.items()), self.colour_count))


@dataclass(frozen=True)
class WavelengthAssignment:
    """Per arc: wavelength plus fibre numbers at the tail and head."""

    n: int
    triple: Mapping[int, tuple[int, int, int]]  # arc -> (wavelength, f_out, f_in)

    def __post_init__(self) -> None:
        object.__setattr__(self, "triple",
                           MappingProxyType(dict(self.triple)))
        for arc, (wl, f_out, f_in) in self.triple.items():
            if wl < 1:
                raise ValidateError(f"arc {arc} wavelength must be positive")
            if not (1 <= f_out <= self.n and 1 <= f_in <= self.n):
                raise ValidateError(f"arc {arc} fibre outside 1..{self.n}")

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


def _check_total(ld: LabelledDigraph, mapping: Mapping[int, object]) -> None:
    for arc in range(ld.arc_count):
        if arc not in mapping:
            raise ValidateError(f"arc {arc} is unassigned")


def fibre_counts(ld: LabelledDigraph, fc: FibreColouring,
                 ) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """(in(v,ω), out(v,ω)) tables; out counts distinct labels."""
    in_count: dict[tuple[int, int], int] = {}
    out_labels: dict[tuple[int, int], set[int]] = {}
    for arc, (tail, head, label) in enumerate(ld.arcs):
        w = fc[arc]
        in_count[(head, w)] = in_count.get((head, w), 0) + 1
        out_labels.setdefault((tail, w), set()).add(label)
    out_count = {key: len(labels) for key, labels in out_labels.items()}
    return in_count, out_count


def verify_fibre_colouring(ld: LabelledDigraph, fc: FibreColouring,
                           ) -> FibreViolation | None:
    """First (vertex, colour) whose in+out exceeds n, or None if valid.

    Scanned by ascending vertex then colour, so the witness is stable.
    """
    _check_total(ld, fc.colour)
    in_count, out_count = fibre_counts(ld, fc)
    keys = sorted(set(in_count) | set(out_count))
    for v, w in keys:
        i = in_count.get((v, w), 0)
        o = out_count.get((v, w), 0)
        if i + o > fc.n:
            return FibreViolation(v, w, i, o)
    return None


def verify_wavelength_assignment(ld: LabelledDigraph, wa: WavelengthAssignment,
                                 ) -> WavelengthViolation | None:
    """Check the three collision conditions, first violation wins.

    (i)   an arc entering v and an arc leaving v may not share
          (wavelength, fibre-at-v);
    (ii)  two arcs entering v may not share (wavelength, fibre-at-v);
    (iii) two arcs leaving v with different labels may not share
          (wavelength, fibre-at-v).
    """
    _check_total(ld, wa.triple)
    d = ld.underlying
    for v in range(ld.vertex_count):
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
    return None


def upper_bound_acyclic(n: int, m: int, k: int) -> int:
    """Colour budget of the acyclic construction for m >= n."""
    if k == 0:
        return 0
    big_k = math.ceil(k / n)
    return math.ceil((m * big_k + k) / n)


def fibre_colouring_acyclic(ld: LabelledDigraph, n: int) -> FibreColouring:
    """n-fibre colouring of an acyclic m-labelled digraph, m >= n >= 1.

    Vertices in topological order; each vertex v keeps m potential-colour
    sets C_1(v)..C_m(v) of size K = ceil(k/n); an arc with label i out of
    u must take a colour from C_i(u).  In-arcs are placed by a
    capacity-n assignment, then the C_i are rebuilt from the residual
    in-capacities so that any future colour still fits.
    """
    m = ld.label_count
    if m < n:
        raise BadParamsError(f"need m >= n, got m={m} n={n}")
    if n < 1:
        raise BadParamsError("fibre count must be positive")
    profile = degree_profile(ld)
    k = profile.max_indegree
    if ld.arc_count == 0:
        return FibreColouring(n, {}, 0)
    order = topological_order(ld.underlying)  # raises CyclicError
    big_k = math.ceil(k / n)
    total = upper_bound_acyclic(n, m, k)

    # Sources start from the generic family: C_i covers block i of the
    # colour wheel.  m*K can exceed total, so blocks wrap around; any
    # colour lands in at most ceil(m*K/total) <= n of the sets because
    # m*K <= n*total - k < n*total.
    def initial_sets() -> list[list[int]]:
        sets = []
        pos = 0
        for _ in range(m):
            block = [(pos + t) % total + 1 for t in range(big_k)]
            sets.append(block)
            pos += big_k
        return sets

    potential: dict[int, list[list[int]]] = {}
    colour_of: dict[int, int] = {}

    for v in order:
        arcs_in = ld.underlying.in_arcs[v]
        if not arcs_in:
            potential[v] = initial_sets()
            continue
        adjacency = []
        for arc in arcs_in:
            tail, _, label = ld.arcs[arc]
            # tails precede v in topological order, so their sets exist
            adjacency.append([c - 1 for c in potential[tail][label - 1]])
        assigned = capacitated_assignment(adjacency, [n] * total)
        if assigned is None:
            raise InternalDefectError(
                "in-arc colour assignment infeasible; the counting "
                "argument guarantees a placement")
        load = [0] * (total + 1)  # this vertex's in-count per colour
        for arc, c0 in zip(arcs_in, assigned):
            colour_of[arc] = c0 + 1
            load[c0 + 1] += 1
        # residual sequence: colours ascending, colour c repeated
        # n - load[c] times consecutively; C_i(v) takes every m-th entry.
        # A colour runs at most n <= m long, so each set sees it once.
        residual: list[int] = []
        for c in range(1, total + 1):
            residual.extend([c] * (n - load[c]))
        sets_v: list[list[int]] = []
        for i in range(m):
            picks = residual[i::m][:big_k]
            if len(picks) < big_k or len(set(picks)) < big_k:
                raise InternalDefectError(
                    "residual capacity too small to rebuild potential sets")
            sets_v.append(picks)
        potential[v] = sets_v

    return FibreColouring(n, colour_of, total)


def fibre_colouring_smallm(ld: LabelledDigraph, n: int) -> FibreColouring:
    """n-fibre colouring with ceil(k/(n-m)) colours when m < n.

    Works on arbitrary digraphs: spreading the entering arcs of each
    vertex so no colour enters more than n-m times leaves room for the
    at most m label-slots leaving it.
    """
    m = ld.label_count
    if m >= n:
        raise BadParamsError(f"need m < n, got m={m} n={n}")
    profile = degree_profile(ld)
    k = profile.max_indegree
    if ld.arc_count == 0:
        return FibreColouring(n, {}, 0)
    total = math.ceil(k / (n - m))
    colour_of: dict[int, int] = {}
    seen_in = [0] * ld.vertex_count
    for arc, (_, head, _) in enumerate(ld.arcs):
        colour_of[arc] = seen_in[head] // (n - m) + 1
        seen_in[head] += 1
    return FibreColouring(n, colour_of, total)


def expand_to_wavelength_assignment(ld: LabelledDigraph, fc: FibreColouring,
                                    ) -> WavelengthAssignment:
    """Turn a valid n-fibre colouring into explicit fibre numbers.

    At each vertex v and colour ω: entering ω-arcs get head fibres
    1,2,... in arc order; the label groups of leaving ω-arcs get tail
    fibres continuing after them, one fibre per label, shared within a
    label.  in+out <= n makes every number fit in 1..n.  Raises
    InvalidColouringError when fc is not a valid n-fibre colouring.
    """
    violation = verify_fibre_colouring(ld, fc)
    if violation is not None:
        raise InvalidColouringError(
            f"fibre colouring invalid at vertex {violation.vertex}, "
            f"colour {violation.colour}: {violation.in_count}+"
            f"{violation.out_count} > {fc.n}")
    taken: dict[tuple[int, int], int] = {}  # (vertex, colour) -> fibres used
    f_in: list[int] = []
    for arc, (_, head, _) in enumerate(ld.arcs):
        key = (head, fc[arc])
        taken[key] = taken.get(key, 0) + 1
        f_in.append(taken[key])
    # every in-fibre is numbered before the first out-fibre is placed
    group_fibre: dict[tuple[int, int, int], int] = {}
    triples: dict[int, tuple[int, int, int]] = {}
    for arc, (tail, _, label) in enumerate(ld.arcs):
        w = fc[arc]
        group = (tail, w, label)
        if group not in group_fibre:
            taken[(tail, w)] = taken.get((tail, w), 0) + 1
            group_fibre[group] = taken[(tail, w)]
        triples[arc] = (w, group_fibre[group], f_in[arc])
    return WavelengthAssignment(fc.n, triples)
