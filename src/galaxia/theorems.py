"""The verified entry point: pick a theorem, run it, state its bound.

`solve(ld, fibres, algorithm)` returns a `Solution`: a directed star
colouring of ld's underlying digraph by `acyclic` (bound 2k, k the max
indegree), `subcubic` (3), `diregular4` (4), `acircuitic` (4, no
bicoloured circuit) or `2k1` (2k+1), or with `fibres` the wavelength
assignment of an n-fibre colouring by `smallm` (m < n labels) or
`acyclic` (m >= n).  `auto` takes the first of acyclic, subcubic and
diregular4 whose class holds, else 2k1, and with fibres smallm if m < n.
Each output kind has one verdict, which returns the text `galaxia
verify` prints after `violation: `, or None: `_star_violation` for a
star colouring, where one walk per colour pair decides and names a
bicoloured circuit and an interval is named by its ends and modulus, and
`_fibre_violation` for a wavelength assignment.  The solvers return
their output unchecked; `solve`, and the command line's `exact` and
`reduce --check`, run it through its verdict once and raise
InternalDefectError with that text.  A theorem's module is imported
when it runs, so a process loads only the theorems it uses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

from .colouring import ArcColouring
from .digraph import Digraph, LabelledDigraph, degree_profile, is_acyclic
from .errors import (BadParamsError, InternalDefectError, InvalidColouringError,
                     NoApplicableAlgorithmError, ValidateError)
from .intervals import CyclicInterval
from .oracle import _bicoloured_circuit, verify_star_colouring

if TYPE_CHECKING:
    from .fibre import FibreColouring, WavelengthAssignment  # unreached: type checkers only

_STAR_ALGORITHMS = ("auto", "2k1", "acyclic", "subcubic", "diregular4",
                    "acircuitic", "smallm")


class Solution(NamedTuple):
    algorithm: str      # the theorem that ran, never "auto"
    output: ArcColouring | WavelengthAssignment
    colour_count: int   # colours of the star or fibre colouring
    intervals: dict[int, CyclicInterval]  # acyclic star colourings only
    bound: int          # the colour count the theorem proves
    rule: str           # how the bound follows from the instance


def solve(ld: LabelledDigraph, fibres: int | None = None,
          algorithm: str = "auto") -> Solution:
    """ld coloured by `algorithm`, a star colouring of its underlying
    digraph, or with `fibres` a wavelength assignment, verified.

    Raises BadParamsError for an ld that is no LabelledDigraph, an
    unknown algorithm or a fibre count that is no positive integer,
    NoApplicableAlgorithmError when no theorem covers ld,
    PreconditionViolatedError (CyclicError for a circuit) when the
    theorem run finds its hypothesis false, and InternalDefectError
    when the output fails its verdict."""
    if not isinstance(ld, LabelledDigraph):
        raise BadParamsError(f"solve takes a LabelledDigraph, got {type(ld).__name__}")
    if algorithm not in _STAR_ALGORITHMS:
        raise BadParamsError(f"unknown algorithm {algorithm!r}")
    if fibres is None:
        return _solve_star(ld.underlying, algorithm)
    if type(fibres) is not int or fibres < 1:
        raise BadParamsError(f"fibre count must be a positive integer, got {fibres!r}")
    return _solve_fibre(ld, fibres, algorithm)


def _solve_star(d: Digraph, algo: str) -> Solution:
    profile = degree_profile(d)
    k = profile.max_indegree
    if algo == "auto":
        if is_acyclic(d):
            algo = "acyclic"
        elif profile.max_degree <= 3:
            algo = "subcubic"
        elif profile.max_indegree <= 2 and profile.max_outdegree <= 2:
            algo = "diregular4"
        else:
            algo = "2k1"
    intervals = {}
    with _own_output("solver output"):
        if algo == "acyclic":
            from .acyclic import star_colouring_acyclic
            colouring, intervals = star_colouring_acyclic(d)
            bound, rule = 2 * k, f"2k with k={k}"
        elif algo == "subcubic":
            from .subcubic import star_colouring_subcubic
            colouring, bound, rule = star_colouring_subcubic(d), 3, "max degree <= 3"
        elif algo == "diregular4":
            from .spanning import dst4_colouring
            colouring, bound, rule = dst4_colouring(d), 4, "in/outdegrees <= 2"
        elif algo == "acircuitic":
            from .acircuitic import acircuitic_colouring
            colouring, bound = acircuitic_colouring(d), 4
            rule = "oriented subcubic, no bicoloured circuit"
        elif algo == "2k1":
            from .galaxy import dst_upper_2k1
            colouring, bound, rule = dst_upper_2k1(d), 2 * k + 1, f"2k+1 with k={k}"
        else:
            raise NoApplicableAlgorithmError(f"{algo} needs --fibres")
        _require(_star_violation(d, colouring, intervals, algo == "acircuitic"))
    return Solution(algo, colouring, colouring.colour_count, intervals, bound, rule)


def _solve_fibre(ld: LabelledDigraph, n: int, algo: str) -> Solution:
    from .fibre import (fibre_colouring_acyclic, fibre_colouring_smallm,
                        upper_bound_acyclic)
    m, k = ld.label_count, degree_profile(ld).max_indegree
    if algo == "auto":
        if m < n:
            algo = "smallm"
        elif is_acyclic(ld.underlying):
            algo = "acyclic"
        else:
            raise NoApplicableAlgorithmError(
                f"cyclic instance with m={m} >= n={n} fibres")
    if algo == "smallm":
        if m >= n:
            raise NoApplicableAlgorithmError(
                f"smallm needs m < n, instance has m={m}, n={n}")
        solver, bound = fibre_colouring_smallm, math.ceil(k / (n - m))
        rule = f"ceil(k/(n-m)) with k={k}"
    elif algo == "acyclic":
        if m < n:
            raise NoApplicableAlgorithmError(
                f"the acyclic bound needs m >= n, instance has m={m}, n={n}")
        solver, bound = fibre_colouring_acyclic, upper_bound_acyclic(n, m, k)
        rule = f"ceil((m/n)ceil(k/n) + k/n) with m={m} k={k}"
    else:
        raise NoApplicableAlgorithmError(f"{algo} does not apply to --fibres runs")
    with _own_output("solver output"):
        fc = solver(ld, n)
        wa = _expand_checked(ld, fc)
    return Solution(algo, wa, fc.colour_count, {}, bound, rule)


def _star_violation(d: Digraph, colouring: ArcColouring,
                    intervals: dict[int, CyclicInterval],
                    acircuitic: bool) -> str | None:
    """Why `colouring` is no star colouring of d, or None: two arcs of a
    colour converge or are consecutive; with `acircuitic`, two colours
    hold a circuit; or some `i <vertex> <start> <k>` line names a vertex
    outside d, or a colour entering its vertex lies outside its
    interval, which is named by its start, end and modulus, so the text
    does not grow with its length.  Once the colouring is a star
    colouring, one alternating walk per colour pair
    (`oracle._bicoloured_circuit`) both decides and names a circuit."""
    bad = verify_star_colouring(d, colouring)
    if bad is not None:
        kind = "converging" if bad.rule == "ii" else "consecutive"
        return (f"{kind} arcs {bad.first_arc} and {bad.second_arc}"
                f" share colour {colouring[bad.first_arc]}")
    circuit = _bicoloured_circuit(d, colouring) if acircuitic else None
    if circuit is not None:
        return f"bicoloured circuit through vertices {list(circuit)}"
    colour, in_arcs = colouring.colour, d.in_arcs
    for v in sorted(intervals):
        iv = intervals[v]
        if v >= d.vertex_count:
            return (f"interval line names vertex {v} outside "
                    f"0..{d.vertex_count - 1}")
        for a in in_arcs[v]:
            c = colour[a]
            if c > iv.modulus or c not in iv:
                end = (iv.start + iv.length - 2) % iv.modulus + 1
                return (f"arc {a} enters vertex {v} with colour {c} outside"
                        f" its interval {iv.start}..{end} mod {iv.modulus}")
    return None


def _fibre_violation(ld: LabelledDigraph, wa: WavelengthAssignment,
                     ) -> str | None:
    """Why `wa` is no wavelength assignment of ld, or None.  The
    wavelength verifier decides: with fibres in 1..n, rules (i)-(iii)
    give in(v,α) + out(v,α) distinct fibres at v, so its pass proves the
    fibre colouring of the wavelengths valid too.  When it fails, that
    colouring's first overload, if there is one, names the violation."""
    from .fibre import (FibreColouring, verify_fibre_colouring,
                        verify_wavelength_assignment)
    bad = verify_wavelength_assignment(ld, wa)
    if bad is None:
        return None
    colour = {a: wl for a, (wl, _, _) in wa.triple.items()}
    overload = verify_fibre_colouring(
        ld, FibreColouring(wa.n, colour, max(colour.values(), default=0)))
    if overload is None:
        return str(bad)
    return (f"vertex {overload.vertex} colour {overload.colour} has in+out ="
            f" {overload.in_count}+{overload.out_count} > {wa.n}")


def _require(violation: str | None) -> None:
    """Raise InvalidColouringError(violation) unless it is None."""
    if violation is not None:
        raise InvalidColouringError(violation)


@contextmanager
def _own_output(what: str):
    """Blame this package (InternalDefectError) for an
    InvalidColouringError or a ValidateError raised while the block
    builds and decides an output from an instance already checked."""
    try:
        yield
    except (InvalidColouringError, ValidateError) as exc:
        raise InternalDefectError(f"{what} failed verification: {exc}") from exc


def _expand_checked(ld: LabelledDigraph, fc: FibreColouring,
                    ) -> WavelengthAssignment:
    """fc's expansion, which rejects an overloaded fc, once its verdict
    has passed; called inside `_own_output`."""
    from .fibre import expand_to_wavelength_assignment
    wa = expand_to_wavelength_assignment(ld, fc)
    _require(_fibre_violation(ld, wa))
    return wa
