"""The verified entry point: pick a theorem, run it, state its bound.

`solve(ld, fibres, algorithm)` returns a `Solution`: a directed star
colouring of ld's arcs (labels unread), or with `fibres` the wavelength
assignment of an n-fibre colouring, by a row of `_THEOREMS`, the one
place that states each theorem's class, bound and solver; `auto` takes
the first row of its output kind whose class holds.  Each output kind
has one verdict, which returns the text `galaxia verify` prints after
`violation: `, or None: `_star_violation` for a star colouring, where
one walk per colour pair decides and names a bicoloured circuit and an
interval is named by its ends and modulus, and `_fibre_violation` for a
wavelength assignment.  A verifier's violation record words itself, so
a verdict that finds one returns `str(record)`.  The solvers return
their output unchecked; `solve`, and the command line's `exact` and
`reduce --check`, run it through its verdict once and raise
InternalDefectError with that text.  A theorem's module is imported
when it runs, so a process loads only the theorems it uses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple

from .colouring import ArcColouring
from .digraph import DegreeProfile, Digraph, LabelledDigraph, _check_type, is_acyclic
from .errors import (BadParamsError, InternalDefectError, InvalidColouringError,
                     NoApplicableAlgorithmError, ValidateError)
from .intervals import CyclicInterval
from .oracle import _bicoloured_circuit, verify_star_colouring

if TYPE_CHECKING:
    from .fibre import FibreColouring, WavelengthAssignment  # unreached: type checkers only


class _Theorem(NamedTuple):
    name: str
    kind: str  # "star", "acircuitic" (no bicoloured circuit either) or "fibre"
    holds: Callable[[Digraph, DegreeProfile], bool]  # auto's class test
    bound: Callable[[int, int, int], tuple[int, str]]  # (k, m, n) -> bound, rule
    module: str  # the solver, looked up when it runs
    solver: str
    fits: Callable[[int, int], bool] = lambda m, n: True  # fibre rows: m against n
    refusal: str = ""  # why a named run fails `fits`


def _load(module: str, name: str):
    """`name` of this package's `module`, imported when first asked for."""
    return getattr(import_module(f"{__package__}.{module}"), name)


_THEOREMS = (
    _Theorem("acyclic", "star", lambda d, p: is_acyclic(d),
             lambda k, m, n: (2 * k, f"2k with k={k}"),
             "acyclic", "star_colouring_acyclic"),
    _Theorem("subcubic", "star", lambda d, p: p.max_degree <= 3,
             lambda k, m, n: (3, "max degree <= 3"),
             "subcubic", "star_colouring_subcubic"),
    _Theorem("diregular4", "star",
             lambda d, p: p.max_indegree <= 2 and p.max_outdegree <= 2,
             lambda k, m, n: (4, "in/outdegrees <= 2"), "spanning", "dst4_colouring"),
    _Theorem("2k1", "star", lambda d, p: True,
             lambda k, m, n: (2 * k + 1, f"2k+1 with k={k}"),
             "galaxy", "dst_upper_2k1"),
    _Theorem("acircuitic", "acircuitic",
             lambda d, p: p.max_degree <= 3 and not d.has_digon(),
             lambda k, m, n: (4, "oriented subcubic, no bicoloured circuit"),
             "acircuitic", "acircuitic_colouring"),
    _Theorem("smallm", "fibre", lambda d, p: True,
             lambda k, m, n: (math.ceil(k / (n - m)), f"ceil(k/(n-m)) with k={k}"),
             "fibre", "fibre_colouring_smallm",
             lambda m, n: m < n, "smallm needs m < n, instance has m={m}, n={n}"),
    _Theorem("acyclic", "fibre", lambda d, p: is_acyclic(d),
             lambda k, m, n: (_load("fibre", "upper_bound_acyclic")(n, m, k),
                              f"ceil((m/n)ceil(k/n) + k/n) with m={m} k={k}"),
             "fibre", "fibre_colouring_acyclic", lambda m, n: m >= n,
             "the acyclic bound needs m >= n, instance has m={m}, n={n}"),
)
_NAMED = {(row.name, row.kind == "fibre"): row for row in _THEOREMS}
# the `--algorithm` choices, with 2k1, the theorem for every digraph, first
_ALGORITHMS = ("auto", *sorted(dict.fromkeys(name for name, _ in _NAMED),
                               key=lambda name: name != "2k1"))


class Solution(NamedTuple):
    algorithm: str      # the theorem that ran, never "auto"
    output: ArcColouring | WavelengthAssignment
    colour_count: int   # colours of the star or fibre colouring
    intervals: dict[int, CyclicInterval]  # acyclic star colourings only
    bound: int          # the colour count the theorem proves
    rule: str           # how the bound follows from the instance


def solve(ld: LabelledDigraph, fibres: int | None = None,
          algorithm: str = "auto") -> Solution:
    """ld coloured by `algorithm`, a star colouring of its arcs, or
    with `fibres` a wavelength assignment, verified.

    Raises BadParamsError for an ld that is no LabelledDigraph, an
    unknown algorithm or a fibre count that is no positive integer,
    NoApplicableAlgorithmError when no theorem covers ld,
    PreconditionViolatedError (CyclicError for a circuit) when the
    theorem run finds its hypothesis false, and InternalDefectError
    when the output fails its verdict."""
    _check_type("solve", ld, LabelledDigraph)
    if algorithm not in _ALGORITHMS:
        raise BadParamsError(f"unknown algorithm {algorithm!r}")
    if fibres is not None and (type(fibres) is not int or fibres < 1):
        raise BadParamsError(f"fibre count must be a positive integer, got {fibres!r}")
    m, n, fibre = ld.label_count, fibres, fibres is not None
    profile = ld.profile
    if algorithm == "auto":
        row = next((row for row in _THEOREMS if (row.kind == "fibre") == fibre
                    and row.fits(m, n) and row.holds(ld, profile)), None)
        if row is None:  # a fibre run: 2k1 covers every digraph
            raise NoApplicableAlgorithmError(
                f"cyclic instance with m={m} >= n={n} fibres")
    else:
        row = _NAMED.get((algorithm, fibre))
        if row is None:
            raise NoApplicableAlgorithmError(
                f"{algorithm} does not apply to --fibres runs" if fibre
                else f"{algorithm} needs --fibres")
        if not row.fits(m, n):
            raise NoApplicableAlgorithmError(row.refusal.format(m=m, n=n))
    bound, rule = row.bound(profile.max_indegree, m, n)
    solver, intervals = _load(row.module, row.solver), {}
    with _own_output("solver output"):
        if fibre:
            fc = solver(ld, n)
            output, colour_count = _expand_checked(ld, fc), fc.colour_count
        else:
            output = solver(ld)
            if type(output) is tuple:  # the acyclic theorem's certificates
                output, intervals = output
            _require(_star_violation(ld, output, intervals, row.kind == "acircuitic"))
            colour_count = output.colour_count
    return Solution(row.name, output, colour_count, intervals, bound, rule)


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
        return str(bad)
    circuit = _bicoloured_circuit(d, colouring) if acircuitic else None
    if circuit is not None:
        return f"bicoloured circuit through vertices {list(circuit)}"
    colour, in_arcs = colouring.colour, d.in_arcs
    for v in sorted(intervals):
        iv = intervals[v]
        if v >= d.vertex_count:
            return f"interval line names vertex {v} outside 0..{d.vertex_count - 1}"
        # `c in iv`, tested here: a call per arc costs as much as the test
        start, length, modulus = iv.start, iv.length, iv.modulus
        for a in in_arcs[v]:
            c = colour[a]
            if c > modulus or (c - start) % modulus >= length:
                end = (start + length - 2) % modulus + 1
                return (f"arc {a} enters vertex {v} with colour {c} outside"
                        f" its interval {start}..{end} mod {modulus}")
    return None


def _fibre_violation(ld: LabelledDigraph, wa: WavelengthAssignment) -> str | None:
    """Why `wa` is no wavelength assignment of ld, or None.  The
    wavelength verifier decides: with fibres in 1..n, rules (i)-(iii)
    give in(v,α) + out(v,α) distinct fibres at v, so its pass proves the
    fibre colouring of the wavelengths valid too.  When it fails, that
    colouring's first overload names the violation, else the collision."""
    from .fibre import (FibreColouring, verify_fibre_colouring,
                        verify_wavelength_assignment)
    bad = verify_wavelength_assignment(ld, wa)
    if bad is None:
        return None
    colour = [wl for wl, _, _ in wa.triple]
    overload = verify_fibre_colouring(
        ld, FibreColouring(wa.n, colour, max(colour, default=0)))
    return str(overload or bad)


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


def _expand_checked(ld: LabelledDigraph, fc: FibreColouring) -> WavelengthAssignment:
    """fc's expansion, which rejects an overloaded fc, once its verdict
    has passed; called inside `_own_output`."""
    from .fibre import expand_to_wavelength_assignment
    wa = expand_to_wavelength_assignment(ld, fc)
    _require(_fibre_violation(ld, wa))
    return wa
