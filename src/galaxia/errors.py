"""Exception taxonomy shared by the whole package.

Parsing problems carry the 1-based line number of the offending input
line, or line 0 when the fault is the whole input's (no problem line);
everything structural that spans several lines (duplicate arcs, bad
header counts) is a ValidateError instead, so callers can tell "fix the
line" apart from "fix the file".
"""

from __future__ import annotations

from collections.abc import Sequence


class GalaxiaError(Exception):
    """Base class for every error raised deliberately by this package."""


class ParseError(GalaxiaError):
    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidateError(GalaxiaError):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class NotSimpleError(GalaxiaError):
    """An operation restricted to simple digraphs found parallel arcs."""


class CyclicError(GalaxiaError):
    """Raised when an operation requires an acyclic digraph.

    Carries a witness circuit: vertices c0..c_{l-1}, distinct, with an
    arc c_i -> c_{i+1 mod l} for every i.
    """

    def __init__(self, circuit: Sequence[int]) -> None:
        super().__init__(f"digraph contains a circuit: {list(circuit)}")
        self.circuit = tuple(circuit)


class NotSubcubicError(GalaxiaError):
    """An operation restricted to digraphs with max degree 3 got more."""


class DegreeTooHighError(GalaxiaError):
    """An operation requiring max in- and outdegree 2 got more."""


class HasDigonError(GalaxiaError):
    """An operation restricted to oriented graphs found a digon."""


class NotCubicError(GalaxiaError):
    """An operation on undirected graphs requires 3-regularity."""


class BadShapeError(GalaxiaError):
    """A digraph does not have the shape an operation needs."""


class BadListsError(GalaxiaError):
    """A list assignment violates the size contract of an operation."""


class InfeasibleError(GalaxiaError):
    """The requested object provably does not exist for this input."""


class PreconditionViolatedError(GalaxiaError):
    """A documented precondition of a constructive lemma does not hold."""


class BadParamsError(GalaxiaError):
    """Parameters outside an operation's documented domain."""


class SizeOverflowError(GalaxiaError):
    """A requested construction would exceed hard size limits."""


class TooLargeError(GalaxiaError):
    """Instance exceeds the hard cap of an exact solver."""


class AboveCapError(GalaxiaError):
    """The exact answer provably exceeds the caller-supplied cap."""

    def __init__(self, cap: int, reason: str = "") -> None:
        msg = f"no solution within cap {cap}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.cap = cap


class NoApplicableAlgorithmError(GalaxiaError):
    """No bundled constructive algorithm covers the given instance."""


class InvalidColouringError(GalaxiaError):
    """A colouring failed verification; the message has the violation."""


class InternalDefectError(GalaxiaError):
    """An invariant the algorithms guarantee was observed to fail.

    Never raised on bad user input; seeing one means a bug in this
    package, and the message says which guarantee broke.  A solver
    raises it only where the failure would otherwise end in something
    else: a loop that falls through, a missing value read as one,
    another error class, or an output property that no verifier checks.
    `solve`, `exact` and `reduce --check` raise it when a verdict fails.
    """
