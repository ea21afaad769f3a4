"""Exception taxonomy shared by the whole package.

Parsing problems carry the 1-based line number of the offending input
line, or line 0 when the fault is the whole input's (no problem line);
everything structural that spans several lines (duplicate arcs, bad
header counts) is a ValidateError instead, so callers can tell "fix the
line" apart from "fix the file".  Each class is one way a call fails, so
`cli.main` maps each to one exit code; a theorem's hypothesis failing on
its input is always a PreconditionViolatedError.
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


class InfeasibleError(GalaxiaError):
    """The requested object provably does not exist for this input."""


class PreconditionViolatedError(GalaxiaError):
    """The input lies outside the class of digraphs an operation's
    theorem or lemma covers: parallel arcs where it needs a simple
    digraph, a circuit, a digon, a degree above its bound, a digraph
    that is not one circuit, or colour lists outside its contract.  The
    message names the hypothesis that fails; the CLI exits 3.
    """


class CyclicError(PreconditionViolatedError):
    """Raised when an operation requires an acyclic digraph.

    Carries a witness circuit: vertices c0..c_{l-1}, distinct, with an
    arc c_i -> c_{i+1 mod l} for every i.
    """

    def __init__(self, circuit: Sequence[int]) -> None:
        super().__init__(f"digraph contains a circuit: {list(circuit)}")
        self.circuit = tuple(circuit)


class BadParamsError(GalaxiaError):
    """Parameters outside an operation's documented domain."""


class TooLargeError(GalaxiaError):
    """An instance exceeds the hard cap of an exact solver, or a
    construction would exceed its size budget."""


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
