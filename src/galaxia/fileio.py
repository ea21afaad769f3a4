"""Line-oriented text format for digraphs, colourings and assignments.

    # comment lines and blank lines are ignored
    p dsa <vertex_count> <arc_count> <m>
    a <tail> <head> [<label>]          label omitted means 1
    c <arc_index> <colour>
    w <arc_index> <colour> <fibre_out> <fibre_in>
    i <vertex> <start> <k>             in-colour interval report

Arc index is the occurrence order of `a` lines starting at 0.  Problems
local to one line raise ParseError(line, reason); violations that only
show up across lines (duplicate triples, count mismatch, self-loops)
raise ValidateError.

An instance read from a stream in the canonical layout that
write_digraph writes (leading `#` lines, then `p dsa n a m`, then one
`a t h l` line per arc, single spaces, ASCII digits, each line ended by
a newline) is checked by three regular-expression searches and read
into three int columns with built-ins.  Checks on those columns (the
arc count, ends and labels in range, no self-loop, no repeated triple)
replace LabelledDigraph's own check, which does not run a second time.
Any other layout, and any canonical text that fails a check, goes
through the line reader on the same text, so the result, or the error
with its text and line number, is the same.
"""

from __future__ import annotations

import re
from operator import eq
from typing import IO, Iterable, Sequence

from .digraph import LabelledDigraph
from .errors import ParseError, ValidateError
from .intervals import CyclicInterval


def _ints(fields: list[str], lineno: int) -> list[int]:
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            raise ParseError(lineno, f"expected integer, got {f!r}") from None
    return out


def _content_lines(stream: Iterable[str]):
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


# A canonical text: its first problem line has only comment lines before
# it, and each newline from that line's own on is followed by an arc
# line, except the last, which ends the text.  Searches check this in
# memory that does not grow with the text; one pattern repeated per line
# would keep state for every line.
_HEADER = re.compile(r"^p dsa ([0-9]{1,18}) ([0-9]{1,18}) ([0-9]{1,18})\n", re.M)
_NOT_COMMENT = re.compile(r"^[^#]", re.M)
_NOT_ARC_LINE = re.compile(r"\n(?!a [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}\n)")
_SLICE = 1 << 14  # characters of arc lines split at a time
# Most vertices a problem line may declare.  Solvers and verifiers build
# tables with one entry per vertex, so a larger count is refused on its
# own line, whatever memory the host has.
VERTEX_LIMIT = 1 << 24


def read_digraph(stream: Iterable[str]) -> LabelledDigraph:
    """Read and check an instance.  A stream with `read` is read whole,
    and a canonical text in one pass of built-ins; anything else goes
    through the line reader."""
    if not hasattr(stream, "read"):
        return _read_lines(stream)
    text = stream.read()
    ld = _read_canonical(text)
    return _read_lines(text.split("\n")) if ld is None else ld


def _read_canonical(text: str) -> LabelledDigraph | None:
    """The instance of a canonical text whose counts and arcs pass the
    checks of LabelledDigraph, else None.  A number of more than 18
    digits makes a text not canonical, so int() here never meets one
    past its digit limit, and none is negative."""
    header = _HEADER.search(text)
    if (header is None or _NOT_COMMENT.search(text, 0, header.start())
            or _NOT_ARC_LINE.search(text, header.end() - 1).start() != len(text) - 1):
        return None
    n, arc_count, m = map(int, header.groups())
    if n > VERTEX_LIMIT:
        return None
    # The arc lines go in slices of whole lines, so that the tokens of
    # the whole text are never alive at once.
    tails: list[int] = []
    heads: list[int] = []
    labels: list[int] = []
    start = header.end()
    while start < len(text):
        end = text.find("\n", start + _SLICE) + 1 or len(text)
        tokens = text[start:end].split()  # "a", tail, head, label per arc
        tails += map(int, tokens[1::4])
        heads += map(int, tokens[2::4])
        labels += map(int, tokens[3::4])
        start = end
    if not (tails and len(tails) == arc_count and max(tails) < n
            and max(heads) < n and min(labels) >= 1 and max(labels) <= m
            and not any(map(eq, tails, heads))):
        return None
    if len(set(zip(tails, heads, labels))) < arc_count:
        return None
    return LabelledDigraph._of(n, m, tuple(zip(tails, heads)), tuple(labels))


def _read_lines(stream: Iterable[str]) -> LabelledDigraph:
    """Read and check an instance in one pass over its lines; arc lines,
    the common case, are tested first."""
    header = None
    arcs: list[tuple[int, int, int]] = []
    append = arcs.append
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        count = len(fields)
        if header is not None and (count == 3 or count == 4) and fields[0] == "a":
            arc = (*_ints(fields[1:], lineno), 1)[:3]  # label 1 when omitted
            if not (0 <= arc[0] < n and 0 <= arc[1] < n):
                raise ParseError(lineno, f"vertex id outside 0..{n - 1}")
            if not 1 <= arc[2] <= m:
                raise ParseError(lineno, f"label {arc[2]} outside 1..{m}")
            append(arc)
        elif not count or fields[0].startswith("#"):
            continue
        elif fields[0] == "p":
            if header is not None:
                raise ParseError(lineno, "second problem line")
            if count != 5 or fields[1] != "dsa":
                raise ParseError(lineno, "problem line must be 'p dsa <n> <arcs> <m>'")
            n, arc_count, m = header = _ints(fields[2:], lineno)
            if n < 0 or arc_count < 0 or m < 1:
                raise ParseError(lineno, "bad problem-line counts")
            if n > VERTEX_LIMIT:
                raise ParseError(lineno, f"{n} vertices exceed the limit {VERTEX_LIMIT}")
        elif fields[0] == "a":
            if header is None:
                raise ParseError(lineno, "arc line before problem line")
            raise ParseError(lineno, "arc line must be 'a <tail> <head> [<label>]'")
        else:
            raise ParseError(lineno, f"unknown line type {fields[0]!r}")
    if header is None:
        raise ParseError(0, "missing problem line")
    if len(arcs) != arc_count:
        raise ValidateError(f"problem line promises {arc_count} arcs, file has {len(arcs)}")
    return LabelledDigraph(n, m, tuple(arcs))


def write_digraph(stream: IO[str], ld: LabelledDigraph,
                  comments: Iterable[str] = ()) -> None:
    for c in comments:
        stream.write(f"# {c}\n")
    stream.write(f"p dsa {ld.vertex_count} {ld.arc_count} {ld.label_count}\n")
    for (tail, head), label in zip(ld.arcs, ld.labels):
        stream.write(f"a {tail} {head} {label}\n")


def read_colouring(stream: Iterable[str], arc_count: int,
                   ) -> tuple[tuple[int, ...], dict[int, CyclicInterval]]:
    """Returns (colour by arc index, per-vertex interval reports).  Each
    of the arc_count arcs needs one `c` line."""
    colours: list[int | None] = [None] * arc_count
    intervals: dict[int, CyclicInterval] = {}
    for lineno, fields in _content_lines(stream):
        kind = fields[0]
        if kind == "c":
            if len(fields) != 3:
                raise ParseError(lineno, "colour line must be 'c <arc_index> <colour>'")
            arc, colour = _ints(fields[1:], lineno)
            if not 0 <= arc < arc_count:
                raise ParseError(lineno, f"arc index {arc} out of range")
            if colour < 1:
                raise ParseError(lineno, "colours are positive")
            if colours[arc] is not None:
                raise ValidateError(f"arc {arc} coloured twice")
            colours[arc] = colour
        elif kind == "i":
            if len(fields) != 4:
                raise ParseError(lineno, "interval line must be 'i <vertex> <start> <k>'")
            vertex, start, k = _ints(fields[1:], lineno)
            if vertex < 0 or k < 1 or not 1 <= start <= 2 * k:
                raise ParseError(lineno, "bad interval line values")
            if vertex in intervals:
                raise ValidateError(f"vertex {vertex} has two interval lines")
            intervals[vertex] = CyclicInterval(modulus=2 * k, start=start, length=k)
        else:
            raise ParseError(lineno, f"unknown line type {kind!r}")
    return _every_arc(colours, "uncoloured"), intervals


def _every_arc(values: list, missing: str) -> tuple:
    """`values` as a tuple once no entry is None; else a ValidateError
    names the first arc without a line as 'arc i is <missing>'."""
    if None in values:
        raise ValidateError(f"arc {values.index(None)} is {missing}")
    return tuple(values)


def write_colouring(stream: IO[str], colours: Sequence[int],
                    intervals: dict[int, CyclicInterval] | None = None,
                    comments: Iterable[str] = ()) -> None:
    for c in comments:
        stream.write(f"# {c}\n")
    for arc, colour in enumerate(colours):
        stream.write(f"c {arc} {colour}\n")
    for vertex in sorted(intervals or {}):
        iv = intervals[vertex]
        stream.write(f"i {vertex} {iv.start} {iv.length}\n")


def read_wavelengths(stream: Iterable[str], arc_count: int,
                     ) -> tuple[tuple[int, int, int], ...]:
    """Returns (wavelength, fibre_out, fibre_in) by arc index.  Each of
    the arc_count arcs needs one `w` line."""
    out: list[tuple[int, int, int] | None] = [None] * arc_count
    for lineno, fields in _content_lines(stream):
        if fields[0] != "w":
            raise ParseError(lineno, f"unknown line type {fields[0]!r}")
        if len(fields) != 5:
            raise ParseError(lineno,
                             "wavelength line must be 'w <arc> <colour> <f_out> <f_in>'")
        arc, colour, f_out, f_in = _ints(fields[1:], lineno)
        if not 0 <= arc < arc_count:
            raise ParseError(lineno, f"arc index {arc} out of range")
        if colour < 1 or f_out < 1 or f_in < 1:
            raise ParseError(lineno, "wavelength and fibres are positive")
        if out[arc] is not None:
            raise ValidateError(f"arc {arc} assigned twice")
        out[arc] = (colour, f_out, f_in)
    return _every_arc(out, "unassigned")


def write_wavelengths(stream: IO[str],
                      assignment: Sequence[tuple[int, int, int]],
                      comments: Iterable[str] = ()) -> None:
    for c in comments:
        stream.write(f"# {c}\n")
    for arc, (colour, f_out, f_in) in enumerate(assignment):
        stream.write(f"w {arc} {colour} {f_out} {f_in}\n")
