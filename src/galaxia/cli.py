"""Command line front end.

Five subcommands over the text formats in `fileio`: generate instances,
solve them constructively, verify colourings, run the exact solvers and
build the hardness reduction.  `main` parses a command's arguments with
that command's own subparser, the one argparse would call, and leaves an
argv that does not start with a command word to the top parser, so usage
texts and exit codes are argparse's.  Each output kind has one verdict, which
returns the text `verify` prints after `violation: `, or None:
`_star_violation` for a star colouring, where one walk per colour pair
decides and names a bicoloured circuit and an interval is named by its
ends and modulus, and `_fibre_violation` for a wavelength assignment.
The solvers return their output unchecked; `solve`, `exact` and
`reduce --check` run it through its verdict once, before anything is
printed or written, and exit 4 with that text if it fails.  A command imports the solver, fibre and generator modules it
runs when it runs, so a process loads only what its command uses.  A `-o` file is opened
only after the output's check, written in place from its start and
cut to the new length (so it keeps its links and mode), before the
report line is printed; `-o -` is standard output, and no write is
atomic or fsynced, so a crash soon after an overwrite can leave the
old output's bytes at the new length.  Each command runs with the
cyclic garbage collector paused, since its passes find no cyclic
garbage in a command, and `main` restores the collector's state when it
returns; a library caller that wants the same can call `gc.disable()`
itself.

Exit codes: 0 success, 1 a verification failed or a cap was exceeded,
2 bad usage, unreadable input or an instance too large for memory,
3 no algorithm covers the instance, 4 an internal proof obligation
fired (a bug in this package).
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import stat
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .colouring import ArcColouring
from .digraph import Digraph, LabelledDigraph, degree_profile, is_acyclic
from .errors import (AboveCapError, CyclicError, DegreeTooHighError,
                     GalaxiaError, HasDigonError, InternalDefectError,
                     InvalidColouringError, NoApplicableAlgorithmError,
                     NotSimpleError, NotSubcubicError,
                     PreconditionViolatedError, ValidateError)
from .fileio import (read_colouring, read_digraph, read_wavelengths,
                     write_colouring, write_digraph, write_wavelengths)
from .intervals import CyclicInterval
from .oracle import (DEFAULT_ARC_LIMIT, _bicoloured_circuit,
                     edge_colouring_3regular, exact_dst, exact_lambda_n,
                     verify_star_colouring)

if TYPE_CHECKING:
    from .fibre import FibreColouring, WavelengthAssignment  # unreached: type checkers only

_STAR_ALGORITHMS = ("auto", "2k1", "acyclic", "subcubic", "diregular4",
                    "acircuitic", "smallm")


def _read_instance(path: str) -> LabelledDigraph:
    if path == "-":
        return read_digraph(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return read_digraph(fh)


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
    """Blame this package (exit 4) for an InvalidColouringError or a
    ValidateError raised while the block builds and decides a command's
    output from an instance already read."""
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


@contextmanager
def _out_stream(path: str | None):
    """Standard output for None or "-", else the file at `path`, written
    in place from offset 0.  Opening without O_TRUNC spares an existing
    file the truncate that ext4 flushes at close; a regular file that
    held bytes is cut where the writing stopped instead, also when it
    stops by an error.  A new or empty file needs no cut."""
    if path is None or path == "-":
        yield sys.stdout
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        old = os.fstat(fd)
        try:
            yield fh
            fh.flush()
        finally:
            if stat.S_ISREG(old.st_mode) and old.st_size:
                # at the bytes that reached the file, with no flush that
                # could fail again when a failed flush ended the block
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _report(lines: list[str], path: str | None, write) -> int:
    """Print a command's report `lines` and write its `-o` output by
    `write(stream)`.  A named file is written first, so a run whose write
    fails (exit 2) prints no success line; with `-o -` or no `-o` the
    lines come first."""
    named = path is not None and path != "-"
    if not named:
        print(*lines, sep="\n")
    if path is not None:
        with _out_stream(path) as fh:
            write(fh)
    if named:
        print(*lines, sep="\n")
    return 0


# ---------------------------------------------------------------------------
# generate


def _as_labelled(d: Digraph) -> LabelledDigraph:
    """d with every arc labelled 1.  Every caller passes a checked
    simple digraph, whose triples need no second check."""
    return LabelledDigraph._of(d.vertex_count, 1,
                               tuple((t, h, 1) for t, h in d.arcs))


def _cmd_generate(args: argparse.Namespace) -> int:
    from .constructions import (extremal_gnmk, gnmk_sizes, random_digraph,
                                random_labelled_dag, random_oriented_subcubic,
                                random_subcubic, triangle_multidigraph)
    seed = args.seed
    reduced = False
    if args.family == "gnmk":
        sizes = gnmk_sizes(args.n, args.m, args.k, args.y_cap)
        ld = extremal_gnmk(args.n, args.m, args.k, args.y_cap)
        reduced = sizes.reduced
        origin = f"gnmk n={args.n} m={args.m} k={args.k} y_cap={args.y_cap}"
        seed = None
    elif args.family == "random":
        ld = _as_labelled(random_digraph(args.vertices, args.in_cap,
                                         args.out_cap, seed))
        origin = (f"random vertices={args.vertices} in_cap={args.in_cap}"
                  f" out_cap={args.out_cap}")
    elif args.family == "subcubic":
        ld = _as_labelled(random_subcubic(args.vertices, seed))
        origin = f"subcubic vertices={args.vertices}"
    elif args.family == "oriented-subcubic":
        ld = _as_labelled(random_oriented_subcubic(args.vertices, seed))
        origin = f"oriented-subcubic vertices={args.vertices}"
    elif args.family == "dag":
        ld = random_labelled_dag(args.vertices, args.m, args.k, seed)
        origin = f"dag vertices={args.vertices} m={args.m} k={args.k}"
    else:  # triangle; labels only tell parallel copies apart
        d = triangle_multidigraph(args.multiplicity)
        copies: dict[tuple[int, int], int] = {}
        arcs = []
        for t, h in d.arcs:
            copies[(t, h)] = copies.get((t, h), 0) + 1
            arcs.append((t, h, copies[(t, h)]))
        ld = LabelledDigraph(3, args.multiplicity, tuple(arcs))
        origin = f"triangle multiplicity={args.multiplicity}"
        seed = None
    comment = (f"generator={origin}, seed={'none' if seed is None else seed},"
               f" reduced={'true' if reduced else 'false'}")
    with _out_stream(args.output) as fh:
        write_digraph(fh, ld, comments=[comment])
    return 0


# ---------------------------------------------------------------------------
# solve


def _pick_star_algorithm(d: Digraph) -> str:
    profile = degree_profile(d)
    if is_acyclic(d):
        return "acyclic"
    if profile.max_degree <= 3:
        return "subcubic"
    if profile.max_indegree <= 2 and profile.max_outdegree <= 2:
        return "diregular4"
    return "2k1"


def _run_star(algo: str, d: Digraph):
    """(colouring, intervals, bound, rule) for one constructive theorem."""
    k = degree_profile(d).max_indegree
    if algo == "acyclic":
        from .acyclic import star_colouring_acyclic
        colouring, intervals = star_colouring_acyclic(d)
        return colouring, intervals, 2 * k, f"2k with k={k}"
    if algo == "subcubic":
        from .subcubic import star_colouring_subcubic
        return star_colouring_subcubic(d), {}, 3, "max degree <= 3"
    if algo == "diregular4":
        from .spanning import dst4_colouring
        return dst4_colouring(d), {}, 4, "in/outdegrees <= 2"
    if algo == "acircuitic":
        from .acircuitic import acircuitic_colouring
        return (acircuitic_colouring(d), {}, 4,
                "oriented subcubic, no bicoloured circuit")
    if algo == "2k1":
        from .galaxy import dst_upper_2k1
        return dst_upper_2k1(d), {}, 2 * k + 1, f"2k+1 with k={k}"
    raise NoApplicableAlgorithmError(f"{algo} needs --fibres")


def _cmd_solve(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    if args.fibres is not None:
        return _solve_fibre(ld, args)
    d = ld.underlying
    algo = args.algorithm
    if algo == "auto":
        algo = _pick_star_algorithm(d)
    with _own_output("solver output"):
        colouring, intervals, bound, rule = _run_star(algo, d)
        _require(_star_violation(d, colouring, intervals, algo == "acircuitic"))
    summary = (f"algorithm={algo} colours={colouring.colour_count}"
               f" bound={bound} ({rule})")
    return _report([summary], args.output, lambda fh: write_colouring(
        fh, colouring.colour, intervals or None, comments=[summary]))


def _solve_fibre(ld: LabelledDigraph, args: argparse.Namespace) -> int:
    from .fibre import (fibre_colouring_acyclic, fibre_colouring_smallm,
                        upper_bound_acyclic)
    n = args.fibres
    m = ld.label_count
    k = degree_profile(ld).max_indegree
    algo = args.algorithm
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
        solver = fibre_colouring_smallm
        bound = math.ceil(k / (n - m)) if k else 0
        rule = f"ceil(k/(n-m)) with k={k}"
    elif algo == "acyclic":
        if m < n:
            raise NoApplicableAlgorithmError(
                f"the acyclic bound needs m >= n, instance has m={m}, n={n}")
        solver = fibre_colouring_acyclic
        bound = upper_bound_acyclic(n, m, k)
        rule = f"ceil((m/n)ceil(k/n) + k/n) with m={m} k={k}"
    else:
        raise NoApplicableAlgorithmError(f"{algo} does not apply to --fibres runs")
    with _own_output("solver output"):
        fc = solver(ld, n)
        wa = _expand_checked(ld, fc)
    summary = (f"algorithm={algo} fibres={n} colours={fc.colour_count}"
               f" bound={bound} ({rule})")
    return _report([summary], args.output, lambda fh: write_wavelengths(
        fh, wa.triple, comments=[summary]))


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    with open(args.colouring, encoding="utf-8") as fh:
        if args.fibres is not None:
            triples = read_wavelengths(fh, arc_count=ld.arc_count)
        else:
            colours, intervals = read_colouring(fh, arc_count=ld.arc_count)
    if args.fibres is not None:
        from .fibre import WavelengthAssignment
        violation = _fibre_violation(ld, WavelengthAssignment(args.fibres, triples))
    else:
        colouring = ArcColouring(colours, max(colours.values(), default=0))
        violation = _star_violation(ld.underlying, colouring, intervals,
                                    args.acircuitic)
    if violation is not None:
        print(f"violation: {violation}")
        return 1
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    if args.fibres is not None:
        with _own_output("exact witness"):
            value, fc = exact_lambda_n(ld, args.fibres, args.colour_cap,
                                       args.arc_limit)
            wa = _expand_checked(ld, fc)
        return _report([f"lambda_{args.fibres} = {value}"], args.output,
                       lambda fh: write_wavelengths(
                           fh, wa.triple,
                           comments=[f"lambda_{args.fibres}={value}"]))
    d = ld.underlying
    with _own_output("exact witness"):
        value, witness = exact_dst(d, args.colour_cap, args.arc_limit)
        _require(_star_violation(d, witness, {}, False))
    return _report([f"dst = {value}"], args.output, lambda fh: write_colouring(
        fh, witness.colour, comments=[f"dst={value}"]))


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .constructions import CUBIC_GRAPHS, np_reduction
    if args.named is not None:
        vertex_count, edges = CUBIC_GRAPHS[args.named]
        origin = args.named
    else:
        ld = _read_instance(args.input)
        edges = tuple((t, h) for t, h, _ in ld.arcs)
        vertex_count = ld.vertex_count
        origin = args.input
    d = np_reduction(vertex_count, edges)
    lines = [f"reduced {origin}: {vertex_count} vertices, {len(edges)} edges"
             f" -> {d.vertex_count} vertices, {d.arc_count} arcs"]
    if args.check:
        if args.output is None or args.output == "-":
            print(lines.pop())  # shown before the exact search runs
        with _own_output("exact witness"):
            value, witness = exact_dst(d, arc_limit=args.arc_limit)
            _require(_star_violation(d, witness, {}, False))
        # the reduction has three arcs per vertex, so the arc limit the
        # exact search passed bounds the edge-colouring search as well
        feasible = edge_colouring_3regular(
            vertex_count, edges, vertex_limit=vertex_count) is not None
        lines.append(f"3-edge-colourable={feasible} dst={value}")
        if (value == 3) != feasible:
            raise InternalDefectError(f"reduction equivalence failed: {lines[-1]}")
    return _report(lines, args.output, lambda fh: write_digraph(
        fh, _as_labelled(d), comments=[f"generator=np-reduction source={origin},"
                                       f" seed=none, reduced=false"]))


# ---------------------------------------------------------------------------


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {what} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argument type of --fibres and --arc-limit: an integer of at least 1."""
    return _int_at_least(text, 1, "a positive")


def _non_negative_int(text: str) -> int:
    """Argument type of --colour-cap: an integer of at least 0."""
    return _int_at_least(text, 0, "a non-negative")


class _CubicGraphNames:
    """The choices of `reduce --named`: the sorted names of
    `constructions.CUBIC_GRAPHS`, read only when argparse checks a value
    (`in` iterates) or prints them, so building the parser loads no
    generator."""

    def __iter__(self):
        from .constructions import CUBIC_GRAPHS
        return iter(sorted(CUBIC_GRAPHS))


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The parser and its command name -> subparser map, built on first
    use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="galaxia",
        description="Galaxy decompositions and fibre wavelength assignment.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an instance file")
    gen.add_argument("--family", required=True,
                     choices=("gnmk", "random", "subcubic",
                              "oriented-subcubic", "dag", "triangle"))
    gen.add_argument("--n", type=int, default=1, help="fibre count (gnmk)")
    gen.add_argument("--m", type=int, default=1, help="label count")
    gen.add_argument("--k", type=int, default=1, help="max indegree")
    gen.add_argument("--y-cap", type=int, default=None,
                     help="truncate the Y layer of gnmk (reduced variant)")
    gen.add_argument("--vertices", type=int, default=20)
    gen.add_argument("--in-cap", type=int, default=2)
    gen.add_argument("--out-cap", type=int, default=2)
    gen.add_argument("--multiplicity", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="colour an instance constructively")
    solve.add_argument("input")
    solve.add_argument("--algorithm", choices=_STAR_ALGORITHMS, default="auto")
    solve.add_argument("--fibres", type=_positive_int, default=None)
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a colouring file")
    ver.add_argument("input")
    ver.add_argument("colouring")
    ver.add_argument("--fibres", type=_positive_int, default=None,
                     help="treat the file as a wavelength assignment")
    ver.add_argument("--acircuitic", action="store_true",
                     help="also reject bicoloured circuits")
    ver.set_defaults(func=_cmd_verify)

    exact = sub.add_parser("exact", help="run the exponential exact solver")
    exact.add_argument("input")
    exact.add_argument("--fibres", type=_positive_int, default=None)
    exact.add_argument("--colour-cap", type=_non_negative_int, default=None)
    exact.add_argument("--arc-limit", type=_positive_int, default=DEFAULT_ARC_LIMIT,
                       help=f"most arcs to search (default {DEFAULT_ARC_LIMIT})")
    exact.add_argument("-o", "--output", default=None)
    exact.set_defaults(func=_cmd_exact)

    red = sub.add_parser("reduce", help="3-edge-colouring hardness reduction")
    src = red.add_mutually_exclusive_group(required=True)
    src.add_argument("--named", choices=_CubicGraphNames())
    src.add_argument("--input", help="cubic graph as an arc file, arcs read as edges")
    red.add_argument("--check", action="store_true",
                     help="cross-check dst=3 against 3-edge-colourability (exponential)")
    red.add_argument("--arc-limit", type=_positive_int, default=DEFAULT_ARC_LIMIT)
    red.add_argument("-o", "--output", default=None)
    red.set_defaults(func=_cmd_reduce)

    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What `parser.parse_args(argv)` gives, with a command's arguments
    parsed by its subparser alone: the subparser argparse would call,
    without the top parser's matching of the whole argv first."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 4
    except NoApplicableAlgorithmError as exc:
        print(f"no applicable algorithm: {exc}", file=sys.stderr)
        return 3
    except (CyclicError, NotSubcubicError, DegreeTooHighError, HasDigonError,
            NotSimpleError, PreconditionViolatedError) as exc:
        print(f"algorithm does not apply: {exc}", file=sys.stderr)
        return 3
    except (AboveCapError, InvalidColouringError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except GalaxiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        print(f"error: {args.command}: input is not UTF-8 text", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command}: instance too large for memory",
              file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())  # unreached: runs only as a script, in a child process
