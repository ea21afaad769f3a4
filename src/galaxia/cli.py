"""Command line front end.

Five subcommands over the text formats in `fileio`: generate instances,
solve them constructively, verify colourings, run the exact solvers and
build the hardness reduction.  `main` parses a command's arguments with
that command's own subparser, the one argparse would call, and leaves an
argv that does not start with a command word to the top parser, so usage
texts and exit codes are argparse's.  `solve` runs `theorems.solve`,
which verifies its output; `exact` and `reduce --check` decide their
witness, and `verify` its file, by the same verdicts from `theorems`.
Each output is decided once, before anything is printed or written, and
a rejected one exits 4 (1 in `verify`).  A command imports the solver,
fibre and generator modules it runs when it runs, so a process loads
only what its command uses.  A `-o` file is opened only after the
output's check, written in place from its start and cut to the new
length (so it keeps its links and mode), before the report line is
printed; `-o -` is standard output, and no write is atomic or fsynced,
so a crash soon after an overwrite can leave the old output's bytes at
the new length.  Each command runs with the cyclic garbage collector
paused, since its passes find no cyclic garbage in a command, and `main`
restores the collector's state when it returns; a library caller that
wants the same can call `gc.disable()` itself.

Exit codes: 0 success, 1 a verification failed or a cap was exceeded,
2 bad usage, unreadable input or an instance too large for memory,
3 no algorithm covers the instance, 4 an internal proof obligation
fired (a bug in this package).
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
from contextlib import contextmanager

from .colouring import ArcColouring
from .digraph import Digraph, LabelledDigraph
from .errors import (AboveCapError, GalaxiaError, InternalDefectError,
                     InvalidColouringError, NoApplicableAlgorithmError,
                     PreconditionViolatedError)
from .fileio import (read_colouring, read_digraph, read_wavelengths,
                     write_colouring, write_digraph, write_wavelengths)
from .oracle import (DEFAULT_ARC_LIMIT, edge_colouring_3regular, exact_dst,
                     exact_lambda_n)
from .theorems import (_ALGORITHMS, _expand_checked, _fibre_violation,
                       _own_output, _require, _star_violation, solve)


def _read_instance(path: str) -> LabelledDigraph:
    if path == "-":
        return read_digraph(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return read_digraph(fh)


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
    """d with every arc labelled 1, on d's own arcs tuple.  Every caller
    passes a checked simple digraph, whose triples need no second check."""
    return LabelledDigraph._of(d.vertex_count, 1, d.arcs, (1,) * d.arc_count)


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
    else:  # triangle; labels tell an arc's consecutive copies apart
        d = triangle_multidigraph(args.multiplicity)
        ld = LabelledDigraph(3, args.multiplicity, tuple(
            (t, h, i % args.multiplicity + 1) for i, (t, h) in enumerate(d.arcs)))
        origin = f"triangle multiplicity={args.multiplicity}"
        seed = None
    comment = (f"generator={origin}, seed={'none' if seed is None else seed},"
               f" reduced={'true' if reduced else 'false'}")
    with _out_stream(args.output) as fh:
        write_digraph(fh, ld, comments=[comment])
    return 0


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    sol = solve(ld, args.fibres, args.algorithm)
    fibres = "" if args.fibres is None else f" fibres={args.fibres}"
    summary = (f"algorithm={sol.algorithm}{fibres} colours={sol.colour_count}"
               f" bound={sol.bound} ({sol.rule})")
    if args.fibres is None:
        return _report([summary], args.output, lambda fh: write_colouring(
            fh, sol.output.colour, sol.intervals or None, comments=[summary]))
    return _report([summary], args.output, lambda fh: write_wavelengths(
        fh, sol.output.triple, comments=[summary]))


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    with open(args.colouring, encoding="utf-8") as fh:
        if args.fibres is not None:
            triples = read_wavelengths(fh, ld.arc_count)
        else:
            colours, intervals = read_colouring(fh, ld.arc_count)
    if args.fibres is not None:
        from .fibre import WavelengthAssignment
        violation = _fibre_violation(ld, WavelengthAssignment(args.fibres, triples))
    else:
        colouring = ArcColouring(colours, max(colours, default=0))
        violation = _star_violation(ld, colouring, intervals, args.acircuitic)
    if violation is not None:
        print(f"violation: {violation}")
        return 1
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# exact


def _exact_star(d: Digraph, colour_cap: int | None, arc_limit: int,
                ) -> tuple[int, ArcColouring]:
    """exact_dst's value and its witness, which the star verdict passed."""
    with _own_output("exact witness"):
        value, witness = exact_dst(d, colour_cap, arc_limit)
        _require(_star_violation(d, witness, {}, False))
    return value, witness


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
    value, witness = _exact_star(ld, args.colour_cap, args.arc_limit)
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
        edges = ld.arcs
        vertex_count = ld.vertex_count
        origin = args.input
    d = np_reduction(vertex_count, edges)
    lines = [f"reduced {origin}: {vertex_count} vertices, {len(edges)} edges"
             f" -> {d.vertex_count} vertices, {d.arc_count} arcs"]
    if args.check:
        if args.output is None or args.output == "-":
            print(lines.pop())  # shown before the exact search runs
        value, _ = _exact_star(d, None, args.arc_limit)
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

    sol = sub.add_parser("solve", help="colour an instance constructively")
    sol.add_argument("input")
    sol.add_argument("--algorithm", choices=_ALGORITHMS, default="auto")
    sol.add_argument("--fibres", type=_positive_int, default=None)
    sol.add_argument("-o", "--output", default=None)
    sol.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a colouring file")
    ver.add_argument("input")
    ver.add_argument("colouring")
    kind = ver.add_mutually_exclusive_group()
    kind.add_argument("--fibres", type=_positive_int, default=None,
                      help="treat the file as a wavelength assignment")
    kind.add_argument("--acircuitic", action="store_true",
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
    except PreconditionViolatedError as exc:
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
