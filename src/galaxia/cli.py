"""Command line front end.

Six subcommands over the text formats in `fileio`: generate instances,
solve them constructively, verify colourings, run the exact solvers,
build the hardness reduction, and benchmark the constructive
algorithms.  The solvers return their output unchecked; each output is
run through the matching verifier exactly once here, before anything is
printed or written, and a failure there exits 4.

Exit codes: 0 success, 1 a verification failed or a cap was exceeded,
2 bad usage or unreadable input, 3 no algorithm covers the instance,
4 an internal proof obligation fired (a bug in this package).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager

from .acircuitic import acircuitic_colouring
from .acyclic import star_colouring_acyclic
from .colouring import ArcColouring
from .constructions import (CUBIC_GRAPHS, extremal_gnmk, gnmk_sizes,
                            np_reduction, random_digraph, random_labelled_dag,
                            random_oriented_subcubic, random_subcubic,
                            triangle_multidigraph)
from .digraph import Digraph, LabelledDigraph, degree_profile, is_acyclic
from .errors import (AboveCapError, CyclicError, DegreeTooHighError,
                     GalaxiaError, HasDigonError, InternalDefectError,
                     InvalidColouringError, NoApplicableAlgorithmError,
                     NotSubcubicError, PreconditionViolatedError)
from .fibre import (FibreColouring, WavelengthAssignment,
                    expand_to_wavelength_assignment, fibre_colouring_acyclic,
                    fibre_colouring_smallm, upper_bound_acyclic,
                    verify_fibre_colouring, verify_wavelength_assignment)
from .fileio import (read_colouring, read_digraph, read_wavelengths,
                     write_colouring, write_digraph, write_wavelengths)
from .galaxy import dst_upper_2k1
from .oracle import (edge_colouring_3regular, exact_dst, exact_lambda_n,
                     find_bicoloured_circuit, verify_star_colouring)
from .spanning import dst4_colouring
from .subcubic import star_colouring_subcubic

_STAR_ALGORITHMS = ("auto", "2k1", "acyclic", "subcubic", "diregular4",
                    "acircuitic", "smallm")


def _read_instance(path: str) -> LabelledDigraph:
    if path == "-":
        return read_digraph(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return read_digraph(fh)


def _check_output(verifier, instance, output, what: str) -> None:
    """Run `verifier` on solver output before it is printed or written.

    This is the output's only check, and a violation means a bug in this
    package, so it raises InternalDefectError (exit 4).
    """
    violation = verifier(instance, output)
    if violation is not None:
        raise InternalDefectError(f"{what} failed verification: {violation}")


@contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


# ---------------------------------------------------------------------------
# generate


def _as_labelled(d: Digraph) -> LabelledDigraph:
    return LabelledDigraph(d.vertex_count, 1,
                           tuple((t, h, 1) for t, h in d.arcs))


def _cmd_generate(args: argparse.Namespace) -> int:
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
        colouring, intervals = star_colouring_acyclic(d)
        return colouring, intervals, 2 * k, f"2k with k={k}"
    if algo == "subcubic":
        return star_colouring_subcubic(d), {}, 3, "max degree <= 3"
    if algo == "diregular4":
        return dst4_colouring(d), {}, 4, "in/outdegrees <= 2"
    if algo == "acircuitic":
        return (acircuitic_colouring(d), {}, 4,
                "oriented subcubic, no bicoloured circuit")
    if algo == "2k1":
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
    colouring, intervals, bound, rule = _run_star(algo, d)
    _check_output(verify_star_colouring, d, colouring, "solver output")
    if algo == "acircuitic":
        _check_output(find_bicoloured_circuit, d, colouring, "acircuitic output")
    summary = (f"algorithm={algo} colours={colouring.colour_count}"
               f" bound={bound} ({rule})")
    print(summary)
    if args.output is not None:
        with _out_stream(args.output) as fh:
            write_colouring(fh, dict(colouring.colour), intervals or None,
                            comments=[summary])
    return 0


def _solve_fibre(ld: LabelledDigraph, args: argparse.Namespace) -> int:
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
        fc = fibre_colouring_smallm(ld, n)
        bound = math.ceil(k / (n - m)) if k else 0
        rule = f"ceil(k/(n-m)) with k={k}"
    elif algo == "acyclic":
        if m < n:
            raise NoApplicableAlgorithmError(
                f"the acyclic bound needs m >= n, instance has m={m}, n={n}")
        fc = fibre_colouring_acyclic(ld, n)
        bound = upper_bound_acyclic(n, m, k)
        rule = f"ceil((m/n)ceil(k/n) + k/n) with m={m} k={k}"
    else:
        raise NoApplicableAlgorithmError(f"{algo} does not apply to --fibres runs")
    try:  # expansion checks its input: the fibre colouring's one check
        wa = expand_to_wavelength_assignment(ld, fc)
    except InvalidColouringError as exc:
        raise InternalDefectError(f"solver output failed verification: {exc}") from exc
    _check_output(verify_wavelength_assignment, ld, wa, "expansion")
    summary = (f"algorithm={algo} fibres={n} colours={fc.colour_count}"
               f" bound={bound} ({rule})")
    print(summary)
    if args.output is not None:
        with _out_stream(args.output) as fh:
            write_wavelengths(fh, dict(wa.triple), comments=[summary])
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    with open(args.colouring, encoding="utf-8") as fh:
        if args.fibres is not None:
            triples = read_wavelengths(fh, arc_count=ld.arc_count)
        else:
            colours, _intervals = read_colouring(fh, arc_count=ld.arc_count)
    if args.fibres is not None:
        wa = WavelengthAssignment(args.fibres, triples)
        top = max((wl for wl, _, _ in triples.values()), default=0)
        fc = FibreColouring(args.fibres, {a: wl for a, (wl, _, _) in triples.items()},
                            top)
        fibre_bad = verify_fibre_colouring(ld, fc)
        if fibre_bad is not None:
            print(f"violation: vertex {fibre_bad.vertex} colour {fibre_bad.colour}"
                  f" has in+out = {fibre_bad.in_count}+{fibre_bad.out_count}"
                  f" > {args.fibres}")
            return 1
        wl_bad = verify_wavelength_assignment(ld, wa)
        if wl_bad is not None:
            print(f"violation: {wl_bad}")
            return 1
        print("ok")
        return 0
    d = ld.underlying
    top = max(colours.values(), default=0)
    colouring = ArcColouring(colours, top)
    bad = verify_star_colouring(d, colouring)
    if bad is not None:
        kind = "converging" if bad.rule == "ii" else "consecutive"
        print(f"violation: {kind} arcs {bad.first_arc} and {bad.second_arc}"
              f" share colour {colouring[bad.first_arc]}")
        return 1
    if args.acircuitic:
        circuit = find_bicoloured_circuit(d, colouring)
        if circuit is not None:
            print(f"violation: bicoloured circuit through vertices {list(circuit)}")
            return 1
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args: argparse.Namespace) -> int:
    ld = _read_instance(args.input)
    if args.fibres is not None:
        value, fc = exact_lambda_n(ld, args.fibres, args.colour_cap,
                                   args.arc_limit)
        print(f"lambda_{args.fibres} = {value}")
        if args.output is not None:
            wa = expand_to_wavelength_assignment(ld, fc)
            _check_output(verify_wavelength_assignment, ld, wa, "expansion")
            with _out_stream(args.output) as fh:
                write_wavelengths(fh, dict(wa.triple),
                                  comments=[f"lambda_{args.fibres}={value}"])
        return 0
    value, witness = exact_dst(ld.underlying, args.colour_cap, args.arc_limit)
    print(f"dst = {value}")
    if args.output is not None:
        with _out_stream(args.output) as fh:
            write_colouring(fh, dict(witness.colour), comments=[f"dst={value}"])
    return 0


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.named is not None:
        vertex_count, edges = CUBIC_GRAPHS[args.named]
        origin = args.named
    else:
        ld = _read_instance(args.input)
        edges = tuple((t, h) for t, h, _ in ld.arcs)
        vertex_count = ld.vertex_count
        origin = args.input
    d = np_reduction(vertex_count, edges)
    print(f"reduced {origin}: {vertex_count} vertices, {len(edges)} edges"
          f" -> {d.vertex_count} vertices, {d.arc_count} arcs")
    if args.check:
        feasible = edge_colouring_3regular(vertex_count, edges) is not None
        value, _ = exact_dst(d, arc_limit=args.arc_limit)
        print(f"3-edge-colourable={feasible} dst={value}")
        if (value == 3) != feasible:
            raise InternalDefectError("reduction equivalence failed")
    if args.output is not None:
        with _out_stream(args.output) as fh:
            write_digraph(fh, _as_labelled(d),
                          comments=[f"generator=np-reduction source={origin},"
                                    f" seed=none, reduced=false"])
    return 0


# ---------------------------------------------------------------------------
# bench


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    print("instance\tn\tarcs\tcolours\tbound\tms")
    for size in sizes:
        seed = args.seed * 1000 + size
        if args.family == "random":
            d = random_digraph(size, args.in_cap, args.out_cap, seed)
        elif args.family == "subcubic":
            d = random_subcubic(size, seed)
        elif args.family == "oriented-subcubic":
            d = random_oriented_subcubic(size, seed)
        else:  # dag
            d = random_labelled_dag(size, args.m, args.k, seed).underlying
        algo = _pick_star_algorithm(d)
        start = time.perf_counter()
        colouring, _intervals, bound, _rule = _run_star(algo, d)
        elapsed = (time.perf_counter() - start) * 1000
        _check_output(verify_star_colouring, d, colouring, "bench output")
        if colouring.colour_count > bound:
            raise InternalDefectError("bench output exceeded its bound")
        print(f"{args.family}-{size}\t{d.vertex_count}\t{d.arc_count}"
              f"\t{colouring.colour_count}\t{bound}\t{elapsed:.1f}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
    solve.add_argument("--fibres", type=int, default=None)
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a colouring file")
    ver.add_argument("input")
    ver.add_argument("colouring")
    ver.add_argument("--fibres", type=int, default=None,
                     help="treat the file as a wavelength assignment")
    ver.add_argument("--acircuitic", action="store_true",
                     help="also reject bicoloured circuits")
    ver.set_defaults(func=_cmd_verify)

    exact = sub.add_parser("exact", help="run the exponential exact solver")
    exact.add_argument("input")
    exact.add_argument("--fibres", type=int, default=None)
    exact.add_argument("--colour-cap", type=int, default=None)
    exact.add_argument("--arc-limit", type=int, default=None,
                       help="override GALAXIA_ARC_LIMIT / the default 40")
    exact.add_argument("-o", "--output", default=None)
    exact.set_defaults(func=_cmd_exact)

    red = sub.add_parser("reduce", help="3-edge-colouring hardness reduction")
    src = red.add_mutually_exclusive_group(required=True)
    src.add_argument("--named", choices=sorted(CUBIC_GRAPHS))
    src.add_argument("--input", help="cubic graph as an arc file, arcs read as edges")
    red.add_argument("--check", action="store_true",
                     help="cross-check dst=3 against 3-edge-colourability (exponential)")
    red.add_argument("--arc-limit", type=int, default=None)
    red.add_argument("-o", "--output", default=None)
    red.set_defaults(func=_cmd_reduce)

    bench = sub.add_parser("bench", help="time the constructive algorithms")
    bench.add_argument("--family", required=True,
                       choices=("random", "subcubic", "oriented-subcubic", "dag"))
    bench.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--in-cap", type=int, default=2)
    bench.add_argument("--out-cap", type=int, default=2)
    bench.add_argument("--m", type=int, default=1)
    bench.add_argument("--k", type=int, default=3)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 4
    except NoApplicableAlgorithmError as exc:
        print(f"no applicable algorithm: {exc}", file=sys.stderr)
        return 3
    except (CyclicError, NotSubcubicError, DegreeTooHighError, HasDigonError,
            PreconditionViolatedError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
