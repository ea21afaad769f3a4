"""`solve` as a library call: the verified entry point behind `galaxia solve`.

It returns what the command prints and writes, refuses parameters
outside its domain, and on every simple digraph of at most four vertices
each star theorem either colours within its proven bound, never below
the exact value, or refuses with an error the command maps to exit 3.
On every labelled digraph of at most three vertices with m <= 2, each
fibre path does the same against `exact_lambda_n` for 1-3 fibres.
"""
import re
from collections import Counter
from itertools import compress, permutations, product

import pytest

from galaxia import (BadParamsError, CyclicError, Digraph, LabelledDigraph,
                     NoApplicableAlgorithmError, PreconditionViolatedError,
                     exact_dst, exact_lambda_n, read_colouring,
                     read_wavelengths, solve, write_digraph)
from galaxia.cli import main

DAG = LabelledDigraph(4, 1, ((0, 1, 1), (2, 1, 1), (1, 3, 1)))
CIRCUIT = LabelledDigraph(5, 1, tuple((i, (i + 1) % 5, 1) for i in range(5)))
DAG2 = LabelledDigraph(4, 2, ((0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 2),
                              (2, 3, 1)))

# (instance, --fibres, --algorithm, the summary line `galaxia solve` prints)
RUNS = [
    (DAG, None, "auto", "algorithm=acyclic colours=4 bound=4 (2k with k=2)"),
    (DAG, None, "acyclic", "algorithm=acyclic colours=4 bound=4 (2k with k=2)"),
    (CIRCUIT, None, "auto", "algorithm=subcubic colours=3 bound=3 (max degree <= 3)"),
    (CIRCUIT, None, "subcubic", "algorithm=subcubic colours=3 bound=3 (max degree <= 3)"),
    (CIRCUIT, None, "diregular4",
     "algorithm=diregular4 colours=3 bound=4 (in/outdegrees <= 2)"),
    (CIRCUIT, None, "acircuitic", "algorithm=acircuitic colours=4 bound=4"
     " (oriented subcubic, no bicoloured circuit)"),
    (CIRCUIT, None, "2k1", "algorithm=2k1 colours=3 bound=3 (2k+1 with k=1)"),
    (CIRCUIT, 2, "auto",
     "algorithm=smallm fibres=2 colours=1 bound=1 (ceil(k/(n-m)) with k=1)"),
    (DAG2, 2, "auto", "algorithm=acyclic fibres=2 colours=2 bound=2"
     " (ceil((m/n)ceil(k/n) + k/n) with m=2 k=2)"),
]


@pytest.mark.parametrize("ld, fibres, algorithm, summary", RUNS,
                         ids=[f"{run[2]}-{run[1]}-{run[0].vertex_count}" for run in RUNS])
def test_solution_is_what_the_command_prints_and_writes(tmp_path, capsys, ld, fibres,
                                                        algorithm, summary):
    instance, out = tmp_path / "in.dsa", tmp_path / "out.txt"
    with open(instance, "w", encoding="utf-8") as fh:
        write_digraph(fh, ld)
    argv = ["solve", str(instance), "--algorithm", algorithm, "-o", str(out)]
    assert main(argv + ([] if fibres is None else ["--fibres", str(fibres)])) == 0
    assert capsys.readouterr().out == summary + "\n"

    sol = solve(ld, fibres, algorithm)
    shown = "" if fibres is None else f" fibres={fibres}"
    assert summary == (f"algorithm={sol.algorithm}{shown} colours={sol.colour_count}"
                       f" bound={sol.bound} ({sol.rule})")
    with open(out, encoding="utf-8") as fh:
        if fibres is None:
            assert read_colouring(fh, ld.arc_count) == (dict(sol.output.colour),
                                                         sol.intervals)
        else:
            assert read_wavelengths(fh, ld.arc_count) == dict(sol.output.triple)
    assert bool(sol.intervals) == (sol.algorithm == "acyclic" and fibres is None)


@pytest.mark.parametrize("kwargs, message", [
    ({"algorithm": "bogus"}, "unknown algorithm 'bogus'"),
    ({"fibres": 0}, "fibre count must be a positive integer, got 0"),
    ({"fibres": -3, "algorithm": "smallm"},
     "fibre count must be a positive integer, got -3"),
    ({"fibres": 2.5}, "fibre count must be a positive integer, got 2.5"),
    ({"fibres": True}, "fibre count must be a positive integer, got True"),
    ({"ld": DAG.underlying}, "solve takes a LabelledDigraph, got Digraph"),
])
def test_solve_refuses_parameters_outside_its_domain(kwargs, message):
    with pytest.raises(BadParamsError, match=f"^{re.escape(message)}$"):
        solve(**{"ld": DAG, **kwargs})


# the errors `galaxia solve` reports with exit 3
EXIT_3 = (NoApplicableAlgorithmError, PreconditionViolatedError)


def small_digraphs():
    """Every simple digraph on 1-4 vertices, digons allowed, no loops."""
    for n in range(1, 5):
        pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
        for keep in product((False, True), repeat=len(pairs)):
            yield Digraph(n, tuple(p for p, k in zip(pairs, keep) if k))


def classes(d):
    """The star theorems whose class d is in, from their definitions."""
    indegree, outdegree = [0] * d.vertex_count, [0] * d.vertex_count
    for t, h in d.arcs:
        outdegree[t] += 1
        indegree[h] += 1
    degree = max((i + o for i, o in zip(indegree, outdegree)), default=0)
    digon = any((h, t) in d.arcs for t, h in d.arcs)
    acyclic = any(all(order.index(t) < order.index(h) for t, h in d.arcs)
                  for order in permutations(range(d.vertex_count)))
    return {"2k1": True, "acyclic": acyclic, "subcubic": degree <= 3,
            "diregular4": max(indegree + outdegree) <= 2,
            "acircuitic": not digon and degree <= 3}


def test_every_small_digraph_through_every_star_theorem():
    seen = dict.fromkeys(["2k1", "acyclic", "subcubic", "diregular4", "acircuitic"], 0)
    instances = 0
    for d in small_digraphs():
        instances += 1
        ld = LabelledDigraph(d.vertex_count, 1, tuple((t, h, 1) for t, h in d.arcs))
        exact = exact_dst(d)[0]
        holds = classes(d)
        for algorithm in ("auto", *seen):
            if algorithm != "auto" and not holds[algorithm]:
                with pytest.raises(EXIT_3):
                    solve(ld, algorithm=algorithm)
                continue
            sol = solve(ld, algorithm=algorithm)
            used = len(set(sol.output.colour.values()))
            assert exact <= used <= sol.colour_count <= sol.bound, (d.arcs, algorithm)
            if algorithm != "auto":
                seen[algorithm] += 1
    assert instances == 1 + 2 ** 2 + 2 ** 6 + 2 ** 12
    assert seen["2k1"] == instances and min(seen.values()) > 100


def small_labelled_digraphs():
    """Every labelled digraph on 1-3 vertices with m = 1 or 2, no loops."""
    for m in (1, 2):
        for n in range(1, 4):
            triples = [(t, h, label) for t in range(n) for h in range(n) if t != h
                       for label in range(1, m + 1)]
            for keep in product((False, True), repeat=len(triples)):
                yield LabelledDigraph(n, m, tuple(compress(triples, keep)))


def test_every_small_labelled_digraph_through_every_fibre_path():
    seen = Counter()
    instances = 0
    for ld in small_labelled_digraphs():
        instances += 1
        m, acyclic = ld.label_count, classes(ld.underlying)["acyclic"]
        for n in (1, 2, 3):
            exact = exact_lambda_n(ld, n)[0]
            # auto takes smallm when m < n, else acyclic when it holds
            holds = {"smallm": m < n, "acyclic": m >= n and acyclic}
            holds["auto"] = m < n or acyclic
            for algorithm, ok in holds.items():
                if not ok:
                    with pytest.raises((NoApplicableAlgorithmError, CyclicError)):
                        solve(ld, n, algorithm)
                    continue
                sol = solve(ld, n, algorithm)
                used = len({wl for wl, _, _ in sol.output.triple.values()})
                assert exact <= used <= sol.colour_count <= sol.bound, (ld, n, algorithm)
                seen[algorithm] += 1
    assert instances == 4182
    assert seen == {"auto": 4874, "smallm": 4251, "acyclic": 623}
