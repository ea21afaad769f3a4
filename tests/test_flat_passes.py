"""The star theorems' linear passes enter no package function per arc or
per vertex.

A Python call costs CPython about as much as the few operations a pass
does per arc, so a helper, lambda, generator expression or comprehension
entered once per arc or per vertex doubles a linear pass's cost.  These
cases count, with `sys.setprofile`, how often each `galaxia` code object
is entered (a generator's every resume counts) during one
`theorems.solve` on about 2,000 vertices, and require every count to
stay at most n/8.  A helper entered per item reads about n or more: a
membership test such as `c in interval` per arc in the acyclic verdict,
a key comprehension per vertex in `digraph._pattern_sweep`, a generator
expression per vertex in the adjacency or degree passes, or a `taken`
or `put` helper per deferred arc in the subcubic completion.

What stays is entered once per component, layer or pattern, not per
item.  Nearest the bound on the subcubic instance is `_peel`'s
`peel_sources` comprehension, once per source layer (at most 90 times
over seeds 1-8 at this size).  Nearest on the acyclic instance is the
`solve` lambda that `star_colouring_acyclic` hands the sweep, once per
distinct entering pattern of the instance (123-132 times over seeds
1-8); at k = 3 there are at most 6 + 6^2 + 6^3 = 258 patterns whatever
n is.  The lemma's helpers (`acyclic._solve` and the interval sweep it
calls) run once per pattern the process has not met before
(`test_acyclic.py` pins one run per pattern).  With an empty memo they
are entered about 1,000 times at this size, so the acyclic count runs
with the memo warmed by the same instance, as after any earlier solve
in the process.
"""
import sys
from collections import Counter
from pathlib import Path

import pytest

import galaxia
from galaxia import (LabelledDigraph, acyclic, random_labelled_dag,
                     random_subcubic, theorems)

PACKAGE = str(Path(galaxia.__file__).resolve().parent)
N = 2000
SEED = 1


def calls_per_code(ld, algorithm):
    """How often each code object of the package is entered while
    `theorems.solve` colours ld by `algorithm`."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        solution = theorems.solve(ld, algorithm=algorithm)
    finally:
        sys.setprofile(previous)
    assert solution.algorithm == algorithm
    return counts


def entered_often(counts, bound):
    return sorted(f"{Path(code.co_filename).name}:{code.co_firstlineno}"
                  f" {code.co_name} x{count}"
                  for code, count in counts.items() if count > bound)


def subcubic_instance(n, seed):
    d = random_subcubic(n, seed)
    return LabelledDigraph(n, 1, tuple((t, h, 1) for t, h in d.arcs))


def test_subcubic_passes_enter_no_function_per_arc_or_vertex():
    counts = calls_per_code(subcubic_instance(N, SEED), "subcubic")
    assert entered_often(counts, N // 8) == []


def test_acyclic_passes_enter_no_function_per_arc_or_vertex():
    acyclic._lemma.cache_clear()
    theorems.solve(random_labelled_dag(N, 1, 3, SEED), algorithm="acyclic")
    # a new instance of the same seed: its adjacency is built again
    counts = calls_per_code(random_labelled_dag(N, 1, 3, SEED), "acyclic")
    assert entered_often(counts, N // 8) == []
