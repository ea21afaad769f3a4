"""Every internal-defect guard in the package, each reached by one case.

A guard raises InternalDefectError only where, without it, a broken
proof step would end in something other than exit 4: a loop that falls
through, a None or a missing entry read as a value, another error class
that blames the input, or an output property that no verifier checks.
Each case drives one private core into that state, by a crafted digraph
or crafted arguments that break the core's precondition or by a helper
monkeypatched to fail, and pins the message.  The census lists every `raise
InternalDefectError` in the package and requires the cases to reach
exactly those sites, so a guard added without a case fails here.
"""
import ast
import contextlib
import io
import pathlib
import re
import sys
import types

import pytest

import galaxia
from galaxia import (CUBIC_GRAPHS, ArcColouring, CyclicInterval, Digraph,
                     FibreColouring, LabelledDigraph, InternalDefectError,
                     exact_dst, exact_lambda_n, lemma_cycle_colouring,
                     np_reduction, sdr_in_cyclic_interval,
                     strong_components)
from galaxia import (acircuitic, acyclic, cli, constructions, fibre,
                     intervals, oracle, spanning, subcubic, theorems)
from conftest import circuit

PACKAGE = pathlib.Path(galaxia.__file__).resolve().parent
CASES = []


def case(guard):
    CASES.append(guard)
    return guard


def raises_defect(message):
    return pytest.raises(InternalDefectError, match=f"^{re.escape(message)}$")


def colour_core(n, arcs):
    """Run the subcubic core step on a crafted core of n vertices."""
    subcubic._colour_core(Digraph(n, arcs), list(range(len(arcs))),
                          [0] * len(arcs))


def claims_subcubic(monkeypatch):
    """Let acircuitic_colouring take a digraph of any degree."""
    real = acircuitic.degree_profile
    monkeypatch.setattr(acircuitic, "degree_profile", lambda d: types.SimpleNamespace(
        max_degree=3, outdegree=real(d).outdegree))


# ---------------------------------------------------------------------------
# subcubic: Brooks, the circuit solver and the list-extension engine


@case
def test_greedy_fill_sees_three_colours(monkeypatch, tmp_path):
    # K4 with a pendant vertex on 0: 0 has degree four and comes last
    adj = [{1, 2, 3, 4}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}, {0}]
    with raises_defect("vertex 0 saw all three colours during greedy fill"):
        subcubic._brooks(adj)


@case
def test_brooks_no_admissible_pair(monkeypatch, tmp_path):
    # K5: no bridge and no two non-adjacent neighbours anywhere
    adj = [set(range(5)) - {v} for v in range(5)]
    with raises_defect("no admissible pair in a cubic component"):
        subcubic._brooks(adj)


@case
def test_cycle_reconstruction_dead_end(monkeypatch, tmp_path):
    # the forward pass is offered no colour the backward pass allowed:
    # `_follow` answers each question once, and with no colour after that
    asked = set()
    follow = subcubic._follow

    def once(*question):
        if question in asked:
            return 0
        asked.add(question)
        return follow(*question)

    monkeypatch.setattr(subcubic, "_follow", once)
    with raises_defect("cycle reconstruction dead end"):
        subcubic._cycle_dp([0b110, 0b110], [subcubic._FULL_MASK] * 2)


@case
def test_cycle_solver_gives_up_on_even_circuit(monkeypatch, tmp_path):
    # without the guard an even circuit would be reported infeasible
    monkeypatch.setattr(subcubic, "_cycle_dp", lambda vertex_lists, arc_lists: None)
    with raises_defect("solver gave up outside the odd uniform case"):
        lemma_cycle_colouring(circuit(4), {v: (1, 2) for v in range(4)})


@case
def test_engine_strikes_last_colour(monkeypatch, tmp_path):
    # both arcs of the path 0 -> 1 -> 2 may only take colour 1 (mask 0b10)
    with raises_defect("arc 0 lost its last colour during propagation"):
        subcubic._extension_engine(Digraph(3, ((0, 1), (1, 2))), [0b10, 0b10],
                                   [(2,), (1,), (0,)])


@case
def test_engine_no_distinct_colours(monkeypatch, tmp_path):
    with raises_defect("no distinct colours for the arcs into 2"):
        subcubic._extension_engine(Digraph(3, ((0, 2), (1, 2))), [0b10, 0b10],
                                   [(2,), (1,), (0,)])


@case
def test_engine_terminal_vertex_with_two_out_arcs(monkeypatch, tmp_path):
    # vertex 1 has indegree 1 and outdegree 2 inside a strong component
    d = Digraph(3, ((0, 1), (1, 0), (1, 2), (2, 0)))
    with raises_defect("vertex 1 of a terminal component has 2 out-arcs"):
        subcubic._extension_engine(d, [subcubic._FULL_MASK] * d.arc_count,
                                   strong_components(d))


@case
def test_engine_component_not_a_circuit(monkeypatch, tmp_path):
    # two digons handed to the engine as one strong component
    d = Digraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    with raises_defect("terminal component is not a circuit"):
        subcubic._extension_engine(d, [subcubic._FULL_MASK] * d.arc_count,
                                   [(0, 1, 2, 3)])


@case
def test_engine_circuit_vertex_entered_twice(monkeypatch, tmp_path):
    # vertex 0 of the digon 0 <-> 1 has indegree three
    d = Digraph(4, ((0, 1), (1, 0), (2, 0), (3, 0)))
    with raises_defect("circuit vertex 0 has several entering arcs"):
        subcubic._extension_engine(d, [subcubic._FULL_MASK] * d.arc_count,
                                   strong_components(d))


# ---------------------------------------------------------------------------
# subcubic: the pipeline's completion of peeled and cut arcs


@case
def test_deferred_arc_without_free_colour(monkeypatch, tmp_path):
    # four source arcs into vertex 4, which has indegree four
    d = Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4)))
    with raises_defect("deferred arc 3 has no free colour"):
        subcubic._colour_subcubic(d)


@case
def test_even_circuit_completion_fails(monkeypatch, tmp_path):
    # vertex 0 has outdegree four
    d = Digraph(6, ((0, 1), (0, 3), (0, 4), (0, 5), (1, 3), (4, 0), (5, 1)))
    with raises_defect("even circuit completion failed"):
        subcubic._colour_subcubic(d)


@case
def test_no_completion_around_complete_component(monkeypatch, tmp_path):
    # vertex 5 has outdegree three and indegree one
    d = Digraph(7, ((0, 3), (0, 4), (2, 3), (2, 6), (4, 3), (5, 0), (5, 2),
                    (5, 3), (6, 4), (6, 5)))
    with raises_defect("no completion around a complete conflict component"):
        subcubic._colour_subcubic(d)


# ---------------------------------------------------------------------------
# subcubic: the core step, on crafted cores outside its precondition


@case
def test_core_high_vertex_with_two_out_arcs(monkeypatch, tmp_path):
    with raises_defect("high vertex 0 has two out-arcs"):
        colour_core(3, ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)))


@case
def test_core_critical_circuit_from_one_tail(monkeypatch, tmp_path):
    with raises_defect("critical circuit fed from a single tail"):
        colour_core(4, ((0, 3), (1, 0), (2, 0), (2, 1), (2, 3), (3, 1)))


@case
def test_core_marked_arc_from_a_source(monkeypatch, tmp_path):
    # vertices 1 and 2 are sources, which a core never has
    with raises_defect("marked arc tail without a unique entering arc"):
        colour_core(3, ((1, 0), (2, 0)))


@case
def test_core_conflict_degree_four(monkeypatch, tmp_path):
    with raises_defect("conflict graph degree 4 at arc 1"):
        colour_core(6, ((0, 4), (4, 5), (5, 0), (5, 2), (5, 3)))


@case
def test_core_oversized_complete_component(monkeypatch, tmp_path):
    with raises_defect("oversized neighbourhood around a complete component"):
        colour_core(6, ((0, 3), (0, 4), (2, 1), (2, 3), (3, 1), (4, 1), (4, 3),
                        (4, 5), (5, 0), (5, 1), (5, 2), (5, 3)))


@case
def test_core_low_source_into_engine(monkeypatch, tmp_path):
    with raises_defect("low vertex 0 lacks a unique entering arc"):
        colour_core(3, ((0, 1), (0, 2), (1, 2), (2, 1)))


@case
def test_core_engine_rejects_instance(monkeypatch, tmp_path):
    # without the guard the engine's PreconditionViolatedError would
    # blame the caller's digraph (exit 3)
    with raises_defect("engine rejected a pipeline instance: odd circuit whose"
                       " entering arcs all carry the same two-colour list"):
        colour_core(4, ((1, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 1)))


# ---------------------------------------------------------------------------
# acircuitic, on digraphs of degree four presented as subcubic


@case
def test_colour_four_not_a_matching(monkeypatch, tmp_path):
    # arcs 2 -> 0 and 5 -> 0 both run from V1 into vertex 0 of V2
    claims_subcubic(monkeypatch)
    with raises_defect("colour-4 arcs failed to be a matching"):
        acircuitic.acircuitic_colouring(Digraph(6, ((0, 1), (0, 3), (2, 0), (5, 0))))


def matched_pairs_into_one_tail(back_arcs):
    """Matching arcs k -> y_k for k = 0..back_arcs and back arcs
    y_k -> 0 for k >= 1; arcs into two sinks give every y_k outdegree
    two, so it lies in V2 and each k in V1."""
    pairs = back_arcs + 1
    y, sink = range(pairs, 2 * pairs), 2 * pairs
    arcs = [(k, y[k]) for k in range(pairs)] + [(y[0], sink + 1)]
    arcs += [(y[k], 0) for k in range(1, pairs)] + [(v, sink) for v in y]
    return Digraph(sink + 2, tuple(arcs))


@case
def test_back_arc_conflict_degree_four(monkeypatch, tmp_path):
    # five back arcs enter the matched tail 0
    claims_subcubic(monkeypatch)
    with raises_defect("back-arc conflict graph has degree four"):
        acircuitic.acircuitic_colouring(matched_pairs_into_one_tail(5))


def test_back_arc_conflict_complete_quadruple(monkeypatch):
    # four back arcs enter the matched tail 0, so the conflict graph is
    # K4, which Brooks colouring meets as a cubic component without an
    # admissible pair; the census counts that guard site under
    # test_brooks_no_admissible_pair
    claims_subcubic(monkeypatch)
    with raises_defect("no admissible pair in a cubic component"):
        acircuitic.acircuitic_colouring(matched_pairs_into_one_tail(4))


def test_list_colouring_no_distinct_colours(monkeypatch):
    # four arcs into the sink 4 reach the list step with the full lists
    # {1, 2, 3}, passed off as a subcubic digraph; the census counts
    # that guard site under test_engine_no_distinct_colours
    claims_subcubic(monkeypatch)
    with raises_defect("no distinct colours for the arcs into 4"):
        acircuitic.acircuitic_colouring(Digraph(5, tuple((v, 4) for v in range(4))))


# ---------------------------------------------------------------------------
# the other constructive theorems and the exact solvers


@case
def test_acyclic_lemma_without_interval(monkeypatch, tmp_path):
    # colours 1 and 3 lie in no 2-interval of {1..4}
    monkeypatch.setattr(acyclic, "sdr_in_cyclic_interval", lambda ivs: (None, (1, 3)))
    with raises_defect("in-colours (1, 3) fit no cyclic 2-interval"):
        acyclic._solve(2, (1, 1))


@case
def test_fibre_placement_infeasible(monkeypatch, tmp_path):
    # two arcs draw from the same one-colour set under one fibre, where
    # the counting argument asks for sets of ceil(2/1) = 2 colours
    with raises_defect("in-arc colour assignment infeasible; the counting "
                       "argument guarantees a placement"):
        fibre._place(1, 1, 2, ((1,), (1,)))


@case
def test_interval_sdr_missing(monkeypatch, tmp_path):
    monkeypatch.setattr(intervals, "_sweep", lambda spans: None)
    with raises_defect("no candidate interval admits an SDR; existence is "
                       "guaranteed"):
        sdr_in_cyclic_interval([CyclicInterval(modulus=2, start=1, length=1)])


@case
def test_spanning_galaxy_search_exhausted(monkeypatch, tmp_path):
    # five sources of outdegree four share four sinks: the sources need
    # five distinct leaves
    d = Digraph(9, tuple((i, 5 + j) for i in range(5) for j in range(4)))
    with raises_defect("no galaxy spans the degree-four vertices of a digraph "
                       "with 9 vertices and 20 arcs"):
        spanning._galaxy_arcs(d)


@case
def test_exact_dst_runs_out_of_colours(monkeypatch, tmp_path):
    monkeypatch.setattr(oracle, "_colour_graph", lambda conflicts, q: None)
    with raises_defect("one colour per arc must be feasible"):
        exact_dst(Digraph(2, ((0, 1),)))


def test_exact_lambda_runs_out_of_colours(monkeypatch):
    # exact_lambda_n searches its colour counts in exact_dst's loop, so
    # the census counts that guard site under the exact_dst case
    monkeypatch.setattr(oracle, "_dsatur", lambda q, degree, place, take_back: None)
    with raises_defect("one colour per arc must be feasible"):
        exact_lambda_n(LabelledDigraph(2, 1, ((0, 1, 1),)), 1)


@case
def test_reduction_output_degree_three(monkeypatch, tmp_path):
    # K4 with vertex 0 a source of outdegree three
    monkeypatch.setattr(constructions, "_orient_no_sink_source", lambda n, edges: [
        (0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    with raises_defect("reduction output exceeds in/outdegree two"):
        np_reduction(*CUBIC_GRAPHS["k4"])


# ---------------------------------------------------------------------------
# theorems: the output checks; cli: the reduction cross-check


@case
def test_cli_output_fails_verification(monkeypatch, tmp_path):
    # a star verdict and a colour out of range, each failing inside the
    # output block that `solve`, `exact` and `reduce --check` share
    d = Digraph(3, ((0, 1), (1, 2)))
    with raises_defect("solver output failed verification: consecutive arcs"
                       " 0 and 1 share colour 1"):
        with theorems._own_output("solver output"):
            theorems._require(theorems._star_violation(
                d, ArcColouring({0: 1, 1: 1}, 1), {}, False))
    with raises_defect("exact witness failed verification: arc 1 has colour 0"
                       " outside 1..1"):
        with theorems._own_output("exact witness"):
            ArcColouring({0: 1, 1: 0}, 1)


def test_cli_expansion_rejects_overload(monkeypatch):
    # the expansion's rejection fails through the output block's raise
    # site, which the census counts under the verification case above
    ld = LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1)))
    with raises_defect("solver output failed verification: fibre colouring "
                       "invalid at vertex 2, colour 1: 2+0 > 1"):
        with theorems._own_output("solver output"):
            theorems._expand_checked(ld, FibreColouring(1, {0: 1, 1: 1}, 1))


@case
def test_cli_reduce_check_equivalence_fails(monkeypatch, tmp_path):
    # K4 is 3-edge-colourable and its reduction has dst 3; a colouring
    # search that finds nothing must stop the run before -o is written
    monkeypatch.setattr(cli, "edge_colouring_3regular",
                        lambda n, edges, vertex_limit: None)
    out = tmp_path / "k4-reduced.dsa"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(["reduce", "--named", "k4", "--check", "-o", str(out)])
    assert status == 4
    assert stderr.getvalue() == ("internal defect: reduction equivalence failed:"
                                 " 3-edge-colourable=False dst=3\n")
    assert stdout.getvalue() == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# the census


def guard_sites():
    """(module file name, first line, last line) of every `raise
    InternalDefectError` in the package."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            name = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(name, "id", getattr(name, "attr", None)) == "InternalDefectError":
                sites.add((path.name, node.lineno, node.end_lineno))
    return sites


def reached_sites(guard, sites, tmp_path):
    """The guard sites whose InternalDefectError the case constructs.

    A multi-line raise reports its call on different lines across Python
    versions, so a frame matches a site by the raise's whole line range.
    """
    frames = []

    def init(self, *args):
        caller = sys._getframe(1)
        frames.append((pathlib.Path(caller.f_code.co_filename).resolve(),
                       caller.f_lineno))
        super(InternalDefectError, self).__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InternalDefectError, "__init__", init)
        guard(mp, tmp_path)
    return {site for path, line in frames for site in sites
            if path == PACKAGE / site[0] and site[1] <= line <= site[2]}


def test_census_every_guard_has_one_case(tmp_path):
    sites = guard_sites()
    reached = {}
    for guard in CASES:
        hit = reached_sites(guard, sites, tmp_path)
        assert len(hit) == 1, (guard.__name__, hit)
        site = hit.pop()
        assert site not in reached, (site, reached[site], guard.__name__)
        reached[site] = guard.__name__
    assert sorted(reached) == sorted(sites)
