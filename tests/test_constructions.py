"""Instance generators: extremal digraphs, the hardness reduction, random families."""
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadParamsError,
    CUBIC_GRAPHS,
    GnmkSizes,
    InfeasibleError,
    TooLargeError,
    ValidateError,
    degree_profile,
    edge_colouring_3regular,
    exact_dst,
    extremal_gnmk,
    gnmk_sizes,
    is_acyclic,
    np_gadget,
    np_reduction,
    random_digraph,
    random_labelled_dag,
    random_oriented_subcubic,
    random_subcubic,
    triangle_multidigraph,
)
from galaxia.constructions import _orient_no_sink_source


def random_cubic(n, seed):
    """Edges of a seeded random cubic graph on n vertices: three shuffled
    stubs per vertex paired in consecutive twos, redrawn until simple."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[0::2], stubs[1::2]))
        if (all(u != v for u, v in edges)
                and len({frozenset(e) for e in edges}) == len(edges)):
            return edges


def test_gnmk_sizes_base():
    assert gnmk_sizes(1, 1, 1) == GnmkSizes(1, 4, 4, 8, False)


def test_gnmk_sizes_capped():
    assert gnmk_sizes(1, 1, 2, y_cap=6) == GnmkSizes(2, 6, 15, 42, True)


def test_gnmk_sizes_not_reduced_when_cap_is_loose():
    full = gnmk_sizes(1, 1, 1)
    assert gnmk_sizes(1, 1, 1, y_cap=full.y) == full._replace(reduced=False)


def test_random_generators_reject_bad_params():
    with pytest.raises(BadParamsError, match=r"^bad parameters n=0, caps=\(1,1\)$"):
        random_digraph(0, 1, 1, 0)
    with pytest.raises(BadParamsError, match="^need n >= 1, got 0$"):
        random_subcubic(0, 0)
    with pytest.raises(BadParamsError, match="^need n >= 1, got 0$"):
        random_oriented_subcubic(0, 0)
    with pytest.raises(BadParamsError, match="^bad parameters n=1, m=0, k=1$"):
        random_labelled_dag(1, 0, 1, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: random_digraph(5.0, 1, 1, 0), "n must be an int"),
    (lambda: random_digraph(5, True, 1, 0), "in_cap must be an int"),
    (lambda: random_subcubic(5.5, 0), "n must be an int"),
    (lambda: random_oriented_subcubic(True, 0), "n must be an int"),
    (lambda: random_labelled_dag(5, 2, True, 0), "k must be an int"),
    (lambda: triangle_multidigraph(1.5), "multiplicity must be an int"),
    (lambda: triangle_multidigraph(True), "multiplicity must be an int"),
    (lambda: gnmk_sizes(1, 1.5, 1), "m must be an int"),
    (lambda: gnmk_sizes(1, 1, 1, y_cap=2.5), "y_cap must be an int"),
    (lambda: extremal_gnmk(1, 1, True), "k must be an int"),
], ids=["random-float-n", "random-bool-cap", "subcubic-float-n",
        "oriented-bool-n", "dag-bool-k", "triangle-float", "triangle-bool",
        "gnmk-float-m", "gnmk-float-y-cap", "extremal-bool-k"])
def test_generator_counts_must_be_plain_ints(make, message):
    # refused before any range check, by the class a count out of range
    # takes
    with pytest.raises(BadParamsError, match=f"^{message}$"):
        make()


def test_gnmk_params_rejected():
    with pytest.raises(BadParamsError):
        gnmk_sizes(0, 1, 1)
    with pytest.raises(BadParamsError):
        gnmk_sizes(1, 1, 1, y_cap=0)


def test_gnmk_exponent_guard():
    with pytest.raises(TooLargeError,
                       match=r"^G_\{1,5000,2\} has \|Y\| = 2\*2\^10002, beyond any budget$"):
        gnmk_sizes(1, 5000, 2)


def test_extremal_gnmk_structure():
    ld = extremal_gnmk(1, 1, 1)
    sizes = gnmk_sizes(1, 1, 1)
    assert ld.vertex_count == sizes.x + sizes.y + sizes.z
    assert ld.arc_count == sizes.arcs
    assert is_acyclic(ld.underlying)
    profile = degree_profile(ld)
    # every vertex outside X has indegree exactly k
    assert all(profile.indegree[v] == 1 for v in range(1, ld.vertex_count))
    assert profile.indegree[0] == 0


def test_extremal_gnmk_meets_lower_bound():
    # dst(G_{1,1,1}) = 2 = the lower-bound formula at n = m = k = 1
    d = extremal_gnmk(1, 1, 1).underlying
    assert exact_dst(d)[0] == 2


def test_extremal_gnmk_reduced_still_tight():
    d = extremal_gnmk(1, 1, 2, y_cap=6).underlying
    assert exact_dst(d, colour_cap=None, arc_limit=60)[0] == 4


def test_extremal_gnmk_budget():
    with pytest.raises(TooLargeError, match=r"^G_\{2,2,2\} needs \d+ arcs,"
                       r" budget is 10; pass y_cap for a reduced variant$"):
        extremal_gnmk(2, 2, 2, arc_budget=10)
    with pytest.raises(TooLargeError, match=r"^G_\{2,2,2\} needs \d+ arcs, budget is 10$"):
        extremal_gnmk(2, 2, 2, y_cap=100, arc_budget=10)


def test_gadget_certificate():
    gadget = np_gadget()
    assert gadget.certificate.colourings == 6
    assert gadget.certificate.p1_ok
    assert gadget.certificate.p2_triples == 6
    assert gadget.digraph.arc_count == 6
    tails = {gadget.digraph.arcs[gadget.b_out][0],
             gadget.digraph.arcs[gadget.c_out][0]}
    assert len(tails) == 2  # the two leaving arcs start at distinct vertices


def test_reduction_shapes():
    expected = {"k4": (8, 12), "k33": (12, 18), "prism": (12, 18),
                "petersen": (20, 30), "moebius-kantor": (32, 48)}
    for name, (vertices, arcs) in expected.items():
        n, edges = CUBIC_GRAPHS[name]
        d = np_reduction(n, edges)
        assert (d.vertex_count, d.arc_count) == (vertices, arcs)
        profile = degree_profile(d)
        assert profile.max_indegree <= 2 and profile.max_outdegree <= 2


def test_reduction_tracks_edge_colourability():
    for name in ("k4", "prism"):
        n, edges = CUBIC_GRAPHS[name]
        d = np_reduction(n, edges)
        colourable = edge_colouring_3regular(n, edges) is not None
        assert colourable
        assert exact_dst(d)[0] == 3


def test_reduction_petersen_needs_four():
    n, edges = CUBIC_GRAPHS["petersen"]
    assert edge_colouring_3regular(n, edges) is None
    d = np_reduction(n, edges)
    assert exact_dst(d)[0] == 4


def test_reduction_gadgets_are_the_certified_gadget():
    # every pair of new vertices (t, y) with the (1,2)-vertex v they
    # hang on is gadget vertices 2, 3 and 1, and the six arcs at v, t
    # and y are exactly the certified gadget's arcs under that map
    gadget = np_gadget().digraph
    for name, (n, edges) in CUBIC_GRAPHS.items():
        d = np_reduction(n, edges)
        tails = lambda v: [d.arcs[a][0] for a in d.in_arcs[v]]
        heads = lambda v: [d.arcs[a][1] for a in d.out_arcs[v]]
        assert d.vertex_count == 2 * n, name
        for t in range(n, d.vertex_count, 2):
            y = t + 1
            assert (tails(y), heads(y)) == ([], [t]), name
            (v,) = set(tails(t)) - {y}
            (c,) = set(heads(t)) - {v}
            (u,) = set(tails(v)) - {t}
            (b,) = set(heads(v)) - {t}
            at = (u, v, t, y, b, c)
            assert len(set(at)) == 6 and v < n, name
            mine = {d.arcs[a] for w in (v, t, y)
                    for a in d.in_arcs[w] + d.out_arcs[w]}
            assert mine == {(at[p], at[q]) for p, q in gadget.arcs}, name


@pytest.mark.parametrize("n, edges", [
    *CUBIC_GRAPHS.values(),
    *((n, random_cubic(n, seed)) for seed, n in enumerate((8, 30, 100, 400))),
    (5, [(i, (i + 1) % 5) for i in range(5)]),
    (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
], ids=[*CUBIC_GRAPHS, "cubic-8", "cubic-30", "cubic-100", "cubic-400",
        "c5", "k23"])
def test_orientation_has_no_source_or_sink(n, edges):
    arcs = _orient_no_sink_source(n, edges)
    assert [set(arc) for arc in arcs] == [set(edge) for edge in edges]
    tails = {t for t, _ in arcs}
    heads = {h for _, h in arcs}
    assert tails == heads == set(range(n))


def test_reduction_is_linear_time():
    # the local search this orientation replaced took about 19 s here
    edges = random_cubic(20_000, 1)
    start = time.perf_counter()
    d = np_reduction(20_000, edges)
    assert time.perf_counter() - start < 5.0
    assert (d.vertex_count, d.arc_count) == (40_000, 60_000)


def test_reduction_rejects_non_cubic():
    with pytest.raises(ValidateError, match=r"^graph is not 3-regular$"):
        np_reduction(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def test_triangle_multidigraph():
    t2 = triangle_multidigraph(2)
    assert t2.arc_count == 6
    assert degree_profile(t2).max_indegree == 2
    with pytest.raises(BadParamsError):
        triangle_multidigraph(0)


def test_random_digraph_deterministic():
    assert random_digraph(12, 2, 3, 5) == random_digraph(12, 2, 3, 5)
    assert random_digraph(12, 2, 3, 5) != random_digraph(12, 2, 3, 6)


def test_random_digraph_canary():
    # pinned output guards against accidental generator drift
    assert random_digraph(30, 2, 2, 7).arc_count == 56


def test_random_digraph_caps_attained():
    d = random_digraph(10, 3, 2, 1)
    profile = degree_profile(d)
    assert profile.max_indegree == 3
    assert profile.max_outdegree == 2


def test_random_digraph_zero_cap():
    assert random_digraph(5, 0, 2, 1).arc_count == 0
    assert random_digraph(5, 2, 0, 1).arc_count == 0


def test_random_digraph_cap_too_large():
    with pytest.raises(InfeasibleError):
        random_digraph(3, 3, 1, 0)


RANDOM_FAMILIES = {
    "random": lambda n: random_digraph(n, 3, 3, 1),
    "subcubic": lambda n: random_subcubic(n, 1),
    "oriented-subcubic": lambda n: random_oriented_subcubic(n, 1),
}


@pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
def test_random_family_memory_is_linear(family):
    # one stub per arc end stays under 1 MB at 1,000 vertices; a list of
    # all n(n-1) vertex pairs would peak near 84 MB
    tracemalloc.start()
    try:
        d = RANDOM_FAMILIES[family](1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.arc_count > 1000
    assert peak < 4_000_000


@given(st.integers(1, 30), st.integers(0, 999))
def test_random_subcubic_degrees(n, seed):
    d = random_subcubic(n, seed)
    assert degree_profile(d).max_degree <= 3


@given(st.integers(1, 30), st.integers(0, 999))
def test_random_oriented_subcubic_no_digons(n, seed):
    d = random_oriented_subcubic(n, seed)
    assert degree_profile(d).max_degree <= 3
    assert not d.has_digon()


@given(st.integers(1, 30), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 999))
def test_random_labelled_dag_contract(n, m, k, seed):
    ld = random_labelled_dag(n, m, k, seed)
    assert is_acyclic(ld.underlying)
    assert degree_profile(ld).max_indegree <= k
    assert all(1 <= label <= m for _, _, label in ld.arcs)
