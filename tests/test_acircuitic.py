"""Acircuitic 4-colouring of oriented subcubic digraphs."""
import pytest
from hypothesis import given, strategies as st

from galaxia import (
    ArcColouring,
    Digraph,
    PreconditionViolatedError,
    acircuitic_colouring,
    find_bicoloured_circuit,
    random_oriented_subcubic,
    subcubic,
    topological_order,
    verify_star_colouring,
)
from galaxia import acircuitic, cli
from conftest import circuit


def check_acircuitic(d):
    col = acircuitic_colouring(d)
    assert col.colour_count <= 4
    assert verify_star_colouring(d, col) is None
    ends = set()
    for i, c in col.colour.items():
        if c == 4:  # colour 4 must form a matching
            t, h = d.arcs[i]
            assert t not in ends and h not in ends
            ends.update((t, h))
    assert find_bicoloured_circuit(d, col) is None
    return col


def list_colour(d, lists):
    """subcubic's extension engine, the list step of the acircuitic
    colouring, on an acyclic digraph with lists of colours by arc, its
    vertices taken one by one in reverse topological order."""
    colours = subcubic._extension_engine(
        d, [sum(1 << c for c in set(lists[i])) for i in range(d.arc_count)],
        [(v,) for v in reversed(topological_order(d))])
    return ArcColouring(colours, max(colours.values(), default=0))


def test_list_colouring_single_arc():
    col = list_colour(Digraph(2, ((0, 1),)), {0: (2,)})
    assert dict(col.colour) == {0: 2}


def test_list_colouring_in_star():
    d = Digraph(3, ((0, 2), (1, 2)))
    col = list_colour(d, {0: (1, 2), 1: (1, 2)})
    assert col.colour[0] != col.colour[1]
    assert set(col.colour.values()) <= {1, 2}


def test_list_colouring_path():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    col = list_colour(d, {i: (1, 2, 3) for i in range(3)})
    assert verify_star_colouring(d, col) is None


@given(st.data())
def test_list_colouring_random_subcubic_from_lists(data):
    # a random subcubic graph oriented along a random vertex order, each
    # arc with a random list from 1..5 as large as its head's degree
    n = data.draw(st.integers(2, 30))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=3 * n))
    rank = {v: r for r, v in enumerate(data.draw(st.permutations(range(n))))}
    degree = [0] * n
    arcs = []
    for a, b in pairs:
        if (a == b or degree[a] == 3 or degree[b] == 3
                or (a, b) in arcs or (b, a) in arcs):
            continue
        degree[a] += 1
        degree[b] += 1
        arcs.append((a, b) if rank[a] < rank[b] else (b, a))
    d = Digraph(n, tuple(arcs))
    lists = {i: data.draw(st.sets(st.integers(1, 5), min_size=degree[h]))
             for i, (t, h) in enumerate(arcs)}
    col = list_colour(d, lists)
    assert verify_star_colouring(d, col) is None
    assert all(col[i] in lists[i] for i in range(len(arcs)))


def test_acircuitic_oriented_five_circuit():
    col = check_acircuitic(circuit(5))
    assert col.colour_count <= 4


def test_acircuitic_tree_orientation():
    check_acircuitic(Digraph(6, ((0, 1), (0, 2), (3, 1), (4, 2), (2, 5))))


def test_acircuitic_rejects_digon():
    with pytest.raises(PreconditionViolatedError, match=r"^digraph has a digon$"):
        acircuitic_colouring(Digraph(2, ((0, 1), (1, 0))))


def test_acircuitic_rejects_high_degree():
    with pytest.raises(PreconditionViolatedError,
                       match=r"^maximum degree 4 exceeds three$"):
        acircuitic_colouring(Digraph(5, ((0, 4), (1, 4), (2, 4), (3, 4))))


def test_acircuitic_deterministic():
    d = random_oriented_subcubic(25, 4)
    assert acircuitic_colouring(d) == acircuitic_colouring(d)


def test_acircuitic_pinned_colouring():
    # colours recorded before the list colouring peeled arcs from a heap
    d = Digraph(20, (
        (10, 3), (8, 7), (8, 18), (3, 14), (16, 0), (4, 5), (10, 17),
        (9, 16), (7, 9), (18, 14), (6, 4), (13, 9), (12, 19), (13, 19),
        (0, 5), (7, 17), (8, 0), (2, 3), (16, 6), (2, 19), (12, 11),
        (18, 12), (15, 6), (5, 10), (13, 14), (11, 15), (11, 1), (1, 4),
        (17, 2), (1, 15)))
    col = check_acircuitic(d)
    assert dict(col.colour) == {
        0: 2, 1: 3, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 4, 8: 1, 9: 2,
        10: 2, 11: 2, 12: 1, 13: 2, 14: 2, 15: 2, 16: 3, 17: 3, 18: 1,
        19: 3, 20: 2, 21: 3, 22: 3, 23: 4, 24: 3, 25: 1, 26: 1, 27: 3,
        28: 4, 29: 2}


def test_acircuitic_both_part_circuits():
    # circuits inside both halves of the vertex split get a colour-4 arc
    d = Digraph(6, ((0, 1), (1, 2), (1, 4), (2, 3), (3, 0), (3, 5)))
    col = check_acircuitic(d)
    assert 4 in set(col.colour.values())


@given(st.integers(1, 40), st.integers(0, 999))
def test_acircuitic_random(n, seed):
    check_acircuitic(random_oriented_subcubic(n, seed))


def test_circuit_left_in_the_rest_ends_in_exit_4(monkeypatch, tmp_path, capsys):
    # without colour-4 arcs on the part circuits, the 3-circuit is left
    # for the list step, which colours none of its arcs: the verifier
    # blames the solver (exit 4), never the input (exit 3)
    monkeypatch.setattr(acircuitic, "_map_cycles", lambda step: [])
    path = tmp_path / "c3.dsa"
    path.write_text("p dsa 3 3 1\na 0 1 1\na 1 2 1\na 2 0 1\n")
    assert cli.main(["solve", str(path), "--algorithm", "acircuitic"]) == 4
    assert capsys.readouterr().err == (
        "internal defect: solver output failed verification: arc 0 is uncoloured\n")
