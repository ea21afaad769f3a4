"""The exact colourings of six constructive theorems and of subcubic's
list-extension engine on acyclic digraphs, pinned by hash.

Each test builds a few hundred small instances (the deep 2k+1 pin: 60
larger ones) from a seeded random.Random, colours them all, and compares the sha256 of the
colourings with the value recorded when the solvers were last changed
on purpose.  A refactor that keeps every colouring keeps the hash; one
that changes a single colour or colour count anywhere does not.
"""
import hashlib
import random

from galaxia import (ArcColouring, Digraph, acircuitic_colouring,
                     dst4_colouring, dst_upper_2k1, fibre_colouring_acyclic,
                     random_digraph, random_labelled_dag, random_subcubic,
                     star_colouring_acyclic, star_colouring_subcubic,
                     subcubic, topological_order)

INSTANCES = 300


def digest(colourings):
    """sha256 of the colourings, each written as its colour count and its
    (arc, colour) pairs in arc order."""
    h = hashlib.sha256()
    for col in colourings:
        h.update(repr((col.colour_count, list(enumerate(col.colour)))).encode())
    return h.hexdigest()


def random_arcs(rng, n, tries, fits):
    """Arcs (t, h) drawn at random, each kept when fits(t, h, arcs) holds."""
    arcs = []
    for _ in range(tries):
        t, h = rng.randrange(n), rng.randrange(n)
        if t != h and (t, h) not in arcs and fits(t, h, arcs):
            arcs.append((t, h))
    return arcs


def capped(rng, n, in_cap, out_cap):
    indeg, outdeg = [0] * n, [0] * n

    def fits(t, h, _arcs):
        if outdeg[t] == out_cap or indeg[h] == in_cap:
            return False
        outdeg[t] += 1
        indeg[h] += 1
        return True

    return Digraph(n, tuple(random_arcs(rng, n, (in_cap + out_cap) * n, fits)))


def oriented_subcubic(rng, n, order=None):
    """Oriented, maximum degree three; with `order`, every arc goes from
    the lower to the higher rank, so the digraph is acyclic."""
    degree = [0] * n

    def fits(t, h, arcs):
        if degree[t] == 3 or degree[h] == 3 or (h, t) in arcs:
            return False
        degree[t] += 1
        degree[h] += 1
        return True

    arcs = random_arcs(rng, n, 3 * n, fits)
    if order is not None:
        arcs = [(t, h) if order[t] < order[h] else (h, t) for t, h in arcs]
    return Digraph(n, tuple(arcs))


def test_dst_upper_2k1_pinned():
    rng = random.Random(2101)
    cols = [dst_upper_2k1(capped(rng, rng.randint(2, 30), rng.randint(1, 4),
                                 rng.randint(1, 4)))
            for _ in range(INSTANCES)]
    assert digest(cols) == "27ac0ab6213322e467a2eab7feb4474fdffe7792ae3c137b0cda4a2478938369"


def test_dst_upper_2k1_deep_levels_pinned():
    # 100-400 vertices with indegrees 5-8, so each colouring runs five
    # to eight levels of the decomposition
    rng = random.Random(2108)
    cols = [dst_upper_2k1(random_digraph(rng.randint(100, 400), rng.randint(5, 8),
                                         rng.randint(1, 8), rng.randrange(10 ** 6)))
            for _ in range(60)]
    assert digest(cols) == "908854d643564e6d81ff619112990d6295fc56d7a8e10da0e3a99ce740895f43"


def test_dst4_colouring_pinned():
    rng = random.Random(2102)
    cols = [dst4_colouring(capped(rng, rng.randint(2, 40), 2, 2))
            for _ in range(INSTANCES)]
    assert digest(cols) == "aa1f5f86e1b8d8e4733e4f85a243fe0e093dcf02348939d0f3fabd3bc79ffc16"


def test_star_colouring_subcubic_pinned():
    rng = random.Random(2105)
    cols = [star_colouring_subcubic(random_subcubic(rng.randint(2, 60),
                                                    rng.randrange(10 ** 6)))
            for _ in range(INSTANCES)]
    assert digest(cols) == "dfe4fd9ba30e25f2563f60088808fb110f4a1871f7373ae64bbd99cb6dd5aaa0"


def test_acircuitic_colouring_pinned():
    rng = random.Random(2103)
    cols = [acircuitic_colouring(oriented_subcubic(rng, rng.randint(2, 40)))
            for _ in range(INSTANCES)]
    assert digest(cols) == "f0991151dd18417db48a307e668ada7673e005fd05b20436c79b016cdb29f927"


def test_list_colouring_acyclic_pinned():
    # subcubic's extension engine on acyclic digraphs, the list step of
    # the acircuitic colouring; lists as large as the head's degree, from
    # 1..3 or from 1..5, as masks whose bit c stands for colour c; the
    # vertices one by one in reverse topological order, as there, give
    # the colours Tarjan's components gave when the digest was taken
    rng = random.Random(2104)
    cols = []
    for _ in range(INSTANCES):
        n = rng.randint(2, 30)
        order = list(range(n))
        rng.shuffle(order)
        d = oriented_subcubic(rng, n, order)
        top = rng.choice((3, 5))
        degree = d.profile.degree
        lists = [sum(1 << c for c in rng.sample(range(1, top + 1),
                                                rng.randint(degree[h], top)))
                 for _, h in d.arcs]
        colours = subcubic._extension_engine(
            d, lists, [(v,) for v in reversed(topological_order(d))])
        cols.append(ArcColouring(colours, max(colours, default=0)))
    assert digest(cols) == "d72d124e6924d26a9b1e7eb42e8bc3a677a182da7f5a5d8c3a723cfb59ff34d4"


def test_star_colouring_acyclic_pinned():
    # k from 1 to 6, so patterns are solved both through the process
    # memo (k <= 4) and afresh; a certificate is pinned by its start,
    # its modulus and length being 2k and k
    rng = random.Random(2106)
    cols, starts = [], []
    for _ in range(INSTANCES):
        d = random_labelled_dag(rng.randint(1, 60), 1, rng.randint(1, 6),
                                rng.randrange(10 ** 6)).underlying
        colouring, intervals = star_colouring_acyclic(d)
        cols.append(colouring)
        starts.append(sorted((v, iv.start) for v, iv in intervals.items()))
    assert digest(cols) == "027f25c9183e263dff0422512b87bc2eaa5a2afeb78dc368c6b0128db5b98162"
    assert (hashlib.sha256(repr(starts).encode()).hexdigest()
            == "480a161e6d69a80f18a63a33de890c9dff8cc69bf4e5fd9e334a20960b6c085d")


def test_fibre_colouring_acyclic_pinned():
    # n from 1 to 3 and m from n to 6, k from 1 to 6, so patterns are
    # solved both through the process memo (k, m <= 4) and afresh
    rng = random.Random(2107)
    cols = []
    for _ in range(INSTANCES):
        n = rng.randint(1, 3)
        ld = random_labelled_dag(rng.randint(1, 60), rng.randint(n, 6),
                                 rng.randint(1, 6), rng.randrange(10 ** 6))
        cols.append(fibre_colouring_acyclic(ld, n))
    assert digest(cols) == "23a3ac5eb948c5c2d5055c6d0a23ecdec0120c4bf2dfe7003519998ea9c9d738"
