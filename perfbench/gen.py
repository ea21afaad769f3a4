"""Seeded instance generators for the benchmark, each O(arcs).

The benchmark makes its own inputs so that a change to
`galaxia.constructions` never changes what is measured, and so that large
instances cost time linear in their arcs (the package's generators walk
all n^2 vertex pairs).  Every generator takes a `random.Random` and keeps
its family's property:

* `capped_digraph`: simple, no loops, in- and outdegree at most `cap`,
  both caps attained;
* `subcubic`: simple, total degree at most 3 (digons allowed), degree 3
  attained;
* `oriented_subcubic`: as `subcubic` but without digons;
* `labelled_dag`: acyclic, labels in 1..m, indegree at most k with k
  attained.

An instance is `(vertex_count, label_count, arcs)` with arcs as
`(tail, head, label)` triples; unlabelled families use label 1.
"""

from __future__ import annotations

import random

Instance = tuple[int, int, list[tuple[int, int, int]]]


def capped_digraph(rng: random.Random, n: int, cap: int) -> Instance:
    """Near cap-regular simple digraph: every tail tries `cap` random heads
    that still have in-capacity, a few picks per stub."""
    if not 1 <= cap < n:
        raise ValueError(f"cap {cap} needs 1 <= cap < n={n}")
    while True:
        indeg = [0] * n
        pool = list(range(n))  # heads with free in-capacity
        where = list(range(n))
        present: set[tuple[int, int]] = set()
        arcs = []
        tails = list(range(n))
        rng.shuffle(tails)
        for u in tails:
            for _ in range(cap):
                for _try in range(8):
                    v = pool[rng.randrange(len(pool))]
                    if v != u and (u, v) not in present:
                        break
                else:
                    continue
                present.add((u, v))
                arcs.append((u, v, 1))
                indeg[v] += 1
                if indeg[v] == cap:
                    last = pool.pop()
                    if last != v:
                        pool[where[v]] = last
                        where[last] = where[v]
                if not pool:
                    break
            if not pool:
                break
        outdeg = [0] * n
        for u, _, _ in arcs:
            outdeg[u] += 1
        if max(indeg) == cap and max(outdeg) == cap:
            return n, 1, arcs


def _pair_stubs(rng: random.Random, n: int, oriented: bool) -> Instance:
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        present: set[tuple[int, int]] = set()
        arcs = []
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            if rng.random() < 0.5:
                u, v = v, u
            if u == v or (u, v) in present or (oriented and (v, u) in present):
                continue
            present.add((u, v))
            arcs.append((u, v, 1))
        degree = [0] * n
        for u, v, _ in arcs:
            degree[u] += 1
            degree[v] += 1
        if max(degree, default=0) == 3:
            return n, 1, arcs


def subcubic(rng: random.Random, n: int) -> Instance:
    return _pair_stubs(rng, n, oriented=False)


def oriented_subcubic(rng: random.Random, n: int) -> Instance:
    return _pair_stubs(rng, n, oriented=True)


def labelled_dag(rng: random.Random, n: int, m: int, k: int) -> Instance:
    """Arcs follow a hidden random order; the last vertex in it takes
    min(k, n-1) entering arcs so the indegree bound is attained."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for pos in range(1, n):
        cap = min(k, pos)
        quota = cap if pos == n - 1 else rng.randint(0, cap)
        v = order[pos]
        for p in sorted(rng.sample(range(pos), quota)):
            arcs.append((order[p], v, rng.randint(1, m)))
    return n, m, arcs


def write_dg(path: str, inst: Instance) -> None:
    n, m, arcs = inst
    lines = [f"p dsa {n} {len(arcs)} {m}\n"]
    lines.extend(f"a {t} {h} {l}\n" for t, h, l in arcs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
