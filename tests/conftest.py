"""Shared test helpers."""
from hypothesis import settings

from galaxia import Digraph, is_acyclic

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def circuit(n: int) -> Digraph:
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def is_galaxy(d: Digraph, arcs) -> bool:
    """The arcs of d numbered in `arcs` form a galaxy: heads pairwise
    distinct and no head also a tail, so every component is a star."""
    heads = [d.arcs[i][1] for i in arcs]
    return len(heads) == len(set(heads)) and not set(heads) & {
        d.arcs[i][0] for i in arcs}


def is_forest(d: Digraph, arcs) -> bool:
    """The arcs of d numbered in `arcs` form a forest of out-trees:
    heads pairwise distinct and no circuit."""
    heads = [d.arcs[i][1] for i in arcs]
    return len(heads) == len(set(heads)) and is_acyclic(
        Digraph(d.vertex_count, tuple(d.arcs[i] for i in arcs)))
