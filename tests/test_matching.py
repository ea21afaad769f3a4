"""Kuhn matching helpers: exact results and augmenting paths deeper than
the interpreter's default recursion limit of 1000 frames."""
from galaxia.matching import capacitated_assignment


def test_capacitated_assignment_small():
    assert capacitated_assignment([[0, 1], [0], [0]], [2, 1]) == [1, 0, 0]
    assert capacitated_assignment([[0], [0], [0]], [2]) is None
    # unit capacities: a plain matching, as the interval SDR asks for
    assert capacitated_assignment([[0, 1], [0]], [1, 1]) == [1, 0]
    assert capacitated_assignment([[0], [0]], [1, 1]) is None
    assert capacitated_assignment([], [1, 1, 1]) == []


def _chain(n):
    # left j < n-1 may use j or j+1 and takes j; the last left may only
    # use right 0, so its augmenting path moves every other left over
    return [[j, j + 1] for j in range(n - 1)] + [[0]]


def test_capacitated_assignment_deep_augmenting_path():
    n = 5000
    assert (capacitated_assignment(_chain(n), [1] * n)
            == [j + 1 for j in range(n - 1)] + [0])
