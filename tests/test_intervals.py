"""Cyclic intervals and the distinct-representatives search."""
import itertools

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadParamsError,
    BadShapeError,
    CyclicInterval,
    interval_complement,
    sdr_in_cyclic_interval,
    smallest_interval_containing,
)


def all_k_intervals(k):
    return [CyclicInterval(2 * k, s, k) for s in range(1, 2 * k + 1)]


def check_sdr(intervals, k):
    j, reps = sdr_in_cyclic_interval(intervals)
    assert len(reps) == k == len(set(reps))
    assert all(reps[i] in intervals[i] for i in range(k))
    assert j.modulus == 2 * k and j.length == k
    assert set(reps) == set(j.members_tuple())


def test_members_plain():
    assert set(CyclicInterval(4, 1, 2).members_tuple()) == {1, 2}


def test_members_wraparound():
    assert set(CyclicInterval(4, 4, 2).members_tuple()) == {4, 1}
    assert set(CyclicInterval(6, 5, 3).members_tuple()) == {5, 6, 1}


def test_complement_plain():
    assert set(interval_complement(CyclicInterval(4, 1, 2)).members_tuple()) == {3, 4}


def test_complement_wraparound():
    assert set(interval_complement(CyclicInterval(4, 4, 2)).members_tuple()) == {2, 3}


def test_complement_needs_half_modulus():
    with pytest.raises(BadShapeError):
        interval_complement(CyclicInterval(6, 1, 2))


def test_interval_validation():
    with pytest.raises(BadParamsError):
        CyclicInterval(4, 0, 2)
    with pytest.raises(BadParamsError):
        CyclicInterval(4, 5, 2)
    with pytest.raises(BadParamsError):
        CyclicInterval(4, 1, 5)


def test_contains():
    interval = CyclicInterval(6, 5, 3)
    assert 1 in interval and 6 in interval
    assert 2 not in interval


def test_smallest_containing():
    got = smallest_interval_containing({1, 2}, 4, 2)
    assert got is not None and set(got.members_tuple()) == {1, 2}
    wrap = smallest_interval_containing({4, 1}, 4, 2)
    assert wrap is not None and set(wrap.members_tuple()) == {4, 1}
    assert smallest_interval_containing({1, 3}, 4, 2) is None


def test_sdr_uniform_pair():
    j, reps = sdr_in_cyclic_interval([CyclicInterval(4, 1, 2)] * 2)
    assert set(j.members_tuple()) == {1, 2}
    assert set(reps) == {1, 2}


def test_sdr_disjoint_pair():
    intervals = [CyclicInterval(4, 1, 2), CyclicInterval(4, 3, 2)]
    check_sdr(intervals, 2)


def test_sdr_uniform_triple():
    intervals = [CyclicInterval(6, 1, 3)] * 3
    j, reps = sdr_in_cyclic_interval(intervals)
    assert set(j.members_tuple()) == {1, 2, 3}
    assert sorted(reps) == [1, 2, 3]


def test_sdr_empty_rejected():
    with pytest.raises(BadParamsError):
        sdr_in_cyclic_interval([])


def test_sdr_wrong_shape_rejected():
    with pytest.raises(BadParamsError):
        sdr_in_cyclic_interval([CyclicInterval(6, 1, 3), CyclicInterval(6, 1, 3)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sdr_exhaustive_small(k):
    for starts in itertools.product(range(1, 2 * k + 1), repeat=k):
        intervals = [CyclicInterval(2 * k, s, k) for s in starts]
        check_sdr(intervals, k)


# sdr_in_cyclic_interval's (J.start, representatives) for every tuple of
# k k-intervals, starts in itertools.product order, one digit each.
# The acyclic colourings follow these choices, so a matching change that
# moves a representative fails here.
PINNED_SDR = {
    1: "1122",
    2: "121112223121121232223121232232343334112112343414",
    3: ("1321113212132324132113211231113211232324123112311231113222432234"
        "1231123123422342224333543345234213121312121333545165131213211312"
        "1213232413211321132113121213232413211321132124322243232413211321"
        "1231234222432234123112312342234222433354334523421312131212133354"
        "4465131213211312121323241321132113211312242323241321132113212432"
        "2423232413211321243224323543335434352432234223423453335433452342"
        "1312131234533354446513121321131224232324132113212432243224233534"
        "3435243224322432242335343435243224322432354335343435243235433543"
        "3543465444654546345334533453456444654456242324232423456444655516"
        "1132113211233534561511321132113211233534464511321132113235433534"
        "4645113235433543354346544645454656514654465446545165551611231123"
        "1123456456155516123111321213223412311231123111321123223412311231"
        "1231113222432234123112312243224322434654464551561213121312134654"
        "51655156121312131213516551656216"),
}


@pytest.mark.parametrize("k", sorted(PINNED_SDR))
def test_sdr_pinned(k):
    got = []
    for starts in itertools.product(range(1, 2 * k + 1), repeat=k):
        j, reps = sdr_in_cyclic_interval([CyclicInterval(2 * k, s, k) for s in starts])
        got.append(f"{j.start}{''.join(map(str, reps))}")
    assert "".join(got) == PINNED_SDR[k]


@given(st.integers(4, 6), st.data())
def test_sdr_random_large(k, data):
    starts = data.draw(st.lists(st.integers(1, 2 * k), min_size=k, max_size=k))
    intervals = [CyclicInterval(2 * k, s, k) for s in starts]
    check_sdr(intervals, k)
