"""Cyclic intervals and the distinct-representatives search."""
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from galaxia import (
    BadParamsError,
    CyclicInterval,
    sdr_in_cyclic_interval,
)


def test_interval_rejects_bad_modulus():
    with pytest.raises(BadParamsError, match="^modulus must be positive$"):
        CyclicInterval(0, 1, 1)


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


def test_membership_agrees_with_members_tuple():
    # a value outside 1..modulus is no member, whatever its residue
    for modulus in range(1, 7):
        for start, length in itertools.product(range(1, modulus + 1), repeat=2):
            iv = CyclicInterval(modulus, start, length)
            members = iv.members_tuple()
            for v in range(-3, modulus + 4):
                assert (v in iv) == (v in members), (iv, v)
    assert 5 not in CyclicInterval(4, 1, 2) and 0 not in CyclicInterval(4, 4, 1)


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


def test_sdr_takes_any_iterable_of_intervals():
    intervals = [CyclicInterval(6, s, 3) for s in (1, 3, 5)]
    expected = sdr_in_cyclic_interval(intervals)
    assert sdr_in_cyclic_interval(iter(intervals)) == expected
    assert sdr_in_cyclic_interval(iv for iv in intervals) == expected


@pytest.mark.parametrize("intervals, message", [
    (None, "intervals must be iterable"),
    (7, "intervals must be iterable"),
    ([CyclicInterval(4, 1, 2), (1, 2)], "interval 1 is not a CyclicInterval"),
    ([None], "interval 0 is not a CyclicInterval"),
])
def test_sdr_names_what_is_not_an_interval(intervals, message):
    with pytest.raises(BadParamsError, match=f"^{re.escape(message)}$"):
        sdr_in_cyclic_interval(intervals)


def test_sdr_wrong_shape_rejected():
    with pytest.raises(BadParamsError):
        sdr_in_cyclic_interval([CyclicInterval(6, 1, 3), CyclicInterval(6, 1, 3)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sdr_exhaustive_small(k):
    for starts in itertools.product(range(1, 2 * k + 1), repeat=k):
        intervals = [CyclicInterval(2 * k, s, k) for s in starts]
        check_sdr(intervals, k)


def least_start_with_sdr(intervals, k):
    """The least J.start some ordering of whose members represents the
    intervals, by trying every ordering."""
    for start in range(1, 2 * k + 1):
        members = CyclicInterval(2 * k, start, k).members_tuple()
        if any(all(value in iv for value, iv in zip(order, intervals))
               for order in itertools.permutations(members)):
            return start
    return None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sdr_takes_the_least_start_admitting_one(k):
    # the certificates follow the choice of J, whatever the representatives
    for starts in itertools.product(range(1, 2 * k + 1), repeat=k):
        intervals = [CyclicInterval(2 * k, s, k) for s in starts]
        j, _ = sdr_in_cyclic_interval(intervals)
        assert j.start == least_start_with_sdr(intervals, k)


# sdr_in_cyclic_interval's (J.start, representatives) for every tuple of
# k k-intervals, starts in itertools.product order, one digit each.
# The acyclic colourings follow these choices, so a change of the greedy
# sweep that moves a representative fails here.
PINNED_SDR = {
    1: "1122",
    2: "112112223121121223223121232232334334112112343441",
    3: ("1123112311232234123112311123112311232234123112311132113222342234"
        "1231123122432243224333453345234212131213121333545156131212131213"
        "1213232413211312121312131213232412311231123122342234223412311231"
        "1231223422342234123112312342224322433345334523421213121312133354"
        "4456131212131213121323241321131213121312232423241321132113212324"
        "2324232413211321234223423345334533452342234223423345334533452342"
        "1312131233543354445613121312131223242324132113122423242324233435"
        "3435243224322423242334353435243224322432343534353435243234533453"
        "3453445644564456345334533453445644564456242324232423446544655561"
        "1123112311233534551611321123112311233534454611321132113235343534"
        "4546113235433543354345464546454655614564456445645561556111231123"
        "1123456455615561112311231123223412311132112311231123223412311132"
        "1132113222342234123111322243224322434645464556511213121312134654"
        "56515651112311231123561556156612"),
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
