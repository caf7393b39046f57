import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolmax import RngSpec, build_family, circular_family, random_extension
from poolmax.errors import NotCoprimeError, SubsetDesignError
from poolmax.subsets import SubsetFamily, verify_identifiability


def test_circular_family_p5_q2():
    fam = circular_family(5, 2)
    assert fam.members.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]


def test_circular_family_wraps():
    fam = circular_family(100, 49)
    member_60 = set(range(60, 101)) | set(range(1, 9))
    assert set(fam.members[59]) == member_60


def test_circular_family_rejects_non_coprime():
    with pytest.raises(NotCoprimeError) as exc:
        circular_family(100, 50)
    assert exc.value.suggested_q == 49 and "try q=49" in str(exc.value)
    with pytest.raises(SubsetDesignError, match="^need 1 <= q < p, got p=5, q=5$"):
        circular_family(5, 5)


@pytest.mark.parametrize("p,q", [(5, 2), (100, 49), (12, 7)])
def test_circular_family_coverage(p, q):
    fam = circular_family(p, q)
    counts = np.zeros(p, dtype=int)
    for m in fam.members:
        counts[np.asarray(m) - 1] += 1
    assert (counts == q).all()


def test_random_extension_empty_and_forced():
    assert random_extension(100, 49, 0, RngSpec(1)).shape == (0, 49)
    subs = random_extension(3, 3, 2, RngSpec(1))
    assert subs.tolist() == [[1, 2, 3], [1, 2, 3]]


def test_random_extension_inclusion_frequency():
    subs = random_extension(100, 49, 10**4, RngSpec(5))
    counts = np.zeros(100)
    for m in subs:
        assert len(set(m)) == 49
        counts[np.asarray(m) - 1] += 1
    freq = counts / 10**4
    assert np.all(np.abs(freq - 0.49) < 0.02)


def test_build_family_sizes_and_determinism():
    fam = build_family(5, 2, 5, RngSpec(0))
    assert np.array_equal(fam.members, circular_family(5, 2).members)
    for d in (200, 300):
        fam = build_family(100, 49, d, RngSpec(3))
        assert fam.d == d
        assert np.array_equal(fam.members[:100], circular_family(100, 49).members)
        assert np.array_equal(fam.members, build_family(100, 49, d, RngSpec(3)).members)
    with pytest.raises(SubsetDesignError, match="^need d >= p, got d=99, p=100$"):
        build_family(100, 49, 99, RngSpec(0))


def test_build_family_user_subsets():
    user = [(1, 3), (2, 5)]
    fam = build_family(5, 2, 8, RngSpec(1), user_subsets=user)
    assert fam.members[5].tolist() == [1, 3] and fam.members[6].tolist() == [2, 5]


def test_family_json_roundtrip():
    fam = build_family(10, 3, 12, RngSpec(2))
    back = SubsetFamily.from_json(fam.to_json())
    assert back == fam
    payload = json.loads(fam.to_json())
    assert payload["p"] == 10 and payload["q"] == 3 and payload["d"] == 12


@pytest.mark.parametrize(
    "members",
    [((1, 2), (3,)), ((1, 2, 3),), ((1, 1),), ((0, 2),), ((2, 6),), ((1.5, 2),)],
)
def test_family_rejects_bad_rows(members):
    with pytest.raises(SubsetDesignError, match=r"^subsets are not rows of 2 indices$"
                       r"|^subset \(.*\) does not have 2 distinct indices in 1\.\.5$"
                       r"|^subset indices must be integers, got float64$"):
        SubsetFamily(p=5, q=2, members=members)


def test_family_members_sorted_read_only():
    fam = SubsetFamily(p=5, q=2, members=((3, 1), (5, 4)))
    assert fam.members.tolist() == [[1, 3], [4, 5]]
    with pytest.raises(ValueError):
        fam.members[0, 0] = 2


@settings(max_examples=40, deadline=None)
@given(p=st.integers(2, 60), extra=st.integers(0, 60), seed=st.integers(0, 2**16),
       data=st.data())
def test_build_family_properties(p, extra, seed, data):
    q = data.draw(st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1))
    fam = build_family(p, q, p + extra, RngSpec(seed))
    m = fam.members
    assert m.shape == (p + extra, q)
    assert (np.diff(m, axis=1) > 0).all()
    assert m.min() >= 1 and m.max() <= p
    assert (fam.indicator().sum(axis=0) == q).all()
    assert SubsetFamily.from_json(fam.to_json()) == fam


def test_identifiability_examples():
    assert verify_identifiability(5, 2).identifiable
    res = verify_identifiability(6, 3)
    assert not res.identifiable
    mu = np.asarray(res.witness)
    for ell in range(6):
        assert sum(mu[(ell + t) % 6] for t in range(3)) == 0
    res4 = verify_identifiability(4, 2)
    assert not res4.identifiable and any(res4.witness)


def test_identifiability_bound():
    with pytest.raises(SubsetDesignError, match="^p=65 exceeds the small-instance bound 64$"):
        verify_identifiability(65, 2)


def test_identifiability_matches_coprimality_small():
    for p in range(2, 13):
        for q in range(1, p):
            assert verify_identifiability(p, q).identifiable == (math.gcd(p, q) == 1)
