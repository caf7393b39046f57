import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from poolmax import RngSpec, build_family, random_extension
from poolmax.errors import SubsetDesignError
import poolmax.subsets
from poolmax.subsets import SubsetFamily, verify_identifiability


def circular_family(p, q):
    """The p circular windows alone: a family with d = p draws no extension."""
    return build_family(p, q, p, RngSpec(0))


def test_circular_family_p5_q2():
    fam = circular_family(5, 2)
    assert fam.members.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]


def test_circular_family_wraps():
    fam = circular_family(100, 49)
    member_60 = set(range(60, 101)) | set(range(1, 9))
    assert set(fam.members[59]) == member_60


def test_circular_family_rejects_non_coprime():
    with pytest.raises(SubsetDesignError, match="^p=100 and q=50 are not coprime; try q=49$"):
        circular_family(100, 50)
    assert verify_identifiability(100, 50).suggested_q == 49
    assert verify_identifiability(100, 49).suggested_q is None
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


@pytest.mark.parametrize("p, q, count", [
    # numpy's Floyd branch (p <= 10000 or q <= p // 50)
    (100, 49, 300), (2000, 49, 500), (10000, 64, 50), (65, 64, 200), (5, 1, 50),
    (3, 3, 40), (1, 1, 3), (7, 6, 1000), (100, 49, 0),
    (70, 65, 30), (10000, 200, 5), (20000, 400, 5), (10000, 10000, 2),
    # the last Floyd step of a row draws from 2**31 + 1 values, where numpy's
    # bounded draw rejects about half of the 32-bit words and draws again
    (2**31 + 1, 5, 300),
    (2**40 + 3, 3, 20),  # bounds past 32 bits
    # numpy's partial shuffle of range(p) (p > 10000 and q > p // 50)
    (20000, 401, 3), (10001, 201, 3), (10001, 10001, 2),
])
def test_random_extension_equals_choice_rows(p, q, count):
    for seed in range(2):
        got = random_extension(p, q, count, RngSpec(seed, 1))
        want = oracle.choice_rows(p, q, count, RngSpec(seed, 1))
        assert got.dtype == want.dtype and got.shape == want.shape == (count, q)
        assert np.array_equal(got, want)


def test_build_family_sizes_and_determinism():
    assert build_family(5, 2, 5, RngSpec(0)) == oracle.family(5, 2, 5, RngSpec(0))
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


# sha256 of the members of build_family(p, q, d, RngSpec(seed), user), as
# built when every block was checked on its own and again in the whole.
FAMILY_DIGESTS = [
    (6, 5, 12, 1, None, "42c8e44a51c618be1d29c439b18150b618e35fca7df526200a63063428ba345e"),
    (100, 49, 200, 0, None, "0065f440386dcad2ca34292214a632983920ec8f86cf1e31110b3525b32eef17"),
    (250, 49, 500, 7, None, "d8f8687b7a7e8e9009c9478178c4ac48c40bd0685e6b852f18683c097d053e3a"),
    (2000, 49, 4000, 3, None, "4e719df4bad6013f52a41f7f0db33c365f941c24dd6648110af32f4eed642e6c"),
    (7, 3, 20, 5, [[7, 1, 2], [3, 2, 1]],
     "9ee96b74569c4287b03cbea0c04df9e8b9d1fedd105fba64a02613ad5280f75b"),
    (10, 3, 15, 2, np.array([[10, 9, 8]], dtype=np.uint8),
     "10f202302830b39c5917fffef5376a7b0dfceef2ac35a076b7780327f04c30d3"),
    (13, 5, 40, 9, [(5, 4, 3, 2, 1)] * 20,
     "fd2339550e6f9593993b671227660becec341d2b959c12b195d3cd7b0551fff9"),
]


@pytest.mark.parametrize("p, q, d, seed, user, digest", FAMILY_DIGESTS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in FAMILY_DIGESTS])
def test_build_family_digests(p, q, d, seed, user, digest):
    fam = build_family(p, q, d, RngSpec(seed), user_subsets=user)
    assert fam.members.dtype == np.int64 and fam.members.shape == (d, q)
    assert hashlib.sha256(fam.members.tobytes()).hexdigest() == digest


def test_build_family_checks_each_row_once(monkeypatch):
    """One design check and one family: its constructor sorts and checks
    the windows, the user rows and the random rows together."""
    calls = []
    check_design, post_init = poolmax.subsets.check_design, SubsetFamily.__post_init__
    monkeypatch.setattr(poolmax.subsets, "check_design",
                        lambda *a: calls.append("design") or check_design(*a))
    monkeypatch.setattr(SubsetFamily, "__post_init__",
                        lambda self: calls.append(len(self.members)) or post_init(self))
    build_family(7, 3, 20, RngSpec(5), user_subsets=[[7, 1, 2], [3, 2, 1]])
    assert calls == ["design", 20]


def test_family_constructor_copies_once():
    m = np.random.default_rng(0).random((4000, 200)).argsort(axis=1)[:, :49] + 1
    tracemalloc.start()
    try:
        fam = SubsetFamily(p=200, q=49, members=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(fam.members, np.sort(m, axis=1))
    assert peak < 1.5 * m.nbytes  # two int64 copies at once took 2.0


def test_family_json_roundtrip():
    fam = build_family(10, 3, 12, RngSpec(2))
    back = SubsetFamily.from_json(fam.to_json())
    assert back == fam
    payload = json.loads(fam.to_json())
    assert payload["p"] == 10 and payload["q"] == 3 and payload["d"] == 12


@pytest.mark.parametrize("sizes", ['"p": 5.9, "q": 2.7, "d": 5.5', '"p": 5, "q": 2, "d": 5.0'],
                         ids=["p-q-d", "d"])
def test_family_from_json_refuses_fractions(sizes):
    """p, q and d reach `operator.index`, which no float passes; `int()`
    made the first a p=5, q=2, d=5 family."""
    with pytest.raises(TypeError):
        SubsetFamily.from_json('{%s, "members": [[1,2],[2,3],[3,4],[4,5],[1,5]]}' % sizes)


def test_family_from_numpy_ints_serializes():
    fam = build_family(np.int64(10), np.int64(3), np.int64(20), RngSpec(1))
    assert type(fam.p) is int and type(fam.q) is int
    assert fam.to_json() == build_family(10, 3, 20, RngSpec(1)).to_json()


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


def _window_sums(mu, q):
    """The p cyclic q-window sums of mu, window ell starting at index ell."""
    c = np.concatenate([[0], np.cumsum(np.tile(mu, 2))])
    return c[q:q + len(mu)] - c[:len(mu)]


def test_witness_window_sums_vanish():
    for p in range(2, 201):
        for q in range(1, p):
            res = verify_identifiability(p, q)
            if math.gcd(p, q) == 1:
                assert res.identifiable and res.witness is None and res.suggested_q is None
                continue
            mu = np.asarray(res.witness)
            assert not res.identifiable and mu.shape == (p,) and mu.any()
            assert 1 <= res.suggested_q < p and math.gcd(p, res.suggested_q) == 1
            assert not _window_sums(mu, q).any()


def test_witness_large_p():
    res = verify_identifiability(6000, 48)
    mu = np.asarray(res.witness)
    assert not res.identifiable and mu.shape == (6000,) and mu.any()
    assert not _window_sums(mu, 48).any()
    assert verify_identifiability(6001, 48).identifiable
