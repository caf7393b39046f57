"""Pooling designs: circular window families and random extensions.

The p circular q-windows identify every individual mean iff
gcd(p, q) = 1.  `verify_identifiability` decides that rule in closed form
for any p, with an integer kernel witness and the nearest coprime width
when it fails, and `check_design` raises from its result.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import RngSpec
from .errors import SubsetDesignError

__all__ = [
    "SubsetFamily",
    "check_design",
    "random_extension",
    "build_family",
    "verify_identifiability",
    "IdentifiabilityResult",
]


@dataclass(frozen=True, eq=False)
class SubsetFamily:
    """d index subsets of {1..p}, each of cardinality q.

    `members` is a read-only (d, q) int64 array: row ell holds the sorted,
    1-based indices of subset S_ell.  The constructor also accepts any
    sequence of equal-length integer rows, sorts each row and rejects rows
    of the wrong width, repeated indices and indices outside 1..p.  p and q
    are stored as Python ints (through `operator.index`), as `RngSpec`
    stores its fields.
    """

    p: int
    q: int
    members: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", operator.index(self.p))
        object.__setattr__(self, "q", operator.index(self.q))
        m = _index_rows(self.members, self.q).astype(np.int64)  # the one copy
        m.sort(axis=1)
        bad = (m[:, 1:] == m[:, :-1]).any(axis=1) | (m[:, 0] < 1) | (m[:, -1] > self.p)
        if bad.any():
            row = tuple(m[bad.argmax()].tolist())
            raise SubsetDesignError(
                f"subset {row} does not have {self.q} distinct indices in 1..{self.p}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "members", m)

    @property
    def d(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, SubsetFamily):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and np.array_equal(
            self.members, other.members
        )

    def __hash__(self):
        return hash((self.p, self.q, self.members.tobytes()))

    def indicator(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """p x (stop - start) 0/1 membership matrix of subsets start..stop-1.

        Column j indicates S_{start+j}; the defaults give the whole p x d
        matrix.  `pooled_panel` asks for one block of columns at a time.
        """
        m = self.members[start:stop]
        s = np.zeros((self.p, len(m)))
        s[m - 1, np.arange(len(m))[:, None]] = 1.0
        return s

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "d": self.d, "members": self.members.tolist()}

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "SubsetFamily":
        fam = cls(p=d["p"], q=d["q"], members=d["members"])
        if "d" in d and operator.index(d["d"]) != fam.d:
            raise SubsetDesignError("declared d does not match member count")
        return fam

    @classmethod
    def from_json(cls, s: str) -> "SubsetFamily":
        return cls.from_dict(json.loads(s))


def _index_rows(members, q: int) -> np.ndarray:
    """`members` as a (k, q) integer array; raise unless it is one."""
    not_rows = f"subsets are not rows of {q} indices"
    if q < 1:
        raise SubsetDesignError(not_rows)
    try:
        m = np.asarray(members)
    except ValueError:  # ragged rows
        raise SubsetDesignError(not_rows) from None
    if m.ndim == 1 and m.size == 0:  # no subsets
        m = m.reshape(0, q)
    if m.ndim != 2 or m.shape[1] != q:
        raise SubsetDesignError(not_rows)
    if m.size and m.dtype.kind not in "iu":
        raise SubsetDesignError(f"subset indices must be integers, got {m.dtype}")
    return m


def _nearest_coprime(p: int, q: int) -> int:
    for delta in range(1, p):
        for cand in (q - delta, q + delta):
            if 1 <= cand < p and math.gcd(p, cand) == 1:
                return cand
    return 1


def check_design(p: int, q: int, d: Optional[int] = None) -> None:
    """Raise the `SubsetDesignError` that makes (p, q, d) unusable.

    A design needs d >= p (when d is given), 1 <= q < p and gcd(p, q) = 1;
    a non-coprime q is reported with the nearest coprime width.
    """
    if d is not None and d < p:
        raise SubsetDesignError(f"need d >= p, got d={d}, p={p}")
    suggested_q = verify_identifiability(p, q).suggested_q
    if suggested_q is not None:
        raise SubsetDesignError(f"p={p} and q={q} are not coprime; try q={suggested_q}")


def _windows(p: int, q: int) -> np.ndarray:
    """The p circular windows {ell, ..., ell+q-1} with wrap-around."""
    return (np.arange(p)[:, None] + np.arange(q)) % p + 1


def random_extension(p: int, q: int, count: int, rng: RngSpec) -> np.ndarray:
    """(count, q) array of subsets drawn uniformly without replacement.

    Rows are sorted and 1-based.  Subsets are sampled freely: duplicates
    between subsets are permitted.  Row i is the sorted
    ``gen.choice(p, q, replace=False)`` of the i-th of count such calls on
    one generator, so a family is fixed by (p, q, d, rng).

    Where numpy draws with Floyd's algorithm (p <= 10000 or q <= p // 50),
    every row is drawn at once (`_floyd`): one ``integers`` call takes, row
    by row, the bounded draws that each ``choice`` call takes, Floyd's q
    and then the q - 1 of the shuffle that closes it.  Numpy's other
    branch, a partial shuffle of range(p), keeps one ``choice`` call per
    row.
    """
    if q < 1 or q > p:
        raise SubsetDesignError(f"need 1 <= q <= p, got p={p}, q={q}")
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = rng.generator()
    if p <= 10000 or q <= p // 50:
        bounds = np.concatenate([np.arange(p - q, p), np.arange(q - 1, 0, -1)])
        out = _floyd(gen.integers(0, bounds, size=(count, bounds.size), endpoint=True)[:, :q], p)
    else:
        out = np.empty((count, q), dtype=np.int64)
        for i in range(count):
            out[i] = gen.choice(p, size=q, replace=False)
    out.sort(axis=1)
    return out + 1


def _floyd(v: np.ndarray, p: int) -> np.ndarray:
    """The members that Floyd's algorithm keeps from its draws, row by row.

    Step k of a row draws v[k] uniformly from 0..j_k, j_k = p - q + k, and
    keeps v[k] unless an earlier step kept it, in which case it keeps j_k.
    Every draw of the steps before k was kept by one of them, so v[k] was
    kept before iff it repeats an earlier draw, or it equals j_t for an
    earlier step t that itself kept j_t; that chain runs back through
    earlier steps only, and pointer jumping follows it in log2(q) rounds.
    """
    count, q = v.shape
    k = np.arange(q)
    # A draw repeats an earlier one iff a stable sort puts an equal one first.
    order = np.argsort(v, axis=1, kind="stable")
    ranked = np.take_along_axis(v, order, axis=1)
    rows, at = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
    kept_before = np.zeros(v.shape, dtype=bool)
    kept_before[rows, order[rows, at + 1]] = True
    t = v - (p - q)
    rows, at = np.nonzero((t >= 0) & (t < k))
    flat = kept_before.ravel()
    pos = rows * q + at
    link = np.arange(flat.size)
    link[pos] = rows * q + t[rows, at]
    for _ in range((q - 1).bit_length()):
        flat[pos] |= flat[link[pos]]
        link[pos] = link[link[pos]]
    return np.where(kept_before, p - q + k, v)


def build_family(
    p: int,
    q: int,
    d: int,
    rng: RngSpec,
    user_subsets: Optional[Sequence[Sequence[int]]] = None,
) -> SubsetFamily:
    """Full design: p circular windows plus d - p extension subsets; d = p
    gives the windows alone.

    The extension block is random by default; `user_subsets` replaces the
    leading part of it with caller-chosen subsets (validated for
    cardinality and range only).
    """
    check_design(p, q, d)
    user = np.empty((0, q), dtype=np.int64)
    if user_subsets is not None:
        if len(user_subsets) > d - p:
            raise SubsetDesignError("more user subsets than extension slots")
        # int64 here, or uint64 rows would make the concatenation float
        user = _index_rows(user_subsets, q).astype(np.int64, copy=False)
    extra = random_extension(p, q, d - p - len(user), rng)
    blocks = [_windows(p, q), user, extra]
    # The constructor sorts and checks every row, the user's among them, once.
    # Drawing before making the windows, and holding the blocks until the
    # constructor has copied them, leaves glibc's heap so that a cold
    # 250 x 2000 `pool-test` peaks at 58.5 MB; the other orders measured
    # peaked at 60.6 and 62.2 MB.
    return SubsetFamily(p=p, q=q, members=np.concatenate(blocks))


@dataclass(frozen=True)
class IdentifiabilityResult:
    """`witness` and `suggested_q`, the nearest width coprime with p, are
    None when the windows identify every mean."""

    identifiable: bool
    witness: Optional[Tuple[int, ...]] = None
    suggested_q: Optional[int] = None


def verify_identifiability(p: int, q: int) -> IdentifiabilityResult:
    """Whether the p circular q-window sums determine every mean.

    The window-sum matrix is circulant: its eigenvalue at the p-th root of
    unity w^k is sum_{t<q} w^(kt), which vanishes for some w^k != 1 iff
    g = gcd(p, q) > 1.  Then the integer kernel witness mu_j = 1 for
    j = 0 (mod g), -1 for j = 1 (mod g) and 0 otherwise is a nonzero mean
    profile whose every cyclic q-window, q/g full periods of the pattern,
    sums to zero.
    """
    if q < 1 or q >= p:
        raise SubsetDesignError(f"need 1 <= q < p, got p={p}, q={q}")
    g = math.gcd(p, q)
    if g == 1:
        return IdentifiabilityResult(identifiable=True)
    period = (1, -1) + (0,) * (g - 2)
    return IdentifiabilityResult(identifiable=False, witness=period * (p // g),
                                 suggested_q=_nearest_coprime(p, q))
