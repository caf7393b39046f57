"""Pooling designs: circular window families and random extensions.

The identifiability oracle (`verify_identifiability`) builds the 0/1
circulant membership matrix for the circular windows and computes its
rank exactly over the rationals; it is a small-instance test fixture, not
a runtime path for large p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import RngSpec
from .errors import NotCoprimeError, SubsetDesignError

__all__ = [
    "SubsetFamily",
    "check_design",
    "circular_family",
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
    of the wrong width, repeated indices and indices outside 1..p.
    """

    p: int
    q: int
    members: np.ndarray

    def __post_init__(self):
        not_rows = f"subsets are not rows of {self.q} indices"
        if self.q < 1:
            raise SubsetDesignError(not_rows)
        try:
            m = np.asarray(self.members)
        except ValueError:  # ragged rows
            raise SubsetDesignError(not_rows) from None
        if m.ndim == 1 and m.size == 0:  # no subsets
            m = m.reshape(0, self.q)
        if m.ndim != 2 or m.shape[1] != self.q:
            raise SubsetDesignError(not_rows)
        if m.size and m.dtype.kind not in "iu":
            raise SubsetDesignError(f"subset indices must be integers, got {m.dtype}")
        m = np.sort(m.astype(np.int64), axis=1)
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

    def indicator(self) -> np.ndarray:
        """p x d 0/1 membership matrix; column ell indicates S_ell."""
        s = np.zeros((self.p, self.d))
        s[self.members - 1, np.arange(self.d)[:, None]] = 1.0
        return s

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "d": self.d, "members": self.members.tolist()}

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "SubsetFamily":
        fam = cls(p=int(d["p"]), q=int(d["q"]), members=d["members"])
        if "d" in d and int(d["d"]) != fam.d:
            raise SubsetDesignError("declared d does not match member count")
        return fam

    @classmethod
    def from_json(cls, s: str) -> "SubsetFamily":
        return cls.from_dict(json.loads(s))


def _check_pq(p: int, q: int) -> None:
    if q < 1 or q >= p:
        raise SubsetDesignError(f"need 1 <= q < p, got p={p}, q={q}")


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
    _check_pq(p, q)
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(p, q, _nearest_coprime(p, q))


def circular_family(p: int, q: int) -> SubsetFamily:
    """The p circular windows {ell, ..., ell+q-1} with wrap-around.

    Requires gcd(p, q) = 1, which makes the window sums identify every
    individual mean (see `verify_identifiability`).
    """
    check_design(p, q)
    windows = (np.arange(p)[:, None] + np.arange(q)) % p + 1
    return SubsetFamily(p=p, q=q, members=windows)


def random_extension(p: int, q: int, count: int, rng: RngSpec) -> np.ndarray:
    """(count, q) array of subsets drawn uniformly without replacement.

    Rows are sorted and 1-based.  Subsets are sampled freely: duplicates
    between subsets are permitted.
    """
    if q < 1 or q > p:
        raise SubsetDesignError(f"need 1 <= q <= p, got p={p}, q={q}")
    if count < 0:
        raise ValueError("count must be non-negative")
    gen = rng.generator()
    out = np.empty((count, q), dtype=np.int64)
    for i in range(count):
        out[i] = gen.choice(p, size=q, replace=False)
    out.sort(axis=1)
    return out + 1


def build_family(
    p: int,
    q: int,
    d: int,
    rng: RngSpec,
    user_subsets: Optional[Sequence[Sequence[int]]] = None,
) -> SubsetFamily:
    """Full design: p circular windows plus d - p extension subsets.

    The extension block is random by default; `user_subsets` replaces the
    leading part of it with caller-chosen subsets (validated for
    cardinality and range only).
    """
    check_design(p, q, d)
    blocks = [circular_family(p, q).members]
    if user_subsets is not None:
        if len(user_subsets) > d - p:
            raise SubsetDesignError("more user subsets than extension slots")
        blocks.append(SubsetFamily(p=p, q=q, members=user_subsets).members)
    blocks.append(random_extension(p, q, d - p - sum(map(len, blocks[1:])), rng))
    return SubsetFamily(p=p, q=q, members=np.concatenate(blocks))


@dataclass(frozen=True)
class IdentifiabilityResult:
    identifiable: bool
    witness: Optional[Tuple[int, ...]] = None


def _rref(rows):
    """In-place rational row reduction; returns (rank, pivot column list)."""
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return r, pivots


def verify_identifiability(p: int, q: int, max_p: int = 64) -> IdentifiabilityResult:
    """Brute-force check that circular q-window sums determine all means.

    Computes the exact rational rank of the p x p circulant membership
    matrix. When rank-deficient, returns an integer kernel vector: a
    nonzero mean profile whose every cyclic q-window sum is zero.
    """
    _check_pq(p, q)
    if p > max_p:
        raise SubsetDesignError(f"p={p} exceeds the small-instance bound {max_p}")
    rows = [
        [Fraction(1 if ((c - ell) % p) < q else 0) for c in range(p)]
        for ell in range(p)
    ]
    rank, pivots = _rref(rows)
    if rank == p:
        return IdentifiabilityResult(identifiable=True)
    free = next(c for c in range(p) if c not in pivots)
    v = [Fraction(0)] * p
    v[free] = Fraction(1)
    for i, pc in enumerate(pivots):
        v[pc] = -rows[i][free]
    scale = math.lcm(*(x.denominator for x in v))
    witness = tuple(int(x * scale) for x in v)
    return IdentifiabilityResult(identifiable=False, witness=witness)
