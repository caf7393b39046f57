"""Shared data model: validated panels, reproducible RNG streams, test results.

The RNG contract is the backbone of every stochastic routine in the
package: an :class:`RngSpec` is a cheap immutable token (seed, stream_id)
and every bootstrap replicate / Monte Carlo repetition derives its own
substream, so results are bit-identical regardless of evaluation order or
parallelism degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteError, PoolmaxError

__all__ = ["RngSpec", "substream", "substream_normals", "TestResult", "validate_matrix"]


@dataclass(frozen=True)
class RngSpec:
    """Token identifying a reproducible random stream.

    Identical (seed, stream_id) reproduce identical draws across runs and
    across thread counts; the underlying generator is counter-based
    (Philox), so streams with distinct ids are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


def substream(rng: RngSpec, k: int) -> RngSpec:
    """Derive the k-th child stream of `rng`.

    The new stream_id is the Cantor pairing of (stream_id, k), which is
    injective, so nested derivations never collide.
    """
    if k < 0:
        raise ValueError("substream index must be non-negative")
    return RngSpec(rng.seed, _cantor(rng.stream_id, k))


def _cantor(s, k):
    # Works elementwise on object arrays of Python ints, which never overflow.
    return (s + k) * (s + k + 1) // 2 + k


# NumPy's SeedSequence constants (after O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _words(v) -> list:
    """Little-endian 32-bit words of a non-negative int, at least one."""
    out = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        out.append(v & _MASK32)
    return out


def _philox_keys(seed: int, ids: np.ndarray, n_words: int) -> np.ndarray:
    """Row i: SeedSequence(seed, spawn_key=(ids[i],)).generate_state(2, uint64).

    The same hash as NumPy's SeedSequence, run on uint32 columns, one lane
    per id.  Every id in `ids` takes `n_words` 32-bit words, so that every
    lane mixes the same number of words.  The tests compare the result with
    NumPy's own SeedSequence, so a change there cannot pass unnoticed.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawned sequence pads to the pool
    spawn = [((ids >> (32 * j)) & _MASK32).astype(np.uint32) for j in range(n_words)]
    entropy = [np.full(ids.size, w, dtype=np.uint32) for w in run] + spawn
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        v = v * np.uint32(hash_const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    hash_const = _INIT_B
    state = []
    for w in pool:  # generate_state(2, uint64): 4 words, each pool word once
        v = w ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        v = v * np.uint32(hash_const)
        state.append(v ^ (v >> np.uint32(16)))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def substream_normals(rng: RngSpec, replicates: int, n: int) -> np.ndarray:
    """A (replicates, n) matrix whose row b is
    ``substream(rng, b).generator().standard_normal(n)``, byte for byte.

    The Philox keys of all rows are derived in one vectorized pass over the
    stream ids, grouped by how many 32-bit words an id takes.  One Philox
    generator is then reset to each key with a zero counter and an empty
    buffer, the state of a freshly built one, and draws straight into its
    row.
    """
    ids = _cantor(rng.stream_id, np.arange(replicates, dtype=object))
    n_words = np.array([len(_words(i)) for i in ids], dtype=np.int64)
    keys = np.empty((replicates, 2), dtype=np.uint64)
    for k in np.unique(n_words):
        rows = n_words == k
        keys[rows] = _philox_keys(rng.seed, ids[rows], int(k))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    xi = np.empty((replicates, n))
    for b in range(replicates):
        fresh["state"]["key"] = keys[b]
        bitgen.state = fresh
        gen.standard_normal(n, out=xi[b])
    return xi


def validate_matrix(values) -> np.ndarray:
    """Validate an observations-by-dimensions panel.

    Returns a float64 C-contiguous copy with n_rows >= 2, n_cols >= 1 and
    all entries finite.

    Raises
    ------
    PoolmaxError
        fewer than 2 rows or no columns
    NonFiniteError
        any NaN/Inf entry (first offending position reported)
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise PoolmaxError(f"expected a 2-d panel, got ndim={x.ndim}")
    n, p = x.shape
    if n < 2:
        raise PoolmaxError(f"need at least 2 observations, got {n}")
    if p < 1:
        raise PoolmaxError("need at least 1 dimension")
    bad = ~np.isfinite(x)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteError(int(i), int(j))
    return x


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test."""

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    method: str  # "naive" | "subsets-pool" | "marginal"
    per_subset_t: Optional[np.ndarray] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        d = {
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": bool(self.reject),
            "alpha": self.alpha,
            "method_tag": self.method,
        }
        if self.per_subset_t is not None:
            d["per_subset_t"] = [float(t) for t in self.per_subset_t]
        return d

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)
