"""Shared data model: validated panels, reproducible RNG streams, test
results, and the package's one CSV writer.

The RNG contract is the backbone of every stochastic routine in the
package: an :class:`RngSpec` is a cheap immutable token (seed, stream_id)
and every bootstrap replicate / Monte Carlo repetition derives its own
substream, so results are bit-identical regardless of evaluation order or
parallelism degree.  `substream_normals` draws any increasing range of
replicates at once; it derives the Philox keys of just those rows, starting
each from NumPy's SeedSequence pool of the seed, and no other module handles
a key.

`_extension` is the one loader of scipy's compiled modules, which the
skew-t, Monte Carlo and GARCH layers call without their packages.
"""

from __future__ import annotations

import csv
import functools
import importlib
import io
import json
import operator
import os
import sys
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteError, PoolmaxError

__all__ = ["RngSpec", "substream", "substream_normals", "TestResult", "validate_matrix",
           "csv_text"]


@dataclass(frozen=True)
class RngSpec:
    """Token identifying a reproducible random stream.

    Identical (seed, stream_id) reproduce identical draws across runs and
    across thread counts; the underlying generator is counter-based
    (Philox), so streams with distinct ids are statistically independent.
    Both fields are stored as Python ints (`_check_count`), so a numpy
    integer such as an element of `np.arange` cannot overflow in
    `substream`.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 0))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


def substream(rng: RngSpec, k: int) -> RngSpec:
    """Derive the k-th child stream of `rng`.

    The new stream_id is the Cantor pairing of (stream_id, k), which is
    injective, so nested derivations never collide.  k is taken as a
    Python int (`_check_count`), so a numpy integer pairs as the Python int
    it holds and cannot wrap around.
    """
    k = _check_count("substream index", k, 0)
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


def _n_words(v: int) -> int:
    """How many 32-bit words a non-negative int takes, at least one."""
    return max(1, (v.bit_length() + 31) // 32)


def _philox_keys(seed: int, ids: np.ndarray, n_words: int) -> np.ndarray:
    """Row i: SeedSequence(seed, spawn_key=(ids[i],)).generate_state(2, uint64).

    The same hash as NumPy's SeedSequence, run on uint32 columns, one lane
    per id.  Every lane mixes the seed's words first, so every lane starts
    from the pool of ``SeedSequence(seed)``, after the 4 * max(words, 4)
    hashmix calls that mixing took, and mixes in only its spawn words, of
    which every id in `ids` takes `n_words`.  The tests compare the result
    with NumPy's own SeedSequence, so a change there cannot pass unnoticed.
    """
    # uint32 arrays, not scalars: NumPy warns when a uint32 scalar overflows.
    pool = [np.full(ids.size, w, dtype=np.uint32) for w in np.random.SeedSequence(seed).pool]
    calls = 4 * max(_n_words(seed), _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        v = v * np.uint32(hash_const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    for j in range(n_words):
        w = ((ids >> (32 * j)) & _MASK32).astype(np.uint32)
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


def substream_normals(rng: RngSpec, rows: range, n: int) -> np.ndarray:
    """A (len(rows), n) matrix whose row i is
    ``substream(rng, rows[i]).generator().standard_normal(n)``, byte for byte.

    `rows` is an increasing range of replicate indices and n >= 0 (a
    PoolmaxError otherwise), so the stream ids increase too and the ids
    that take w 32-bit words are one run of rows, found by bisection; the
    Philox keys of each run are derived in one vectorized pass.  One
    generator is then reset to each key with a zero counter and an empty
    buffer, the state of a freshly built one, and draws straight into its
    row.
    """
    if rows.step <= 0:
        raise PoolmaxError(f"rows must be an increasing range, got {rows!r}")
    n = _check_count("n", n, 0)
    ids = _cantor(rng.stream_id, np.array(rows, dtype=object))
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    lo = 0
    while lo < len(ids):
        w = _n_words(ids[lo])
        hi = int(np.searchsorted(ids, 1 << (32 * w)))  # the first id wider than w words
        keys[lo:hi] = _philox_keys(rng.seed, ids[lo:hi], w)
        lo = hi
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    xi = np.empty((len(rows), n))
    for key, row in zip(keys, xi):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return xi


def validate_matrix(values) -> np.ndarray:
    """Validate an observations-by-dimensions panel.

    Returns a float64 C-contiguous array with n_rows >= 2, n_cols >= 1 and
    all entries finite.  That is `values` itself when it already is such an
    array (a 1-d input comes back as a view of one column), so callers must
    not write to the result.

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
    _raise_first_nonfinite(~np.isfinite(x))
    return x


def _raise_first_nonfinite(bad: np.ndarray) -> None:
    """Raise NonFiniteError at the first True entry of `bad`, the mask of a
    panel's non-finite entries, as (row, column); a 0-d or 1-d mask is one
    column."""
    if bad.any():
        i, j = np.argwhere(bad.reshape(len(bad) if bad.ndim > 1 else bad.size, -1))[0]
        raise NonFiniteError(int(i), int(j))


def _check_level(name: str, value: float, upper: float = 1) -> float:
    """`value` as a Python float, which a result records and every caller
    computes with; a level such as alpha, theta0 or a VaR theta must lie in
    (0, upper)."""
    if not 0 < value < upper:
        raise PoolmaxError(f"{name} must lie in (0, {upper})")
    return float(value)


def _check_count(name: str, value: int, minimum: int) -> int:
    """`value` as a Python int, through `operator.index`, so that a fraction
    raises TypeError; a count such as B, a seed or p must be >= minimum."""
    value = operator.index(value)
    if value < minimum:
        raise PoolmaxError(f"{name} must be >= {minimum}")
    return value


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

    def to_csv(self) -> str:
        """A header row and a value row of the `to_dict` fields, without
        `per_subset_t`."""
        d = self.to_dict()
        d.pop("per_subset_t", None)
        return csv_text([d.keys(), map(str, d.values())])


def csv_text(rows) -> str:
    """rows as CSV text, each line ending in a bare newline; `csv` quotes a
    field only where it must, so plain fields keep their bytes.

    Each row is written with a CRLF terminator and the CRLF is then cut to
    a newline: before Python 3.12, `csv` quotes a field that holds a bare
    CR only when CR is in the terminator."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


@functools.lru_cache(maxsize=None)
def _extension(name: str):
    """The compiled scipy module `name`, such as "scipy.special._ufuncs".

    Where its package is imported already, this is `import_module(name)`.
    Otherwise the package's `__init__` does not run: a bare module holds the
    package's name in `sys.modules` while `name` loads, with the package's
    directory as its `__path__`, so each compiled sibling the module imports
    loads from its file the same way.  Then that holder and every module the
    load registered under the package go again, and a later import of the
    package runs it as usual, with these very modules.  Each name loads once
    and is cached.  ImportError, naming the module, its directory and the
    scipy version, if scipy has no such module."""
    import scipy  # here, not above: pool-test loads no scipy

    package = name.rpartition(".")[0]
    directory = os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])
    held = package not in sys.modules
    if held:
        before = set(sys.modules)
        holder = sys.modules[package] = types.ModuleType(package)
        holder.__path__ = [directory]
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        raise ImportError(f"no compiled {name} in {directory!r} "
                          f"(scipy {scipy.__version__})") from exc
    finally:
        if held:
            for added in set(sys.modules) - before:
                if added == package or added.startswith(package + "."):
                    del sys.modules[added]
            # vars, not getattr: scipy's lazy __getattr__ would import the package
            attribute = package.rpartition(".")[2]
            if vars(scipy).get(attribute) is holder:
                delattr(scipy, attribute)
