import numpy as np
import pytest

from poolmax import RngSpec, substream, validate_matrix
from poolmax.core import substream_normals
from poolmax.errors import NonFiniteError, PoolmaxError


def test_minimal_legal_shape():
    x = validate_matrix([[0.0], [0.0]])
    assert x.shape == (2, 1)


def test_nonfinite_reports_position():
    with pytest.raises(NonFiniteError) as exc:
        validate_matrix([[np.nan], [0.0]])
    assert (exc.value.row, exc.value.col) == (0, 0)


def test_too_few_rows():
    with pytest.raises(PoolmaxError, match="^need at least 2 observations, got 1$"):
        validate_matrix([[1.0, 2.0, 3.0]])


def test_substream_deterministic_and_distinct():
    r = RngSpec(seed=1, stream_id=0)
    a, b = substream(r, 0), substream(r, 1)
    assert a != b
    assert substream(r, 1) == b
    da = a.generator().standard_normal(5)
    assert np.array_equal(da, a.generator().standard_normal(5))


def test_substream_injective_over_grid():
    seen = {}
    for s in range(50):
        for k in range(50):
            sid = substream(RngSpec(0, s), k).stream_id
            assert sid not in seen, (s, k, seen[sid])
            seen[sid] = (s, k)


def test_substreams_uncorrelated():
    r = RngSpec(seed=42)
    a = substream(r, 0).generator().standard_normal(10**5)
    b = substream(r, 1).generator().standard_normal(10**5)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_generator_independent_of_construction_order():
    # parallel workers can derive streams in any order
    vals = [substream(RngSpec(9), k).generator().standard_normal() for k in (2, 0, 1)]
    again = [substream(RngSpec(9), k).generator().standard_normal() for k in (0, 1, 2)]
    assert vals[1] == again[0] and vals[2] == again[1] and vals[0] == again[2]


def _normals_loop(rng, replicates, n):
    xi = np.empty((replicates, n))
    for b in range(replicates):
        xi[b] = substream(rng, b).generator().standard_normal(n)
    return xi


@pytest.mark.parametrize(
    "rng, replicates, n",
    [
        (RngSpec(0), 1, 2),
        (RngSpec(3, 2), 300, 50),
        (RngSpec(2**40 + 3, 7), 20, 5),  # seed takes two 32-bit words
        (RngSpec(5, 92_600), 200, 3),  # Cantor-paired ids pass 2**32
        (RngSpec(1, 6_074_000_950), 100, 3),  # ... and 2**64
        (RngSpec(2**70, 2**40), 10, 4),
    ],
)
def test_substream_normals_matches_per_replicate_generators(rng, replicates, n):
    xi = substream_normals(rng, replicates, n)
    assert xi.shape == (replicates, n)
    assert xi.tobytes() == _normals_loop(rng, replicates, n).tobytes()

