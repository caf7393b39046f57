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


def test_rngspec_stores_numpy_integers_as_int():
    r = RngSpec(np.int64(7), np.int64(2**62))
    assert type(r.seed) is int and type(r.stream_id) is int
    assert r == RngSpec(7, 2**62)
    # the Cantor pairing of 2**62 passes 2**63: no int64 wrap-around
    assert substream(r, 5).stream_id == substream(RngSpec(7, 2**62), 5).stream_id > 2**63
    with pytest.raises(TypeError):
        RngSpec(7.0)


def _normals_loop(rng, rows, n):
    xi = np.empty((len(rows), n))
    for i, b in enumerate(rows):
        xi[i] = substream(rng, b).generator().standard_normal(n)
    return xi


def _rows_id(rows):
    # range(k) shows as k, any other range as <start>to<stop>
    if isinstance(rows, range):
        return str(rows.stop) if rows.start == 0 else f"{rows.start}to{rows.stop}"
    return None


@pytest.mark.parametrize(
    "rng, rows, n",
    [
        (RngSpec(0), range(1), 2),
        (RngSpec(3, 2), range(300), 50),
        (RngSpec(2**40 + 3, 7), range(20), 5),  # seed takes two 32-bit words
        (RngSpec(5, 92_600), range(200), 3),  # Cantor-paired ids pass 2**32
        (RngSpec(1, 6_074_000_950), range(100), 3),  # ... and 2**64
        (RngSpec(2**70, 2**40), range(10), 4),
        (RngSpec(np.int64(7), np.int64(3)), range(5), 3),  # e.g. a seed from np.arange
        (RngSpec(np.uint64(2**40 + 3), np.int32(92_600)), range(40), 2),
        # five seed words: mixing the seed takes more than 4 * 4 hashmix calls
        (RngSpec(2**140, 9), range(30), 3),
        (RngSpec(3), range(92_660, 92_700), 3),  # a chunk whose ids cross 2**32
        (RngSpec(3), range(0), 3),
    ],
    ids=_rows_id,
)
def test_substream_normals_matches_per_replicate_generators(rng, rows, n):
    xi = substream_normals(rng, rows, n)
    assert xi.shape == (len(rows), n)
    assert xi.tobytes() == _normals_loop(rng, rows, n).tobytes()
