"""Monte Carlo size and power gates of the one-sided comparative backtest.

The design is the paper's model size: n=500 days, p=100 assets, the
circular-and-random family with q=49 and d=200, B=500 multiplier draws.
Losses are i.i.d. N(0, 1), so the true VaR at exceedance probability theta0
is ndtri(1 - theta0) in every cell.  Comparative backtests test whether one
forecast scores better than another under a strictly consistent scoring
function (Nolde & Ziegel 2017, Ann. Appl. Stat.; Gneiting 2011, JASA); the
seeds below were fixed before the first run.
"""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import binom

from poolmax import BootstrapConfig, RngSpec, build_family, comparative_test, substream

pytestmark = pytest.mark.slow

N, P, Q, D, B = 500, 100, 49, 200, 500
ALPHA = 0.05
THETA0 = (0.05, 0.01)


def one_sided_rejections(theta0: float, size: bool, reps: int, rng: RngSpec) -> int:
    """How many of `reps` one-sided tests find that the second forecast
    outperforms the first.

    Size: both forecasts are the true VaR plus 0.5 times independent
    standard-normal noise, so their expected scores are equal, the
    boundary of the one-sided null.  Power: the first forecast is the true
    VaR biased by +0.1 on even and -0.1 on odd columns, the second the true
    VaR itself.
    """
    true = np.full((N, P), ndtri(1 - theta0))
    bias = 0.1 * (-1.0) ** np.arange(P)
    count = 0
    for rep in range(reps):
        rr = substream(rng, rep)
        gen = substream(rr, 0).generator()
        u = gen.standard_normal((N, P))
        if size:
            r, r_star = true + 0.5 * gen.standard_normal((2, N, P))
        else:
            r, r_star = true + bias, true
        fam = build_family(P, Q, D, substream(rr, 1))
        cfg = BootstrapConfig(rng=substream(rr, 2), replicates=B)
        count += comparative_test(u, r, r_star, theta0, fam, ALPHA, cfg, one_sided=True).reject
    return count


@pytest.mark.parametrize("k", range(len(THETA0)))
def test_size_at_the_boundary_null(k):
    reps = 500
    rate = one_sided_rejections(THETA0[k], True, reps, RngSpec(1700 + k)) / reps
    upper = binom.ppf(0.995, reps, ALPHA) / reps
    print(f"theta0={THETA0[k]}: one-sided size {rate:.3f} (99% upper edge {upper:.3f})")
    assert rate <= upper


@pytest.mark.parametrize("k", range(len(THETA0)))
def test_power_against_a_biased_forecast(k):
    reps = 200
    rate = one_sided_rejections(THETA0[k], False, reps, RngSpec(1800 + k)) / reps
    print(f"theta0={THETA0[k]}: one-sided power {rate:.3f}")
    assert rate >= 0.8
