"""Exception taxonomy.

Every operation either returns a value or raises one of these; NaNs are
never silently propagated.  A class exists only because some caller tells
it apart from its base:

=========================  ==============================================
class                      told apart by
=========================  ==============================================
PoolmaxError               the CLI: exit 3 (unusable input data)
SubsetDesignError          the CLI: exit 2 (invalid pooling design)
DegenerateVarianceError    the CLI: exit 4 (degenerate statistic);
                           ``full_backtest``, which records it per cell;
                           the sweep-a1 benchmark, which prints its name
NonFiniteError             ``backtest._forecast``, which reads ``row``/``col``
=========================  ==============================================

A new class needs a caller that catches it or reads its attributes.

An argument out of its range raises before any work.  ``ValueError``: an
alpha or VaR theta outside (0, 1), a count below its minimum (B, ``mc_reps``,
``refit_every``, seeds, a ``substream`` index, ``p``, a ``DgpSpec``'s
included, and the draws of ``bootstrap_quantile``), a decreasing range of
``substream_normals`` rows, the fields of ``GarchParams`` and the ``kind`` of
a ``VarMethod``; ``TypeError``: a B, seed, stream id, ``substream`` index,
``DgpSpec`` n, p or p0, family p, q or d (``SubsetFamily.from_dict``
too), ``rolling_forecasts`` window, horizon or ``refit_every``, or EVT tail
size k (of a ``VarMethod`` or ``evt_var``) that is not an integer.
``PoolmaxError`` (CLI exit 3): theta0
(``score``'s theta too), ``alpha_n``, a negative or too large ``p0``, ``u``,
the skewed-t parameters, and a sample too small for its estimator, which
includes a ``DgpSpec`` n below 2 (the message of ``validate_matrix``) and an
EVT tail size k outside 10 <= k < m (checked where the residual count m is
known, not when the ``VarMethod`` is made).
"""


class PoolmaxError(Exception):
    """Base class for all library errors; the CLI exits 3 on one that no
    subclass below claims."""


class NonFiniteError(PoolmaxError):
    """A NaN or inf entry; `backtest._forecast` catches it and re-raises it
    with the forecast's name at the same `row` and `col`."""

    def __init__(self, row, col, where=None):
        self.row, self.col = row, col
        at = f"non-finite entry at ({row}, {col})"
        super().__init__(at if where is None else f"{at} of {where}")


class SubsetDesignError(PoolmaxError):
    """Invalid pooling design; the CLI exits 2."""


class DegenerateVarianceError(PoolmaxError):
    """A variance estimate that is zero, or out of floating-point range, such
    as that of a constant series: the statistic cannot be formed.  The CLI
    exits 4, and `full_backtest` records it in the report's errors instead
    of aborting."""
