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

One rule covers a bad argument: a value out of its range (a level, a count
below its minimum, an unknown kind, a parameter a model forbids, a series
that is not 1-d or too short, complex values, shapes that do not broadcast)
raises ``PoolmaxError``, which is a ``ValueError``, before any work; a NaN
or inf in a panel or series raises ``NonFiniteError`` there too, and a count
that is not an integer raises ``TypeError``.
"""


class PoolmaxError(ValueError):
    """Base class for all library errors; the CLI exits 3 on one that no
    subclass below claims.  A ``ValueError``, as NumPy's ``LinAlgError`` is,
    so a caller's ``except ValueError`` catches every bad argument."""


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
