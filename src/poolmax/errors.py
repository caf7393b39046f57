"""Exception taxonomy.

Every operation either returns a value or raises one of these; NaNs are
never silently propagated.  A class exists only because some caller tells
it apart from its base:

=========================  ==============================================
class                      told apart by
=========================  ==============================================
PoolmaxError               the CLI: exit 3 (unusable input data)
SubsetDesignError          the CLI: exit 2 (invalid pooling design)
DegenerateStatisticError   the CLI: exit 4 (degenerate statistic)
NotCoprimeError            ``subsets-check``, which reads ``suggested_q``
NonFiniteError             ``backtest._forecast``, which reads ``row``/``col``
DegenerateVarianceError    ``full_backtest``, which records it per cell;
                           the sweep-a1 benchmark, which prints its name
ParseError                 the tests, which read ``line``
=========================  ==============================================

A new class needs a caller that catches it or reads its attributes.

An argument out of its range raises before any work.  ``ValueError``: an
alpha or VaR theta outside (0, 1), a count below its minimum (B, ``mc_reps``,
``refit_every``, seeds, ``p``), the fields of ``GarchParams`` and the
``kind`` of a ``VarMethod``; ``TypeError``: a B, seed or stream id that is
not an integer.  ``PoolmaxError`` (CLI exit 3): theta0 (``score``'s theta
too), ``alpha_n``, a negative or too large ``p0``, ``u``, the skewed-t
parameters, and a sample too small for its estimator, which includes an
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


class ParseError(PoolmaxError):
    """An input file that cannot be read; `line` is where (0: no line)."""

    def __init__(self, line, msg="unparseable value"):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class SubsetDesignError(PoolmaxError):
    """Invalid pooling design; the CLI exits 2."""


class NotCoprimeError(SubsetDesignError):
    """p and q share a factor; `subsets-check` reports `suggested_q`."""

    def __init__(self, p, q, suggested_q):
        self.suggested_q = suggested_q
        super().__init__(f"p={p} and q={q} are not coprime; try q={suggested_q}")


class DegenerateStatisticError(PoolmaxError):
    """A statistic cannot be formed from the given data; the CLI exits 4."""


class DegenerateVarianceError(DegenerateStatisticError):
    """A variance estimate that is zero, or out of floating-point range;
    `full_backtest` records it in the report's errors instead of aborting."""
