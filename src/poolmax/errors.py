"""Exception taxonomy.

Every operation either returns a value or raises one of these; NaNs are
never silently propagated.
"""


class PoolmaxError(Exception):
    """Base class for all library errors."""


class DataError(PoolmaxError):
    """Malformed or unusable input data."""


class NonFiniteError(DataError):
    def __init__(self, row, col):
        self.row, self.col = row, col
        super().__init__(f"non-finite entry at ({row}, {col})")


class TooSmallError(DataError):
    pass


class ShapeMismatchError(DataError):
    pass


class DimensionMismatchError(DataError):
    pass


class ParseError(DataError):
    def __init__(self, line, msg="unparseable value"):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class RaggedRowsError(DataError):
    def __init__(self, line):
        self.line = line
        super().__init__(f"line {line}: inconsistent number of fields")


class SubsetDesignError(PoolmaxError):
    """Invalid pooling design."""


class NotCoprimeError(SubsetDesignError):
    def __init__(self, p, q, suggested_q):
        self.p, self.q, self.suggested_q = p, q, suggested_q
        super().__init__(f"p={p} and q={q} are not coprime; try q={suggested_q}")


class BadCardinalityError(SubsetDesignError):
    pass


class DTooSmallError(SubsetDesignError):
    pass


class TooLargeError(SubsetDesignError):
    pass


class DegenerateStatisticError(PoolmaxError):
    """A statistic cannot be formed from the given data."""


class DegenerateVarianceError(DegenerateStatisticError):
    def __init__(self, index=None):
        self.index = index
        where = "" if index is None else f" (subset/column {index})"
        super().__init__(f"zero variance estimate{where}")


class DegenerateSeriesError(DegenerateStatisticError):
    pass


class EmptyDrawsError(DegenerateStatisticError):
    pass


class ProfileOverflowError(PoolmaxError):
    pass


class OutOfRangeError(PoolmaxError):
    pass


class NotPSDError(PoolmaxError):
    pass


class BadParamsError(PoolmaxError):
    pass


class BadThresholdError(PoolmaxError):
    pass


class NonConvergenceError(PoolmaxError):
    pass


class TooFewObservationsError(DataError):
    pass


class TooFewExceedancesError(DataError):
    pass


class InsufficientHistoryError(DataError):
    pass
