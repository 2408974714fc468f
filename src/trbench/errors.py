"""Exception types shared across the solver stack."""


class NumericalBreakdownError(ArithmeticError):
    """A recursion denominator lost positivity or fell under the guard."""


class ModelInconsistencyError(ArithmeticError):
    """Predicted model reduction is not positive; indicates a solver bug."""


class CsvFormatError(ValueError):
    """A results file does not match the expected schema."""
