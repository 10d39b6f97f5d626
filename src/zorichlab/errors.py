"""Exception types shared across the library.

The CLI maps ValueError subclasses and MemoryError (an input too large to
allocate) to exit code 2 (bad input), and ArithmeticError / OverflowError
subclasses to exit code 3 (numeric failure).  Exit code 1 is a failed
`verify` check.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ParityMismatchError(DomainError):
    """Requested inverse branch is on the wrong side of the equator."""


class ExponentOverflowError(OverflowError):
    """exp(x3) would leave the representable float64 range."""

    def __init__(self, stage: str, value: float):
        super().__init__(
            f"exp() overflow at {stage} application: x3 = {value!r} exceeds the cap"
        )
        self.stage = stage
        self.value = value


class DegenerateError(ArithmeticError):
    """A numeric estimate collapsed (locally constant map, empty trapezoid, ...)."""


class NoIntersectionError(ArithmeticError):
    """Ray / surface bracketing found no sign change in the scanned range."""

    def __init__(self, message: str, scanned=None):
        super().__init__(message)
        self.scanned = scanned
