"""Exception types shared across the package."""


class SemkvError(Exception):
    """Base class for all semkv errors."""


class DimensionError(SemkvError, ValueError):
    """Operand shapes are inconsistent."""


class EmptyInputError(SemkvError, ValueError):
    """An operation received zero rows/vectors where at least one is required."""


class ParameterError(SemkvError, ValueError):
    """A scalar parameter is outside its valid range."""


class TraceFormatError(SemkvError, ValueError):
    """Trace bytes do not form a valid .tkv file."""


class TraceTruncationError(TraceFormatError):
    """Trace file ends before the declared payload; message names expected vs actual bytes."""

    def __init__(self, expected: int, actual: int, what: str = "payload"):
        super().__init__(f"truncated {what}: expected {expected} bytes, got {actual}")
        self.expected = expected
        self.actual = actual
        self.what = what

    def __reduce__(self):
        # rebuilt from its fields, so one raised in a worker process reaches its parent
        return type(self), (self.expected, self.actual, self.what)


class UnsupportedDtypeError(TraceFormatError):
    """Trace header declares a dtype code this reader does not support."""


class InfeasibleBudgetError(SemkvError, ValueError):
    """Heterogeneous heads alone exceed the layer budget (B < N * f_r)."""


class AllHeadsHeterogeneousError(SemkvError, ValueError):
    """Middle-activation arithmetic is undefined when every head is heterogeneous (f_r == n)."""


class CacheConsistencyError(SemkvError, RuntimeError):
    """A plan referenced positions that do not exist in the trace."""


class PlanFormatError(SemkvError, ValueError):
    """A saved plan lacks a field or names an unknown policy or head class."""


class WorkerError(SemkvError, RuntimeError):
    """A worker process that visits heads ended before its visits were made."""
