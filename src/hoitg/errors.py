"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
NumericAbort -> 4. Everything else is a programming error.
"""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class ParameterError(ValueError):
    """An argument value is outside its documented range."""


class DegeneracyError(ValueError):
    """Input geometry is degenerate (collinear / rank deficient)."""


class GraphError(RuntimeError):
    """Misuse of the computation graph (e.g. backward from a non-scalar)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(RuntimeError):
    """Dataset missing, unreadable, or inconsistent with its manifest."""


class NumericAbort(RuntimeError):
    """A non-finite loss or a degenerate forward pass; carries the offending batch."""

    def __init__(self, message, step=None, batch_indices=None):
        super().__init__(message)
        self.step = step
        self.batch_indices = list(batch_indices) if batch_indices is not None else []
