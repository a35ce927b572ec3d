"""Exception types shared across the package, and the config type check.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
NumericAbort -> 4. Everything else is a programming error.
"""

import dataclasses
import types
import typing


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


def check_field_types(cls, d: dict, section: str):
    """Raise ConfigError naming the first value of ``d`` that does not fit its
    field's annotation in dataclass ``cls``. A float field also takes an int, a
    tuple field a list and a dataclass field a dict; a bool is not a number.
    """
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        if key in hints and not _fits(value, hints[key]):
            name = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ConfigError(f"{section} field {key!r} must be {name}, got {value!r}")


def _fits(value, hint) -> bool:
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        elem = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, elem) for v in value)
    if dataclasses.is_dataclass(hint):
        return isinstance(value, (dict, hint))
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))
