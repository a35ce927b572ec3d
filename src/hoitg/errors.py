"""Exception types shared across the package, and the JSON codec of the
config dataclasses.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
NumericAbort -> 4. Everything else is a programming error.

Every config (``TrainConfig``, ``EncoderConfig``, ``LossWeights``,
``SceneConfig``) is written with ``config_to_dict`` and read back with
``config_from_dict``; each class checks the ranges of its own values in
``__post_init__``.
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


def config_to_dict(cfg) -> dict:
    """The JSON form of config dataclass ``cfg``: nested configs become dicts."""
    return dataclasses.asdict(cfg)


def config_from_dict(cls, d, section: str):
    """Build config dataclass ``cls`` from its JSON form ``d``.

    Raise ConfigError, naming ``section`` and the field, when ``d`` is not an
    object, has a key that is not a field of ``cls``, or has a value that does
    not fit its field's annotation. A float field also takes an int, and a
    bool is not a number. Lists become tuples and nested objects become
    nested configs.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint) and isinstance(value, dict):
            value = config_from_dict(hint, value, key)
        elif not _fits(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{section} field {key!r} must be {name}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _fits(value, hint) -> bool:
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        elem = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, elem) for v in value)
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))
