"""Exception hierarchy, and the JSON reader, typed loader and bound check every module shares.

The CLI maps these onto exit codes: ConfigError -> 1 (a diverged trainer or
classifier included), DataError -> 2, anything else -> 3.
"""

import json
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass


class KgstructError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KgstructError):
    """Invalid configuration or command-line usage."""


class DataError(KgstructError):
    """Input data is missing, malformed, or inconsistent with a request."""


class ParseError(DataError):
    """A line of an edge file could not be parsed."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class TrainingDivergedError(ConfigError):
    """Training produced non-finite values: a setting, such as the learning rate, cannot run."""


def check_at_least(path: str, value, low) -> None:
    """Raise ConfigError naming the config field ``path`` unless ``value >= low``; NaN fails."""
    if not value >= low:
        raise ConfigError(f"{path}: must be >= {low}, got {value}")


def read_json_object(path, what: str, error: type[KgstructError]) -> dict:
    """The JSON object in the UTF-8 file at ``path``; any other content raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


def load_dataclass(cls, data, path: str = ""):
    """Build dataclass ``cls`` from parsed JSON, checking every field's type.

    ``path`` is the dotted path of ``data`` in its document ("" at the top).
    An unknown key, a missing required field or a value of the wrong type
    raises ConfigError naming the dotted field.
    """
    label = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected an object, got {_got(data)}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}")
    for name, spec in declared.items():
        if name not in data and spec.default is MISSING and spec.default_factory is MISSING:
            raise ConfigError(f"{label}: missing required field {name!r}")
    hints = typing.get_type_hints(cls)
    prefix = f"{path}." if path else ""
    return cls(**{name: _check(hints[name], value, prefix + name) for name, value in data.items()})


def _check(hint, value, path: str):
    """``value`` checked against the field type ``hint``; JSON lists become tuples."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        return load_dataclass(hint, value, path)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:
            return _check(options[0], value, path)
        for option in options:
            try:
                return _check(option, value, path)
            except ConfigError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = (args[0],) * len(value) if args[1:] == (Ellipsis,) else args
            if len(kinds) == len(value):
                return tuple(
                    _check(kind, item, f"{path}[{i}]")
                    for i, (kind, item) in enumerate(zip(kinds, value))
                )
    elif hint is float:
        # kept as given: embeddings.kgt echoes the train config, so turning
        # 1 into 1.0 would change its bytes
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    elif isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return value
    expected = str(hint) if origin else hint.__name__
    raise ConfigError(f"{path}: expected {expected}, got {_got(value)}")


def _got(value) -> str:
    """The type and abbreviated repr of ``value``: a mistyped name list stays one short line."""
    return f"{type(value).__name__} {reprlib.repr(value)}"
