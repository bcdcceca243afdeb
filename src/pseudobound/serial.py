"""One dataclass-driven JSON mapping for every config and result type.

``to_dict`` walks the fields in declaration order: nested serializable
dataclasses recurse, arrays become nested lists, numpy scalars become
Python scalars, lists and dicts are walked element by element.
``from_dict`` reverses it by each field's resolved type hint and rejects
unknown or missing required keys with a ConfigurationError naming the key.
Scalars are not converted between kinds: an int field takes only an
integer, a float field an integer or a float, a str field only a string,
and only a bool field takes true or false.
"""

from __future__ import annotations

import dataclasses
import types
import typing

import numpy as np

from .errors import ConfigurationError


def _plain(value):
    if isinstance(value, Serializable):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


# scalar hint -> the JSON values it takes; bool is an int subclass, so it is
# matched separately
_JSON_KINDS = {bool: bool, int: int, float: (int, float), str: str}


def _coerce(hint, value):
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _coerce(inner, value)
    if typing.get_origin(hint) is list:
        return [_coerce(args[0], v) for v in value]
    if hint is np.ndarray:
        return np.asarray(value, float)
    if hint in _JSON_KINDS:
        if (isinstance(value, bool) != (hint is bool)
                or not isinstance(value, _JSON_KINDS[hint])):
            raise TypeError(f"expected a JSON {hint.__name__}, got {value!r}")
        return hint(value)
    if isinstance(hint, type) and issubclass(hint, Serializable):
        return hint.from_dict(value)
    return value


class Serializable:
    """Mixin for dataclasses whose fields are scalars, arrays, lists, dicts,
    other serializable dataclasses, or optional versions of those."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """Rebuild from ``to_dict`` output.  Keys naming a property of the
        class (derived values ``to_dict`` may add) are recomputed, not read."""
        if not isinstance(d, dict):
            raise ConfigurationError(f"{cls.__name__} needs a JSON object, got {d!r}")
        hints = typing.get_type_hints(cls)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in d:
            if key not in fields and not isinstance(getattr(cls, key, None), property):
                raise ConfigurationError(f"unknown key {key!r} for {cls.__name__}")
        kwargs = {}
        for name, f in fields.items():
            if name in d:
                try:
                    kwargs[name] = _coerce(hints[name], d[name])
                except (TypeError, ValueError) as err:
                    raise ConfigurationError(
                        f"bad value for {cls.__name__}.{name}: {err}") from err
            elif (f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING):
                raise ConfigurationError(f"missing key {name!r} for {cls.__name__}")
        return cls(**kwargs)
