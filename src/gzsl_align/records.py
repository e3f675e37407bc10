"""JSON records derived from dataclass fields.

A dataclass that inherits :class:`JsonRecord` writes itself through
``dataclasses.asdict`` and reads itself back through one strict
``from_dict``, so each record states its fields once: in its class body.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import types
import typing


def is_int(x) -> bool:
    """True for a JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def canonical_json(value) -> str:
    """Compact JSON with sorted keys: the form config digests and checkpoint headers take."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, value) -> None:
    """Write ``value`` to ``path`` as JSON: indent 2, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def check_finite(record) -> None:
    """Raise ``ValueError`` on a float field of a dataclass that is NaN or infinite.

    ``x < 0`` is false for NaN, so range checks alone let it through.
    """
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def to_json(value):
    """``value`` with enums replaced by their values and tuples by lists, recursively."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def _decode(tp, value, where: str):
    """``value`` checked against the field type ``tp`` and converted to it.

    An int field takes an int but not a bool, a float field an int or a
    float (kept as given), an enum field one of its values as a string.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # every union here is ``X | None``
        return None if value is None else _decode(args[0], value, where)
    if origin is tuple:  # ``tuple[X, ...]``
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return tp.from_dict(value)
    is_enum = issubclass(tp, enum.Enum)
    want = {int: int, float: (int, float)}.get(tp, str if is_enum else tp)
    if not isinstance(value, want) or (isinstance(value, bool) and tp is not bool):
        raise ValueError(f"{where} must be {tp.__name__}, got {value!r}")
    return tp(value) if is_enum else value


class JsonRecord:
    """Mixin for a dataclass whose JSON form is its fields."""

    def to_dict(self) -> dict:
        return to_json(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, data):
        """The record a JSON object holds; missing keys take the field defaults.

        Raises ``ValueError`` on a non-object, an unknown key, a missing
        key without a default, and a value of the wrong JSON type.
        """
        name = cls.__name__
        if not isinstance(data, dict):
            raise ValueError(f"{name} must be a JSON object, got {data!r}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"{name}: unknown keys {unknown}")
        hints = typing.get_type_hints(cls)
        values = {}
        for f in fields:
            if f.name in data:
                values[f.name] = _decode(hints[f.name], data[f.name], f"{name}.{f.name}")
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{name}: missing key {f.name!r}")
        return cls(**values)
