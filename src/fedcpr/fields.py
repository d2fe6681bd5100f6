"""The number checks that every config dataclass runs before its own."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral


def check_numbers(obj) -> None:
    """Raise ValueError, its message starting with the field's config key
    name (``lambda`` for ``lam``), at the first field of the dataclass
    ``obj`` annotated ``float`` whose value is not finite, or annotated
    ``int`` (or ``int | None``, where None passes) whose value is not an
    integer. numpy integers are integers; a bool is neither, although
    Python makes it an int."""
    for f in fields(obj):
        value, key = getattr(obj, f.name), "lambda" if f.name == "lam" else f.name
        if f.type == "float" and isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
        if f.type in ("int", "int | None") and (
                isinstance(value, bool) or not isinstance(value, (Integral, type(None)))):
            raise ValueError(f"{key} must be an integer, got {value!r}")
