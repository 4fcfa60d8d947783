"""Checks of config documents and dataclasses: unknown keys, and field
types read from the annotations, so that a JSON value of the wrong type
(or a NaN or infinite number, which Python's ``json`` reads) fails
validation and not a run.  ``parse_section`` is the one way a config
section (a JSON object) becomes its dataclass, and ``read_json`` the one
way a JSON file is read."""
from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

__all__ = ["ConfigError", "is_int", "check_keys", "check_field_types", "parse_section", "read_json"]


class ConfigError(ValueError):
    """Invalid run configuration."""


def read_json(path, what: str, error: type[Exception]):
    """The JSON document in the file ``path``, or ``error("cannot read {what} {path}: ...")``."""
    try:
        return json.loads(Path(path).read_bytes())  # as JSON bytes, not in the locale encoding
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(f"cannot read {what} {path}: {exc}") from exc


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_keys(doc: dict, known, what: str) -> None:
    """Raise :class:`ConfigError` naming the keys of ``doc`` not in ``known``."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


_RULES = {
    "int": (is_int, "an integer"),
    # math.isfinite on floats only: a huge int would overflow it
    "float": (
        lambda v: is_int(v) or (isinstance(v, float) and math.isfinite(v)),
        "a finite number",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def check_field_types(obj, error: type[Exception] = TypeError) -> None:
    """Raise ``error`` for the first field of the dataclass ``obj`` annotated
    ``int`` (no bool or float), ``float`` (an int or finite float, no bool),
    ``bool``, ``str``, ``str | None`` or ``dict`` whose value has another
    type.  Each element of a tuple (``tuple[float, float]``,
    ``tuple[int, ...]``) is held to the rule of its element type."""
    for f in fields(obj):
        kind = getattr(f.type, "__name__", f.type)
        value = getattr(obj, f.name)
        items = [value]
        if kind.startswith("tuple[") and isinstance(value, (tuple, list)):
            kind, items = kind[6:].split(",")[0], value
        rule = _RULES.get(kind)
        if rule is not None and not all(rule[0](v) for v in items):
            raise error(f"{f.name} must be {rule[1]}, got {value!r}")


def parse_section(cls, doc, what: str):
    """Build the dataclass ``cls`` from the config section ``doc``, an object
    whose keys are fields of ``cls``; a list for a ``tuple`` field becomes a
    tuple.  Every failure is a :class:`ConfigError` (``unknown {what}
    fields`` or ``bad {what}``); one that ``cls`` raises passes as is."""
    if not isinstance(doc, dict):
        raise ConfigError(f"bad {what}: not an object but {type(doc).__name__}")
    check_keys(doc, cls.__dataclass_fields__, f"{what} fields")
    tuples = {f.name for f in fields(cls) if str(f.type).startswith("tuple")}
    doc = {k: tuple(v) if k in tuples and isinstance(v, list) else v for k, v in doc.items()}
    try:
        return cls(**doc)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc
