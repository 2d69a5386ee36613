"""Run configuration: parsing, validation, serialization.

A config is a JSON document of sections.  ``_KEYS`` maps each section to
its keys and each key to its reader, which checks and converts the value;
the parser and the echo both walk that one table.  A ``grid`` key is a
``GridSpec`` argument, an ``initial_data`` key other than ``family`` a
``make_initial_data`` param (dropped when the family does not read it),
and any other key the ``DecayExperimentConfig`` field of its name.
Unknown keys are rejected at their path.  ``null`` leaves a numeric
``initial_data`` param or ``fit.window`` unset and is refused elsewhere.
Numbers may be pi-expressions like ``"32*pi"`` or ``"pi/4"``.  The echo
holds every field with its default filled in, the grid, and the params:
``amplitude`` and ``seed`` always, the other family parameters only when
the document sets them.  A config describes what a run computes, not
where it writes (the ``--output`` flag).  Range checks live with the
types that own the values (``GridSpec``, ``SolverConfig``,
``DecayExperimentConfig``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict

from .decay import DecayExperimentConfig
from .errors import ConfigurationError, DataError
from .grid import GridSpec
from .initial import INITIAL_FAMILIES

__all__ = ["parse_config", "parse_config_file", "serialize_config", "config_hash"]

_PI_RE = re.compile(r"^\s*(?:(?P<coef>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*\*\s*)?pi"
                    r"(?:\s*/\s*(?P<div>\d+(?:\.\d+)?))?\s*$")


def _number(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigurationError("expected a number", path=path)
    if isinstance(value, str):
        m = _PI_RE.match(value)
        if m:
            coef = float(m.group("coef")) if m.group("coef") else 1.0
            div = float(m.group("div")) if m.group("div") else 1.0
            if div == 0:
                raise ConfigurationError(f"cannot parse number {value!r}: division by zero",
                                         path=path)
            value = coef * math.pi / div
        else:
            try:
                value = float(value)
            except ValueError:
                raise ConfigurationError(f"cannot parse number {value!r}", path=path) from None
    if not isinstance(value, (int, float)):
        raise ConfigurationError(f"expected a number, got {type(value).__name__}", path=path)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"expected a finite number, got {value}", path=path)
    return value


def _must_be(kind: type, message: str):
    """A reader of values of the JSON type ``kind`` exactly (a bool is no int)."""

    def read(value, path: str):
        if type(value) is not kind:
            raise ConfigurationError(message, path=path)
        return value

    return read


_integer = _must_be(int, "expected an integer")


def _numbers(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigurationError(f"{path.rsplit('.', 1)[1]} must be a list", path=path)
    return tuple(_number(v, path) for v in value)


def _param(value, path: str) -> float | None:
    """A numeric initial-data param; ``null`` leaves it unset."""
    return None if value is None else _number(value, path)


def _amplitude(value, path: str) -> float | None:
    value = _param(value, path)
    if value is not None and value < 0:
        raise ConfigurationError(f"{path.rsplit('.', 1)[1]} must be >= 0", path=path)
    return value


def _window(value, path: str) -> tuple | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError("window must be [t_lo, t_hi]", path=path)
    return _number(value[0], path), _number(value[1], path)


# section -> key -> reader(value, path), which returns None for a key left unset
_KEYS = {
    "grid": {"n": _integer, "box_length": _number},
    "physics": {"gamma": _number},
    "time": {"dt": _number, "t_end": _number, "snapshot_every": _integer},
    "initial_data": {
        "family": _must_be(str, "family must be a string"), "amplitude": _amplitude,
        "amplitude_b": _amplitude, "width": _param, "separation": _param, "k_min": _param,
        "k_max": _param, "spectral_exponent": _param, "a0_amplitude": _amplitude,
        "seed": _must_be(int, "seed must be an integer"),
    },
    "diagnostics": {"q_list": _numbers, "s_list_u": _numbers, "s_list_b": _numbers,
                    "m": _number},
    "fit": {"window": _window},
    "solver": {"nonlinear": _must_be(bool, "nonlinear must be a boolean")},
}


def parse_config(text: str) -> DecayExperimentConfig:
    """Parse and validate a JSON config document."""
    # the decoder recurses once per nesting level: a deep document raises RecursionError
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"malformed config document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown key {unknown[0]!r}", path=unknown[0])
    values = {}
    for section, readers in _KEYS.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigurationError("section must be an object", path=section)
        unknown = sorted(set(sub) - set(readers))
        if unknown:
            key = unknown[0]
            raise ConfigurationError(f"unknown key {key!r}", path=f"{section}.{key}")
        read = {key: readers[key](value, f"{section}.{key}") for key, value in sub.items()}
        values[section] = {key: value for key, value in read.items() if value is not None}
    grid = GridSpec(**{"n": 128, "box_length": 32.0 * math.pi, **values.pop("grid")})
    initial = values.pop("initial_data")
    family = initial.pop("family", "random_band")
    used = {"amplitude", "amplitude_b", "seed", *INITIAL_FAMILIES.get(family, ())}
    params = {"amplitude": 0.05, "seed": 0,
              **{key: value for key, value in initial.items() if key in used}}
    fields = {key: value for section in values.values() for key, value in section.items()}
    return DecayExperimentConfig(grid=grid, family=family, params=params, **fields)


def parse_config_file(path) -> DecayExperimentConfig:
    """``parse_config`` of a file; a file that cannot be read is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: DecayExperimentConfig) -> str:
    """Canonical JSON echo of the table's keys; the module docstring says
    which defaults it fills in."""
    values = asdict(cfg)
    values.update(values.pop("grid"), **values.pop("params"))
    doc = {section: {key: values[key] for key in readers if key in values}
           for section, readers in _KEYS.items()}
    return json.dumps(doc, indent=2, sort_keys=True)


def config_hash(cfg: DecayExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
