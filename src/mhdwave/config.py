"""Run configuration: parsing, validation, serialization.

Configs are JSON documents with nested sections (grid, physics, time,
initial_data, diagnostics, fit, solver); ``physics.gamma`` = 0 runs the
MHD system.  Numeric values may be written as pi-expressions like
``"32*pi"`` or ``"pi/4"``.  Unknown keys are rejected with the offending
path.  The echo fills in every default of ``DecayExperimentConfig`` and
the initial-data ``amplitude`` and ``seed``; the other family parameters
(``k_min``, ``k_max``, ``width``, ...) appear only when the document sets
them, and ``make_initial_data`` supplies their defaults.  A config describes what a run computes, not where it
writes: that is the ``--output`` flag.

A document parses into a ``DecayExperimentConfig``, the one run
description; this module checks JSON types, and the range checks live
with the types that own the values (``GridSpec``, ``SolverConfig``,
``DecayExperimentConfig``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re

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


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError("expected an integer", path=path)
    return value


_SECTIONS = {
    "grid": {"n", "box_length"},
    "physics": {"gamma"},
    "time": {"dt", "t_end", "snapshot_every"},
    "initial_data": {"family", "amplitude", "amplitude_b", "width", "separation",
                     "k_min", "k_max", "spectral_exponent", "a0_amplitude", "seed"},
    "diagnostics": {"q_list", "s_list_u", "s_list_b", "m"},
    "fit": {"window"},
    "solver": {"nonlinear"},
}


def _initial_params(i: dict, family) -> dict:
    """The ``make_initial_data`` params of an ``initial_data`` section; keys
    the family does not read are accepted and ignored."""
    used = {"amplitude", "amplitude_b"}
    if isinstance(family, str):
        used |= set(INITIAL_FAMILIES.get(family, ()))
    params = {"amplitude": 0.05, "seed": 0}
    for key in ("amplitude", "amplitude_b", "width", "separation", "k_min", "k_max",
                "spectral_exponent", "a0_amplitude"):
        if i.get(key) is None:
            continue
        val = _number(i[key], f"initial_data.{key}")
        if key in ("amplitude", "a0_amplitude") and val < 0:
            raise ConfigurationError(f"{key} must be >= 0", path=f"initial_data.{key}")
        if key in used:
            params[key] = val
    if "seed" in i:
        seed = i["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError("seed must be an integer", path="initial_data.seed")
        params["seed"] = seed
    return params


def parse_config(text: str) -> DecayExperimentConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigurationError(f"unknown key {sorted(unknown)[0]!r}", path=sorted(unknown)[0])
    for section, keys in _SECTIONS.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigurationError("section must be an object", path=section)
        bad = set(sub) - keys
        if bad:
            k = sorted(bad)[0]
            raise ConfigurationError(f"unknown key {k!r}", path=f"{section}.{k}")
    g, p, t, i, d, f, s = (doc.get(section, {}) for section in _SECTIONS)

    kw = {}
    if "gamma" in p:
        kw["gamma"] = _number(p["gamma"], "physics.gamma")
    for key in ("dt", "t_end"):
        if key in t:
            kw[key] = _number(t[key], f"time.{key}")
    if "snapshot_every" in t:
        kw["snapshot_every"] = _integer(t["snapshot_every"], "time.snapshot_every")
    kw["family"] = i.get("family", "random_band")
    kw["params"] = _initial_params(i, kw["family"])
    for key in ("q_list", "s_list_u", "s_list_b"):
        if key in d:
            if not isinstance(d[key], list):
                raise ConfigurationError(f"{key} must be a list", path=f"diagnostics.{key}")
            kw[key] = tuple(_number(v, f"diagnostics.{key}") for v in d[key])
    if "m" in d:
        kw["m"] = _number(d["m"], "diagnostics.m")
    if f.get("window") is not None:
        w = f["window"]
        if not isinstance(w, list) or len(w) != 2:
            raise ConfigurationError("window must be [t_lo, t_hi]", path="fit.window")
        kw["window"] = (_number(w[0], "fit.window"), _number(w[1], "fit.window"))
    if "nonlinear" in s:
        if not isinstance(s["nonlinear"], bool):
            raise ConfigurationError("nonlinear must be a boolean", path="solver.nonlinear")
        kw["nonlinear"] = s["nonlinear"]

    n = _integer(g.get("n", 128), "grid.n")
    box_length = _number(g.get("box_length", 32.0 * math.pi), "grid.box_length")
    return DecayExperimentConfig(grid=GridSpec(n, box_length), **kw)


def parse_config_file(path) -> DecayExperimentConfig:
    """``parse_config`` of a file; a file that cannot be read is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: DecayExperimentConfig) -> str:
    """Canonical JSON echo; the module docstring says which defaults it fills in."""
    doc = {
        "grid": {"n": cfg.grid.n, "box_length": cfg.grid.box_length},
        "physics": {"gamma": cfg.gamma},
        "time": {"dt": cfg.dt, "t_end": cfg.t_end, "snapshot_every": cfg.snapshot_every},
        "initial_data": {"family": cfg.family, **cfg.params},
        "diagnostics": {
            "q_list": list(cfg.q_list), "s_list_u": list(cfg.s_list_u),
            "s_list_b": list(cfg.s_list_b), "m": cfg.m,
        },
        "fit": {"window": list(cfg.window) if cfg.window else None},
        "solver": {"nonlinear": cfg.nonlinear},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def config_hash(cfg: DecayExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
