"""Binary state checkpoints.

Layout (little-endian): header ``magic "MHDW" | version u32 | n u32 |
L f64 | gamma f64 | t f64`` followed by the three coefficient arrays
u_hat, b_hat, d_t b_hat, each a (2, n, n) complex128 block in row-major
full-spectrum order.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigurationError, DataError
from .grid import GridSpec, SpectralVectorField
from .solver import State

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MHDW"
VERSION = 1
_HEADER = struct.Struct("<4sIIddd")


def save_checkpoint(path, state: State, gamma: float) -> None:
    g = state.grid
    header = _HEADER.pack(MAGIC, VERSION, g.n, g.box_length, gamma, state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        for f in (state.u_hat, state.b_hat, state.bt_hat):
            fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def load_checkpoint(path):
    """Returns (state, gamma).  A path that cannot be opened is a
    ``DataError``; a malformed file is a ``ConfigurationError``."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from exc
    with fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ConfigurationError(f"truncated checkpoint {path}")
        magic, version, n, box_length, gamma, t = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ConfigurationError(f"bad checkpoint magic {magic!r}")
        if version != VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {version}")
        grid = GridSpec(n, box_length)
        fields = []
        count = 2 * n * n
        for _ in range(3):
            buf = fh.read(count * 16)
            if len(buf) != count * 16:
                raise ConfigurationError(f"truncated checkpoint {path}")
            arr = np.frombuffer(buf, dtype="<c16").astype(np.complex128).reshape(2, n, n)
            fields.append(SpectralVectorField(arr, grid, divergence_free=True))
    state = State(fields[0], fields[1], fields[2], t)
    return state, gamma
