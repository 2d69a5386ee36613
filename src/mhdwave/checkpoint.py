"""Binary state checkpoints.

Layout (little-endian): header ``magic "MHDW" | version u32 | n u32 |
L f64 | gamma f64 | t f64`` (36 bytes) followed by three coefficient
blocks.  Version 3, the one version written and read, stores the
potentials psi, A and d_t A of the solver state, each a (n, n//2 + 1)
complex128 block in row-major half-spectrum order, so a file is
36 + 3 * 16 * n * (n//2 + 1) bytes.  The header is read and checked
first, and then at most one byte more than the blocks it promises.

A checkpoint is written to a temporary file beside the target and renamed
over it, so a write that fails part-way leaves the previous one intact.
On ext4 a rename over an existing file starts the write-back of the new
one: of the 1.1 ms a 1.58 MB (n = 256) write took on a 2-vCPU VM, the
rename took 0.8 ms.  A rename to a fresh name took 0.02 ms, and the whole write about
0.45 ms, but between removing the old file and the rename there would be
no file at the path, so it is not done.  ``solver.run`` instead hands its
checkpoints to a writer thread, beside the stepping.  Writing in place
into a ``posix_fallocate``d file avoids that write-back (ext4's
``auto_da_alloc`` on a rename over a file) and the minor page faults
measured with it on a linear run that checkpoints, but drops the guarantee
that a crash leaves either the old file or the new one, so it is not done
either.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ConfigurationError, DataError
from .grid import GridSpec
from .kernels import _gamma_refusal
from .solver import State

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MHDW"
VERSION = 3
_HEADER = struct.Struct("<4sIIddd")


def save_checkpoint(path, state: State, gamma: float) -> None:
    g = state.grid
    header = _HEADER.pack(MAGIC, VERSION, g.n, g.box_length, gamma, state.t)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for c in (state.psi_hat, state.a_hat, state.at_hat):
                fh.write(np.ascontiguousarray(c, dtype="<c16"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (state, gamma).  A path that cannot be opened is a
    ``DataError``; a malformed file, including a version other than 3 and
    a header gamma or t that no run takes, is a ``ConfigurationError``."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ConfigurationError(f"truncated checkpoint {path}")
            magic, version, n, box_length, gamma, t = _HEADER.unpack(header)
            if magic != MAGIC:
                raise ConfigurationError(f"bad checkpoint magic {magic!r} in {path}")
            if version != VERSION:
                raise ConfigurationError(
                    f"checkpoint {path} has version {version}; only version {VERSION} is read")
            if (why := _gamma_refusal(gamma, mhd=True)) or not 0 <= t < math.inf:
                raise ConfigurationError(f"checkpoint {path} header has gamma={gamma}, t={t}; "
                                         f"{why or 't must be finite and >= 0'}")
            grid = GridSpec(n, box_length)
            shape = (3, n, grid.half)
            size = 16 * math.prod(shape)
            body = fh.read(size + 1)
    except OSError as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from exc
    if len(body) != size:
        raise ConfigurationError(f"checkpoint {path} does not hold three {shape[1:]} blocks")
    blocks = np.frombuffer(body, dtype="<c16").reshape(shape)
    return State(*(c.astype(np.complex128) for c in blocks), grid, t), gamma
