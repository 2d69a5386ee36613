import json
import re
import struct

import numpy as np
import pytest

from mhdwave import checkpoint
from mhdwave.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from mhdwave.cli import main
from mhdwave.errors import ConfigurationError
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data
from mhdwave.solver import SolverConfig, run

from conftest import random_state


def test_round_trip_exact(tmp_path, grid16):
    st = random_state(grid16, 1)
    st.t = 1.25
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, st, gamma=0.75)
    loaded, gamma = load_checkpoint(p)
    assert gamma == 0.75
    assert loaded.t == 1.25
    assert loaded.grid == grid16
    assert np.array_equal(loaded.u_hat.coeffs, st.u_hat.coeffs)
    assert np.array_equal(loaded.b_hat.coeffs, st.b_hat.coeffs)
    assert np.array_equal(loaded.bt_hat.coeffs, st.bt_hat.coeffs)


def test_header_layout(tmp_path, grid16):
    st = random_state(grid16, 2)
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, st, gamma=1.5)
    raw = p.read_bytes()
    header = struct.Struct("<4sIIddd")  # 36 bytes, no padding
    magic, version, n, L, gamma, t = header.unpack(raw[: header.size])
    assert magic == MAGIC and version == VERSION == 3
    assert n == 16 and gamma == 1.5 and t == 0.0
    assert L == grid16.box_length
    # three scalar (n, n/2 + 1) complex128 blocks
    assert len(raw) == 36 + 3 * 16 * 16 * 9


def test_failed_write_keeps_previous_checkpoint(tmp_path, grid16, monkeypatch):
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, random_state(grid16, 5), gamma=1.0)
    before = p.read_bytes()

    class FailingFile:
        """A real file whose second write raises, as a full disk would."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(p, random_state(grid16, 6), gamma=2.0)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert load_checkpoint(p)[1] == 1.0
    assert [f.name for f in tmp_path.iterdir()] == ["state.mhdw"]


@pytest.mark.parametrize("version", [0, 1, 2, 4])
def test_other_versions_refused(tmp_path, grid16, capsys, version):
    # version 3 is the one layout read: a v3 file relabelled as any other
    # version is refused by name, and a resume from it exits 2 before the run
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, random_state(grid16, 7), gamma=0.25)
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", version)
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match=re.escape(f"{p} has version {version}")):
        load_checkpoint(p)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n": 16, "box_length": "2*pi"},
                               "physics": {"gamma": 0.25}, "time": {"dt": 0.01, "t_end": 0.1}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output", str(out), "--resume", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and f"version {version}" in err
    assert not out.exists()


def test_bad_magic_rejected(tmp_path, grid16):
    st = random_state(grid16, 3)
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, st, gamma=1.0)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match=re.escape(f"magic b'XXXX' in {p}")):
        load_checkpoint(p)


@pytest.fixture
def bounded_reads(monkeypatch):
    """Checkpoint files whose read() of the whole rest raises, as a read of
    /dev/zero would run out of memory."""

    class BoundedFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, size=-1):
            if size is None or size < 0:
                raise AssertionError("read to the end of the file")
            return self.fh.read(size)

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: BoundedFile(open(*a, **k)),
                        raising=False)


def test_reads_no_more_than_the_header_promises(tmp_path, grid16, bounded_reads):
    st = random_state(grid16, 9)
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, st, gamma=0.5)
    loaded, gamma = load_checkpoint(p)
    assert gamma == 0.5
    for name in ("psi_hat", "a_hat", "at_hat"):
        assert np.array_equal(getattr(loaded, name), getattr(st, name))


@pytest.mark.parametrize("cut", [lambda raw: raw[:100], lambda raw: raw + b"\0"],
                         ids=["short", "one_byte_long"])
def test_truncated_rejected(tmp_path, grid16, bounded_reads, cut):
    st = random_state(grid16, 4)
    p = tmp_path / "state.mhdw"
    save_checkpoint(p, st, gamma=1.0)
    p.write_bytes(cut(p.read_bytes()))
    with pytest.raises(ConfigurationError, match=r"does not hold three \(16, 9\) blocks"):
        load_checkpoint(p)


def test_continue_matches_uninterrupted(tmp_path):
    """Save mid-run, reload, run the tail: final state matches one
    uninterrupted run to 1e-12 relative."""
    g = GridSpec(32, 4 * np.pi)
    data = make_initial_data(
        "random_band", {"amplitude": 0.05, "k_max": 2.0, "seed": 8}, g
    )
    gamma, dt = 0.5, 0.01

    cfg_full = SolverConfig(gamma=gamma, dt=dt, t_end=1.0, grid=g, snapshot_every=10)
    full = run(cfg_full, data, keep_states=True).states[-1]

    cfg_half = SolverConfig(gamma=gamma, dt=dt, t_end=0.5, grid=g, snapshot_every=10)
    mid = run(cfg_half, data, keep_states=True).states[-1]
    p = tmp_path / "mid.mhdw"
    save_checkpoint(p, mid, gamma=gamma)
    loaded, gload = load_checkpoint(p)
    cfg_tail = SolverConfig(gamma=gload, dt=dt, t_end=0.5, grid=g, snapshot_every=10)
    tail = run(cfg_tail, (loaded.u_hat, loaded.b_hat, loaded.bt_hat),
               keep_states=True).states[-1]

    for a, b in ((full.u_hat, tail.u_hat), (full.b_hat, tail.b_hat),
                 (full.bt_hat, tail.bt_hat)):
        scale = np.max(np.abs(a.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * max(scale, 1e-30)
