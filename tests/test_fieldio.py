"""Snapshot format round trips and corruption handling; the CSV table writer."""

import struct

import numpy as np
import pytest

from strato.fieldio import read_snapshot, write_snapshot, write_table
from strato.grid import GridSpec
from conftest import random_field


def test_round_trip_bitwise(tmp_path, grid64):
    f = random_field(grid64, 100)
    p = tmp_path / "f.slf"
    write_snapshot(f, p)
    g = read_snapshot(p)
    assert g.grid == grid64
    assert np.array_equal(g.values, f.values)


def test_round_trip_odd_box(tmp_path):
    grid = GridSpec(n=32, half_length=2.5)
    f = random_field(grid, 101)
    p = tmp_path / "f.slf"
    write_snapshot(f, p)
    g = read_snapshot(p)
    assert g.grid.half_length == 2.5
    assert np.array_equal(g.values, f.values)


def test_header_layout(tmp_path, grid64):
    f = random_field(grid64, 102)
    p = tmp_path / "f.slf"
    write_snapshot(f, p)
    raw = p.read_bytes()
    assert raw[:4] == b"SLF1"
    n, half = struct.unpack_from("<Id", raw, 4)
    assert n == 64
    assert half == 8.0
    assert len(raw) == 16 + 8 * 64 * 64


def test_bad_magic(tmp_path, grid64):
    p = tmp_path / "f.slf"
    write_snapshot(random_field(grid64, 103), p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "f.slf"
    p.write_bytes(b"SLF1\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(p)


def test_truncated_body(tmp_path, grid64):
    p = tmp_path / "f.slf"
    write_snapshot(random_field(grid64, 104), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="bytes"):
        read_snapshot(p)


def test_payload_nan_rejected(tmp_path, grid64):
    p = tmp_path / "f.slf"
    write_snapshot(random_field(grid64, 105), p)
    raw = bytearray(p.read_bytes())
    raw[16:24] = struct.pack("<d", np.nan)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_snapshot(p)



def test_table_cells_read_back_exactly(tmp_path):
    # strings as they are, ints (numpy's too) as ints, every other number as the repr of its float; the
    # missing directory is made
    p = tmp_path / "new" / "t.csv"
    write_table(p, ("q", "steps", "x"), [("disc", 3, 0.1), ("star", np.int64(4), np.float64(1.0) / 3.0),
                                         ("a", 0, np.nan)])
    assert p.read_text() == "q,steps,x\ndisc,3,0.1\nstar,4,0.3333333333333333\na,0,nan\n"
