"""Field snapshot serialization, and the one writer of strato's CSV tables.

Snapshot binary layout (little endian throughout):

    bytes 0..3   magic ``SLF1``
    bytes 4..7   u32 points per side n
    bytes 8..15  f64 box half length
    remainder    n*n f64 field values, row major (axis-1 coordinate fastest)
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = ["write_snapshot", "read_snapshot", "write_table"]

_MAGIC = b"SLF1"
_HEADER = struct.Struct("<4sId")


def write_snapshot(f: ScalarField, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, f.grid.n, f.grid.half_length))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def read_snapshot(path: str | Path) -> ScalarField:
    """The snapshot at path, its values read straight into the field's array once header and size check."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n, half_length = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 8 * n * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {size}")
        vals = np.fromfile(fh, dtype="<f8", count=n * n).reshape(n, n)  # short if the file shrank: reshape raises
    return ScalarField(GridSpec(n, half_length), vals)


def write_table(path: str | Path, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A CSV table that reads back exactly, its directory made if missing: a header of column names, then a
    line per row, each cell a string as it is, an int as its ``repr`` and anything else as its float's ``repr``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else repr(int(x)) if isinstance(x, (int, np.integer))
                              else repr(float(x)) for x in row) + "\n")
