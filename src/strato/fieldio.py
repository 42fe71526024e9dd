"""Field snapshot serialization.

Binary layout (little endian throughout):

    bytes 0..3   magic ``SLF1``
    bytes 4..7   u32 points per side n
    bytes 8..15  f64 box half length
    remainder    n*n f64 field values, row major (axis-1 coordinate fastest)
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField

__all__ = ["write_snapshot", "read_snapshot"]

_MAGIC = b"SLF1"
_HEADER = struct.Struct("<4sId")


def write_snapshot(f: ScalarField, path: str | Path) -> None:
    buf = io.BytesIO()
    buf.write(_HEADER.pack(_MAGIC, f.grid.n, f.grid.half_length))
    buf.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_snapshot(path: str | Path) -> ScalarField:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, n, half_length = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 8 * n * n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    vals = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, n)
    return ScalarField(GridSpec(n, half_length), vals.copy())

