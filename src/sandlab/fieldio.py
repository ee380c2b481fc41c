"""Field snapshots, CSV tables, and PGM heatmaps.

The snapshot format is deliberately tiny: magic "DSF1", two little-endian
u32 words for the dimension and the side length, then the n^d float64 values
in C order.  Everything written here is byte-deterministic so runs can be
diffed across machines and processes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"DSF1"


def write_field(path, field):
    """Write a LatticeField as a snapshot."""
    shape = field.shape
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", shape.d, shape.n))
        fh.write(payload)


def read_field(path):
    """The LatticeField a snapshot holds.  Only this function needs the torus
    types, so it alone imports lattice, which loads scipy.fft."""
    from .lattice import LatticeField, TorusShape

    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a field snapshot (bad magic)")
    d, n = struct.unpack("<II", data[4:12])
    shape = TorusShape(int(d), int(n))
    expected = 12 + 8 * shape.nsites
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for d={d}, n={n}, got {len(data)}")
    values = np.frombuffer(data[12:], dtype="<f8").reshape(shape.dims)
    return LatticeField(shape, values.astype(np.float64))


def format_float(x: float) -> str:
    """Shortest round-tripping decimal form; part of the byte-determinism contract."""
    return repr(float(x))


def format_cell(cell) -> str:
    """A CSV cell or manifest value: true/false, an integer, a ``format_float``
    or the text itself."""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format_float(float(cell))
    return str(cell)


def write_csv(path, header: list[str], rows: list[list]):
    lines = [",".join(header)] + [",".join(map(format_cell, row)) for row in rows]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def heatmap_bytes(values: np.ndarray) -> bytes:
    """Render a 2d array as an 8-bit PGM image, min to 0 and max to 255.

    A constant field maps to mid-gray so the image is still well defined.
    """
    if values.ndim != 2:
        raise ValueError(f"heatmaps need a 2d field, got {values.ndim} axes")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.full(values.shape, 128, dtype=np.uint8)
    h, w = values.shape
    return b"P5\n%d %d\n255\n" % (w, h) + scaled.tobytes()


def write_heatmap(path, field):
    if field.shape.d != 2:
        raise ValueError(f"heatmaps need d=2, got d={field.shape.d}")
    Path(path).write_bytes(heatmap_bytes(field.values))
