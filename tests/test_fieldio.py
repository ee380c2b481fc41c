"""On-disk formats: binary fields, CSV tables, PGM heatmaps."""

import struct

import numpy as np
import pytest

from sandlab import TorusShape, LatticeField
from sandlab.fieldio import (
    MAGIC,
    format_float,
    heatmap_bytes,
    read_field,
    write_csv,
    write_field,
    write_heatmap,
)


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    f = LatticeField(TorusShape(3, 4), rng.standard_normal((4, 4, 4)))
    p = tmp_path / "field.dsf"
    write_field(p, f)
    g = read_field(p)
    assert g.shape == f.shape
    assert np.array_equal(g.values, f.values)  # bit exact through the file


def test_field_header_layout(tmp_path):
    f = LatticeField(TorusShape(2, 3), np.arange(9, dtype=float).reshape(3, 3))
    p = tmp_path / "field.dsf"
    write_field(p, f)
    raw = p.read_bytes()
    assert raw[:4] == MAGIC
    d, n = struct.unpack("<II", raw[4:12])
    assert (d, n) == (2, 3)
    assert len(raw) == 12 + 9 * 8
    payload = np.frombuffer(raw[12:], dtype="<f8").reshape(3, 3)
    assert np.array_equal(payload, f.values)


def test_read_field_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.dsf"
    p.write_bytes(b"XXXX" + struct.pack("<II", 1, 2) + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_field(p)


def test_read_field_rejects_truncation(tmp_path):
    f = LatticeField(TorusShape(2, 3), np.zeros((3, 3)))
    p = tmp_path / "trunc.dsf"
    write_field(p, f)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_field(p)


def test_write_csv_layout(tmp_path):
    p = tmp_path / "table.csv"
    write_csv(p, ["n", "value", "ok"], [[16, 0.1, True], [32, 2.5e-7, False]])
    text = p.read_bytes().decode("ascii")
    lines = text.split("\n")
    assert lines[0] == "n,value,ok"
    assert lines[1] == f"16,{format_float(0.1)},true"
    assert lines[2] == f"32,{format_float(2.5e-7)},false"
    assert text.endswith("\n")
    assert "\r" not in text


def test_format_float_is_shortest_round_trip():
    for x in (0.1, 1.0 / 3.0, 2.5e-7, -1.75):
        assert float(format_float(x)) == x


def test_heatmap_golden_bytes():
    vals = np.arange(9, dtype=float).reshape(3, 3)
    raw = heatmap_bytes(vals)
    assert raw.startswith(b"P5\n3 3\n255\n")
    pix = raw[len(b"P5\n3 3\n255\n") :]
    assert pix[0] == 0  # minimum maps to black
    assert pix[-1] == 255  # maximum maps to white
    assert pix[4] == 128  # midpoint rounds to mid-gray


def test_heatmap_constant_field_is_mid_gray():
    raw = heatmap_bytes(np.full((2, 2), 7.3))
    pix = raw[len(b"P5\n2 2\n255\n") :]
    assert pix == bytes([128, 128, 128, 128])


def test_write_heatmap_requires_two_dimensions(tmp_path):
    f = LatticeField(TorusShape(1, 8), np.zeros(8))
    with pytest.raises(ValueError):
        write_heatmap(tmp_path / "x.pgm", f)


def test_occupancy_heatmap_binary_levels():
    occ = np.zeros((4, 4), dtype=bool)
    occ[1:3, 1:3] = True
    raw = heatmap_bytes(occ.astype(np.float64))
    pix = raw[len(b"P5\n4 4\n255\n") :]
    vals = set(pix)
    assert vals == {0, 255}
    assert pix[4 * 1 + 1] == 255
    assert pix[0] == 0
