"""Frequency tables and exact cell integrals."""

import numpy as np
import pytest

from sandlab import TorusShape, LatticeField
from sandlab import TestFunction as Wave
from sandlab.lattice import (
    cell_integral_field,
    frequency_axes,
    frequency_grid,
    frequency_norm2,
)


def test_frequency_tables():
    shape = TorusShape(2, 4)
    axes = frequency_axes(shape)
    assert [list(a) for a in axes] == [[0, 1, -2, -1], [0, 1, -2, -1]]
    grid = frequency_grid(shape)
    assert grid.shape == (2, 4, 4)
    norm2 = frequency_norm2(shape)
    assert norm2[0, 0] == 0
    assert norm2[1, 3] == 1 + 1
    assert norm2[2, 2] == 8


def quadrature_cell_integral(f: Wave, z, shape: TorusShape, m: int = 400) -> float:
    """Midpoint-rule oracle over the cube cell of side 1/n centered at z/n."""
    n = shape.n
    d = shape.d
    axes = [((np.arange(m) + 0.5) / m - 0.5) / n + zi / n for zi in z]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = f.evaluate(pts)
    return float(vals.mean() / n**d)


def test_cell_integral_against_quadrature():
    shape = TorusShape(2, 4)
    f = Wave.cosine((1, 0)).plus(Wave.sine((2, 1), amplitude=0.5))
    cells = cell_integral_field(f, shape).values
    for z in [(0, 0), (1, 3), (2, 2)]:
        exact = cells[z]
        approx = quadrature_cell_integral(f, z, shape)
        assert abs(exact - approx) < 5e-6


def test_cell_integral_d1_closed_form():
    # For cos(2 pi x) on n=4 the cell at z integrates to
    # cos(2 pi z/4) * sin(pi/4)/pi exactly.
    shape = TorusShape(1, 4)
    f = Wave.cosine((1,))
    cells = cell_integral_field(f, shape).values
    for z in range(4):
        want = np.cos(2 * np.pi * z / 4) * np.sin(np.pi / 4) / np.pi
        assert abs(cells[z] - want) < 1e-14


def test_cell_integrals_sum_to_zero():
    # Mean-zero test functions integrate to zero over the whole torus, and the
    # cells tile it, so the cell-integral field sums to zero exactly.
    shape = TorusShape(2, 8)
    f = Wave.cosine((1, 2)).plus(Wave.sine((3, 0), amplitude=2.0))
    c = cell_integral_field(f, shape)
    assert abs(c.values.sum()) < 1e-14


def test_field_shape_validation():
    with pytest.raises(ValueError):
        LatticeField(TorusShape(2, 4), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        TorusShape(0, 4)
    with pytest.raises(ValueError):
        TorusShape(2, 1)
