"""Geometry and frequency tables on the d-dimensional discrete torus.

Sites live on the grid {0, ..., n-1}^d with periodic wrap-around.  A real
field assigns one float per site, stored as a d-dimensional array in row-major
order so that ``values.ravel()`` is the canonical site enumeration.  Spectral
tables are indexed like the FFT grid; the transforms themselves are the
unnormalized forward FFTs of numpy and scipy (the inverse carries the n^-d),
taken where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import axis_sum
from .testfun import TestFunction


@dataclass(frozen=True)
class TorusShape:
    """Dimension and side length of a discrete torus."""

    d: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"side length must be an integer >= 2, got {self.n}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def nsites(self) -> int:
        return self.n**self.d


@dataclass(frozen=True)
class LatticeField:
    """Real-valued field on a torus, one float64 per site."""

    shape: TorusShape
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.shape.dims:
            raise ValueError(f"values have shape {v.shape}, expected {self.shape.dims}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, shape: TorusShape) -> "LatticeField":
        return cls(shape, np.zeros(shape.dims))

    def ravel(self) -> np.ndarray:
        """Canonical flat site order (row-major)."""
        return self.values.ravel()


def frequency_axes(shape: TorusShape) -> list[np.ndarray]:
    """Centered integer frequency per FFT index along one axis, repeated per axis.

    Index j maps to the representative of j mod n in (-n/2, n/2].  With even n
    the index n/2 maps to -n/2; the squared norm is unaffected.
    """
    w = np.fft.fftfreq(shape.n, d=1.0 / shape.n).astype(np.int64)
    return [w] * shape.d


def frequency_grid(shape: TorusShape) -> np.ndarray:
    """Stacked (d, n, ..., n) array of centered integer frequencies."""
    axes = frequency_axes(shape)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=0)


def frequency_norm2(shape: TorusShape) -> np.ndarray:
    """Squared Euclidean norm of the centered frequency at each FFT index."""
    w = frequency_axes(shape)[0].astype(np.float64)
    return axis_sum(w**2, shape.d)


def _reverse_indices(c: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -w for each FFT index w."""
    out = c
    for axis in range(c.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def cell_integral_field(f: TestFunction, shape: TorusShape) -> LatticeField:
    """Integral of a test function over the cell of every site, as a field.

    The cell of site z is the axis-aligned cube of side 1/n centered at z/n
    in the unit torus.  Each trigonometric mode integrates in closed form
    through a product of sine factors, so no quadrature is involved.
    """
    if f.d != shape.d:
        raise ValueError(f"test function has dimension {f.d}, torus has {shape.d}")
    n = shape.n
    grid = np.meshgrid(*[np.arange(n, dtype=np.float64)] * shape.d, indexing="ij")
    total = np.zeros(shape.dims)
    for k, a, b in f.modes:
        kv = np.asarray(k, dtype=np.float64)
        factors = np.where(
            kv != 0.0,
            np.sin(np.pi * kv / n) / np.where(kv != 0.0, np.pi * kv, 1.0),
            1.0 / n,
        )
        dot = sum(kv[i] * grid[i] for i in range(shape.d))
        phase = np.exp(2j * np.pi * dot / n) * np.prod(factors)
        total = total + a * phase.real + b * phase.imag
    return LatticeField(shape, total)
