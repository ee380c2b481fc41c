"""Discrete Laplacians on the torus and their spectral machinery.

Two generators are provided.  The nearest-neighbour Laplacian is the averaging
operator

    L f(x) = (1/2d) * sum over the 2d unit directions of (f(x+e) - f(x)),

whose eigenvalues on the transform basis are -(2/d) * sum_i sin^2(pi w_i / n).
The long-range generator redistributes through a heavy-tailed jump kernel

    p(x) = c * sum over z in Z^d, z = x mod n, z != 0 of ||z||^-(d+alpha)

folded onto the torus and normalized to total mass one; the generator is
convolution by p minus the identity.  Since p(0) > 0 the kernel keeps a
self-loop.  Eigenvalue tables come from the transform of p - delta, which is
the single source of truth for all long-range spectral computations.  Each
operator caches its inverse symbol -1/lambda, and every Poisson solve,
covariance and batched sample in the package goes through that one table.

The folded kernel is evaluated by an Ewald split of the lattice sum: a
Gaussian-damped real-space part plus a Gaussian-damped frequency part, both of
which converge like exp(-pi R^2) in their cutoff radius R.  Direct truncation
of the power-law sum would need astronomically large radii to meet tight tail
tolerances when alpha <= 1; the split reaches them with a handful of image
shells.  The tolerance argument still bounds the discarded tail, and an
unattainable tolerance raises with the radius it would require.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import exp1, gamma as gamma_fn, gammaincc

from .lattice import LatticeField, TorusShape, frequency_grid

_EWALD_RADIUS_CAP = 16


def nn_eigenvalues(shape: TorusShape) -> "EigenvalueTable":
    """Eigenvalue -(2/d) sum_i sin^2(pi w_i / n) at each frequency."""
    s = np.sin(np.pi * np.arange(shape.n) / shape.n) ** 2
    acc = np.zeros(shape.dims)
    for axis in range(shape.d):
        idx = [None] * shape.d
        idx[axis] = slice(None)
        acc = acc + s[tuple(idx)]
    return EigenvalueTable(shape, -(2.0 / shape.d) * acc)


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Unregularized upper incomplete gamma for any real first argument.

    For a <= 0 the value follows from the downward recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a, with Gamma(0, x) = E1(x).
    """
    x = np.asarray(x, dtype=np.float64)
    if a > 0:
        return gammaincc(a, x) * gamma_fn(a)
    steps = int(np.ceil(-a)) + 1
    top = a + steps  # always lies in (0, 1]
    val = gammaincc(top, x) * gamma_fn(top)
    for j in range(steps):
        aj = top - 1 - j
        if abs(aj) < 1e-12:
            val = exp1(x)
        else:
            val = (val - x**aj * np.exp(-x)) / aj
    return val


def _ewald_real_radius(s_exp: float, d: int, eps: float) -> int:
    """Smallest image-shell radius whose Gaussian-damped tail is below eps."""
    for radius in range(3, _EWALD_RADIUS_CAP + 1):
        count = (2 * radius + 3) ** d
        bound = count * np.exp(-np.pi * (radius - 0.5) ** 2)
        if bound < eps:
            return radius
    raise ValueError(
        f"kernel tail tolerance {eps:g} needs an image radius beyond the cap "
        f"{_EWALD_RADIUS_CAP}; relax the tolerance"
    )


def lr_kernel(shape: TorusShape, alpha: float, tol: float = 1e-10) -> "KernelTable":
    """Folded heavy-tailed jump kernel on the torus, normalized to mass one.

    Parameters
    ----------
    shape : torus geometry.
    alpha : tail exponent of the step distribution, must be positive.
    tol : bound on the neglected part of each lattice sum before
        normalization.  Normalization afterwards makes the total mass exactly
        one in floating point.
    """
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not (0 < tol < 1):
        raise ValueError(f"tail tolerance must lie in (0, 1), got {tol}")
    d, n = shape.d, shape.n
    s_exp = d + alpha
    radius = _ewald_real_radius(s_exp, d, tol / 2.0)

    # Real-space half: sum Gaussian-damped power-law terms over image shells
    # around the centered residue representative of each site.
    axes = [((np.arange(n) + n // 2) % n) - n // 2 for _ in range(d)]
    centered = np.stack(np.meshgrid(*axes, indexing="ij"), axis=0).astype(np.float64)
    real_part = np.zeros(shape.dims)
    shifts = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    shifts = np.stack([a.ravel() for a in shifts], axis=-1)
    for k in shifts:
        z = centered + (n * k.astype(np.float64)).reshape((d,) + (1,) * d)
        r2 = np.sum((z / n) ** 2, axis=0)
        nonzero = r2 > 0
        r2safe = np.where(nonzero, r2, 1.0)
        term = gammaincc(s_exp / 2.0, np.pi * r2safe) * r2safe ** (-s_exp / 2.0)
        real_part += np.where(nonzero, term, 0.0)

    # Frequency half: Gaussian-damped dual sum, folded onto the FFT grid and
    # evaluated for every residue through one inverse transform.
    prefactor = np.pi ** (s_exp / 2.0) / gamma_fn(s_exp / 2.0)
    coeff_grid = np.zeros(shape.dims, dtype=np.complex128)
    for m in shifts:
        if np.all(m == 0):
            continue
        m2 = float(np.dot(m, m))
        cm = (np.pi * m2) ** (alpha / 2.0) * _upper_gamma(-alpha / 2.0, np.array(np.pi * m2))
        coeff_grid[tuple(np.mod(m, n))] += cm
    dual_part = (np.fft.ifftn(coeff_grid).real * shape.nsites + 2.0 / alpha) * prefactor
    dual_part = dual_part - np.where(
        np.sum(centered**2, axis=0) == 0, prefactor * 2.0 / s_exp, 0.0
    )

    raw = (real_part + dual_part) * float(n) ** (-s_exp)
    if np.any(raw <= 0):
        raise ValueError("kernel evaluation produced a non-positive entry")
    p = raw / raw.sum()
    return KernelTable(shape, p, alpha, tol, radius * n)


def lr_eigenvalues(kernel: "KernelTable") -> "EigenvalueTable":
    """Transform of p - delta; real, zero at the zero frequency, negative off it."""
    lam = np.fft.fftn(kernel.p).real
    lam -= 1.0
    lam.flat[0] = 0.0  # total mass one makes this exact
    return EigenvalueTable(kernel.shape, lam)


@dataclass(frozen=True)
class EigenvalueTable:
    """Real spectral table of a generator, indexed like the FFT grid."""

    shape: TorusShape
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.shape.dims:
            raise ValueError("eigenvalue table has the wrong shape")
        object.__setattr__(self, "values", v)

    def check(self, tol: float = 1e-9):
        """Validate the Laplacian sign structure: zero mode zero, rest negative."""
        flat = self.values.ravel()
        if abs(flat[0]) > tol:
            raise ValueError(f"zero-frequency eigenvalue is {flat[0]:.3e}, expected 0")
        if np.any(flat[1:] >= 0):
            raise ValueError("found a non-negative eigenvalue away from frequency zero")


@dataclass(frozen=True)
class KernelTable:
    """Folded jump kernel with its construction parameters."""

    shape: TorusShape
    p: np.ndarray
    alpha: float
    tol: float
    radius: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != self.shape.dims:
            raise ValueError("kernel table has the wrong shape")
        object.__setattr__(self, "p", p)


class BufferedGenerator:
    """The generator L of one operator, applied between two reusable buffers.

    Write a field into ``x`` and call ``apply``: L x lands in ``out``, and
    both buffers are overwritten in place on every call.  The
    nearest-neighbour stencil is a fixed list of (output view, input view)
    pairs built once; it adds the 2d shifted copies in a fixed order (axis 0
    by +1 then -1, then axis 1, ...), divides by 2d and subtracts x.  That
    order is the one of the np.roll sum, and it is fixed on purpose:
    floating-point addition is not associative.  The long-range kernel's
    transform is computed once, so each application costs two FFTs.
    """

    def __init__(self, op: "OperatorSpec"):
        self.x = np.empty(op.shape.dims)
        self.out = np.empty(op.shape.dims)
        if op.kind == "lr":
            self._phat = np.fft.fftn(op.kernel().p)
            return
        self._phat = None
        self._share = 2.0 * op.shape.d
        self._pairs = []
        for axis in range(op.shape.d):
            g, x = np.moveaxis(self.out, axis, 0), np.moveaxis(self.x, axis, 0)
            # the shift by +1 reads x[i - 1], then the shift by -1 reads x[i + 1]
            self._pairs += [(g[1:], x[:-1]), (g[:1], x[-1:]), (g[:-1], x[1:]), (g[-1:], x[:1])]

    def apply(self) -> np.ndarray:
        """Overwrite and return ``out`` with L applied to ``x``."""
        x, g = self.x, self.out
        if self._phat is None:
            g.fill(0.0)
            for dst, src in self._pairs:
                np.add(dst, src, out=dst)
            np.divide(g, self._share, out=g)
            np.subtract(g, x, out=g)
        else:
            xhat = np.fft.fftn(x)
            xhat *= self._phat
            np.subtract(np.fft.ifftn(xhat).real, x, out=g)
        return g


@dataclass
class OperatorSpec:
    """Chosen generator, nearest-neighbour or long-range, with its cached tables.

    Everything spectral goes through two cached tables: the eigenvalues
    lambda and the inverse symbol -1/lambda (zero at lambda = 0).  The
    generator itself is applied by ``BufferedGenerator``, its only
    implementation.
    """

    kind: str
    shape: TorusShape
    alpha: float | None = None
    tol: float = 1e-10
    _eig: EigenvalueTable | None = field(default=None, repr=False, compare=False)
    _inv: np.ndarray | None = field(default=None, repr=False, compare=False)
    _kernel: KernelTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("nn", "lr"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "lr" and not (self.alpha and self.alpha > 0):
            raise ValueError("long-range operator needs alpha > 0")

    @classmethod
    def nearest_neighbour(cls, shape: TorusShape) -> "OperatorSpec":
        return cls("nn", shape)

    @classmethod
    def long_range(cls, shape: TorusShape, alpha: float, tol: float = 1e-10) -> "OperatorSpec":
        return cls("lr", shape, alpha=alpha, tol=tol)

    def kernel(self) -> KernelTable:
        if self.kind != "lr":
            raise ValueError("only the long-range operator has a jump kernel")
        if self._kernel is None:
            self._kernel = lr_kernel(self.shape, self.alpha, self.tol)
        return self._kernel

    def eigenvalues(self) -> EigenvalueTable:
        if self._eig is None:
            if self.kind == "nn":
                self._eig = nn_eigenvalues(self.shape)
            else:
                self._eig = lr_eigenvalues(self.kernel())
        return self._eig

    def inverse_symbol(self) -> np.ndarray:
        """-1/lambda at each frequency, and 0 where lambda is 0 (the zero mode)."""
        if self._inv is None:
            lam = self.eigenvalues().values
            inv = np.zeros(self.shape.dims)
            np.divide(-1.0, lam, out=inv, where=lam != 0.0)
            inv.flat[0] = 0.0
            self._inv = inv
        return self._inv

    def apply(self, f: LatticeField) -> LatticeField:
        if f.shape != self.shape:
            raise ValueError("field shape does not match operator shape")
        gen = BufferedGenerator(self)
        gen.x[...] = f.values
        return LatticeField(self.shape, gen.apply())

    def solve(self, block: np.ndarray) -> np.ndarray:
        """Mean-zero h with (-L) h = block - mean(block) over the trailing d axes.

        Leading axes index replicates.  Dropping the zero mode absorbs the
        centering, so raw (uncentered) fields may be passed.
        """
        axes = tuple(range(block.ndim - self.shape.d, block.ndim))
        coeffs = np.fft.fftn(block, axes=axes)
        coeffs *= self.inverse_symbol()
        return np.fft.ifftn(coeffs, axes=axes).real


def solve_poisson(charge: LatticeField, op: OperatorSpec, mass_tol: float = 1e-9) -> LatticeField:
    """Mean-zero h with (-L) h = charge, by spectral division.

    The charge must have total mass within ``mass_tol * nsites`` of zero, since
    the generator annihilates constants; otherwise no solution exists and the
    residual mass is reported in the error.  The solve is the one-replicate
    case of ``OperatorSpec.solve``.
    """
    if charge.shape != op.shape:
        raise ValueError("charge shape does not match operator shape")
    total = float(charge.values.sum())
    if abs(total) > mass_tol * charge.shape.nsites:
        raise ValueError(
            f"charge has residual mass {total:.3e}; the generator annihilates "
            "constants so only mean-zero charges are solvable"
        )
    return LatticeField(charge.shape, op.solve(charge.values[None])[0])


def power_law_multiplier(shape: TorusShape, exponent: float, at_zero: float = 1.0) -> np.ndarray:
    """Frequency map ||w||^exponent on centered frequencies, with a chosen
    value at the zero frequency (immaterial wherever the zero mode is dropped)."""
    w2 = np.zeros(shape.dims)
    grid = frequency_grid(shape).astype(np.float64)
    for i in range(shape.d):
        w2 += grid[i] ** 2
    out = np.empty(shape.dims)
    nz = w2 > 0
    out[nz] = w2[nz] ** (exponent / 2.0)
    out[~nz] = at_zero
    return out
