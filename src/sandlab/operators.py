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
the single source of truth for all long-range spectral computations.

Fields are real and both generators are even, so every spectral table is
Hermitian: its values at -w are those at w.  Each operator therefore reads
one symbol, lambda on the half grid of ``scipy.fft.rfftn`` (last axis cut to
n//2 + 1 columns): the long-range step, every Poisson solve and every exact
covariance multiply by it or its inverse, the first two through
``lattice.half_grid_product``.
The full eigenvalue table stays public for callers that index the whole
grid; it is computed on each request and not cached.

The folded kernel is evaluated by an Ewald split of the lattice sum: a
Gaussian-damped real-space part plus a Gaussian-damped frequency part, both of
which converge like exp(-pi R^2) in their cutoff radius R.  Direct truncation
of the power-law sum would need astronomically large radii to meet tight tail
tolerances when alpha <= 1; the split reaches them with a handful of image
shells.  The real-space part is cut spherically: it keeps the image points
within rho = R - 1/2 of the origin (in units of n) and skips every image
shell whose cell lies wholly beyond rho.  The frequency part keeps the cube of
shells up to R, which contains the ball of radius rho.  ``_ewald_log_tail_bound``
bounds what both parts drop beyond rho, and R is the smallest radius whose
bound is at most half the tolerance; an unattainable tolerance raises with the
radius it would require.

The folded kernel is invariant under the lattice symmetries of the torus, the
axis permutations and the reflections x_i -> -x_i mod n.  Both Ewald parts are
therefore taken at one site per symmetry orbit (969 of 32,768 sites at d = 3,
n = 32) and copied to the rest of the orbit, so the table is exactly
symmetric, not just up to rounding.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import exp1, gamma as gamma_fn, gammaincc

from ._util import axis_sum
from .lattice import LatticeField, TorusShape, frequency_grid, frequency_norm2, half_grid_product

_EWALD_RADIUS_CAP = 16


def nn_eigenvalues(shape: TorusShape) -> np.ndarray:
    """Eigenvalue -(2/d) sum_i sin^2(pi w_i / n) at each frequency."""
    s = np.sin(np.pi * np.arange(shape.n) / shape.n) ** 2
    return -(2.0 / shape.d) * axis_sum(s, shape.d)


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


def _ewald_log_tail_bound(d: int, alpha: float, rho: float) -> float:
    """Natural log of a bound on what both Ewald halves drop beyond radius rho.

    Every term of either half is c * int_1^inf t^(b-1) exp(-pi t |v|^2) dt at
    a point v of a shifted lattice y + Z^d, with c = pi^a / Gamma(a) and
    a = (d + alpha)/2: b = a for the real half, and b = -alpha/2 with y = 0
    for the frequency half.  For |v| >= rho and any lam in (0, 1),

        exp(-pi t |v|^2) <= exp(-pi t lam rho^2) exp(-pi t (1 - lam) |v|^2),

    and for t >= 1 the second factor summed over all of y + Z^d is at most
    (1 + (1 - lam)^-1/2)^d (per axis, the theta sum peaks at y = 0 and is at
    most 1 + tau^-1/2).  The remaining integral is Gamma(b, x) / x^b with
    x = pi lam rho^2, at most exp(-x) / (x - max(b - 1, 0)).  The sum of both
    dropped tails is therefore at most

        c (1 + (1 - lam)^-1/2)^d exp(-x) (1 / (x - max(a - 1, 0)) + 1 / x),

    minimized here over a fixed grid of lam (any lam gives a valid bound).
    """
    a = (d + alpha) / 2.0
    lam = 1.0 - np.geomspace(0.5, 1e-4, 64)
    x = np.pi * lam * rho * rho
    ok = x > max(a - 1.0, 0.0)
    if not np.any(ok):
        return np.inf
    lam, x = lam[ok], x[ok]
    log_c = a * np.log(np.pi) - math.lgamma(a)
    log_theta = d * np.log1p((1.0 - lam) ** -0.5)
    tails = 1.0 / (x - max(a - 1.0, 0.0)) + 1.0 / x
    return float(np.min(log_c + log_theta - x + np.log(tails)))


def _ewald_radius(d: int, alpha: float, tol: float) -> int:
    """Smallest image-shell radius R >= 3 whose dropped tail is at most tol / 2."""
    log_eps = math.log(tol) - math.log(2.0)
    radius = 3
    while (tail := _ewald_log_tail_bound(d, alpha, radius - 0.5)) > log_eps:
        if math.isfinite(tail):  # a finite bound falls by at least pi (2 rho + 1) / 2 a shell
            radius += 1
            continue
        # Infinite until pi rho^2 passes about a - 1: bisect for the first finite shell.
        shells = range(radius, 2**52)  # past 2^52, rho = R - 0.5 no longer tells shells apart
        i = bisect.bisect(shells, False, key=lambda r: math.isfinite(_ewald_log_tail_bound(d, alpha, r - 0.5)))
        if i == len(shells):
            raise ValueError(f"alpha = {alpha:g} needs an image radius beyond 2^52, "
                             f"far past the cap {_EWALD_RADIUS_CAP}")
        radius = shells[i]
    if radius > _EWALD_RADIUS_CAP:
        raise ValueError(
            f"kernel tail tolerance {tol:g} needs an image radius of {radius}, beyond "
            f"the cap {_EWALD_RADIUS_CAP}; relax the tolerance"
        )
    return radius


def lr_kernel(shape: TorusShape, alpha: float, tol: float = 1e-10) -> np.ndarray:
    """Folded heavy-tailed jump kernel on the torus, normalized to mass one.

    Parameters
    ----------
    shape : torus geometry.
    alpha : tail exponent of the step distribution, must be positive.
    tol : bound on the neglected part of each lattice sum before
        normalization: the image radius is the smallest whose proven tail
        bound (``_ewald_log_tail_bound``) is at most tol / 2.  Normalization
        afterwards makes the total mass exactly one in floating point.

    Both Ewald halves are evaluated once per orbit of the lattice symmetries
    (axis permutations and torus reflections), at the orbit's first site in
    FFT order, and the table is filled from those values.  Every site keeps
    the same image points as a site-by-site evaluation would; only the order
    of rounding changes, and the returned table p equals its axis
    permutations and its reflection x -> -x exactly.
    """
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not (0 < tol < 1):
        raise ValueError(f"tail tolerance must lie in (0, 1), got {tol}")
    d, n = shape.d, shape.n
    s_exp = d + alpha
    radius = _ewald_radius(d, alpha, tol)
    rho2 = (radius - 0.5) ** 2

    # A symmetry orbit is keyed by its sites' sorted |centered| coordinates,
    # read as base-(n//2 + 1) digits; its first site in FFT order represents
    # it, and ``orbit`` maps every site back.
    centered = frequency_grid(shape).reshape(d, -1)
    code = np.zeros(shape.nsites, dtype=np.int64)
    for digit in np.sort(np.abs(centered), axis=0):
        code = code * (n // 2 + 1) + digit
    _, first, orbit = np.unique(code, return_index=True, return_inverse=True)
    reps = centered[:, first].astype(np.float64)

    # Real-space half: sum Gaussian-damped power-law terms over the image
    # points within rho of the origin, around each representative.  Shells are
    # visited in the cube's order so that the kept terms add up in a fixed
    # order.
    real_part = np.zeros(first.size)
    shifts = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    shifts = np.stack([a.ravel() for a in shifts], axis=-1)
    gaps = np.maximum(np.abs(shifts) - 0.5, 0.0)
    # a shell whose whole cell lies beyond rho holds no point to keep
    for k in shifts[np.sum(gaps * gaps, axis=1) <= rho2]:
        z = reps + n * k.astype(np.float64)[:, None]
        r2 = np.sum((z / n) ** 2, axis=0)
        near = (r2 > 0) & (r2 <= rho2)
        r2 = r2[near]
        real_part[near] += gammaincc(s_exp / 2.0, np.pi * r2) * r2 ** (-s_exp / 2.0)

    # Frequency half: Gaussian-damped dual sum over every nonzero shell of the
    # cube, folded onto the FFT grid in the cube's order and evaluated for
    # every residue through one inverse transform, then read at the
    # representatives so that the two halves share one value per orbit.
    prefactor = np.pi ** (s_exp / 2.0) / gamma_fn(s_exp / 2.0)
    shells = shifts[np.any(shifts != 0, axis=1)]
    pi_m2 = np.pi * np.sum(shells * shells, axis=1).astype(np.float64)
    coeff_grid = np.zeros(shape.dims)
    coeffs = pi_m2 ** (alpha / 2.0) * _upper_gamma(-alpha / 2.0, pi_m2)
    np.add.at(coeff_grid, tuple(np.mod(shells, n).T), coeffs)  # unbuffered: adds in the cube's order
    dual_part = (np.fft.ifftn(coeff_grid).real.ravel()[first] * shape.nsites + 2.0 / alpha) * prefactor
    dual_part[0] -= prefactor * 2.0 / s_exp  # orbit 0 is the origin alone

    raw = (real_part + dual_part) * float(n) ** (-s_exp)
    if not np.all((raw > 0) & (raw < np.inf)):
        raise ValueError("kernel evaluation produced a non-positive or non-finite entry")
    raw = raw[orbit].reshape(shape.dims)
    return raw / raw.sum()


def lr_eigenvalues(p: np.ndarray) -> np.ndarray:
    """Transform of p - delta; real, zero at the zero frequency, negative off it."""
    lam = np.fft.fftn(p).real
    lam -= 1.0
    lam.flat[0] = 0.0  # total mass one makes this exact
    return lam


class BufferedGenerator:
    """The generator L of one operator, applied between two reusable buffers.

    Write a field into ``x`` and call ``apply``: L x lands in ``out``, and
    both buffers are overwritten in place on every call.  With ``count`` the
    buffers hold a stack of that many fields, shape ``(count,) + dims``, and
    L acts on each field of the stack; without it they hold one field.

    The nearest-neighbour stencil adds the 2d shifted copies in a fixed
    order (axis 0 by +1 then -1, then axis 1, ...), divides by 2d and
    subtracts x.  That order is the one of the np.roll sum, and it is fixed
    on purpose: floating-point addition is not associative.  Each shift adds
    the whole flat buffer offset by the axis stride, one contiguous operand
    pair, which is right everywhere but on the wrap slab (the sites at the
    edge of each block of the axis), and then adds the wrap neighbour onto
    that slab.  Where the blocks repeat (a stack, or any axis but the first)
    the shifted add writes a wrong neighbour onto the slab, so the slab is
    saved first and rewritten as saved + wrap neighbour.  Either way each
    site receives its 2d neighbours in the fixed order.

    The long-range step multiplies each field's half-grid transform by the
    operator's cached symbol lambda = p^ - 1, so it transforms no kernel and
    holds no complex buffer: L x = irfftn(rfftn(x) * lambda).
    """

    def __init__(self, op: "OperatorSpec", count: int | None = None):
        dims = op.shape.dims if count is None else (count,) + op.shape.dims
        self.x = np.empty(dims)
        self.out = np.empty(dims)
        d, n = op.shape.d, op.shape.n
        if op.kind == "lr":
            self._symbol, self._shape = op.symbol(), op.shape
            return
        self._symbol = None
        self._share = 2.0 * d
        self._stencil = []
        flat_g, flat_x = self.out.reshape(-1), self.x.reshape(-1)
        for axis in range(d):
            stride = n ** (d - 1 - axis)
            g, x = self.out.reshape(-1, n, stride), self.x.reshape(-1, n, stride)
            # the shift by +1 reads x[i - 1], then the shift by -1 reads x[i + 1]
            for edge, wrap in ((0, -1), (-1, 0)):
                ahead, behind = slice(stride, None), slice(-stride)
                if edge != 0:
                    ahead, behind = behind, ahead
                slab = np.squeeze(g[:, edge])
                # with one block the shifted add leaves the wrap slab alone
                saved = None if len(g) == 1 else np.empty(slab.shape)
                self._stencil.append((flat_g[ahead], flat_x[behind], slab, np.squeeze(x[:, wrap]), saved))

    def apply(self) -> np.ndarray:
        """Overwrite and return ``out`` with L applied to ``x``."""
        x, g = self.x, self.out
        if self._symbol is not None:
            np.copyto(g, half_grid_product(x, self._symbol, self._shape))
            return g
        g.fill(0.0)
        for dst, src, slab, wrap, saved in self._stencil:
            if saved is None:
                np.add(dst, src, out=dst)
                np.add(slab, wrap, out=slab)
            else:
                np.copyto(saved, slab)
                np.add(dst, src, out=dst)
                np.add(saved, wrap, out=slab)
        np.divide(g, self._share, out=g)
        np.subtract(g, x, out=g)
        return g


@dataclass
class OperatorSpec:
    """Chosen generator, nearest-neighbour or long-range, with its cached tables.

    Everything spectral goes through one table, the symbol lambda on the
    half grid of ``scipy.fft.rfftn``, n^(d-1) * (n//2 + 1) entries, cut from
    the full eigenvalue table.  The half grid suffices because lambda is real
    and even, so a real field's transform at -w is the conjugate of that at
    w.  The solves' inverse symbol -1/lambda is cached; lambda itself only for
    the long-range operator, whose step in ``BufferedGenerator``, the
    generator's only implementation, multiplies by it.  The full eigenvalue
    table is built from the (cached) kernel when asked for and not kept.
    The long-range kernel is ``lr_kernel`` at its default tail tolerance.
    """

    kind: str
    shape: TorusShape
    alpha: float | None = None
    _symbol: np.ndarray | None = field(default=None, repr=False, compare=False)
    _inv: np.ndarray | None = field(default=None, repr=False, compare=False)
    _kernel: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("nn", "lr"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "lr" and not (self.alpha and self.alpha > 0):
            raise ValueError("long-range operator needs alpha > 0")

    @classmethod
    def nearest_neighbour(cls, shape: TorusShape) -> "OperatorSpec":
        return cls("nn", shape)

    @classmethod
    def long_range(cls, shape: TorusShape, alpha: float) -> "OperatorSpec":
        return cls("lr", shape, alpha=alpha)

    def kernel(self) -> np.ndarray:
        if self.kind != "lr":
            raise ValueError("only the long-range operator has a jump kernel")
        if self._kernel is None:
            self._kernel = lr_kernel(self.shape, self.alpha)
        return self._kernel

    def eigenvalues(self) -> np.ndarray:
        """The full eigenvalue table, computed afresh on every call (not cached)."""
        if self.kind == "nn":
            return nn_eigenvalues(self.shape)
        return lr_eigenvalues(self.kernel())

    def symbol(self) -> np.ndarray:
        """lambda on the rfftn half grid (the full table's first n//2 + 1 columns), kept for lr."""
        if self._symbol is not None:
            return self._symbol
        lam = np.ascontiguousarray(self.eigenvalues()[..., : self.shape.n // 2 + 1])
        if self.kind == "lr":
            self._symbol = lam
        return lam

    def inverse_symbol(self) -> np.ndarray:
        """-1/lambda on the rfftn half grid, and 0 where lambda is 0 (the zero mode)."""
        if self._inv is None:
            lam = self.symbol()
            self._inv = np.divide(-1.0, lam, out=np.zeros(lam.shape), where=lam != 0.0)
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
        return half_grid_product(block, self.inverse_symbol(), self.shape)


def solve_poisson(charge: LatticeField, op: OperatorSpec) -> LatticeField:
    """Mean-zero h with (-L) h = charge, by spectral division.

    The charge must have total mass within 1e-9 * nsites of zero, since
    the generator annihilates constants; otherwise no solution exists and the
    residual mass is reported in the error.  The solve is the one-replicate
    case of ``OperatorSpec.solve``.
    """
    if charge.shape != op.shape:
        raise ValueError("charge shape does not match operator shape")
    total = float(charge.values.sum())
    if abs(total) > 1e-9 * charge.shape.nsites:
        raise ValueError(
            f"charge has residual mass {total:.3e}; the generator annihilates "
            "constants so only mean-zero charges are solvable"
        )
    return LatticeField(charge.shape, op.solve(charge.values[None])[0])


def power_law_multiplier(shape: TorusShape, exponent: float) -> np.ndarray:
    """Frequency map ||w||^exponent on centered frequencies, and 1 at the zero
    frequency (immaterial wherever the zero mode is dropped)."""
    w2 = frequency_norm2(shape)
    out = np.empty(shape.dims)
    nz = w2 > 0
    out[nz] = w2[nz] ** (exponent / 2.0)
    out[~nz] = 1.0
    return out
