"""Generators: spectral tables, folded kernels, Poisson solves."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gamma as gamma_fn, gammaincc

from sandlab import TorusShape, LatticeField, OperatorSpec, solve_poisson, power_law_multiplier
from sandlab.lattice import _reverse_indices
from sandlab.operators import (
    _ewald_log_tail_bound,
    _upper_gamma,
    lr_eigenvalues,
    lr_kernel,
    nn_eigenvalues,
)

try:
    from scipy.special import zeta as hurwitz_zeta
    HAVE_HURWITZ = True
except ImportError:  # pragma: no cover
    HAVE_HURWITZ = False


def test_nn_apply_on_delta_d1():
    # Unit mass at the origin on n=4: the site loses itself, each neighbour
    # receives half.  Frozen from the generator acting on a delta.
    f = LatticeField(TorusShape(1, 4), np.array([1.0, 0.0, 0.0, 0.0]))
    got = OperatorSpec.nearest_neighbour(f.shape).apply(f).values
    assert np.allclose(got, [-1.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_nn_apply_conserves_mass():
    rng = np.random.default_rng(3)
    f = LatticeField(TorusShape(2, 6), rng.standard_normal((6, 6)))
    got = OperatorSpec.nearest_neighbour(f.shape).apply(f).values
    assert abs(got.sum()) < 1e-12


def test_nn_eigenvalue_pins():
    # lambda(w) = -(2/d) sum sin^2(pi w_i/n): the two spec-level anchors.
    lam2 = nn_eigenvalues(TorusShape(1, 2))
    assert abs(lam2[1] - (-2.0)) < 1e-15
    lam4 = nn_eigenvalues(TorusShape(1, 4))
    assert abs(lam4[1] - (-1.0)) < 1e-15
    assert lam4[0] == 0.0


def test_nn_eigenvalues_diagonalize_the_operator():
    rng = np.random.default_rng(4)
    shape = TorusShape(2, 8)
    f = LatticeField(shape, rng.standard_normal((8, 8)))
    lam = nn_eigenvalues(shape)
    lhs = np.fft.fftn(OperatorSpec.nearest_neighbour(shape).apply(f).values)
    rhs = lam * np.fft.fftn(f.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def direct_kernel_d1(n: int, alpha: float, images: int) -> np.ndarray:
    """Truncated lattice sum oracle for the folded long-range kernel."""
    out = np.zeros(n)
    for x in range(n):
        total = 0.0
        for m in range(-images, images + 1):
            z = x + m * n
            if z != 0:
                total += abs(z) ** -(1 + alpha)
        out[x] = total
    return out / out.sum()


def test_lr_kernel_d1_matches_hurwitz_zeta():
    if not HAVE_HURWITZ:
        pytest.skip("scipy zeta unavailable")
    # In d=1 the image sums are Hurwitz zeta values, an independent exact route:
    # sum_{z = x mod n, z != 0} |z|^(-s) = n^(-s) (zeta(s, x/n) + zeta(s, 1 - x/n))
    # for 0 < x < n, and 2 n^(-s) zeta(s, 1) at x = 0.
    n, alpha = 16, 1.0
    s = 1 + alpha
    table = lr_kernel(TorusShape(1, n), alpha)
    raw = np.empty(n)
    raw[0] = 2 * n**-s * hurwitz_zeta(s, 1.0)
    for x in range(1, n):
        raw[x] = n**-s * (hurwitz_zeta(s, x / n) + hurwitz_zeta(s, 1 - x / n))
    want = raw / raw.sum()
    assert np.max(np.abs(table - want)) < 1e-13


def cube_radius(d: int, eps: float) -> int:
    """The image radius rule of the cube loop below."""
    for radius in range(3, 17):
        if (2 * radius + 3) ** d * np.exp(-np.pi * (radius - 0.5) ** 2) < eps:
            return radius
    raise ValueError("beyond the cap")


def cube_lr_kernel(shape, alpha, tol):
    """Frozen Ewald evaluation that sums the real half over a full image cube."""
    d, n = shape.d, shape.n
    s_exp = d + alpha
    radius = cube_radius(d, tol / 2.0)
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
    prefactor = np.pi ** (s_exp / 2.0) / gamma_fn(s_exp / 2.0)
    coeff_grid = np.zeros(shape.dims, dtype=np.complex128)
    for m in shifts:
        if np.all(m == 0):
            continue
        m2 = float(np.dot(m, m))
        cm = (np.pi * m2) ** (alpha / 2.0) * _upper_gamma(-alpha / 2.0, np.array(np.pi * m2))
        coeff_grid[tuple(np.mod(m, n))] += cm
    dual_part = (np.fft.ifftn(coeff_grid).real * shape.nsites + 2.0 / alpha) * prefactor
    dual_part = dual_part - np.where(np.sum(centered**2, axis=0) == 0, prefactor * 2.0 / s_exp, 0.0)
    raw = (real_part + dual_part) * float(n) ** (-s_exp)
    return raw / raw.sum()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d, n", [(2, 16), (2, 11), (3, 7), (3, 8)])
def test_spherical_lr_kernel_matches_cube_loop(d, n, alpha):
    shape = TorusShape(d, n)
    got = lr_kernel(shape, alpha, tol=1e-13)
    want = cube_lr_kernel(shape, alpha, 1e-13)
    assert np.max(np.abs(got - want) / want) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 9), alpha=st.floats(1e-300, 3.0))
@example(d=3, n=2, alpha=3.0)
@example(d=3, n=8, alpha=0.5)
@example(d=2, n=9, alpha=1.0)
def test_lr_kernel_is_exactly_symmetric(d, n, alpha):
    # One evaluation per symmetry orbit: the table equals its images under
    # every axis permutation and torus reflection bit for bit.
    p = lr_kernel(TorusShape(d, n), alpha)
    for perm in itertools.permutations(range(d)):
        assert np.array_equal(p, np.transpose(p, perm))
    for axis in range(d):
        assert np.array_equal(p, np.roll(np.flip(p, axis=axis), 1, axis=axis))
    assert np.array_equal(p, _reverse_indices(p))


def test_lr_kernel_refuses_a_non_finite_table():
    # alpha this small overflows the frequency half's 2 / alpha term; the
    # table would be NaN after normalization.
    with pytest.raises(ValueError, match="non-finite"):
        lr_kernel(TorusShape(2, 5), 1e-308)


def dropped_tails(d: int, n: int, alpha: float, radius: int, extra: int = 4) -> np.ndarray:
    """Brute-force sum of the terms both Ewald halves drop at image radius R.

    The real half drops the image points beyond rho = R - 1/2 of each site's
    centered residue, the frequency half the shells outside the cube of R.
    Both are summed out to R + extra, past which the terms are below 1e-150
    of the first dropped one.
    """
    a = (d + alpha) / 2.0
    rho2 = (radius - 0.5) ** 2
    big = radius + extra
    axes = [((np.arange(n) + n // 2) % n) - n // 2 for _ in range(d)]
    y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=0).reshape(d, -1) / n
    ks = np.stack(np.meshgrid(*[np.arange(-big, big + 1)] * d, indexing="ij"), axis=0).reshape(d, -1)
    r2 = np.sum((y[:, :, None] + ks[:, None, :]) ** 2, axis=0)
    far = r2 > rho2
    real = np.where(far, gammaincc(a, np.pi * np.where(far, r2, 1.0)) * np.where(far, r2, 1.0) ** -a, 0.0)
    m2 = np.sum(ks**2, axis=0).astype(np.float64)
    outside = np.max(np.abs(ks), axis=0) > radius
    dual = (np.pi * m2[outside]) ** (alpha / 2.0) * _upper_gamma(-alpha / 2.0, np.pi * m2[outside])
    prefactor = np.pi**a / gamma_fn(a)
    return real.sum(axis=1) + prefactor * dual.sum()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
@pytest.mark.parametrize("radius", [2, 3, 4])
def test_ewald_tail_bound_covers_the_dropped_terms(d, n, alpha, radius):
    bound = np.exp(_ewald_log_tail_bound(d, alpha, radius - 0.5))
    tails = dropped_tails(d, n, alpha, radius)
    assert np.all(tails > 0)
    assert np.max(tails) <= bound


def test_lr_kernel_unattainable_tolerance_names_the_radius():
    # A radius past the cap of 16 shells would be needed: refused up front,
    # before any table is built.
    with pytest.raises(ValueError, match="needs an image radius of 17, beyond the cap 16"):
        lr_kernel(TorusShape(5, 2), 2.0, tol=5e-324)


def test_lr_kernel_without_any_bounded_radius_fails_fast():
    # At alpha = 1e300 the tail bound stays infinite out to R ~ 1e149; the
    # search gives up past 2^52 shells instead of stepping toward it.
    started = time.monotonic()
    with pytest.raises(ValueError, match=r"needs an image radius beyond 2\^52, far past the cap 16"):
        lr_kernel(TorusShape(1, 8), 1e300)
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("alpha, radius", [(1800.0, 18), (1e4, 41), (1e20, 3989622291)])
def test_lr_kernel_names_a_radius_past_the_cap(alpha, radius):
    # the bound is infinite at R = 17 here; the radius is still found and named
    started = time.monotonic()
    with pytest.raises(ValueError, match=f"needs an image radius of {radius}, beyond the cap 16"):
        lr_kernel(TorusShape(1, 8), alpha)
    assert time.monotonic() - started < 1.0


def test_lr_kernel_d1_against_truncated_sum():
    n, alpha = 8, 1.5
    table = lr_kernel(TorusShape(1, n), alpha)
    want = direct_kernel_d1(n, alpha, images=10_000)
    assert np.max(np.abs(table - want)) < 1e-5
    # the kernel is a probability vector, symmetric under negation
    assert abs(table.sum() - 1.0) < 1e-14
    assert np.allclose(table, table[(-np.arange(n)) % n], atol=1e-15)


def test_lr_kernel_monotone_from_origin():
    table = lr_kernel(TorusShape(1, 32), 0.75)
    half = table[: 16 + 1]
    assert np.all(np.diff(half[1:]) < 0)  # decreasing up to the antipode
    # the self-loop collects only far images, so the adjacent site dominates it
    assert half[1] > half[0]


def test_lr_eigenvalues_sign_structure():
    for d, n, alpha in [(1, 16, 1.0), (2, 8, 0.75)]:
        kern = lr_kernel(TorusShape(d, n), alpha)
        lam = lr_eigenvalues(kern)
        assert lam.flat[0] == 0.0
        assert np.all(lam.ravel()[1:] < 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lr_apply_spectral_vs_direct_convolution(d):
    rng = np.random.default_rng(5)
    shape = TorusShape(d, {1: 16, 2: 8, 3: 5}[d])
    op = OperatorSpec.long_range(shape, 1.0)
    kern = op.kernel()
    f = LatticeField(shape, rng.standard_normal(shape.dims))
    got = op.apply(f).values
    # direct circular convolution minus identity
    conv = np.zeros(shape.dims)
    for dx in itertools.product(range(shape.n), repeat=d):
        conv += kern[dx] * np.roll(f.values, dx, axis=tuple(range(d)))
    want = conv - f.values
    assert np.max(np.abs(got - want)) < 1e-10


def test_lr_eigenvalue_closed_form_d1_alpha1():
    # With p(z) proportional to |z|^-2 in d=1 the folded transform has the
    # closed form lambda(w) = -6 theta (1 - theta), theta = w/n, via the
    # quadratic Bernoulli polynomial value of sum cos(2 pi m theta)/m^2.
    n = 64
    kern = lr_kernel(TorusShape(1, n), 1.0)
    lam = lr_eigenvalues(kern)
    theta = np.arange(n) / n
    want = -6.0 * theta * (1.0 - theta)
    assert np.max(np.abs(lam - want)) < 1e-10


def test_lr_eigenvalue_scaling_slope():
    # Smallest nonzero mode scales like n^-alpha.
    alpha = 1.0
    ns = np.array([16, 32, 64, 128])
    vals = []
    for n in ns:
        lam = lr_eigenvalues(lr_kernel(TorusShape(1, int(n)), alpha))
        vals.append(-lam[1])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope - (-alpha)) < 0.05


def dense_pinv_solve(charge: np.ndarray, apply_op) -> np.ndarray:
    """Independent least-squares route: build the dense matrix, pseudo-invert."""
    size = charge.size
    cols = []
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        cols.append(apply_op(e.reshape(charge.shape)).ravel())
    mat = np.stack(cols, axis=1)
    h = np.linalg.pinv(mat) @ (-charge.ravel())
    return h.reshape(charge.shape)


def test_solve_poisson_frozen_n2():
    # Frozen from the dense pseudo-inverse oracle: charge (1, -1) on n=2 gives
    # the mean-zero potential (1/2, -1/2) under the normalized generator.
    shape = TorusShape(1, 2)
    op = OperatorSpec.nearest_neighbour(shape)
    charge = LatticeField(shape, np.array([1.0, -1.0]))
    got = solve_poisson(charge, op).values
    assert np.allclose(got, [0.5, -0.5], atol=1e-14)
    oracle = dense_pinv_solve(charge.values, lambda v: op.apply(LatticeField(shape, v)))
    assert np.allclose(got, oracle, atol=1e-12)


def test_solve_poisson_matches_dense_oracle():
    rng = np.random.default_rng(6)
    shape = TorusShape(2, 4)
    op = OperatorSpec.nearest_neighbour(shape)
    charge = rng.standard_normal(shape.dims)
    charge -= charge.mean()
    got = solve_poisson(LatticeField(shape, charge), op).values
    oracle = dense_pinv_solve(charge, lambda v: op.apply(LatticeField(shape, v)))
    assert np.max(np.abs(got - oracle)) < 1e-11
    assert abs(got.sum()) < 1e-12


def test_solve_poisson_round_trip():
    rng = np.random.default_rng(7)
    shape = TorusShape(2, 8)
    for op in (OperatorSpec.nearest_neighbour(shape), OperatorSpec.long_range(shape, 1.0)):
        charge = rng.standard_normal(shape.dims)
        charge -= charge.mean()
        h = solve_poisson(LatticeField(shape, charge), op)
        back = -op.apply(h).values
        assert np.max(np.abs(back - charge)) < 1e-9


def test_nn_solve_caches_only_the_inverse_symbol():
    # The nearest-neighbour step never reads lambda, so a solve keeps -1/lambda
    # alone; the long-range operator also keeps lambda, which its step reads.
    shape = TorusShape(3, 6)
    block = np.random.default_rng(8).standard_normal((2,) + shape.dims)
    nn, lr = OperatorSpec.nearest_neighbour(shape), OperatorSpec.long_range(shape, 1.0)
    for op in (nn, lr):
        op.solve(block)
    assert nn._symbol is None and nn._inv is not None
    assert lr._symbol is not None and lr._inv is not None
    assert np.array_equal(nn.symbol(), nn.eigenvalues()[..., :4])
    assert nn._symbol is None


def test_solve_poisson_rejects_unbalanced_charge():
    shape = TorusShape(1, 4)
    op = OperatorSpec.nearest_neighbour(shape)
    with pytest.raises(ValueError):
        solve_poisson(LatticeField(shape, np.ones(4)), op)
    # The residual mass allowed is 1e-9 per site: half of it solves, twice it raises.
    solve_poisson(LatticeField(shape, np.array([5e-10 * 4, 0.0, 0.0, 0.0])), op)
    with pytest.raises(ValueError, match="residual mass 8.000e-09"):
        solve_poisson(LatticeField(shape, np.array([2e-9 * 4, 0.0, 0.0, 0.0])), op)


def test_power_law_multiplier_matches_mode_sum():
    shape = TorusShape(2, 6)
    got = power_law_multiplier(shape, -1.0)
    # naive per-mode evaluation on centered frequencies
    w = np.fft.fftfreq(6, d=1.0 / 6).astype(np.int64)
    for i in range(6):
        for j in range(6):
            norm = np.hypot(float(w[i]), float(w[j]))
            want = 1.0 if norm == 0 else norm**-1.0
            assert abs(got[i, j] - want) < 1e-14
