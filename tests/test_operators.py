"""Generators: spectral tables, folded kernels, Poisson solves."""

import numpy as np
import pytest

from sandlab import TorusShape, LatticeField, OperatorSpec, solve_poisson, power_law_multiplier
from sandlab.lattice import dft
from sandlab.operators import (
    EigenvalueTable,
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
    lam2 = nn_eigenvalues(TorusShape(1, 2)).values
    assert abs(lam2[1] - (-2.0)) < 1e-15
    lam4 = nn_eigenvalues(TorusShape(1, 4)).values
    assert abs(lam4[1] - (-1.0)) < 1e-15
    assert lam4[0] == 0.0


def test_nn_eigenvalues_diagonalize_the_operator():
    rng = np.random.default_rng(4)
    shape = TorusShape(2, 8)
    f = LatticeField(shape, rng.standard_normal((8, 8)))
    lam = nn_eigenvalues(shape).values
    lhs = dft(OperatorSpec.nearest_neighbour(shape).apply(f)).coeffs
    rhs = lam * dft(f).coeffs
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
    table = lr_kernel(TorusShape(1, n), alpha).p
    raw = np.empty(n)
    raw[0] = 2 * n**-s * hurwitz_zeta(s, 1.0)
    for x in range(1, n):
        raw[x] = n**-s * (hurwitz_zeta(s, x / n) + hurwitz_zeta(s, 1 - x / n))
    want = raw / raw.sum()
    assert np.max(np.abs(table - want)) < 1e-13


def test_lr_kernel_d1_against_truncated_sum():
    n, alpha = 8, 1.5
    table = lr_kernel(TorusShape(1, n), alpha).p
    want = direct_kernel_d1(n, alpha, images=10_000)
    assert np.max(np.abs(table - want)) < 1e-5
    # the kernel is a probability vector, symmetric under negation
    assert abs(table.sum() - 1.0) < 1e-14
    assert np.allclose(table, table[(-np.arange(n)) % n], atol=1e-15)


def test_lr_kernel_monotone_from_origin():
    table = lr_kernel(TorusShape(1, 32), 0.75).p
    half = table[: 16 + 1]
    assert np.all(np.diff(half[1:]) < 0)  # decreasing up to the antipode
    # the self-loop collects only far images, so the adjacent site dominates it
    assert half[1] > half[0]


def test_lr_eigenvalues_sign_structure():
    for d, n, alpha in [(1, 16, 1.0), (2, 8, 0.75)]:
        kern = lr_kernel(TorusShape(d, n), alpha)
        lam = lr_eigenvalues(kern).values
        assert lam.flat[0] == 0.0
        assert np.all(lam.ravel()[1:] < 0)


def test_lr_apply_spectral_vs_direct_convolution():
    rng = np.random.default_rng(5)
    shape = TorusShape(2, 8)
    op = OperatorSpec.long_range(shape, 1.0)
    kern = op.kernel()
    f = LatticeField(shape, rng.standard_normal(shape.dims))
    got = op.apply(f).values
    # direct circular convolution minus identity
    conv = np.zeros(shape.dims)
    for dx in range(8):
        for dy in range(8):
            conv += kern.p[dx, dy] * np.roll(np.roll(f.values, dx, axis=0), dy, axis=1)
    want = conv - f.values
    assert np.max(np.abs(got - want)) < 1e-10


def test_lr_eigenvalue_closed_form_d1_alpha1():
    # With p(z) proportional to |z|^-2 in d=1 the folded transform has the
    # closed form lambda(w) = -6 theta (1 - theta), theta = w/n, via the
    # quadratic Bernoulli polynomial value of sum cos(2 pi m theta)/m^2.
    n = 64
    kern = lr_kernel(TorusShape(1, n), 1.0)
    lam = lr_eigenvalues(kern).values
    theta = np.arange(n) / n
    want = -6.0 * theta * (1.0 - theta)
    assert np.max(np.abs(lam - want)) < 1e-10


def test_lr_eigenvalue_scaling_slope():
    # Smallest nonzero mode scales like n^-alpha.
    alpha = 1.0
    ns = np.array([16, 32, 64, 128])
    vals = []
    for n in ns:
        lam = lr_eigenvalues(lr_kernel(TorusShape(1, int(n)), alpha)).values
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


def test_solve_poisson_rejects_unbalanced_charge():
    shape = TorusShape(1, 4)
    op = OperatorSpec.nearest_neighbour(shape)
    with pytest.raises(ValueError):
        solve_poisson(LatticeField(shape, np.ones(4)), op)


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


def test_eigenvalue_table_check_rejects_positive_modes():
    shape = TorusShape(1, 4)
    bad = EigenvalueTable(shape, np.array([0.0, -1.0, 0.5, -1.0]))
    with pytest.raises(ValueError):
        bad.check()
