"""Closed-form potentials, odometers, and their exact covariance."""

import numpy as np
import pytest

from sandlab import TestFunction as Wave, TorusShape, LatticeField, OperatorSpec, solve_poisson
from sandlab.odometer import (
    eta_covariance_exact,
    eta_field,
    odometer_routes,
    odometer_spectral,
)
from sandlab.fieldstats import exact_pairing_variance
from sandlab.sampling import SigmaSpec, make_initial_config, sample_sigma, sigma_chunk
from sandlab.toppling import SandpileState, stabilize


def eta_residual(eta, s, op):
    """Max deviation of (-L) eta from s - 1."""
    return float(np.max(np.abs(-op.apply(eta).values - (s.values - 1.0))))


def two_site_state():
    shape = TorusShape(1, 2)
    op = OperatorSpec.nearest_neighbour(shape)
    s = LatticeField(shape, np.array([1.5, 0.5]))
    return shape, op, s


def test_two_site_chain_frozen():
    # Worked fully by hand: sigma = (1/2, -1/2) on the two-point torus.
    _, op, s = two_site_state()
    eta = eta_field(s, op)
    assert np.allclose(eta.values, [0.25, -0.25], atol=1e-14)
    assert eta_residual(eta, s, op) < 1e-14

    u = odometer_spectral(s, op)
    assert np.allclose(u.values, [0.5, 0.0], atol=1e-14)

    gamma = -eta.values  # the obstacle
    assert np.allclose(gamma, [-0.25, 0.25], atol=1e-14)
    assert gamma.max() == pytest.approx(0.25)  # the constant majorant level

    _, v = odometer_routes(s, op)
    assert np.allclose(v.values, u.values, atol=1e-14)


def test_eta_mean_zero_and_residual():
    shape = TorusShape(2, 8)
    for op in (OperatorSpec.nearest_neighbour(shape), OperatorSpec.long_range(shape, 1.0)):
        sigma = sample_sigma(SigmaSpec.iid_gaussian(), shape, 17)
        s = make_initial_config(sigma)
        eta = eta_field(s, op)
        assert abs(eta.values.mean()) < 1e-12
        assert eta_residual(eta, s, op) < 1e-10


def test_eta_rejects_unbalanced_height():
    shape = TorusShape(1, 4)
    op = OperatorSpec.nearest_neighbour(shape)
    with pytest.raises(ValueError):
        eta_field(LatticeField(shape, np.array([1.5, 1.0, 1.0, 1.0])), op)


def test_spectral_odometer_matches_toppling():
    shape = TorusShape(1, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    sigma = sample_sigma(SigmaSpec.iid_gaussian(), shape, 23)
    v = sigma.values
    s = LatticeField(shape, 1.0 + 0.3 * (v - v.mean()))
    u_closed = odometer_spectral(s, op)

    final, report = stabilize(SandpileState.initial(op, s))
    assert report.status == "stabilized"
    assert np.max(np.abs(final.u.values - u_closed.values)) < 1e-5


def test_obstacle_identity_is_algebraic():
    # max-majorant route and direct spectral route agree to rounding.
    shape = TorusShape(2, 16)
    op = OperatorSpec.long_range(shape, 0.75)
    sigma = sample_sigma(SigmaSpec.stable(1.5), shape, 29)
    s = make_initial_config(sigma)
    u = odometer_spectral(s, op).values
    v = odometer_routes(s, op)[1].values
    assert np.max(np.abs(u - v)) < 1e-12
    assert u.min() == 0.0


def naive_covariance(op):
    """Mode-by-mode double loop for the white-noise eta covariance, d=1."""
    n = op.shape.n
    lam = op.eigenvalues()
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0 + 0.0j
        for w in range(1, n):
            acc += np.exp(2j * np.pi * w * x / n) / (n * lam[w] ** 2)
        out[x] = acc.real
    return out


def test_covariance_frozen_four_site_values():
    # Hand sum over the three nonzero modes of the four-point torus.
    op = OperatorSpec.nearest_neighbour(TorusShape(1, 4))
    table = eta_covariance_exact(op).values
    assert np.allclose(table, [0.5625, -0.0625, -0.4375, -0.0625], atol=1e-14)
    assert np.allclose(table, naive_covariance(op), atol=1e-13)
    assert table[1] == pytest.approx(-0.0625)
    assert 2.0 * (table[0] - table[1]) == pytest.approx(1.25)  # E[(eta(1) - eta(0))^2]


def test_covariance_zero_sum_and_symmetry():
    op = OperatorSpec.long_range(TorusShape(2, 8), 1.0)
    c = eta_covariance_exact(op).values
    assert abs(c.sum()) < 1e-10
    # even under x -> -x on the torus
    rev = c
    for axis in range(c.ndim):
        rev = np.roll(np.flip(rev, axis=axis), 1, axis=axis)
    assert np.allclose(c, rev, atol=1e-13)


def test_covariance_biharmonic_identity():
    # Applying the generator twice returns the spectral projector kernel
    # delta - 1/nsites exactly.
    shape = TorusShape(1, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    c = eta_covariance_exact(op)
    twice = op.apply(op.apply(c)).values
    want = -np.full(8, 1.0 / 8)
    want[0] += 1.0
    assert np.max(np.abs(twice - want)) < 1e-12


def test_covariance_monte_carlo_agreement():
    n = 4
    shape = TorusShape(1, n)
    op = OperatorSpec.nearest_neighbour(shape)
    want = eta_covariance_exact(op).values

    blocks = [sigma_chunk(SigmaSpec.iid_gaussian(), shape, 41, i) for i in range(40)]
    etas = np.concatenate([op.solve(b) for b in blocks], axis=0)
    big_n = etas.shape[0]
    emp = (etas.T @ etas) / big_n
    for off in range(n):
        pair = np.mean([emp[i, (i + off) % n] for i in range(n)])
        se = np.sqrt((want[0] ** 2 + want[off] ** 2) / (big_n * n))
        assert abs(pair - want[off]) < 5 * se


def test_correlated_covariance_scales_with_multiplier():
    # Doubling the noise spectrum doubles the potential covariance.
    shape = TorusShape(1, 6)
    op = OperatorSpec.nearest_neighbour(shape)
    khat = np.full(6, 1.0 / 6)
    base = eta_covariance_exact(op, khat=khat).values
    double = eta_covariance_exact(op, khat=2 * khat).values
    assert np.allclose(double, 2 * base, atol=1e-14)
    white = eta_covariance_exact(op).values
    assert np.allclose(base, white, atol=1e-14)


@pytest.mark.parametrize("n", [5, 6])
def test_exact_covariance_paths_reject_an_uneven_multiplier(n):
    # The half-grid transforms read only half of khat, so an uneven one would
    # be symmetrized silently; both exact paths must refuse it instead.
    shape = TorusShape(2, n)
    op = OperatorSpec.nearest_neighbour(shape)
    khat = np.ones(shape.dims)
    khat[1, 2] = 3.0  # its mirror (n-1, n-2) keeps weight one
    f = Wave.cosine((1, 0))
    with pytest.raises(ValueError, match="not even"):
        eta_covariance_exact(op, khat)
    with pytest.raises(ValueError, match="not even"):
        exact_pairing_variance(op, f, khat)
    khat[n - 1, n - 2] = 3.0
    eta_covariance_exact(op, khat)
    exact_pairing_variance(op, f, khat)


def test_eta_sample_batch_matches_single_field():
    shape = TorusShape(2, 6)
    op = OperatorSpec.long_range(shape, 1.0)
    block = sigma_chunk(SigmaSpec.iid_gaussian(), shape, 43, 0, count=4)
    batch = op.solve(block)
    for k in range(4):
        s = make_initial_config(LatticeField(shape, block[k]))
        single = eta_field(s, op).values
        assert np.max(np.abs(batch[k] - single)) < 1e-12


@pytest.mark.parametrize("d, n", [(1, 30), (2, 24), (3, 6)])
def test_solve_poisson_and_batch_share_one_spectral_solve(d, n):
    # Both routes divide by the operator's one cached inverse symbol, so the
    # same centered noise gives bit-identical potentials.
    shape = TorusShape(d, n)
    for op in (OperatorSpec.nearest_neighbour(shape), OperatorSpec.long_range(shape, 1.5)):
        sigma = sample_sigma(SigmaSpec.iid_gaussian(), shape, 5).values
        charge = sigma - sigma.mean()
        single = solve_poisson(LatticeField(shape, charge), op).values
        batch = op.solve(charge[None])
        assert np.array_equal(single, batch[0])
