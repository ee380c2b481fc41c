"""The half-grid spectral core against frozen full-grid complex-FFT routes.

Solves, exact covariances, exact pairing variances and the correlated
sampler run on the rfftn half grid.  Each reference below is the full-grid
complex-FFT computation it replaced; the two differ only by rounding, so they
must agree to 1e-12 relative.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from sandlab import TestFunction as Wave, TorusShape, OperatorSpec
from sandlab.fieldstats import exact_pairing_variance
from sandlab.lattice import _reverse_indices, cell_integral_field
from sandlab.odometer import eta_covariance_exact
from sandlab.sampling import SigmaSpec, _site_uniform_block, sigma_chunk

REL = 1e-12
MAX_N = {1: 40, 2: 16, 3: 8}


def full_inverse_symbol(op):
    lam = op.eigenvalues()
    inv = np.zeros(op.shape.dims)
    np.divide(-1.0, lam, out=inv, where=lam != 0.0)
    inv.flat[0] = 0.0
    return inv


def reference_solve(op, block):
    axes = tuple(range(block.ndim - op.shape.d, block.ndim))
    coeffs = np.fft.fftn(block, axes=axes) * full_inverse_symbol(op)
    return np.fft.ifftn(coeffs, axes=axes).real


def reference_covariance(op, khat):
    weight = np.full(op.shape.dims, 1.0 / op.shape.nsites) if khat is None else khat
    mode = weight * full_inverse_symbol(op) ** 2
    return np.fft.ifftn(mode).real * op.shape.nsites


def reference_pairing_variance(op, f, khat):
    weight = np.full(op.shape.dims, 1.0 / op.shape.nsites) if khat is None else khat
    potential_hat = np.fft.fftn(cell_integral_field(f, op.shape).values) * full_inverse_symbol(op)
    return float(np.sum(weight * np.abs(potential_hat) ** 2))


def reference_correlated_chunk(khat, shape, seed, chunk_index, count):
    white = ndtri(_site_uniform_block(seed, shape, count, (1, chunk_index), 2)[:, 0])
    axes = tuple(range(1, white.ndim))
    coeffs = np.fft.fftn(white, axes=axes) * np.sqrt(shape.nsites * khat)
    return np.fft.ifftn(coeffs, axes=axes).real


def assert_close(got, want):
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= REL * scale


@st.composite
def shapes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    return TorusShape(d, draw(st.integers(2, MAX_N[d])))


@st.composite
def operators(draw):
    shape = draw(shapes())
    if draw(st.booleans()):
        return OperatorSpec.nearest_neighbour(shape)
    return OperatorSpec.long_range(shape, draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])))


def even_multiplier(shape, rng):
    """Random positive multiplier, exactly even under w -> -w."""
    raw = rng.uniform(0.1, 2.0, shape.dims)
    return (raw + _reverse_indices(raw)) / 2.0


def random_test_function(d, rng):
    modes = []
    for _ in range(2):
        k = tuple(int(v) for v in rng.integers(-1, 2, d))
        if any(k):
            modes.append((k, float(rng.normal()), float(rng.normal())))
    return Wave(tuple(modes) or (((1,) + (0,) * (d - 1), 1.0, 0.0),))


@settings(max_examples=60, deadline=None)
@given(op=operators(), lead=st.sampled_from([(), (1,), (3,), (2, 2)]), seed=st.integers(0, 2**32 - 1))
def test_solve_matches_complex_fft_solve(op, lead, seed):
    block = np.random.default_rng(seed).standard_normal(lead + op.shape.dims)
    got = op.solve(block)
    assert got.shape == block.shape
    assert_close(got, reference_solve(op, block))


@settings(max_examples=40, deadline=None)
@given(op=operators(), correlated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_covariance_matches_complex_fft(op, correlated, seed):
    rng = np.random.default_rng(seed)
    khat = even_multiplier(op.shape, rng) if correlated else None
    got = eta_covariance_exact(op, khat).values
    assert_close(got, reference_covariance(op, khat))


@settings(max_examples=40, deadline=None)
@given(op=operators(), correlated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_pairing_variance_matches_complex_fft(op, correlated, seed):
    rng = np.random.default_rng(seed)
    khat = even_multiplier(op.shape, rng) if correlated else None
    f = random_test_function(op.shape.d, rng)
    want = reference_pairing_variance(op, f, khat)
    got = exact_pairing_variance(op, f, khat)
    assert want > 0
    assert abs(got - want) <= REL * want


@settings(max_examples=30, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
def test_correlated_sampler_matches_complex_fft(shape, seed):
    khat = even_multiplier(shape, np.random.default_rng(seed))
    got = sigma_chunk(SigmaSpec.correlated_gaussian(khat), shape, seed, 2, count=3)
    assert_close(got, reference_correlated_chunk(khat, shape, seed, 2, 3))
