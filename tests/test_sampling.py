"""Noise families: moments, covariance targets, tails, and determinism."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sandlab import TorusShape, LatticeField, sampling
from sandlab._util import generator
from sandlab.sampling import (
    CHUNK_REPLICATES,
    SigmaSpec,
    half_multiplier,
    make_initial_config,
    replicate_sigma,
    sample_sigma,
    sigma_chunk,
)


def draws(spec, shape, seed, chunks):
    blocks = [sigma_chunk(spec, shape, seed, i) for i in range(chunks)]
    return np.concatenate([b.reshape(b.shape[0], -1).ravel() for b in blocks])


def test_gaussian_moments():
    x = draws(SigmaSpec.iid_gaussian(), TorusShape(1, 64), 0, 8)
    n = x.size
    assert abs(x.mean()) < 5.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_uniform_moments_and_support():
    x = draws(SigmaSpec.iid_uniform(), TorusShape(1, 64), 1, 8)
    assert abs(x.mean()) < 5.0 / np.sqrt(x.size)
    assert abs(x.var() - 1.0) < 0.02
    assert np.abs(x).max() <= np.sqrt(3.0) + 1e-12


def test_make_initial_config_frozen_pair():
    shape = TorusShape(1, 2)
    sigma = LatticeField(shape, np.array([0.5, -0.5]))
    s = make_initial_config(sigma).values
    assert np.array_equal(s, np.array([1.5, 0.5]))


def test_make_initial_config_mass_is_site_count():
    shape = TorusShape(2, 16)
    sigma = sample_sigma(SigmaSpec.stable(1.2), shape, 9)
    s = make_initial_config(sigma)
    assert abs(s.values.sum() - shape.nsites) < 1e-9 * shape.nsites
    assert abs(s.values.mean() - 1.0) < 1e-12


@pytest.mark.parametrize("spec, message", [
    (SigmaSpec.stable(0.005), "^stable alpha = 0.005 at n = 8 leaves float range$"),
    (SigmaSpec.stable(1e-300), "^stable alpha = 1e-300 at n = 8 leaves float range$"),
    (SigmaSpec.pareto(0.001), "^pareto index = 0.001 at n = 8 leaves float range$"),
], ids=["stable", "stable-divide", "pareto"])
def test_sample_sigma_refuses_draws_beyond_float_range_without_warnings(spec, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            sample_sigma(spec, TorusShape(2, 8), 0)


def test_centring_error_prints_the_exact_mass():
    # The mass is 63.99999952316284: formatted to six digits it read "64",
    # the site count it was said to differ from.
    sigma = sample_sigma(SigmaSpec.pareto(0.3), TorusShape(2, 8), 0)
    with pytest.raises(ValueError, match="too heavy-tailed") as refused:
        make_initial_config(sigma)
    printed = re.match(r"initial heights sum to (\S+), not the site count 64:", str(refused.value))
    assert printed and float(printed[1]) != 64


def naive_covariance_from_multiplier(khat: np.ndarray) -> np.ndarray:
    """Direct mode sum C(x) = sum_w khat(w) exp(2 pi i w x / n), d=1."""
    n = khat.size
    x = np.arange(n)
    w = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(x, w) / n)
    c = phases @ khat
    assert np.max(np.abs(c.imag)) < 1e-12
    return c.real


def test_correlated_covariance_matches_multiplier():
    n = 4
    shape = TorusShape(1, n)
    w = np.fft.fftfreq(n, d=1.0 / n)
    khat = (1.0 + 0.5 * np.cos(2 * np.pi * w / n)) / n
    spec = SigmaSpec.correlated_gaussian(khat)
    want = naive_covariance_from_multiplier(khat)

    reps = 80
    blocks = [sigma_chunk(spec, shape, 21, i) for i in range(reps)]
    x = np.concatenate(blocks, axis=0)  # (N, n)
    big_n = x.shape[0]
    emp = (x.T @ x) / big_n
    for off in range(n):
        pair = np.mean([emp[i, (i + off) % n] for i in range(n)])
        se = np.sqrt((want[0] ** 2 + want[off] ** 2) / (big_n * n))
        assert abs(pair - want[off]) < 5 * se, f"offset {off}: {pair} vs {want[off]}"


def test_flat_multiplier_gives_white_noise_of_variance_nsites():
    # khat identically one puts total spectral mass n^d at every site and
    # no cross-site correlation.
    n = 4
    shape = TorusShape(1, n)
    spec = SigmaSpec.correlated_gaussian(np.ones(n))
    x = np.concatenate([sigma_chunk(spec, shape, 22, i) for i in range(32)], axis=0)
    big_n = x.shape[0]
    var = x.var()
    assert abs(var - n) < 5 * n * np.sqrt(2.0 / (big_n * n))
    cross = np.mean(x[:, 0] * x[:, 1])
    assert abs(cross) < 5 * n / np.sqrt(big_n)


@pytest.mark.parametrize("alpha", [1.3, 2.0])
def test_stable_characteristic_function(alpha):
    x = draws(SigmaSpec.stable(alpha), TorusShape(1, 64), 31, 8)
    n = x.size
    for t in (0.5, 1.0, 2.0):
        want = np.exp(-abs(t) ** alpha)
        cos_part = np.cos(t * x)
        sin_part = np.sin(t * x)
        assert abs(cos_part.mean() - want) < 5 * cos_part.std() / np.sqrt(n)
        assert abs(sin_part.mean()) < 5 * sin_part.std() / np.sqrt(n)


def test_stable_scale_parameter():
    # scale b multiplies the variate: CF becomes exp(-|bt|^alpha)
    x = draws(SigmaSpec.stable(1.0, scale=2.0), TorusShape(1, 64), 32, 8)
    t = 0.5
    want = np.exp(-abs(2.0 * t) ** 1.0)
    cos_part = np.cos(t * x)
    assert abs(cos_part.mean() - want) < 5 * cos_part.std() / np.sqrt(x.size)


def test_stable_alpha_two_is_gaussian_variance_two():
    x = draws(SigmaSpec.stable(2.0), TorusShape(1, 64), 33, 8)
    assert abs(x.var() - 2.0) < 5 * 2.0 * np.sqrt(2.0 / x.size)


def test_pareto_survival_and_symmetry():
    index = 3.0
    x = draws(SigmaSpec.pareto(index), TorusShape(1, 64), 11, 12)
    n = x.size
    assert np.abs(x).min() >= 1.0  # magnitude law starts at one
    for t in (2.0, 4.0, 8.0):
        p = t**-index
        se = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(np.abs(x) > t) - p) < 5 * se
    # random-sign symmetrization: balanced signs
    frac_neg = np.mean(x < 0)
    assert abs(frac_neg - 0.5) < 5 * 0.5 / np.sqrt(n)


def test_half_multiplier_rejects_bad_spectra():
    shape = TorusShape(1, 4)
    assert np.array_equal(half_multiplier(np.ones(4), shape), np.ones(3))
    for khat, reason in [
        (np.array([1.0, -1.0, 1.0, 1.0]), "must be positive away from frequency zero"),
        (np.array([1.0, 2.0, 1.0, 1.5]), "is not even under frequency negation"),
        (np.ones(5), "shape"),
        (np.array([1.0, 1.0 + 1.0j, 1.0, 1.0 - 1.0j]), "has a nonreal entry"),
    ]:
        with pytest.raises(ValueError, match=f"^covariance multiplier rejected: multiplier {reason}"):
            half_multiplier(khat, shape)


def test_correlated_sampler_rejects_bad_multiplier():
    shape = TorusShape(1, 4)
    spec = SigmaSpec.correlated_gaussian(np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        sample_sigma(spec, shape, 0)


def test_sample_sigma_deterministic_and_seed_sensitive():
    shape = TorusShape(2, 4)
    spec = SigmaSpec.iid_gaussian()
    a = sample_sigma(spec, shape, 7).values
    b = sample_sigma(spec, shape, 7).values
    assert np.array_equal(a, b)
    c = sample_sigma(spec, shape, 8).values
    assert not np.array_equal(a, c)


def test_chunk_prefix_property():
    # A shorter chunk is a bit-exact prefix of the full one, so memory-capped
    # consumers see the same replicate stream.
    shape = TorusShape(2, 4)
    spec = SigmaSpec.stable(1.3)
    full = sigma_chunk(spec, shape, 5, 0, count=CHUNK_REPLICATES)
    part = sigma_chunk(spec, shape, 5, 0, count=16)
    assert np.array_equal(full[:16], part)


def test_replicate_indexing_crosses_chunks():
    shape = TorusShape(2, 4)
    spec = SigmaSpec.stable(1.3)
    r = replicate_sigma(spec, shape, 5, CHUNK_REPLICATES + 44)
    chunk1 = sigma_chunk(spec, shape, 5, 1)
    assert np.array_equal(r, chunk1[44])


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        SigmaSpec.stable(2.5)
    with pytest.raises(ValueError):
        SigmaSpec.stable(0.0)
    with pytest.raises(ValueError):
        SigmaSpec.pareto(-1.0)


def reference_draws(seed, shape, count, stream, planes, start=0):
    """The frozen stream layout: replicate r is drawn from its own fresh copy
    of the stream, advanced to counter offset (start + r) << 64.  Standard
    normals with planes = 0, else `planes` uniform planes, clipped."""
    rows = []
    for r in range(count):
        gen = generator(seed, *stream)
        gen.bit_generator.advance((start + r) << 64)
        if planes:
            rows.append(np.clip(gen.random((planes,) + shape.dims), 1e-15, float(np.nextafter(1.0, 0.0))))
        else:
            rows.append(gen.standard_normal(shape.dims))
    return np.stack(rows)


SHAPES = [TorusShape(1, 2), TorusShape(1, 3), TorusShape(1, 5), TorusShape(1, 8),
          TorusShape(1, 10), TorusShape(2, 3), TorusShape(2, 4), TorusShape(3, 2),
          TorusShape(3, 3), TorusShape(3, 5)]
REGIMES = {
    "iid-gaussian": lambda shape: SigmaSpec.iid_gaussian(),
    "iid-uniform-centered": lambda shape: SigmaSpec.iid_uniform(),
    "correlated-gaussian": lambda shape: SigmaSpec.correlated_gaussian(np.full(shape.dims, 0.3)),
    "stable": lambda shape: SigmaSpec.stable(1.3, scale=0.5),
    "stable-1": lambda shape: SigmaSpec.stable(1.0, scale=2.0),
    "pareto": lambda shape: SigmaSpec.pareto(2.5),
}
# Uniform planes each regime's transform reads; Gaussian regimes draw normals.
PLANES = {"iid-gaussian": 0, "iid-uniform-centered": 1, "correlated-gaussian": 0,
          "stable-1": 1, "stable": 2, "pareto": 2}


# Gaussian regimes draw normals directly and have nothing to clip.
@pytest.mark.parametrize("regime", ["iid-uniform-centered", "stable", "pareto"])
def test_in_place_clip_leaves_every_draw_unchanged(regime):
    shape = TorusShape(2, 5)
    spec, planes = REGIMES[regime](shape), PLANES[regime]
    for chunk_index, count in ((0, 7), (3, 2)):
        want = sampling._transform(spec, reference_draws(9, shape, count, (1, chunk_index), planes), shape)
        assert np.array_equal(sigma_chunk(spec, shape, 9, chunk_index, count=count), want)
    want = sampling._transform(spec, reference_draws(9, shape, 1, (0,), planes), shape)[0]
    assert np.array_equal(sample_sigma(spec, shape, 9).values, want)


GAUSSIAN = sorted(r for r, planes in PLANES.items() if planes == 0)
UNIFORM = sorted(r for r, planes in PLANES.items() if planes > 0)


def check_replicate(shape, regime, index, before, after, planes):
    # Replicate `index` alone, inside a chunk read from any start and with any
    # count, and from its own fresh substream all equal the transform of
    # `planes` reference planes (normals with planes = 0).
    spec = REGIMES[regime](shape)
    chunk_index, pos = divmod(index, CHUNK_REPLICATES)
    start = max(0, pos - before)
    count = pos - start + after + 1
    want = sampling._transform(spec, reference_draws(9, shape, count, (1, chunk_index), planes, start), shape)
    assert np.array_equal(sigma_chunk(spec, shape, 9, chunk_index, count=count, start=start), want)
    assert np.array_equal(replicate_sigma(spec, shape, 9, index), want[pos - start])
    # sample_sigma reads replicate 0 of the field stream, not of a chunk stream.
    field = sampling._transform(spec, reference_draws(9, shape, 1, (0,), planes), shape)[0]
    assert np.array_equal(sample_sigma(spec, shape, 9).values, field)


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(SHAPES), regime=st.sampled_from(GAUSSIAN),
       index=st.integers(0, 3 * CHUNK_REPLICATES - 1), before=st.integers(0, 6),
       after=st.integers(0, 6))
@example(shape=TorusShape(1, 2), regime="iid-gaussian", index=CHUNK_REPLICATES + 1, before=1, after=0)
def test_gaussian_replicate_is_the_same_however_it_is_reached(shape, regime, index, before, after):
    check_replicate(shape, regime, index, before, after, PLANES[regime])


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(SHAPES), regime=st.sampled_from(UNIFORM),
       index=st.integers(0, 3 * CHUNK_REPLICATES - 1), before=st.integers(0, 6),
       after=st.integers(0, 6))
@example(shape=TorusShape(1, 3), regime="pareto", index=0, before=0, after=2)
@example(shape=TorusShape(3, 3), regime="stable-1", index=CHUNK_REPLICATES + 5, before=0, after=1)
@example(shape=TorusShape(1, 5), regime="iid-uniform-centered", index=3, before=2, after=3)
def test_skipping_draw_equals_the_two_plane_draw(shape, regime, index, before, after):
    # Only the planes a regime reads are drawn, yet every variate equals the
    # one the full two-plane draw of the replicate's substream gives.
    check_replicate(shape, regime, index, before, after, 2)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), regime=st.sampled_from(sorted(REGIMES)),
       samples=st.integers(1, 2 * CHUNK_REPLICATES + 3), sub_batch_sites=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
@example(shape=TorusShape(1, 8), regime="stable", samples=CHUNK_REPLICATES + 2,
         sub_batch_sites=24, seed=0)
def test_replicate_blocks_walk_the_one_layout(shape, regime, samples, sub_batch_sites, seed):
    # However SUB_BATCH_SITES cuts them, the blocks are replicates
    # 0 .. samples - 1 in order, each inside one chunk and within the bound.
    spec = REGIMES[regime](shape)
    with mock.patch.object(sampling, "SUB_BATCH_SITES", sub_batch_sites):
        blocks = list(sampling.replicate_blocks(spec, shape, seed, samples))
    assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [len(b) for _, b in blocks[:-1]]))
    for lo, block in blocks:
        assert len(block) == 1 or len(block) * shape.nsites <= sub_batch_sites
        assert lo // CHUNK_REPLICATES == (lo + len(block) - 1) // CHUNK_REPLICATES
    fields = np.concatenate([block for _, block in blocks])
    assert len(fields) == samples
    for r, field in enumerate(fields):
        assert np.array_equal(field, replicate_sigma(spec, shape, seed, r))


@pytest.mark.parametrize("regime, planes", PLANES.items())
def test_each_regime_draws_only_the_planes_it_reads(regime, planes):
    shape = TorusShape(1, 4)
    assert sampling._planes_read(REGIMES[regime](shape)) == planes
    block = sampling._site_block(9, shape, 2, (1, 0), planes)
    assert block.shape == (2,) + ((planes,) if planes else ()) + shape.dims
