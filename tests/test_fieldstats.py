"""Limit-law machinery: normalizations, pairings, experiments, asymptotics."""

import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandlab import TorusShape, LatticeField, OperatorSpec, fieldstats, sampling
from sandlab import TestFunction as Wave
from sandlab._util import generator
from sandlab.fieldstats import (
    CharfunExperiment,
    CharfunRow,
    ScalingMode,
    charfun_continuum_integral,
    covariance_decay_slope,
    covariance_profile,
    exact_pairing_variance,
    hurst_classify,
    limit_variance,
    mean_odometer_curve,
    mean_odometer_exponent,
    mean_odometer_prediction,
    pairing_vector,
    run_charfun_experiment,
    run_variance_experiment,
    structure_prediction,
    variance_structure_curve,
)
from sandlab.lattice import cell_integral_field
from sandlab.operators import power_law_multiplier
from sandlab.odometer import eta_covariance_exact, eta_field
from sandlab.sampling import (
    CHUNK_REPLICATES,
    SUB_BATCH_SITES,
    SigmaSpec,
    make_initial_config,
    replicate_blocks,
    replicate_sigma,
    sigma_chunk,
)


FOUR_PI2 = 4.0 * math.pi**2


def pair_field(u, f):
    """Pairing sum_z u(z) * (integral of f over the cell of z); kills constants exactly."""
    c = cell_integral_field(f, u.shape)
    return float(np.dot(u.ravel(), c.ravel()))


def gaussian_calibration(mode, f, shape):
    """Exact rescaled variance over the limit prediction, with no sampling.

    For nearest-neighbour modes this approaches (2d)^2 as n grows, the
    generator normalization; for long-range modes, the kernel's own constant.
    """
    op, spec = fieldstats._mode_lattice(mode, shape)
    a = fieldstats.scaling_constant(mode, shape)
    exact = a * a * exact_pairing_variance(op, f, spec.khat)
    return exact / limit_variance(f, *fieldstats._limit_law(mode))


def test_scaling_constant_frozen_values():
    from sandlab.fieldstats import scaling_constant

    assert scaling_constant(ScalingMode("nn-ind"), TorusShape(2, 10)) == pytest.approx(FOUR_PI2 / 10)
    assert scaling_constant(ScalingMode("nn-cor", delta=0.25), TorusShape(2, 10)) == pytest.approx(FOUR_PI2 / 100)
    assert scaling_constant(ScalingMode("lr-ind", alpha=1.0), TorusShape(1, 16)) == pytest.approx(0.25)
    assert scaling_constant(ScalingMode("stable", alpha=1.0), TorusShape(2, 10)) == pytest.approx(FOUR_PI2 / 100)
    # alpha = 2 picks up the logarithmic correction, above it the nn rate
    assert scaling_constant(ScalingMode("lr-ind", alpha=2.0), TorusShape(2, 16)) == pytest.approx(math.log(16) / 16)
    assert scaling_constant(ScalingMode("lr-ind", alpha=2.5), TorusShape(2, 16)) == pytest.approx(1.0 / 16)


def test_scaling_mode_validation():
    with pytest.raises(ValueError):
        ScalingMode("gaussian")
    with pytest.raises(ValueError):
        ScalingMode("lr-ind")  # alpha missing
    with pytest.raises(ValueError):
        ScalingMode("stable", alpha=2.0)  # strictly below two
    with pytest.raises(ValueError):
        ScalingMode("nn-cor")  # delta missing


def test_limit_variance_frozen_values():
    assert limit_variance(Wave.cosine((1, 0))) == pytest.approx(0.5)
    assert limit_variance(Wave.cosine((1, 1))) == pytest.approx(0.125)  # norm2 = 2, e = 2
    assert limit_variance(Wave.cosine((1, 1)), e=1.0) == pytest.approx(0.25)
    two = Wave.cosine((1, 0)).plus(Wave.sine((1, 1), amplitude=0.5))
    assert limit_variance(two) == pytest.approx(0.53125)
    assert limit_variance(two, khat=lambda z: 2.0) == pytest.approx(1.0625)


def test_pair_field_kills_constants():
    shape = TorusShape(2, 8)
    rng = np.random.default_rng(12)
    u = LatticeField(shape, rng.standard_normal((8, 8)))
    shifted = LatticeField(shape, u.values + 3.7)
    f = Wave.cosine((1, 0)).plus(Wave.sine((2, 1)))
    assert pair_field(u, f) == pytest.approx(pair_field(shifted, f), abs=1e-12)


def test_pairing_vector_identity():
    # <potential(sigma), f> collapses to sum sigma * k with k independent
    # of sigma; checked against the direct route through eta.
    shape = TorusShape(2, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    f = Wave.cosine((1, 0)).plus(Wave.sine((1, 1), amplitude=0.5))
    k = pairing_vector(op, f)
    assert abs(k.values.sum()) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(3):
        sigma = rng.standard_normal((8, 8))
        s = make_initial_config(LatticeField(shape, sigma))
        eta = eta_field(s, op)
        direct = pair_field(eta, f)
        collapsed = float(np.dot(sigma.ravel(), k.ravel()))
        assert direct == pytest.approx(collapsed, abs=1e-12)


def test_exact_pairing_variance_is_weight_norm():
    # White noise: Var(sum sigma k) = sum k^2, an independent route.
    shape = TorusShape(2, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    f = Wave.cosine((1, 0))
    k = pairing_vector(op, f)
    want = float(np.sum(k.values**2))
    assert exact_pairing_variance(op, f) == pytest.approx(want, rel=1e-12)


def test_exact_pairing_variance_against_monte_carlo():
    shape = TorusShape(2, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    f = Wave.cosine((1, 0))
    k = pairing_vector(op, f).ravel()
    want = exact_pairing_variance(op, f)
    blocks = [sigma_chunk(SigmaSpec.iid_gaussian(), shape, 51, i) for i in range(16)]
    vals = np.concatenate([b.reshape(b.shape[0], -1) @ k for b in blocks])
    n = vals.size
    assert abs(vals.var() - want) < 5 * want * math.sqrt(2.0 / n)


def test_variance_experiment_structure():
    f = Wave.cosine((1, 0))
    (exp,) = run_variance_experiment(ScalingMode("nn-ind"), (f,), (8, 16, 32), 2000, seed=5)
    assert exp.limit == pytest.approx(0.5)
    assert exp.ratio_flatness() < 0.15
    # ratios hold the lattice calibration constant (2d)^2 for this mode
    for row in exp.rows:
        assert abs(row.ratio / 16.0 - 1.0) < 0.25
        assert abs(row.exact_ratio / 16.0 - 1.0) < 0.1
    # the exact ratio is deterministic and approaches the constant
    assert abs(exp.rows[-1].exact_ratio / 16.0 - 1.0) < 0.01


@pytest.mark.parametrize("mode", [ScalingMode("nn-ind"), ScalingMode("nn-cor", delta=0.25),
                                  ScalingMode("lr-ind", alpha=1.0)])
def test_variance_exact_column_is_the_exact_pairing_variance(mode):
    # The exact column is read off the vector the draws pair with (F k for
    # colored noise), so it must equal the standalone exact variance.
    fs = (Wave.cosine((1, 0)), Wave.sine((1, 1)))
    exps = run_variance_experiment(mode, fs, (6, 8), 20)
    for f, exp in zip(fs, exps):
        for row in exp.rows:
            want = gaussian_calibration(mode, f, TorusShape(2, row.n))
            assert row.exact_ratio == pytest.approx(want, rel=1e-12)


def test_variance_experiment_rejects_stable_mode():
    with pytest.raises(ValueError, match="charfun"):
        run_variance_experiment(ScalingMode("stable", alpha=1.0), (Wave.cosine((1, 0)),), (8, 16), 100)


def test_variance_experiment_rejects_a_bare_test_function():
    with pytest.raises(TypeError, match=r"\(f,\)"):
        run_variance_experiment(ScalingMode("nn-ind"), Wave.cosine((1, 0)), (8, 16), 100)


def test_gaussian_calibration_constant():
    cal = gaussian_calibration(ScalingMode("nn-ind"), Wave.cosine((1, 0)), TorusShape(2, 64))
    assert abs(cal - 16.0) < 0.05


def test_charfun_experiment_small_case():
    f = Wave.cosine((1, 0))
    shape = TorusShape(2, 16)
    exp, doubled = run_charfun_experiment(1.0, (f, f.scaled(2.0)), shape, 2000, seed=3)
    # scale linearity under f -> 2f is exact in the deterministic scale
    assert doubled.exact_scale == pytest.approx(2.0 * exp.exact_scale, rel=1e-12)
    # measured decay tracks the exact lattice exponent where signal exists
    first = exp.rows[0]
    assert abs(first.measured_exponent - first.exact_exponent) < 0.2
    assert exp.fitted_scale() == pytest.approx(exp.exact_scale, rel=0.1)


def test_fitted_scale_raises_below_noise_floor():
    rows = (CharfunRow(1.0, 1e-6, 1.0, 13.8, 1.0, 1.0),)
    exp = CharfunExperiment(1.0, 1.0, 1.0, 1.0, rows)
    with pytest.raises(ValueError):
        exp.fitted_scale()


def test_continuum_integral_closed_forms():
    f = Wave.cosine((1, 0))
    # mean of cos^2 over the period is exactly one half
    assert charfun_continuum_integral(f, 2.0) == pytest.approx(0.5, rel=1e-15)
    # mean of |cos| is 2/pi
    assert charfun_continuum_integral(f, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                                   .filter(any)),
       sine=st.booleans(),
       amplitude=st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
       alpha=st.floats(0.05, 2.0, exclude_max=True))
def test_continuum_integral_is_the_mean_of_one_cosine_power(k, sine, amplitude, alpha):
    # G_f = (A / ||k||^2) cos(2 pi k.x + phi) takes the values of one cosine
    # in every dimension, so the integral is a one-dimensional mean.
    f = (Wave.sine if sine else Wave.cosine)(k, amplitude)
    c = abs(amplitude) / sum(v * v for v in k)
    u = (np.arange(1 << 16) + 0.5) / (1 << 16)
    want = float(np.mean(np.abs(c * np.cos(2 * np.pi * u)) ** alpha))
    assert charfun_continuum_integral(f, alpha) == pytest.approx(want, rel=1e-4)
    # the doubled experiment's target is 2^alpha times the base, up to rounding
    doubled = charfun_continuum_integral(f.scaled(2.0), alpha) / charfun_continuum_integral(f, alpha)
    assert doubled == pytest.approx(2.0**alpha, rel=1e-14)


def _mesh_continuum_integral(f, alpha, points):
    """Oracle: |G_f|^alpha averaged over a midpoint mesh of points^d points."""
    mesh = np.meshgrid(*[(np.arange(points) + 0.5) / points] * f.d, indexing="ij")
    g = np.zeros_like(mesh[0], dtype=np.complex128)
    for z in f.support_frequencies():
        phase = sum(zi * m for zi, m in zip(z, mesh))
        g += f.fourier_coefficient(z) / float(sum(v * v for v in z)) * np.exp(-2j * np.pi * phase)
    return float(np.mean(np.abs(g) ** alpha))


@pytest.mark.parametrize("f, alpha", [(Wave.cosine((1, 0)), 1.0), (Wave.sine((2, 1), 0.5), 0.5),
                                      (Wave.cosine((1, -2), -2.0), 1.7), (Wave.sine((0, 3), 3.0), 0.25)])
def test_continuum_integral_matches_the_mesh_at_d2(f, alpha):
    assert charfun_continuum_integral(f, alpha) == pytest.approx(_mesh_continuum_integral(f, alpha, 256), rel=1e-3)


def test_continuum_integral_refuses_two_frequency_pairs():
    with pytest.raises(ValueError, match="single-frequency"):
        charfun_continuum_integral(Wave.cosine((1, 0)).plus(Wave.sine((0, 1))), 1.0)


@pytest.mark.parametrize("alpha", [1e-300, 0.005])
def test_charfun_refuses_an_alpha_beyond_float_range(alpha):
    # a_n underflows to 0 at 1e-300; at 0.005 the stable draws overflow to inf
    with pytest.raises(ValueError, match=rf"alpha = {alpha:g} at n = 8"):
        run_charfun_experiment(alpha, (Wave.cosine((1,)),), TorusShape(1, 8), 50)


def test_charfun_refuses_a_scaling_constant_of_zero(monkeypatch):
    # At alpha = 1e-300 the draws are not finite either; here they are.
    monkeypatch.setattr(fieldstats, "scaling_constant", lambda mode, shape: 0.0)
    with pytest.raises(ValueError, match=r"leaves float range \(a_n = 0\)"):
        run_charfun_experiment(1.0, (Wave.cosine((1,)),), TorusShape(1, 8), 50)


def test_structure_prediction_forms():
    # pure powers r^(4-d) and r^(2 alpha - d) up to the lattice prefactor
    p2 = structure_prediction("nn", 3, 32, 2.0)
    p4 = structure_prediction("nn", 3, 32, 4.0)
    assert np.log(p4 / p2) / np.log(2.0) == pytest.approx(1.0)
    q2 = structure_prediction("lr", 1, 32, 2.0, alpha=0.75)
    q4 = structure_prediction("lr", 1, 32, 4.0, alpha=0.75)
    assert np.log(q4 / q2) / np.log(2.0) == pytest.approx(0.5)
    # d = 2 carries the logarithmic factor, not a pure power
    w = structure_prediction("nn", 2, 256, 8.0)
    assert w == pytest.approx(64.0 * math.log(256.0 / 8.0))


def test_structure_curves_follow_targets():
    # Deterministic spectral sums; windows sized so the finite-torus bend
    # stays inside the +-0.2 slope budget.
    cases = [
        ("nn", 1, 256, tuple(range(1, 17)), None),
        ("nn", 2, 256, tuple(range(1, 17)), None),
        ("nn", 3, 64, (1, 2, 3, 4, 6, 8), None),
        ("lr", 1, 32, (2, 3, 4, 5, 6, 7, 8), 0.75),
    ]
    for kind, d, n, rs, alpha in cases:
        curve = variance_structure_curve(kind, d, n, rs, alpha=alpha)
        assert abs(curve.slope - curve.target_slope) < 0.2, (kind, d)
        assert len(curve.values) == len(rs)
        assert np.all(np.asarray(curve.values) > 0)


def test_covariance_decay_valid_and_flagged():
    ok = covariance_decay_slope("nn", 5, 16, (1, 2, 3))
    assert ok.valid
    assert abs(ok.slope - ok.predicted_slope) < 0.5  # torus offset at n=16
    assert ok.predicted_slope == pytest.approx(-1.0)

    lr_ok = covariance_decay_slope("lr", 3, 32, (1, 2, 3), alpha=1.0)
    assert lr_ok.valid
    assert abs(lr_ok.slope - lr_ok.predicted_slope) < 0.5

    flat = covariance_decay_slope("nn", 3, 16, (1, 2, 3))
    assert not flat.valid
    assert "d >= 5" in flat.reason

    lr_bad = covariance_decay_slope("lr", 3, 16, (1, 2, 3), alpha=2.5)
    assert not lr_bad.valid
    assert "alpha" in lr_bad.reason


def frozen_large_grid_nn_profile(d, n, rs):
    """The nearest-neighbour large-grid loop of ``covariance_profile`` as first
    written: fresh arrays and a boolean mask for each first-axis frequency."""
    s1 = np.sin(np.pi * np.arange(n) / n) ** 2
    rest = np.zeros((n,) * (d - 1))
    for axis in range(d - 1):
        idx = [None] * (d - 1)
        idx[axis] = slice(None)
        rest = rest + s1[tuple(idx)]
    sums = np.empty(n)
    for w1 in range(n):
        lam = -(2.0 / d) * (s1[w1] + rest)
        inv2 = np.zeros_like(lam)
        mask = lam != 0.0
        inv2[mask] = 1.0 / lam[mask] ** 2
        sums[w1] = inv2.sum()
    phases = np.cos(2.0 * np.pi * np.outer(rs, np.arange(n)) / n)
    return (phases @ sums) / n**d


def test_large_grid_nn_covariance_profile():
    # 20^5 = 3.2M sites takes the in-place branch (above 2e6 sites).
    d, n, rs = 5, 20, [0, 1, 2, 3, 10]
    got = covariance_profile("nn", d, n, rs)
    assert np.array_equal(got, frozen_large_grid_nn_profile(d, n, rs))
    table = eta_covariance_exact(OperatorSpec("nn", TorusShape(d, n))).values
    want = np.array([table[(r,) + (0,) * (d - 1)] for r in rs])
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_hurst_classification_frozen_cases():
    boundary = hurst_classify(1.0, 2)
    assert boundary.h == 0.0 and boundary.regime == "boundary"
    fn = hurst_classify(2.0, 2)
    assert fn.h == 1.0 and fn.regime == "function" and not fn.ambiguous
    dist = hurst_classify(1.0, 4)
    assert dist.h == -1.0 and dist.regime == "distribution"
    frac = hurst_classify(1.6, 2)
    assert frac.h == pytest.approx(0.6)
    assert frac.ambiguous
    assert (frac.derivatives_reported, frac.derivatives_usual) == (-1, 0)


def test_mean_odometer_exponents_frozen():
    assert [mean_odometer_exponent("nn", d) for d in (1, 2, 3)] == [1.5, 1.0, 0.5]
    assert mean_odometer_exponent("nn", 4) is None
    assert mean_odometer_exponent("nn", 5) is None
    assert mean_odometer_exponent("lr", 1, alpha=1.0) == 0.5
    assert mean_odometer_exponent("lr", 1, alpha=0.5) is None  # log regime


def test_mean_odometer_predictions():
    assert mean_odometer_prediction("nn", 2, 16) == pytest.approx(16.0)
    assert mean_odometer_prediction("nn", 4, 16) == pytest.approx(math.log(16))
    assert mean_odometer_prediction("nn", 5, 16) == pytest.approx(math.sqrt(math.log(16)))
    assert mean_odometer_prediction("lr", 1, 16, alpha=0.5) == pytest.approx(math.log(16))


def test_mean_odometer_growth_law_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown operator kind"):
        mean_odometer_prediction("xx", 2, 16)
    with pytest.raises(ValueError, match="unknown operator kind"):
        mean_odometer_exponent("xx", 2)


def test_mean_odometer_curve_d1_slope():
    curve = mean_odometer_curve("nn", 1, (16, 32, 64), 300, seed=2)
    assert curve.predicted_slope == 1.5
    assert abs(curve.slope - 1.5) < 0.15
    assert all(row.value.stderr > 0 for row in curve.rows)


def reference_normals(seed, shape, count, stream):
    """Gaussian layout: replicate r is the standard normals of its own fresh
    copy of the stream, advanced to counter offset r << 64."""
    out = np.empty((count,) + shape.dims)
    for r in range(count):
        gen = generator(seed, *stream)
        gen.bit_generator.advance(r << 64)
        out[r] = gen.standard_normal(shape.dims)
    return out


def whole_chunk_neg_min_eta(op, samples, seed):
    """-min eta drawn and solved one whole chunk at a time, replicate r at
    position r % CHUNK_REPLICATES of chunk r // CHUNK_REPLICATES."""
    shape = op.shape
    out = np.empty(samples)
    for chunk_index, first in enumerate(range(0, samples, CHUNK_REPLICATES)):
        count = min(CHUNK_REPLICATES, samples - first)
        eta = op.solve(reference_normals(seed, shape, count, (1, chunk_index)))
        out[first : first + count] = -eta.reshape(count, -1).min(axis=1)
    return out


@pytest.mark.parametrize("kind, d, n, samples, alpha", [
    ("nn", 3, 64, 20, None),   # one chunk of 20 replicates, blocks of 1
    ("nn", 2, 512, 9, None),   # one chunk of 9, blocks of 1
    ("lr", 2, 300, 50, 1.0),   # one chunk of 50, blocks of 2
])
def test_sub_batched_mean_odometer_equals_whole_chunks(kind, d, n, samples, alpha):
    op = OperatorSpec(kind, TorusShape(d, n), alpha=alpha)
    assert SUB_BATCH_SITES // op.shape.nsites < samples
    want = whole_chunk_neg_min_eta(op, samples, 3)
    assert np.array_equal(fieldstats._neg_min_eta_samples(op, samples, 3), want)


@pytest.mark.parametrize("sub_batch_sites, samples", [(64, 300), (200, 259), (10_000, 513)])
def test_sub_batch_boundaries_never_move_a_replicate(monkeypatch, sub_batch_sites, samples):
    # Tiny blocks at d = 2 n = 8: one replicate, three, or a whole chunk
    # at a time, with runs that end inside and just past a chunk.
    op = OperatorSpec.nearest_neighbour(TorusShape(2, 8))
    want = whole_chunk_neg_min_eta(op, samples, 5)
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", sub_batch_sites)
    assert np.array_equal(fieldstats._neg_min_eta_samples(op, samples, 5), want)


@pytest.mark.parametrize("d, n, sub_batch_sites, sizes", [
    (2, 12, 144, [1] * 5),       # one replicate a block
    (2, 12, 500, [3, 2]),        # several, the last block cut short
    (3, 6, 216, [1] * 5),
    (3, 6, 1000, [4, 1]),
])
def test_threaded_neg_min_eta_is_the_serial_solve_of_each_replicate(monkeypatch, d, n, sub_batch_sites, sizes):
    # The helper thread draws block i + 1 while block i is solved; every
    # replicate must still be the one replicate_sigma draws, solved alone.
    op = OperatorSpec.nearest_neighbour(TorusShape(d, n))
    iid = SigmaSpec.iid_gaussian()
    samples = sum(sizes)
    want = np.array([-op.solve(replicate_sigma(iid, op.shape, 7, r)).min() for r in range(samples)])
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", sub_batch_sites)
    assert [len(b) for _, b in replicate_blocks(iid, op.shape, 7, samples)] == sizes
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as the interpreter allows
    try:
        got = fieldstats._neg_min_eta_samples(op, samples, 7)
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(got, want)


def test_each_draw_starts_once_the_block_before_is_dropped(monkeypatch):
    # Block i + 1 takes block i's place: the helper starts drawing it only
    # after block i is transformed and no reference to it is left.
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", 64)
    drawn, alive_at_draw = [], []
    real = sampling.sigma_chunk

    def tracked(*args, **kwargs):
        alive_at_draw.extend(ref() is not None for ref in drawn)
        block = real(*args, **kwargs)
        drawn.append(weakref.ref(block))
        return block

    monkeypatch.setattr(sampling, "sigma_chunk", tracked)
    fieldstats._neg_min_eta_samples(OperatorSpec.nearest_neighbour(TorusShape(2, 8)), 5, 0)
    assert len(drawn) == 5
    assert not any(alive_at_draw)


def test_mean_odometer_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", 64)
    before = threading.active_count()
    mean_odometer_curve("nn", 2, (8, 16), 5, seed=0)
    assert threading.active_count() == before


@pytest.mark.parametrize("module, name", [(sampling, "sigma_chunk"), (fieldstats, "half_grid_inverse")])
def test_a_failure_on_either_thread_reaches_the_caller(monkeypatch, module, name):
    # The second draw runs on the helper thread, the second solve on the
    # caller's while the third block is drawn.  Either failure comes out of
    # mean_odometer_curve as the same exception, and the helper is joined.
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", 64)
    err = RuntimeError(f"{name} failed")
    threads = []
    real = getattr(module, name)

    def second_call_fails(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise err
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, second_call_fails)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        mean_odometer_curve("nn", 2, (8, 16), 5, seed=0)
    assert caught.value is err
    assert threads[0] is threading.current_thread()
    assert (threads[1] is threading.current_thread()) == (name == "half_grid_inverse")
    assert threading.active_count() == before


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([16, 1000, 4096, 4097, 8192, 9216, 16384, 20000]),
       seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(1, 39), min_size=1, max_size=8))
def test_pairings_do_not_depend_on_row_grouping(m, seed, cuts):
    # Rows longer than 8192 sites are where a whole-row einsum regroups sums.
    rng = np.random.default_rng(seed)
    rows, k = rng.standard_normal((40, m)), rng.standard_normal(m)
    bounds = sorted({0, 40, *cuts})
    split = [fieldstats._pairings(rows[a:b], k) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(split), fieldstats._pairings(rows, k))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 9), delta=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_filtered_vector_pairings_equal_filtered_field_pairings(d, n, delta, seed):
    # Colored noise pairs its raw draws with F k; the reference pairs k with
    # the filtered fields of sigma_chunk, over two chunks, the last one cut.
    shape = TorusShape(d, n)
    spec = SigmaSpec.correlated_gaussian(power_law_multiplier(shape, -4.0 * delta))
    k = np.random.default_rng(seed).standard_normal(shape.nsites)
    samples = CHUNK_REPLICATES + 5
    fields = np.concatenate([sigma_chunk(spec, shape, seed, c) for c in range(2)])[:samples]
    want = fieldstats._pairings(fields.reshape(samples, -1), k)
    (got,) = fieldstats._pairing_samples(spec, shape, seed, samples, [k])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mean_odometer_memory_is_a_few_sub_batches():
    # The 8 replicates come as one block of 8 at n = 32 and as blocks of 1
    # at n = 64.  Drawing and solving each chunk whole traced 51.5 MiB.  Block
    # by block, with the next block drawn on the helper thread, it traces
    # 7.1 MiB, as the serial walk did: a 2 MiB block of noise, the 2 MiB of
    # coefficients and 2 MiB of potentials of the block before it, and the
    # 1 MiB symbol.
    tracemalloc.start()
    try:
        mean_odometer_curve("nn", 3, [32, 64], 8, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * SUB_BATCH_SITES * 8


def test_pairing_memory_is_bounded_by_the_block_not_the_chunk(monkeypatch):
    # With 4096-site blocks a 64 x 64 run holds one replicate of noise at a
    # time: about 0.3 MiB traced, where whole 256-replicate chunks traced
    # 9.4 MiB (variance) and 24 MiB (charfun).
    monkeypatch.setattr(sampling, "SUB_BATCH_SITES", 4096)
    f = Wave.cosine((1, 0))
    runs = [
        lambda: run_variance_experiment(ScalingMode("nn-ind"), (f,), (32, 64), 300),
        lambda: run_charfun_experiment(1.0, (f,), TorusShape(2, 64), 300),
    ]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
