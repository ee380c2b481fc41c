"""Toppling dynamics: conservation, order independence, explosion detection."""

from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from sandlab import TorusShape, LatticeField, OperatorSpec, toppling
from sandlab._util import generator
from sandlab.sampling import SigmaSpec, make_initial_config, sample_sigma
from sandlab.toppling import (
    SandpileState,
    StabilizationReport,
    density_probe,
    sequential_topple_pass,
    stabilize,
    stabilize_sequential,
    stabilize_stack,
)


def peaked_state(n=5, peak=5.0, background=1.0):
    # background < 1 keeps total mass below the site count so the
    # configuration is genuinely stabilizable.
    shape = TorusShape(2, n)
    s = np.full((n, n), background)
    s[n // 2, n // 2] = peak
    return SandpileState.initial(OperatorSpec.nearest_neighbour(shape), LatticeField(shape, s))


def critical_peak(n, peak):
    # A peak on a background of ones, and a hole at the corner, away from the
    # peak's neighbours, that brings the total mass to exactly the site count:
    # stabilize then steps instead of certifying an explosion.
    state = peaked_state(n=n, peak=peak)
    s = state.s.values.copy()
    s[0, 0] -= peak - 1.0
    return SandpileState.initial(state.op, LatticeField(state.s.shape, s))


def test_single_parallel_step_worked_example():
    # Height 5 on a background of ones: the peak emits its excess of 4,
    # one unit to each lattice neighbour, and keeps exactly the threshold.
    state = critical_peak(n=5, peak=5.0)
    after, _ = stabilize(state, step_limit=1)
    v = after.s.values
    c = 2
    assert v[c, c] == pytest.approx(1.0)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert v[c + dx, c + dy] == pytest.approx(2.0)
    assert after.u.values[c, c] == pytest.approx(4.0)
    assert np.count_nonzero(after.u.values) == 1


def test_stable_config_is_fixed_point():
    shape = TorusShape(2, 4)
    s = LatticeField(shape, np.full((4, 4), 0.9))
    state = SandpileState.initial(OperatorSpec.nearest_neighbour(shape), s)
    final, report = stabilize(state)
    assert report.status == "stabilized"
    assert report.steps == 0
    assert np.array_equal(final.s.values, s.values)
    assert np.all(final.u.values == 0.0)


def test_mass_conservation_under_steps():
    state = critical_peak(n=7, peak=9.0)
    total = state.s.values.sum()
    for _ in range(25):
        state, report = stabilize(state, step_limit=1)
        assert report.steps == 1
        assert abs(state.s.values.sum() - total) < 1e-10


def test_stabilize_reaches_tolerance():
    state = peaked_state(n=7, peak=3.0, background=0.9)
    final, report = stabilize(state)
    assert report.status == "stabilized"
    # the default tolerance bounds total excess relative to the site count
    assert report.total_excess <= 1e-10 * state.s.shape.nsites
    assert np.all(final.s.values <= 1.0 + 1e-9)
    assert report.steps > 0


def test_parallel_and_sequential_agree():
    # Abelian property: the limit does not depend on the toppling schedule.
    shape = TorusShape(2, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    sigma = sample_sigma(SigmaSpec.iid_gaussian(), shape, 13)
    s = make_initial_config(LatticeField(shape, 0.2 * (sigma.values - sigma.values.mean())))
    par, prep = stabilize(SandpileState.initial(op, s))
    assert prep.status == "stabilized"

    rng = np.random.default_rng(0)
    for _ in range(2):
        order = rng.permutation(shape.nsites)
        seq, srep = stabilize_sequential(SandpileState.initial(op, s), order)
        assert srep.status == "stabilized"
        assert np.max(np.abs(seq.u.values - par.u.values)) < 1e-7
        assert np.max(np.abs(seq.s.values - par.s.values)) < 1e-7


def test_sequential_pass_only_topples_listed_sites():
    state = peaked_state()
    flat_peak = 2 * 5 + 2
    untouched = sequential_topple_pass(state, np.array([0, 1, 2]))
    assert np.array_equal(untouched.s.values, state.s.values)
    touched = sequential_topple_pass(state, np.array([flat_peak]))
    assert touched.s.values[2, 2] == pytest.approx(1.0)


def test_uniform_supercritical_explodes():
    # Mass above one per site everywhere can never stabilize; the mass test
    # certifies this long before the step limit.
    shape = TorusShape(2, 8)
    s = LatticeField(shape, np.full((8, 8), 1.1))
    state = SandpileState.initial(OperatorSpec.nearest_neighbour(shape), s)
    _, report = stabilize(state)
    assert report.status == "exploded"
    assert report.steps <= 10


def test_explosion_certificate_on_long_range():
    shape = TorusShape(1, 16)
    s = LatticeField(shape, np.full(16, 1.05))
    state = SandpileState.initial(OperatorSpec.long_range(shape, 1.0), s)
    _, report = stabilize(state)
    assert report.status == "exploded"


def test_step_limit_reported():
    state = peaked_state(n=31, peak=40.0, background=0.5)
    _, report = stabilize(state, step_limit=3)
    assert report.status == "step-limit"
    assert report.steps == 3


def test_density_probe_phase_split():
    shape = TorusShape(2, 8)
    low = density_probe(0.8, shape, trials=5, seed=0)
    assert low.fraction_stabilized == 1.0
    assert low.mean_odometer == 0.0  # no site ever crosses the threshold
    high = density_probe(1.2, shape, trials=5, seed=0)
    assert high.fraction_stabilized == 0.0
    # near-critical from below: toppling happens yet every trial settles
    mid = density_probe(0.97, shape, trials=5, seed=0, noise_scale=0.05)
    assert mid.fraction_stabilized == 1.0
    assert mid.mean_odometer > 0.0


def test_odometer_field_solves_balance_equation():
    # After stabilization s_final = s + Delta u holds site by site.
    state = critical_peak(n=5, peak=2.5)
    final, report = stabilize(state)
    assert report.status == "stabilized"
    lhs = final.s.values
    rhs = state.s.values + final.op.apply(final.u).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- reference engine ------------------------------------------------------
# A frozen copy of the roll-based step and stepping loop that the in-place
# engine replaced.  The engine must reproduce it bit for bit.

def reference_excess(values):
    return np.clip(values - 1.0, 0.0, None)


def reference_apply_generator(op, e):
    if op.kind == "nn":
        d = op.shape.d
        acc = np.zeros_like(e)
        for axis in range(d):
            acc += np.roll(e, 1, axis=axis)
            acc += np.roll(e, -1, axis=axis)
        return acc / (2.0 * d) - e
    # Frozen half-grid step: rfftn, multiply by lambda = p^ - 1 on the half
    # grid, irfftn.  It replaced the full-grid ifftn(fftn(e) * fftn(p)).real - e,
    # which differs from it by rounding only.
    n, dims = op.shape.n, op.shape.dims
    return scipy.fft.irfftn(scipy.fft.rfftn(e) * op.eigenvalues()[..., : n // 2 + 1], s=dims)


def reference_stabilize(state, tol=None, step_limit=500_000):
    shape = state.op.shape
    if tol is None:
        tol = 1e-10 * shape.nsites
    s = state.s.values.copy()
    u = state.u.values.copy()
    steps = 0
    while True:
        e = reference_excess(s)
        total = float(e.sum())
        if total <= tol:
            status = "stabilized"
            break
        if steps >= step_limit:
            status = "step-limit"
            break
        s += reference_apply_generator(state.op, e)
        u += e
        steps += 1
    e = reference_excess(s)
    return s, u, StabilizationReport(status, steps, float(e.max()), float(e.sum()))


# n = 2 is the smallest torus (TorusShape needs n >= 2); there the +1 and -1
# neighbours along an axis are the same site.
ENGINE_CASES = [("nn", d, n) for d in (1, 2, 3) for n in (2, 3, 5, 8)] + [
    ("lr", d, n) for d in (1, 2) for n in range(2, 9)
]


@st.composite
def toppling_configs(draw):
    kind, d, n = draw(st.sampled_from(ENGINE_CASES))
    shape = TorusShape(d, n)
    if kind == "nn":
        op = OperatorSpec.nearest_neighbour(shape)
    else:
        op = OperatorSpec.long_range(shape, draw(st.sampled_from([0.5, 1.0, 2.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.floats(0.05, 3.0)) * rng.standard_normal(shape.dims)
    # critical: mass exactly nsites up to rounding; subcritical: mass lowered
    deficit = draw(st.sampled_from([0.0, 0.01, 0.3]))
    s = 1.0 - deficit + (noise - noise.mean())
    return SandpileState.initial(op, LatticeField(shape, s))


@settings(max_examples=80, deadline=None)
@given(state=toppling_configs(), step_limit=st.integers(0, 400))
def test_engine_is_bit_identical_to_reference(state, step_limit):
    s_ref, u_ref, report_ref = reference_stabilize(state, step_limit=step_limit)
    final, report = stabilize(state, step_limit=step_limit)
    assert report == report_ref
    assert np.array_equal(final.s.values, s_ref)
    assert np.array_equal(final.u.values, u_ref)

    # One step: every unstable site topples at once, unless the excess is
    # already within the default tolerance.
    e = reference_excess(state.s.values)
    one, one_report = stabilize(state, step_limit=1)
    if e.sum() > 1e-10 * state.op.shape.nsites:
        assert one_report.steps == 1
        assert np.array_equal(one.s.values, state.s.values + reference_apply_generator(state.op, e))
        assert np.array_equal(one.u.values, state.u.values + e)
    else:
        assert one_report.steps == 0
        assert np.array_equal(one.s.values, state.s.values)


def test_sequential_lr_pass_matches_roll_form():
    shape = TorusShape(2, 6)
    op = OperatorSpec.long_range(shape, 1.0)
    s0 = make_initial_config(sample_sigma(SigmaSpec.iid_gaussian(), shape, 9))
    state = SandpileState.initial(op, s0)
    order = np.random.default_rng(2).permutation(shape.nsites)

    s = s0.values.copy()
    u = np.zeros(shape.dims)
    p = op.kernel()
    for x in order:
        idx = np.unravel_index(int(x), shape.dims)
        e = s[idx] - 1.0
        if e <= 0.0:
            continue
        s += e * np.roll(p, idx, axis=(0, 1))
        s[idx] -= e
        u[idx] += e

    after = sequential_topple_pass(state, order)
    assert np.count_nonzero(u) > 0
    assert np.array_equal(after.s.values, s)
    assert np.array_equal(after.u.values, u)


@pytest.mark.parametrize("op", [OperatorSpec.nearest_neighbour(TorusShape(2, 6)),
                                OperatorSpec.long_range(TorusShape(2, 6), 1.0),
                                OperatorSpec.long_range(TorusShape(3, 4), 0.5)])
def test_single_passes_equal_stabilize_sequential_passes(op):
    # k single passes step exactly like k passes of one stabilization.
    shape = op.shape
    state = SandpileState.initial(op, make_initial_config(sample_sigma(SigmaSpec.iid_gaussian(), shape, 4)))
    order = np.random.default_rng(3).permutation(shape.nsites)
    for k in (1, 2, 5):
        stepped = state
        for _ in range(k):
            stepped = sequential_topple_pass(stepped, order)
        run, report = stabilize_sequential(state, order, pass_limit=k)
        assert report.status == "step-limit" and report.steps == k == stepped.t
        assert np.array_equal(stepped.s.values, run.s.values)
        assert np.array_equal(stepped.u.values, run.u.values)


# --- stacked engine --------------------------------------------------------

def reference_outcome(state, tol=None, step_limit=500_000):
    """What one state's stabilization must give: the explosion certificate of
    the mass test, or the frozen reference engine's run."""
    nsites = state.op.shape.nsites
    if tol is None:
        tol = 1e-10 * nsites
    if state.s.values.sum() > nsites + max(tol, 1e-12 * nsites):
        e = reference_excess(state.s.values)
        return state.s.values, state.u.values, StabilizationReport("exploded", 0, float(e.max()), float(e.sum()))
    return reference_stabilize(state, tol, step_limit)


@st.composite
def toppling_stacks(draw):
    kind, d, n = draw(st.sampled_from(ENGINE_CASES + [("lr", 3, n) for n in (2, 3, 4)]))
    shape = TorusShape(d, n)
    if kind == "nn":
        op = OperatorSpec.nearest_neighbour(shape)
    else:
        op = OperatorSpec.long_range(shape, draw(st.sampled_from([0.5, 1.0, 2.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for _ in range(draw(st.integers(1, 5))):
        noise = draw(st.floats(0.05, 3.0)) * rng.standard_normal(shape.dims)
        # critical, subcritical (already stable at 0.3 with little noise), or
        # carrying a surplus that certifies explosion
        offset = draw(st.sampled_from([0.0, 0.0, 0.01, 0.3, -0.05]))
        s = 1.0 - offset + (noise - noise.mean())
        u = rng.random(shape.dims) if draw(st.booleans()) else np.zeros(shape.dims)
        states.append(SandpileState(op, LatticeField(shape, s), LatticeField(shape, u), draw(st.integers(0, 3))))
    return states


@settings(max_examples=60, deadline=None)
@given(states=toppling_stacks(), step_limit=st.sampled_from([0, 1, 7, 30, 200, 500_000]))
def test_stack_is_bit_identical_to_reference(states, step_limit):
    results = list(stabilize_stack(states, step_limit=step_limit))
    assert len(results) == len(states)
    for state, (final, report) in zip(states, results):
        s_ref, u_ref, report_ref = reference_outcome(state, step_limit=step_limit)
        assert report == report_ref
        assert np.array_equal(final.s.values, s_ref)
        assert np.array_equal(final.u.values, u_ref)
        assert final.t == state.t + report.steps
        if report.status == "exploded":
            assert final is state


def test_stack_mixes_every_outcome():
    # One stack in which replicates stabilize at different steps, one hits the
    # step limit and one explodes by the mass test.
    shape = TorusShape(2, 6)
    op = OperatorSpec.nearest_neighbour(shape)
    rng = np.random.default_rng(4)
    states = []
    for offset, amplitude in ((0.3, 0.01), (0.05, 0.3), (0.0, 0.5), (-0.1, 0.1), (0.02, 1.0), (0.1, 0.3), (0.2, 0.5)):
        z = rng.standard_normal(shape.dims)
        s = 1.0 - offset + amplitude * (z - z.mean())
        states.append(SandpileState.initial(op, LatticeField(shape, s)))
    step_limit = 500
    results = list(stabilize_stack(states, step_limit=step_limit))
    assert [report.status for _, report in results] == [
        "stabilized", "stabilized", "step-limit", "exploded", "step-limit", "stabilized", "stabilized"]
    assert [report.steps for _, report in results] == [0, 137, 500, 0, 500, 73, 70]
    for state, (final, report) in zip(states, results):
        s_ref, u_ref, report_ref = reference_outcome(state, step_limit=step_limit)
        assert report == report_ref
        assert np.array_equal(final.s.values, s_ref)
        assert np.array_equal(final.u.values, u_ref)


def test_stack_refuses_mixed_operators():
    a = peaked_state(n=5, background=0.5)
    b = SandpileState.initial(OperatorSpec.long_range(a.op.shape, 1.0), a.s)
    with pytest.raises(ValueError, match="share one operator"):
        list(stabilize_stack([a, b]))
    assert list(stabilize_stack([])) == []


def reference_density_probe(density, shape, op=None, trials=20, seed=0, noise_scale=0.01,
                            tol=None, step_limit=500_000):
    # A frozen copy of the per-trial loop that the stacked probe replaced.
    if op is None:
        op = OperatorSpec.nearest_neighbour(shape)
    stabilized = 0
    odometer_sum = 0.0
    for trial in range(trials):
        gen = generator(seed, 7, trial)
        s = density + noise_scale * gen.standard_normal(shape.dims)
        _, u, report = reference_outcome(SandpileState.initial(op, LatticeField(shape, s)), tol, step_limit)
        if report.status == "stabilized":
            stabilized += 1
        odometer_sum += float(u.mean())
    return stabilized / trials, odometer_sum / trials


PROBE_CASES = [("nn", 1, n) for n in (2, 5, 16)] + [("nn", 2, n) for n in (2, 3, 6)] + [
    ("nn", 3, n) for n in (2, 4)] + [("lr", 1, 8), ("lr", 2, 4)]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(PROBE_CASES),
    density=st.sampled_from([0.9, 0.99, 1.0, 1.01]),
    noise_scale=st.sampled_from([0.01, 0.05, 0.3]),
    trials=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    step_limit=st.sampled_from([3, 50, 500_000]),
    cap=st.sampled_from([1, 16, 100, 1 << 20]),
)
@example(case=("nn", 2, 6), density=1.0, noise_scale=0.05, trials=12, seed=0, step_limit=500_000, cap=100)
def test_density_probe_matches_per_trial_loop(case, density, noise_scale, trials, seed, step_limit, cap):
    kind, d, n = case
    shape = TorusShape(d, n)
    op = OperatorSpec.nearest_neighbour(shape) if kind == "nn" else OperatorSpec.long_range(shape, 1.0)
    # A lowered cap splits the trials over several stacks; no result may move.
    stacks = []
    engine = toppling._stabilize_stack

    def recording(op, s, u, tol, step_limit):
        stacks.append(len(s))
        return engine(op, s, u, tol, step_limit)

    with mock.patch.object(toppling, "STACK_SITES", cap), mock.patch.object(toppling, "_stabilize_stack", recording):
        result = density_probe(density, shape, op=op, trials=trials, seed=seed,
                               noise_scale=noise_scale, step_limit=step_limit)
    fraction, mean = reference_density_probe(density, shape, op, trials, seed, noise_scale, step_limit=step_limit)
    assert result.fraction_stabilized == fraction
    assert result.mean_odometer == mean
    assert all(size <= max(1, cap // shape.nsites) for size in stacks)


def test_density_probe_exploded_trials_add_zero_in_order():
    # At density 1 with wide noise some trials explode; they count as 0 and
    # the sum still runs in trial order, so the mean is bit-identical.
    shape = TorusShape(2, 6)
    result = density_probe(1.0, shape, trials=20, seed=3, noise_scale=0.3)
    fraction, mean = reference_density_probe(1.0, shape, trials=20, seed=3, noise_scale=0.3)
    assert 0.0 < result.fraction_stabilized < 1.0
    assert result.fraction_stabilized == fraction
    assert result.mean_odometer == mean


def reference_neighbour_index_table(shape):
    coords = np.stack(
        np.meshgrid(*[np.arange(shape.n)] * shape.d, indexing="ij"), axis=-1
    ).reshape(-1, shape.d)
    cols = []
    for axis in range(shape.d):
        for step in (1, -1):
            shifted = coords.copy()
            shifted[:, axis] = (shifted[:, axis] + step) % shape.n
            cols.append(np.ravel_multi_index(shifted.T, shape.dims))
    return np.stack(cols, axis=1)


def reference_nn_sequential_pass(state, order):
    # A frozen copy of the numpy-scalar loop, and of its neighbour table, that
    # the list-based pass replaced.
    shape = state.op.shape
    sf = state.s.values.copy().reshape(-1)
    uf = state.u.values.copy().reshape(-1)
    neigh = reference_neighbour_index_table(shape)
    share = 1.0 / (2.0 * shape.d)
    for x in np.asarray(order, dtype=np.int64):
        e = sf[x] - 1.0
        if e <= 0.0:
            continue
        sf[x] -= e
        np.add.at(sf, neigh[x], e * share)
        uf[x] += e
    return sf.reshape(shape.dims), uf.reshape(shape.dims)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), repeats=st.booleans())
def test_sequential_nn_pass_matches_numpy_loop(d, n, seed, repeats):
    shape = TorusShape(d, n)
    rng = np.random.default_rng(seed)
    s = 1.0 + 0.5 * rng.standard_normal(shape.dims)
    u = rng.random(shape.dims)
    state = SandpileState(OperatorSpec.nearest_neighbour(shape), LatticeField(shape, s), LatticeField(shape, u))
    order = rng.integers(0, shape.nsites, 3 * shape.nsites) if repeats else rng.permutation(shape.nsites)
    s_ref, u_ref = reference_nn_sequential_pass(state, order)
    after = sequential_topple_pass(state, order)
    assert np.array_equal(after.s.values, s_ref)
    assert np.array_equal(after.u.values, u_ref)
    assert after.t == state.t + 1
