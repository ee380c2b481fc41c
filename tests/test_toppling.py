"""Toppling dynamics: conservation, order independence, explosion detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandlab import TorusShape, LatticeField, OperatorSpec
from sandlab.sampling import SigmaSpec, make_initial_config, sample_sigma
from sandlab.toppling import (
    SandpileState,
    StabilizationReport,
    density_probe,
    sequential_topple_pass,
    stabilize,
    stabilize_sequential,
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
    p = op.kernel()
    conv = np.fft.ifftn(np.fft.fftn(e) * np.fft.fftn(p)).real
    return conv - e


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
