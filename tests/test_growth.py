"""Growth models from a point source and the continuum obstacle picture."""

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandlab import growth
from sandlab._util import axis_sum, generator
from sandlab.growth import (
    AggregateSet,
    BoundaryTouchError,
    continuum_obstacle_solve,
    default_box_radius,
    idla_aggregate,
    point_source_sandpile,
    rotor_router_aggregate,
    shape_metrics,
)


def as_tuples(agg):
    return sorted(tuple(int(v) for v in p) for p in agg.points())


def contains_origin(agg):
    return bool(agg.occupied[(agg.radius,) * agg.d])


def touches_boundary(agg):
    pts = agg.points()
    return bool(pts.size) and bool(np.max(np.abs(pts)) >= agg.radius)


def test_idla_single_particle_sits_at_origin():
    agg = idla_aggregate(1, 2, seed=0)
    assert agg.count == 1
    assert as_tuples(agg) == [(0, 0)]
    assert contains_origin(agg)


def test_idla_five_particles_d1_interval():
    agg = idla_aggregate(5, 1, seed=0)
    assert as_tuples(agg) == [(-2,), (-1,), (0,), (1,), (2,)]


def test_idla_deterministic_in_seed():
    a = idla_aggregate(200, 2, seed=4)
    b = idla_aggregate(200, 2, seed=4)
    c = idla_aggregate(200, 2, seed=5)
    assert np.array_equal(a.occupied, b.occupied)
    assert not np.array_equal(a.occupied, c.occupied)
    assert a.count == 200


def test_idla_roundness_at_moderate_size():
    agg = idla_aggregate(200, 2, seed=4)
    m = shape_metrics(agg, np.sqrt(200.0 / np.pi))
    assert m.volume == 200
    assert m.ball_deviation < 0.5
    assert m.inradius <= m.outradius


def test_idla_box_touch_raises():
    with pytest.raises(BoundaryTouchError):
        idla_aggregate(500, 2, seed=0, box_radius=3)


def test_rotor_two_particles_frozen():
    agg = rotor_router_aggregate(2, 1)
    assert as_tuples(agg) == [(0,), (1,)]


def test_rotor_seven_particles_d2_frozen():
    # Fully deterministic walk, so the exact cell set is reproducible.
    agg = rotor_router_aggregate(7, 2)
    assert as_tuples(agg) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


def test_rotor_deterministic_and_direction_sensitive():
    a = rotor_router_aggregate(30, 2)
    b = rotor_router_aggregate(30, 2)
    c = rotor_router_aggregate(30, 2, initial_direction=1)
    assert np.array_equal(a.occupied, b.occupied)
    assert not np.array_equal(a.occupied, c.occupied)


def test_rotor_box_touch_raises():
    with pytest.raises(BoundaryTouchError):
        rotor_router_aggregate(500, 2, box_radius=3)


def test_point_source_unit_mass_never_topples():
    res = point_source_sandpile(1.0, 2)
    # one solve drops the origin from the starting ball, and one confirms the empty free set
    assert res.steps == 2
    assert res.aggregate.count == 0
    assert res.final.sum() == 1.0


def test_point_source_five_d1_frozen():
    res = point_source_sandpile(5.0, 1)
    # toppled sites are the interior of the settled interval
    assert as_tuples(res.aggregate) == [(-1,), (0,), (1,)]
    c = res.final.size // 2
    assert np.allclose(res.final[c - 2 : c + 3], 1.0, atol=1e-5)
    assert res.final.sum() == pytest.approx(5.0, abs=1e-12)  # conserved to the bit
    assert res.odometer[c] > res.odometer[c + 1] > 0


def test_point_source_heights_capped():
    res = point_source_sandpile(9.0, 2, tol=1e-8)
    assert res.final.max() <= 1.0 + 1e-8
    assert res.final.sum() == pytest.approx(9.0, abs=1e-10)
    assert contains_origin(res.aggregate)


def test_point_source_rejects_negative_mass():
    with pytest.raises(ValueError):
        point_source_sandpile(-1.0, 2)


def test_default_box_radius_scales():
    assert default_box_radius(5.0, 1) >= 3
    assert default_box_radius(100.0, 2) >= int(np.sqrt(100.0 / np.pi))
    # enough room that the stock runs never touch the edge
    res = point_source_sandpile(25.0, 2)
    assert not touches_boundary(res.aggregate)


def test_shape_metrics_lone_origin():
    agg = idla_aggregate(1, 2, seed=0)
    m = shape_metrics(agg, 0.5)
    assert m.volume == 1
    assert m.inradius == 0.0
    assert m.outradius == 0.0
    assert m.ball_deviation == 0.0


def test_obstacle_solver_disk_source():
    h = 2.0 / 64
    x = (np.arange(65) - 32) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    disk = X**2 + Y**2 < 0.05
    sol = continuum_obstacle_solve(np.where(disk, 8.0, 0.0), h)
    assert sol.residual < 1e-9
    occ = sol.occupied
    # the source region lies inside the occupied set when its density exceeds one
    assert np.all(occ[disk])
    # occupied area tracks the injected mass (unit density in the limit)
    mass = 8.0 * disk.sum() * h * h
    assert abs(sol.area() - mass) / mass < 0.1
    # dihedral symmetry of the data survives the iteration bit for bit
    assert np.array_equal(occ, occ[::-1, :])
    assert np.array_equal(occ, occ[:, ::-1])
    assert np.array_equal(occ, occ.T)
    agg = sol.aggregate()
    assert contains_origin(agg)
    assert not touches_boundary(agg)
    m = shape_metrics(agg, np.sqrt(mass / np.pi) / h)
    assert m.ball_deviation < 0.1


def test_obstacle_solver_zero_source_empty():
    sol = continuum_obstacle_solve(np.zeros((17, 17)), 2.0 / 16)
    assert sol.occupied.sum() == 0
    assert sol.area() == 0.0


def test_obstacle_solver_stops_at_the_step_limit(monkeypatch):
    # Parallel toppling runs at d = 3 only; mass 40 at the centre takes 49 steps.
    monkeypatch.setattr(growth, "OBSTACLE_ITERATIONS", 5)
    with pytest.raises(RuntimeError, match="parallel toppling did not settle in 5 steps; max excess"):
        continuum_obstacle_solve(np.pad([[[40.0]]], 4), 0.25)


def test_active_set_iterations_stop_at_the_limit(monkeypatch):
    # Mass 30 at d = 1 takes 3 iterations from the starting ball.
    assert point_source_sandpile(30.0, 1, step_limit=3).steps == 3
    with pytest.raises(RuntimeError, match="active-set iteration did not settle in 2 iterations"):
        point_source_sandpile(30.0, 1, step_limit=2)
    monkeypatch.setattr(growth, "OBSTACLE_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="active-set iteration did not settle in 1 iterations"):
        continuum_obstacle_solve(np.pad([[4.0]], 8), 0.125)


def test_active_set_cycle_raises_at_once(monkeypatch):
    # A solve that never returns a positive w (as rounding could on a site
    # whose exact w is 0) frees the origin, drops it, frees it again, ...
    # The recurring free set raises long before step_limit.
    monkeypatch.setattr(growth, "_free_set_solve", lambda free, rhs: np.zeros(free.shape))
    with pytest.raises(RuntimeError, match="active-set iteration cycled after 3 iterations"):
        point_source_sandpile(10.0, 2)


@pytest.mark.parametrize("d, mass, box", [(1, 10.0, 3), (2, 50.0, 3), (2, 10.0, 1)])
def test_point_source_box_touch_raises(d, mass, box):
    with pytest.raises(BoundaryTouchError, match=f"increase the box radius beyond {box}"):
        point_source_sandpile(mass, d, box_radius=box)


def test_obstacle_solver_rejects_bad_grid():
    with pytest.raises(ValueError):
        continuum_obstacle_solve(np.zeros((16, 16)), 2.0 / 16)  # even side
    with pytest.raises(ValueError):
        continuum_obstacle_solve(np.zeros((3, 3)), 1.0)  # too small


# Frozen reference engines: plain per-batch and per-step loops.  The engines
# in sandlab.growth must reproduce them bit for bit (same draws, same
# visiting order, same floating-point operations in the same order), which
# is what keeps the growth artifacts byte-stable.


def reference_settle(flat, flat_index, radius, d, side):
    flat[flat_index] = True
    coords = np.array(np.unravel_index(flat_index, (side,) * d)) - radius
    if np.max(np.abs(coords)) >= radius:
        raise BoundaryTouchError(
            f"aggregate reached the box edge at {tuple(int(c) for c in coords)}; "
            f"increase the box radius beyond {radius}"
        )


def reference_offsets(d, side):
    strides = np.array([side**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    dirs = np.zeros((2 * d, d), dtype=np.int64)
    for axis in range(d):
        dirs[2 * axis, axis] = 1
        dirs[2 * axis + 1, axis] = -1
    return dirs @ strides


def reference_idla(particles, d, seed=0, box_radius=None):
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    occupied = np.zeros((side,) * d, dtype=bool)
    flat = occupied.ravel()
    offsets = reference_offsets(d, side)
    origin_flat = (side ** np.arange(d - 1, -1, -1) * radius).sum()
    rng = generator(seed, 11)
    for _ in range(particles):
        pos = int(origin_flat)
        if not flat[pos]:
            reference_settle(flat, pos, radius, d, side)
            continue
        batch = 16
        while True:
            steps = offsets[rng.integers(0, 2 * d, size=batch)]
            trail = pos + np.cumsum(steps)
            free = ~flat[np.clip(trail, 0, flat.size - 1)]
            if free.any():
                reference_settle(flat, int(trail[int(np.argmax(free))]), radius, d, side)
                break
            pos = int(trail[-1])
            batch = min(2 * batch, 1024)
    return occupied


def reference_rotor(particles, d, box_radius=None, initial_direction=0):
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    occupied = np.zeros((side,) * d, dtype=bool)
    flat = occupied.ravel()
    rotors = np.full(side**d, initial_direction, dtype=np.int8)
    offsets = [int(o) for o in reference_offsets(d, side)]
    origin_flat = int((side ** np.arange(d - 1, -1, -1) * radius).sum())
    for _ in range(particles):
        pos = origin_flat
        while flat[pos]:
            r = rotors[pos]
            rotors[pos] = (r + 1) % (2 * d)
            pos += offsets[r]
        reference_settle(flat, pos, radius, d, side)
    return occupied


def reference_ring_active(excess, tol):
    d = excess.ndim
    for axis in range(d):
        for edge in (0, -1):
            idx = [slice(None)] * d
            idx[axis] = edge
            if float(excess[tuple(idx)].max(initial=0.0)) > tol:
                return True
    return False


def reference_zero_ring(excess):
    d = excess.ndim
    for axis in range(d):
        for edge in (0, -1):
            idx = [slice(None)] * d
            idx[axis] = edge
            excess[tuple(idx)] = 0.0


def reference_point_source(mass, d, box_radius=None, tol=1e-6, step_limit=2_000_000):
    radius = default_box_radius(max(mass, 1.0), d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    s = np.zeros((side,) * d)
    u = np.zeros_like(s)
    s[(radius,) * d] = mass
    share = 1.0 / (2 * d)
    window = 1
    steps = 0
    while True:
        sl = tuple(slice(radius - window, radius + window + 1) for _ in range(d))
        win = s[sl]
        excess = np.maximum(win - 1.0, 0.0)
        if float(excess.max()) <= tol:
            break
        if reference_ring_active(excess, tol):
            if window >= radius:
                raise BoundaryTouchError(
                    f"excess reached the box edge; increase the box radius beyond {radius}"
                )
            window += 1
            continue
        reference_zero_ring(excess)
        win -= excess
        for axis in range(d):
            src_lo = [slice(None)] * d
            src_hi = [slice(None)] * d
            dst_lo = [slice(None)] * d
            dst_hi = [slice(None)] * d
            src_lo[axis] = slice(0, -1)
            dst_lo[axis] = slice(1, None)
            src_hi[axis] = slice(1, None)
            dst_hi[axis] = slice(0, -1)
            win[tuple(dst_lo)] += share * excess[tuple(src_lo)]
            win[tuple(dst_hi)] += share * excess[tuple(src_hi)]
        u[sl] += excess
        steps += 1
        if steps > step_limit:
            raise RuntimeError(
                f"parallel toppling did not settle in {step_limit} steps; max excess {excess.max():.3e}"
            )
    return s, u, steps


def reference_obstacle_sweeps(gamma):
    """The monotone relaxation of continuum_obstacle_solve, from its obstacle."""
    d = gamma.ndim
    stop = 1e-10 * float(np.max(np.abs(gamma)))
    v = np.full_like(gamma, float(gamma.max()))
    boundary_mask = np.zeros_like(gamma, dtype=bool)
    for k in range(d):
        idx = [slice(None)] * d
        idx[k] = 0
        boundary_mask[tuple(idx)] = True
        idx[k] = -1
        boundary_mask[tuple(idx)] = True
    v[boundary_mask] = gamma[boundary_mask]
    interior = tuple(slice(1, -1) for _ in range(d))
    share = 1.0 / (2 * d)
    it = 0
    while True:
        it += 1
        avg = None
        for k in range(d):
            lo = [slice(1, -1)] * d
            hi = [slice(1, -1)] * d
            lo[k] = slice(0, -2)
            hi[k] = slice(2, None)
            pair = v[tuple(lo)] + v[tuple(hi)]
            avg = pair if avg is None else avg + pair
        candidate = np.maximum(gamma[interior], share * avg)
        residual = float(np.max(v[interior] - candidate))
        v[interior] = candidate
        if residual < stop:
            return v, v > gamma + 10.0 * stop, it, residual


@dataclass(frozen=True)
class Raised:
    error: type
    message: str


def outcome(fn, *args, **kwargs):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except RuntimeError as exc:  # BoundaryTouchError or the step limit
        return Raised(type(exc), str(exc))


# Small boxes make the aggregate touch the edge; None is the default box.
BOXES = st.one_of(st.none(), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), particles=st.integers(1, 400), seed=st.integers(0, 2**31 - 1), box=BOXES)
def test_idla_is_bit_identical_to_reference(d, particles, seed, box):
    ref = outcome(reference_idla, particles, d, seed=seed, box_radius=box)
    new = outcome(idla_aggregate, particles, d, seed=seed, box_radius=box)
    if isinstance(ref, Raised):
        assert new == ref
    else:
        assert np.array_equal(new.occupied, ref)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), particles=st.integers(1, 400), turn=st.integers(0, 5), box=BOXES)
def test_rotor_is_bit_identical_to_reference(d, particles, turn, box):
    initial = turn % (2 * d)
    ref = outcome(reference_rotor, particles, d, box_radius=box, initial_direction=initial)
    new = outcome(rotor_router_aggregate, particles, d, box_radius=box, initial_direction=initial)
    if isinstance(ref, Raised):
        assert new == ref
    else:
        assert np.array_equal(new.occupied, ref)


def test_rotor_matches_reference_for_every_initial_direction():
    for d in (1, 2, 3):
        for initial in range(2 * d):
            agg = rotor_router_aggregate(150, d, initial_direction=initial)
            assert np.array_equal(agg.occupied, reference_rotor(150, d, initial_direction=initial))


# Sizes at which bulk firing does most of the work: the reference walk costs
# about particles^3 steps at d = 1 and particles^1.5 at d = 2.
SEEDED_SIZES = st.one_of(st.tuples(st.just(1), st.integers(1, 200)), st.tuples(st.just(2), st.integers(1, 3000)))


@settings(max_examples=25, deadline=None)
@given(d_particles=SEEDED_SIZES, turn=st.integers(0, 3), box=BOXES)
def test_seeded_rotor_is_bit_identical_to_reference(d_particles, turn, box):
    d, particles = d_particles
    initial = turn % (2 * d)
    ref = outcome(reference_rotor, particles, d, box_radius=box, initial_direction=initial)
    new = outcome(rotor_router_aggregate, particles, d, box_radius=box, initial_direction=initial)
    if isinstance(ref, Raised):
        assert new == ref
        return
    assert np.array_equal(new.occupied, ref)
    if box is None:
        # the certificate holds on the default box, so the bulk path produced the result
        seeded = growth._seeded_rotor(particles, d, default_box_radius(particles, d), initial)
        assert seeded is not None
        assert np.array_equal(seeded, ref)


def test_seeded_rotor_retries_with_a_larger_margin(monkeypatch):
    # An odometer 40 too high overfires by 24 and 8 at margins 16 and 32, which
    # the certificate rejects; margin 64 underfires and certifies.
    exact = growth.point_source_sandpile

    def overshooting(*args, **kwargs):
        res = exact(*args, **kwargs)
        return dataclasses.replace(res, odometer=np.where(res.odometer > 0.0, res.odometer + 40.0, 0.0))

    monkeypatch.setattr(growth, "point_source_sandpile", overshooting)
    radius = default_box_radius(500, 2)
    monkeypatch.setattr(growth, "_SEED_ATTEMPTS", 2)
    assert growth._seeded_rotor(500, 2, radius, 0) is None
    monkeypatch.setattr(growth, "_SEED_ATTEMPTS", 3)
    assert np.array_equal(growth._seeded_rotor(500, 2, radius, 0), reference_rotor(500, 2))


@pytest.mark.parametrize("d, particles", [(1, 11), (2, 15)])
def test_seeded_rotor_falls_back_to_the_walk_when_every_attempt_fails(monkeypatch, d, particles):
    # At margin 0 (doubling keeps it 0) these sizes overfire on every attempt.
    monkeypatch.setattr(growth, "_SEED_MARGIN", 0)
    assert growth._seeded_rotor(particles, d, default_box_radius(particles, d), 0) is None
    assert np.array_equal(rotor_router_aggregate(particles, d).occupied, reference_rotor(particles, d))


def assert_rotor_raises_like_reference(particles, d, box):
    ref = outcome(reference_rotor, particles, d, box_radius=box)
    assert isinstance(ref, Raised)
    assert outcome(rotor_router_aggregate, particles, d, box_radius=box) == ref


def test_seeded_rotor_falls_back_when_the_odometer_reaches_the_box_edge():
    with pytest.raises(BoundaryTouchError):
        point_source_sandpile(500, 2, box_radius=3)
    assert growth._seeded_rotor(500, 2, 3, 0) is None
    assert_rotor_raises_like_reference(500, 2, 3)


@pytest.mark.parametrize("d, particles", [(1, 3), (2, 5)])
def test_seeded_rotor_rejects_bulk_chips_on_the_outer_ring(monkeypatch, d, particles):
    # In the box of radius 1 the origin is the only site off the ring.  The
    # odometer fits (each ring site gets at most one chip), so at margin 0 the
    # origin fires 2d times in bulk, one chip onto each ring neighbour, and
    # keeps one chip: without the ring condition the attempt would be accepted.
    monkeypatch.setattr(growth, "_SEED_MARGIN", 0)
    u = point_source_sandpile(particles, d, box_radius=1).odometer
    assert u[(1,) * d] == particles - 1
    assert growth._seeded_rotor(particles, d, 1, 0) is None
    assert_rotor_raises_like_reference(particles, d, 1)


def test_seeded_rotor_rejects_a_walker_on_the_outer_ring():
    # The odometer of 20 chips fits the box of radius 10 at d = 1, but the
    # rotor walk reaches the ring: bulk firing stops short of it and a walker
    # settles there.
    point_source_sandpile(20, 1, box_radius=10)
    assert growth._seeded_rotor(20, 1, 10, 0) is None
    assert_rotor_raises_like_reference(20, 1, 10)


def rotor_firings(particles, d):
    """Firing count per site of the one-by-one rotor walk on the default box, and its occupied set."""
    side = 2 * default_box_radius(particles, d) + 1
    offsets = reference_offsets(d, side)
    occupied = np.zeros(side**d, dtype=bool)
    fires = np.zeros(side**d, dtype=np.int64)
    for _ in range(particles):
        pos = side**d // 2
        while occupied[pos]:
            step = offsets[fires[pos] % (2 * d)]
            fires[pos] += 1
            pos += step
        occupied[pos] = True
    return fires.reshape((side,) * d), occupied.reshape((side,) * d)


def test_seeded_rotor_accepts_the_rotor_odometer_and_rejects_one_firing_more(monkeypatch):
    d, particles = 2, 200
    radius = default_box_radius(particles, d)
    fires, occupied = rotor_firings(particles, d)
    seed = [fires]
    monkeypatch.setattr(growth, "_SEED_MARGIN", 0)
    monkeypatch.setattr(growth, "point_source_sandpile", lambda *a, **k: SimpleNamespace(odometer=seed[0] + 0.0))
    # every chip fires in bulk and the counts are the walk's
    assert np.array_equal(growth._seeded_rotor(particles, d, radius, 0), occupied)
    # One more firing at a site whose rotor points off the aggregate moves its
    # chip out: every count stays 0 or 1, but a fired site ends empty.
    offsets = reference_offsets(d, 2 * radius + 1)
    site = next(x for x in np.flatnonzero(fires) if not occupied.flat[x + offsets[fires.flat[x] % (2 * d)]])
    seed[0] = fires.copy()
    seed[0].flat[site] += 1
    assert growth._seeded_rotor(particles, d, radius, 0) is None


EPS = np.finfo(np.float64).eps


def box_laplacian(w):
    """Neighbour average minus identity, reading 0 outside the box."""
    d = w.ndim
    padded = np.pad(w, 1)
    total = sum(np.roll(padded, shift, axis)[(slice(1, -1),) * d] for axis in range(d) for shift in (1, -1))
    return total / (2 * d) - w


def ring_mask(side, d):
    return np.pad(np.zeros((side - 2,) * d, dtype=bool), 1, constant_values=True)


def assert_solves_point_source_lcp(res, mass, tol):
    """u >= 0, heights at most one (1 + tol on the edge), equal to one where u > 0, mass kept."""
    u, final = res.odometer, res.final
    d, side = u.ndim, u.shape[0]
    ring = ring_mask(side, d)
    assert u.min() >= 0.0 and not u[ring].any()
    assert final[~ring].max() <= 1.0 and final.max() <= 1.0 + tol
    assert np.all(final[u > 0.0] == 1.0)
    s0 = np.zeros_like(u)
    s0[(side // 2,) * d] = mass
    # Backward-stable row solves leave a residual of at most a few eps times
    # the unknowns' count and size.
    rounding = u.size * EPS * max(1.0, float(u.max()))
    assert np.abs(s0 + box_laplacian(u) - final).max() <= rounding
    assert abs(float(final.sum()) - mass) <= 1e-9 * mass
    assert np.array_equal(res.aggregate.occupied, u > 0.0)


def toppling_gap(u, tol, steps):
    """How far the exact odometer may lie above toppling's once every excess is at most tol.

    Toppling moves only legal excess, so its odometer never exceeds the exact
    one.  Stabilizing the left-over excess (at most tol per site) adds at most
    tol times the box's expected exit time, which is at most d * radius**2.
    The rounding terms cover the toppling's steps and the row solve.
    """
    d, radius = u.ndim, (u.shape[0] - 1) // 2
    rounding = (steps + u.size) * EPS * max(1.0, float(u.max()))
    return tol * d * radius**2 + rounding, rounding


def assert_matches_toppling(res, u_ref, steps_ref, tol):
    u = res.odometer
    gap, rounding = toppling_gap(u, tol, steps_ref)
    assert np.all(u_ref <= u + rounding)
    assert np.all(u - u_ref <= gap)
    # so the occupied sets differ only where the exact odometer is within the gap of 0
    differ = res.aggregate.occupied != (u_ref > 0.0)
    assert np.all(u[differ] <= gap)


def ball_source(d, cells, ball, height):
    h = 1.0 / cells
    axis = (np.arange(2 * cells + 1) - cells) * h
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.where(sum(m * m for m in mesh) <= ball * ball, height, 0.0), h


def assert_solves_obstacle_lcp(sol):
    """v >= gamma, v = gamma on the edge, L v <= 0, and L v = 0 where v > gamma.

    L v = h^2 (heights - 1), so toppling (d = 3), which leaves every excess
    at most stop / h^2, may leave L v up to stop = 1e-10 max|gamma|.
    """
    v, gamma = sol.v, sol.gamma
    ring = ring_mask(gamma.shape[0], sol.d)
    assert np.array_equal(v[ring], gamma[ring])
    assert np.all(v >= gamma)
    lap = box_laplacian(v)[~ring]
    scale = float(np.max(np.abs(gamma)))
    slack = v.size * EPS * scale + (1e-10 * scale if sol.d == 3 else 0.0)
    assert lap.max() <= slack
    assert np.abs(lap[(v > gamma)[~ring]]).max(initial=0.0) <= slack
    assert sol.residual <= slack


def obstacle_gamma(source, h):
    """continuum_obstacle_solve's obstacle, for grids on which it raises."""
    d, radius = source.ndim, source.shape[0] // 2
    mesh = np.meshgrid(*([np.arange(-radius, radius + 1.0)] * d), indexing="ij")
    return -(h * h) * sum(m * m for m in mesh) + growth._dirichlet_poisson(h * h * source)


def assert_outcome_matches_sweeps(source, h):
    """Compare the solver with the Jacobi oracle, which stops once a sweep moves v by less than stop.

    Jacobi approaches v from above.  Its last sweep's change is below stop,
    so its error e obeys (identity - neighbour average) e <= stop and is at
    most stop times the box's expected exit time, d * radius**2.  At d <= 2
    the solver is exact.  At d = 3 it topples from below until every excess
    is at most stop / h^2, so it lies below the exact v by at most the same
    bound again.  Both call a site occupied when v - gamma exceeds 10 * stop,
    so their occupied sets can differ only where v - gamma lies within the
    gap of that threshold.

    The solver raises BoundaryTouchError exactly when an edge height
    source + L u, u = (v - gamma) / h^2, exceeds 1 + stop / h^2.  An edge
    height is a 1 / (2d) share of the u next to it, so the oracle's edge
    heights must exceed that limit, within the gap / h^2, exactly when the
    solver raises.
    """
    new = outcome(continuum_obstacle_solve, source, h)
    solved = not isinstance(new, Raised)
    gamma = new.gamma if solved else obstacle_gamma(source, h)
    v_ref, occupied_ref, sweeps, _ = reference_obstacle_sweeps(gamma)
    d, radius = gamma.ndim, (gamma.shape[0] - 1) // 2
    scale = float(np.max(np.abs(gamma)))
    stop = 1e-10 * scale
    rounding = (sweeps + (new.iterations if solved else 0) + gamma.size) * EPS * scale
    gap = stop * d * radius**2 * (2 if d == 3 else 1) + rounding
    ring = ring_mask(gamma.shape[0], d)
    edge = float((source + box_laplacian((v_ref - gamma) / (h * h)))[ring].max())
    if not solved:
        assert new.error is BoundaryTouchError
        assert new.message.endswith(f"increase the box beyond {radius * h:g}")
        assert edge > 1.0 + (stop - rounding) / (h * h)
        return
    assert edge <= 1.0 + (stop + gap) / (h * h)
    assert_solves_obstacle_lcp(new)
    assert np.all(v_ref >= new.v - rounding)
    assert np.all(v_ref - new.v <= gap)
    differ = new.occupied != occupied_ref
    assert np.all(np.abs((new.v - gamma)[differ] - 10.0 * stop) <= gap)
    return new, occupied_ref, sweeps


@settings(max_examples=60, deadline=None)
@given(
    d_mass=st.integers(1, 2).flatmap(
        lambda d: st.tuples(st.just(d), st.floats(0.0, (40.0, 150.0)[d - 1]))),
    tol=st.sampled_from([0.0, 1e-2, 1e-6, 1e-9]),
    box=BOXES,
)
def test_point_source_solves_the_lcp_and_matches_toppling(d_mass, tol, box):
    d, mass = d_mass
    ref_tol = tol or 1e-9  # toppling to tol 0 never settles
    new = outcome(point_source_sandpile, mass, d, box_radius=box, tol=tol)
    ref = outcome(reference_point_source, mass, d, box_radius=box, tol=ref_tol)
    if isinstance(ref, Raised):
        # the box edge: toppling's edge heights never exceed the exact ones
        assert new == ref
        return
    s_ref, u_ref, steps_ref = ref
    if isinstance(new, Raised):
        # the exact edge height passes 1 + tol; toppling's must lie within the gap of it
        assert new.error is BoundaryTouchError
        gap, _ = toppling_gap(u_ref, ref_tol, steps_ref)
        assert s_ref[ring_mask(s_ref.shape[0], d)].max() > 1.0 + tol - gap
        return
    assert_solves_point_source_lcp(new, mass, tol)
    assert_matches_toppling(new, u_ref, steps_ref, ref_tol)


@settings(max_examples=80, deadline=None)
@given(
    mass=st.floats(0.0, 100.0),
    tol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]),
    box=BOXES,
    step_limit=st.sampled_from([3, 40, 2_000_000]),
)
def test_point_source_is_bit_identical_to_reference(mass, tol, box, step_limit):
    # Parallel toppling runs at d = 3 only.
    ref = outcome(reference_point_source, mass, 3, box_radius=box, tol=tol, step_limit=step_limit)
    new = outcome(point_source_sandpile, mass, 3, box_radius=box, tol=tol, step_limit=step_limit)
    if isinstance(ref, Raised):
        assert new == ref
        return
    s, u, steps = ref
    assert new.steps == steps
    assert np.array_equal(new.final, s)
    assert np.array_equal(new.odometer, u)
    assert np.array_equal(new.aggregate.occupied, u > 0.0)


@pytest.mark.parametrize("d, mass", [(1, 30.0), (2, 150.0), (3, 200.0)])
def test_point_source_matches_reference_at_moderate_masses(d, mass):
    s, u, steps = reference_point_source(mass, d)
    res = point_source_sandpile(mass, d)
    assert steps > 50
    if d == 3:
        assert res.steps == steps
        assert np.array_equal(res.final, s)
        assert np.array_equal(res.odometer, u)
    else:
        assert res.steps <= 3  # active-set iterations from the starting ball
        assert_solves_point_source_lcp(res, mass, 1e-6)
        assert_matches_toppling(res, u, steps, 1e-6)
        assert np.array_equal(res.aggregate.occupied, u > 0.0)


@pytest.mark.parametrize("tol, frozen_steps", [(1e-6, 13041), (1e-2, 4955)])
def test_point_source_matches_reference_at_the_benchmark_mass(tol, frozen_steps):
    # perfbench's point-source manifest (tol 1e-6), against the toppling
    # oracle at two of its stopping tolerances.
    s, u, steps = reference_point_source(4000.0, 2, tol=tol)
    res = point_source_sandpile(4000.0, 2, tol=tol)
    assert steps == frozen_steps
    assert res.steps == 3
    assert_solves_point_source_lcp(res, 4000.0, tol)
    assert_matches_toppling(res, u, steps, tol)
    if tol == 1e-6:
        assert np.array_equal(res.aggregate.occupied, u > 0.0)


def test_obstacle_solver_matches_reference_at_the_benchmark_grid():
    # perfbench's obstacle-shape manifest: h = 0.04, box 2, source ball 0.5 4.0.
    h = 0.04
    axis = (np.arange(101) - 50) * h
    x, y = np.meshgrid(axis, axis, indexing="ij")
    sol, occupied, sweeps = assert_outcome_matches_sweeps(np.where(x * x + y * y <= 0.25, 4.0, 0.0), h)
    assert sol.iterations == 3
    assert sweeps == 4773
    assert np.array_equal(sol.occupied, occupied)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 2), cells=st.integers(2, 12), ball=st.floats(0.05, 0.6), height=st.floats(0.5, 20.0))
def test_obstacle_solver_solves_the_lcp_and_matches_the_sweeps(d, cells, ball, height):
    assert_outcome_matches_sweeps(*ball_source(d, cells, ball, height))


@settings(max_examples=30, deadline=None)
@given(cells=st.integers(2, 5), ball=st.floats(0.05, 0.6), height=st.floats(0.5, 20.0))
def test_obstacle_solver_solves_the_lcp_and_matches_the_sweeps_at_d3(cells, ball, height):
    # Parallel toppling runs at d = 3 only.
    assert_outcome_matches_sweeps(*ball_source(3, cells, ball, height))


@pytest.mark.parametrize("d, mass, box", [(1, 30.0, 32), (2, 150.0, 16), (3, 200.0, 9)])
def test_obstacle_with_a_point_source_is_the_point_source_sandpile(d, mass, box):
    # At h = 1 a point source's obstacle is gamma plus the odometer of the
    # same mass: the same engine at d <= 2, toppling to a smaller tol at d = 3.
    source = np.zeros((2 * box + 1,) * d)
    source[(box,) * d] = mass
    sol = continuum_obstacle_solve(source, 1.0)
    res = point_source_sandpile(mass, d, box_radius=box)
    if d <= 2:
        assert sol.iterations == res.steps
        assert np.array_equal(sol.v, sol.gamma + res.odometer)
    else:
        gap, _ = toppling_gap(res.odometer, 1e-6, res.steps + sol.iterations)
        assert np.abs(sol.v - sol.gamma - res.odometer).max() <= gap
    assert np.array_equal(sol.occupied, res.aggregate.occupied)


@pytest.mark.parametrize("shape", [
    (1,), (8,), (99,), (5461,), (6, 6), (19, 19), (99, 99), (100, 100), (7, 7, 7), (8, 8, 8), (39, 39, 39),
])
def test_numpy_sine_transform_is_scipys_bit_for_bit(shape):
    # At side 5461 the inverse factor 1/10924 rounds differently in double
    # than from long double, as pocketfft computes it.
    scipy_fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(len(shape) * 10_000 + shape[0])
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
    scale = float(1 / np.longdouble(math.prod(2 * (m + 1) for m in shape)))
    assert growth._dstn(x, 1.0).tobytes() == scipy_fft.dstn(x, type=1).tobytes()
    assert growth._dstn(x, scale).tobytes() == scipy_fft.idstn(x, type=1).tobytes()


@pytest.mark.parametrize("side, d", [(5463, 1), (101, 2), (41, 3)])
def test_dirichlet_potential_is_the_scipy_solve_bit_for_bit(side, d):
    # The solve as written on scipy.fft.dstn / idstn before gamma moved to numpy.
    scipy_fft = pytest.importorskip("scipy.fft")
    rhs = np.random.default_rng(side).standard_normal((side,) * d)
    interior, m = (slice(1, -1),) * d, side - 2
    lam = axis_sum(np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 1.0, d) / d
    want = np.zeros_like(rhs)
    want[interior] = scipy_fft.idstn(scipy_fft.dstn(rhs[interior], type=1) / lam, type=1)
    assert growth._dirichlet_poisson(rhs).tobytes() == want.tobytes()
