"""Growth models on a bounded box and the continuum shape predictor.

Three aggregation mechanisms share the box infrastructure: internal DLA
(random walks settling at the first unoccupied site), the rotor-router walk
(its derandomization), and the divisible sandpile started from a point mass.
All three live on {-B..B}^d with an explicit boundary-touch check, so a valid
run certifies that the finite box did not distort the shape.

The continuum predictor solves the obstacle problem for the scaled sandpile:
gamma is minus the squared norm plus a Dirichlet potential of the source, the
value function is the least superharmonic majorant of gamma, and the
non-coincidence set {v > gamma} is the predicted shape.

Both problems are the same one.  gamma's Laplacian is h^2 (source - 1), so
(v - gamma) / h^2 is the divisible-sandpile odometer started from heights
source: the least u >= 0, zero on the box edge, with source + L u <= 1 (the
least action principle).  One engine per dimension finds that odometer for
both.  At d <= 2 a primal-dual active-set loop solves it exactly in a few
iterations, each a block-tridiagonal solve over the axis-0 rows in numpy.
At d = 3 the rows are planes and that solve loses to relaxation at desk
sizes, so the pile relaxes by parallel toppling.  At d <= 2 the same
odometer also seeds rotor aggregation, which fires most chips in bulk and
certifies the result (_seeded_rotor).

The module needs numpy alone: gamma's sine transform is written on
numpy.fft, bit for bit scipy's (_dstn), so growth runs never load scipy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # imported here, so that no timed run pays for it

from ._util import axis_sum, generator


def ball_volume_constant(d: int) -> float:
    """Volume of the unit Euclidean ball in d dimensions."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def predicted_radius(count: float, d: int) -> float:
    """Radius of the Euclidean ball of volume count: the limit shape's radius."""
    return (count / ball_volume_constant(d)) ** (1.0 / d)


def default_box_radius(count: float, d: int) -> int:
    """Twice the predicted aggregate radius, plus a small absolute margin."""
    return int(math.ceil(2.0 * predicted_radius(count, d))) + 2


@dataclass(frozen=True)
class AggregateSet:
    """Occupied sites of a growth model, stored on a centered box grid."""

    d: int
    radius: int
    occupied: np.ndarray

    def __post_init__(self):
        if self.occupied.shape != (2 * self.radius + 1,) * self.d:
            raise ValueError("occupancy grid does not match the declared box")
        if self.occupied.dtype != np.bool_:
            raise ValueError("occupancy grid must be boolean")

    @property
    def count(self) -> int:
        return int(self.occupied.sum())

    def points(self) -> np.ndarray:
        """Occupied lattice points as an (m, d) integer array, origin-centred."""
        return np.argwhere(self.occupied) - self.radius


def _flat_offsets(d: int, side: int) -> list[int]:
    """Flat index steps +e1, -e1, ..., +ed, -ed on a C-ordered (side,)*d grid."""
    return [o for k in range(d - 1, -1, -1) for o in (side**k, -(side**k))]


def _outer_ring(side: int, d: int) -> np.ndarray:
    """Flat boolean mask of the cells of the (side,)*d cube that lie on its faces."""
    ring = np.zeros((side,) * d, dtype=bool)
    for axis in range(d):
        ring[(slice(None),) * axis + ([0, -1],)] = True
    return ring.ravel()


class BoundaryTouchError(RuntimeError):
    """The aggregate reached the box edge; rerun with a larger box radius."""


def _edge_touch(flat_index: int, radius: int, d: int) -> BoundaryTouchError:
    coords = np.array(np.unravel_index(flat_index, (2 * radius + 1,) * d)) - radius
    return BoundaryTouchError(
        f"aggregate reached the box edge at {tuple(int(c) for c in coords)}; "
        f"increase the box radius beyond {radius}"
    )


# An IDLA walker's steps are drawn in batches of 16, 32, ..., 1024 and then
# 1024 at a time; these are the batch ends up to the first 1024-batch.
_IDLA_BATCH_ENDS = (16, 48, 112, 240, 496, 1008, 2032)
_IDLA_BATCH = 1024
_IDLA_BLOCK = 16384


def _idla_batch_end(f: int) -> int:
    """Number of draws a walker consumes when it settles at its draw f."""
    if f < _IDLA_BATCH_ENDS[-1]:
        return _IDLA_BATCH_ENDS[bisect.bisect_right(_IDLA_BATCH_ENDS, f)]
    return _IDLA_BATCH_ENDS[-1] + _IDLA_BATCH * ((f - _IDLA_BATCH_ENDS[-1]) // _IDLA_BATCH + 1)


def idla_aggregate(particles: int, d: int, seed: int = 0, box_radius: int | None = None) -> AggregateSet:
    """Internal DLA: each particle walks from the origin to the first free site.

    Deterministic given the seed, and the draw stream is part of that
    contract.  A walker that starts on the occupied origin consumes its steps
    from one stream of uniform directions in batches of 16, 32, 64, ..., 1024
    draws, then 1024 at a time, and settles at the first unoccupied site of
    its trail; the unused tail of the batch in which it settles is discarded,
    and the next walker starts at the following batch.  The stream is drawn
    from the generator in larger blocks and each walker's trail is scanned
    over a look-ahead of several batches at once; neither changes which
    draws a walker sees, so aggregates stay byte-stable.  A walker can never
    stray more than one step outside the current aggregate because it
    settles the moment it leaves it.
    """
    if particles < 1:
        raise ValueError("need at least one particle")
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    occupied = np.zeros((side,) * d, dtype=bool)
    flat = occupied.ravel()
    edge = _outer_ring(side, d)
    offsets = np.array(_flat_offsets(d, side))
    origin = side**d // 2
    rng = generator(seed, 11)
    stream = np.empty(0, dtype=np.int64)  # flat step offsets, next unread at `head`
    head = 0
    for _ in range(particles):
        pos = origin
        used = 0  # draws this walker has scanned so far
        while flat[pos]:
            ahead = _IDLA_BATCH_ENDS[-1] if used == 0 else _IDLA_BATCH
            if head + ahead > stream.size:
                fresh = offsets[rng.integers(0, 2 * d, size=_IDLA_BLOCK)]
                stream = np.concatenate((stream[head:], fresh))
                head = 0
            trail = stream[head : head + ahead].cumsum()
            trail += pos
            # Trail entries before the first free site are valid interior
            # indices (the walker is inside the settled cluster until then);
            # later entries are unused, so clamp them instead of indexing out.
            seen = flat.take(trail, mode="clip")
            k = int(seen.argmin())
            if seen[k]:
                pos = int(trail[-1])
                used += ahead
                head += ahead
            else:
                pos = int(trail[k])
                head += _idla_batch_end(used + k) - used
        flat[pos] = True
        if edge[pos]:
            raise _edge_touch(pos, radius, d)
    return AggregateSet(d, radius, occupied)


def rotor_router_aggregate(
    particles: int,
    d: int,
    box_radius: int | None = None,
    initial_direction: int = 0,
) -> AggregateSet:
    """Rotor-router aggregation, fully deterministic.

    Every site carries a rotor cycling through +e1, -e1, ..., +ed, -ed.  A
    particle at an occupied site moves along the rotor's current direction and
    the rotor then advances one position; the particle settles at the first
    unoccupied site it reaches.  A particle that settles on the box edge
    raises BoundaryTouchError.

    At d <= 2 _seeded_rotor first fires most chips in bulk from the divisible
    sandpile's odometer and certifies that its occupied set is the one the
    walk above leaves; only when it cannot do the particles walk one by one.
    """
    if particles < 1:
        raise ValueError("need at least one particle")
    if not 0 <= initial_direction < 2 * d:
        raise ValueError("initial rotor direction out of range")
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    if d <= 2:
        occupied = _seeded_rotor(particles, d, radius, initial_direction)
        if occupied is not None:
            return AggregateSet(d, radius, occupied)
    full = bytearray(side**d)
    rotors = bytearray([initial_direction]) * side**d
    starts = itertools.repeat(side**d // 2, particles)
    edge = _outer_ring(side, d).tobytes()
    hit = _rotor_walk(full, rotors, bytes(side**d), starts, _flat_offsets(d, side), edge)
    if hit is not None:
        raise _edge_touch(hit, radius, d)
    grid = np.frombuffer(full, dtype=np.uint8).reshape((side,) * d)
    return AggregateSet(d, radius, grid.astype(bool))


def _rotor_walk(full, rotors, holes, starts, offsets, edge) -> int | None:
    """Walk one chip from each start in turn; the ring site a chip settled on, or None.

    A chip at a full site moves along the site's rotor, which then advances
    one position.  At the first site that is not full the chip fills one of
    the site's holes if it has any, and otherwise makes it full.  Walking
    stops at the first chip that settles on the outer ring (edge).
    """
    turn = bytes((r + 1) % len(offsets) for r in range(len(offsets)))
    for pos in starts:
        while full[pos]:
            r = rotors[pos]
            rotors[pos] = turn[r]
            pos += offsets[r]
        if holes[pos]:
            holes[pos] -= 1
        else:
            full[pos] = 1
        if edge[pos]:
            return pos
    return None


# Bulk firing stops this many firings short of the floor of the sandpile
# odometer, which the rotor walk's own firing counts track to within a few
# firings at every size measured (margin 8 failed at 2*10^4 particles, 16 held
# up to 10^5).  Each failed certificate doubles it; after the last attempt the
# particles walk one by one.
_SEED_MARGIN = 16
_SEED_ATTEMPTS = 3


def _seeded_rotor(particles: int, d: int, radius: int, initial_direction: int) -> np.ndarray | None:
    """The rotor aggregate's occupied set from bulk firing and a short walk, or None.

    u is the divisible sandpile's odometer for the same particles and box.
    An attempt fires every site m = max(floor(u) - margin, 0) times at once:
    a site whose rotor starts at r and fires k times sends k // 2d chips in
    every direction plus one more in each of the k % 2d directions from r
    on, and its rotor advances by k.  Counts stay signed, since the margin
    need not cancel between neighbours (a site can hold -1).  Every chip
    beyond the first at a site then walks as in the sequential engine,
    except that it settles at any site holding at most zero chips.

    An attempt is accepted when its final counts c are all 0 or 1, c = 1 at
    every site that fired (in bulk or in the walk), and no chip lies on the
    box's outer ring, so no walker settled there.  The walk leaves no
    count above 1, and a site it fired held a chip it keeps; a site that
    never fired only received chips.  So what is left to check is c = 1 at
    the sites fired in bulk and an empty ring.  Then c equals the final
    configuration c* of the one-by-one walk, which leaves the ring empty
    too, so the occupied sets agree.  Proof, with the ring a sink that
    never fires, f and f* the firings of the attempt and of the walk, and
    N_yx(k) the number of chips the first k firings at y send to x
    (nondecreasing in k):

    1. Counts all <= 1 give f >= f* (the least action principle).  The walk
       fires only sites holding two or more chips.  Suppose a prefix g <= f
       of it fires x with g(x) = f(x).  Under f, x fired as often and
       received sum_y N_yx(f(y)) >= sum_y N_yx(g(y)) chips, so c(x) is at
       least x's count under g, which is 2 or more: a contradiction.  So
       every prefix stays below f; the walk ends, and f* <= f.
    2. Counts >= 0, and exactly 1 wherever f > 0, then give c = c*.  Where
       f > 0, c = 1 >= c*.  Where f = 0, f* = 0 too and by step 1 x received
       at least as much under f.  So c >= c*, ring included, and both hold
       all particles, so c = c*.

    The reverse bound f <= f*, which for the divisible sandpile follows from
    the maximum principle, fails for rotors: firing once more two
    neighbouring sites whose rotors point at each other changes no count.
    So the certificate fixes the occupied set, not the firing counts.

    A failed attempt doubles the margin.  Returns None after _SEED_ATTEMPTS
    failures, or when the odometer raises (at the box edge, say).
    """
    try:
        u = point_source_sandpile(particles, d, box_radius=radius).odometer
    except RuntimeError:
        return None
    side = 2 * radius + 1
    n_dirs = 2 * d
    offsets = _flat_offsets(d, side)
    edge = _outer_ring(side, d)
    floor = np.floor(u).astype(np.int64).ravel()
    for attempt in range(_SEED_ATTEMPTS):
        fires = np.maximum(floor - (_SEED_MARGIN << attempt), 0)
        laps, rest = np.divmod(fires, n_dirs)
        counts = -fires
        counts[side**d // 2] += particles
        for j, step in enumerate(offsets):
            sent = laps + ((j - initial_direction) % n_dirs < rest)
            if step > 0:
                counts[step:] += sent[:-step]
            else:
                counts[:step] += sent[-step:]
        # chips on the ring, or a hole deeper than a byte can track
        if counts[edge].any() or counts.min() < -255:
            continue
        full = bytearray((counts > 0).astype(np.uint8))
        holes = bytearray(np.maximum(-counts, 0).astype(np.uint8))
        rotors = bytearray(((fires + initial_direction) % n_dirs).astype(np.uint8))
        extra = np.flatnonzero(counts > 1)
        starts = np.repeat(extra, counts[extra] - 1).tolist()
        if _rotor_walk(full, rotors, holes, starts, offsets, edge.tobytes()) is not None:
            continue
        occupied = np.frombuffer(full, dtype=np.uint8).astype(bool)
        if occupied[fires > 0].all():
            return occupied.reshape((side,) * d)
    return None


def _box_laplacian(w: np.ndarray) -> np.ndarray:
    """Neighbour average minus identity on the box, reading 0 outside it."""
    share = 1.0 / (2 * w.ndim)
    out = -w
    for axis in range(w.ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        out[hi] += share * w[lo]
        out[lo] += share * w[hi]
    return out


def _free_set_solve(free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """w with (identity - neighbour average) w = rhs on the free sites and w = 0 elsewhere.

    The free sites lie inside the box's outer ring.  Numbered row by row
    along axis 0, they form a block-tridiagonal system: row i couples only to
    rows i - 1 and i + 1, through the sites whose axis-0 neighbour is free.
    Block elimination runs down the rows with one dense solve per row, for
    the row's own unknowns and for the unit vectors of the sites coupled to
    the next row, and back substitution runs up them.  The coupling blocks
    are gathered by index, so no matrix is larger than one row's unknowns
    squared (a single site at d = 1).
    """
    share = 1.0 / (2 * free.ndim)
    flat, rhs = free.ravel(), rhs.ravel()
    row_len = flat.size // free.shape[0]
    sites = np.flatnonzero(flat)
    number = np.full(flat.size, -1)
    number[sites] = np.arange(sites.size)
    bounds = np.searchsorted(sites // row_len, np.arange(free.shape[0] + 1))

    def coupled(step):
        """Pairs (a, b) of unknown numbers with site(b) = site(a) + step, both free."""
        a = sites[flat[sites + step]]
        return number[a], number[a + step]

    within = [coupled(row_len // free.shape[0] ** k) for k in range(1, free.ndim)]
    down_a, down_b = coupled(row_len)
    # per row, with S its Schur complement: its first unknown, the columns of
    # S^-1 at the sites coupled to the next row, S^-1 y, the next row's coupled sites
    rows = []
    carry = None
    for i in np.flatnonzero(np.diff(bounds)):
        lo, hi = bounds[i], bounds[i + 1]
        s = np.eye(hi - lo)
        for a, b in within:
            k = slice(*np.searchsorted(a, (lo, hi)))
            s[a[k] - lo, b[k] - lo] = s[b[k] - lo, a[k] - lo] = -share
        y = rhs[sites[lo:hi]]
        if carry is not None:
            q, block, add = carry
            s[np.ix_(q, q)] -= block
            y[q] += add
        k = slice(*np.searchsorted(down_a, (lo, hi)))
        p, q = down_a[k] - lo, down_b[k] - hi
        unit = np.zeros((hi - lo, p.size + 1))
        unit[p, np.arange(p.size)] = 1.0
        unit[:, -1] = y
        x = np.linalg.solve(s, unit)
        coupling, g = x[:, :-1], x[:, -1]
        rows.append((lo, coupling, g, q))
        carry = (q, share * share * coupling[p], share * g[p]) if p.size else None
    out = np.zeros(flat.size)
    below = None
    for lo, coupling, g, q in reversed(rows):
        below = g + share * (coupling @ below[q]) if q.size else g
        out[sites[lo : lo + below.size]] = below
    return out.reshape(free.shape)


def _active_set_solve(b: np.ndarray, free: np.ndarray, limit: int):
    """Least w >= 0, 0 on the outer ring, with L w <= b: primal-dual active sets.

    L is the neighbour average minus identity.  Each iteration solves
    L w = b on the free set with w = 0 elsewhere and computes the slack
    b - L w; a free site stays free while w > 0 there and an active site
    frees when its slack is negative.  Testing only the relevant sign on
    each set keeps rounding noise on the other from flipping sites.  For an
    M-matrix the free sets settle in finitely many iterations; a free set
    that recurs (a cycle, which only rounding can cause) or an iteration
    count past limit raises.  Returns w, L w and the iteration count.
    """
    interior = ~_outer_ring(free.shape[0], free.ndim).reshape(free.shape)
    free = free & interior
    seen = set()
    for it in range(1, limit + 1):
        w = _free_set_solve(free, -b)
        lap = _box_laplacian(w)
        new = np.where(free, w > 0.0, b - lap < 0.0) & interior
        if np.array_equal(new, free):
            return w, lap, it
        seen.add(free.tobytes())
        if new.tobytes() in seen:
            raise RuntimeError(f"active-set iteration cycled after {it} iterations")
        free = new
    raise RuntimeError(f"active-set iteration did not settle in {limit} iterations")


def _ball_guess(side: int, d: int, volume: float) -> np.ndarray:
    """Sites of the centred cube within the ball of the given volume: the free set to start from."""
    axis = (np.arange(side) - (side - 1) // 2).astype(np.float64)
    return axis_sum(axis**2, d) <= predicted_radius(max(volume, 0.0), d) ** 2


@dataclass(frozen=True)
class PointSourceResult:
    aggregate: AggregateSet
    final: np.ndarray
    odometer: np.ndarray
    steps: int


class _Window:
    """Flat contiguous working copies of the centred window of s and u.

    Holds the excess and emitted-share buffers, the window's outer ring as
    flat indices and the stencil's (destination, source) pairs in the order
    axis 0 up, axis 0 down, axis 1 up, ...: along axis k the flat shifts
    (s[st:], shed[:-st]) and (s[:-st], shed[st:]), st = side**(d-1-k).  A
    shift also pairs cells that are not neighbours, but only a ring source
    with a ring destination.  The ring never emits, so its shed is +0.0, and
    heights are never -0.0, so x + 0.0 == x bit for bit and every site gets
    the same shares in the same order as from the grid's slice views.  Built
    once per window size.
    """

    def __init__(self, s: np.ndarray, u: np.ndarray, radius: int, window: int):
        side = 2 * window + 1
        self.sl = (slice(radius - window, radius + window + 1),) * s.ndim
        self.s = s[self.sl].flatten()
        self.u = u[self.sl].flatten()
        self.excess = np.empty_like(self.s)
        self.shed = np.empty_like(self.s)
        self.ring = np.flatnonzero(_outer_ring(side, s.ndim))
        self.stencil = []
        for st in _flat_offsets(s.ndim, side)[::2]:
            self.stencil += [(self.s[st:], self.shed[:-st]), (self.s[:-st], self.shed[st:])]

    def store(self, s: np.ndarray, u: np.ndarray):
        s[self.sl] = self.s.reshape(s[self.sl].shape)
        u[self.sl] = self.u.reshape(u[self.sl].shape)


def _box_odometer(s0: np.ndarray, tol: float, limit: int):
    """Least u >= 0, zero on the box's outer ring, with heights s0 + L u <= 1.

    L is the neighbour average minus identity, reading 0 outside the box.
    Returns u, the final heights and the step count.

    At d <= 2 the active-set iteration solves the problem exactly, starting
    from the ball of volume s0.sum(); steps counts its iterations, at most
    limit, and heights are exactly one where u > 0.

    At d = 3 the pile relaxes by parallel toppling and steps counts toppling
    steps, at most limit.  Each step every site with height above one sheds
    its excess equally to its 2d neighbours, until the largest excess falls
    to tol.  The relaxation runs on a growing window around the origin that
    starts one cell beyond the farthest site with height above one (excess
    spreads at most one cell per step, so a quiet window edge certifies that
    nothing outside it has ever toppled).  Mass is conserved to the last bit:
    window-edge sites are never allowed to emit, they just trigger window
    growth.  The steps run on flat contiguous copies of the window, rebuilt
    only when it grows; every site receives its neighbours' shares in the
    fixed order axis 0 up, axis 0 down, axis 1 up, ..., so the result is
    reproducible to the bit (see _Window).

    Either way a final height above 1 + tol on the outer ring means the pile
    reached the box edge and raises BoundaryTouchError.
    """
    d, side = s0.ndim, s0.shape[0]
    radius = side // 2
    if d <= 2:
        u, lap, steps = _active_set_solve(1.0 - s0, _ball_guess(side, d, float(s0.sum())), limit)
        s = s0 + lap
        s[u > 0.0] = 1.0
    else:
        s, u = s0.copy(), np.zeros_like(s0)
        share = 1.0 / (2 * d)
        window = int(np.abs(np.argwhere(s0 > 1.0) - radius).max(initial=0)) + 1
        w = _Window(s, u, radius, window)
        steps = 0
        while True:
            excess = w.excess
            np.subtract(w.s, 1.0, out=excess)
            np.maximum(excess, 0.0, out=excess)
            if float(excess.max()) <= tol:
                break
            if float(excess.take(w.ring).max()) > tol:
                if window >= radius:
                    break  # the window is the box: the edge check raises
                w.store(s, u)
                window += 1
                w = _Window(s, u, radius, window)
                continue
            excess.put(w.ring, 0.0)
            w.s -= excess
            np.multiply(excess, share, out=w.shed)
            for dst, src in w.stencil:
                dst += src
            w.u += excess
            steps += 1
            if steps > limit:
                raise RuntimeError(
                    f"parallel toppling did not settle in {limit} steps; max excess {excess.max():.3e}"
                )
        w.store(s, u)
    if float(s.ravel().take(np.flatnonzero(_outer_ring(side, d))).max()) - 1.0 > tol:
        raise BoundaryTouchError(f"excess reached the box edge; increase the box radius beyond {radius}")
    return u, s, steps


def point_source_sandpile(
    mass: float,
    d: int,
    box_radius: int | None = None,
    tol: float = 1e-6,
    step_limit: int = 2_000_000,
) -> PointSourceResult:
    """Divisible sandpile from a point mass.

    The odometer u is the least u >= 0, zero on the box edge, whose final
    heights s = s0 + L u stay at most one (the least action principle), for
    s0 the mass at the origin.  _box_odometer finds it: exactly by active
    sets at d <= 2, by parallel toppling until every excess is at most tol
    at d = 3.  steps counts active-set iterations or toppling steps, at most
    step_limit.  An edge height above 1 + tol raises BoundaryTouchError.
    """
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    radius = default_box_radius(max(mass, 1.0), d) if box_radius is None else int(box_radius)
    s0 = np.zeros((2 * radius + 1,) * d)
    s0[(radius,) * d] = mass
    u, s, steps = _box_odometer(s0, tol, step_limit)
    return PointSourceResult(AggregateSet(d, radius, u > 0.0), s, u, steps)


@dataclass(frozen=True)
class ShapeMetrics:
    inradius: float
    outradius: float
    volume: int
    ball_deviation: float


def shape_metrics(agg: AggregateSet, predicted_radius: float) -> ShapeMetrics:
    """Euclidean in/out radii of the aggregate and the normalized gap.

    The inradius is the largest lattice norm r with every lattice point of
    norm at most r occupied; a lone origin therefore reports inradius 0 while
    any r < 1 would qualify.
    """
    if agg.count == 0:
        raise ValueError("aggregate is empty")
    axis = (np.arange(2 * agg.radius + 1) - agg.radius).astype(np.float64)
    norm2 = axis_sum(axis**2, agg.d)
    occ_norms = norm2[agg.occupied]
    free_norms = norm2[~agg.occupied]
    outradius = float(np.sqrt(occ_norms.max()))
    if free_norms.size == 0:
        inradius = outradius
    else:
        cutoff = float(free_norms.min())
        inside = occ_norms[occ_norms < cutoff]
        inradius = float(np.sqrt(inside.max())) if inside.size else 0.0
    deviation = (outradius - inradius) / predicted_radius
    return ShapeMetrics(inradius, outradius, agg.count, deviation)


@dataclass(frozen=True)
class ObstacleSolution:
    """Obstacle-problem output on a grid of spacing h.

    ``symmetries`` lists the signed axis permutations (perm, signs), other
    than the identity, that map the source onto itself.
    """

    h: float
    gamma: np.ndarray
    v: np.ndarray
    occupied: np.ndarray
    iterations: int
    residual: float
    symmetries: tuple

    @property
    def d(self) -> int:
        return self.gamma.ndim

    def area(self) -> float:
        return float(self.occupied.sum()) * self.h**self.d

    def aggregate(self) -> AggregateSet:
        radius = (self.gamma.shape[0] - 1) // 2
        return AggregateSet(self.d, radius, self.occupied)

    def is_symmetric(self) -> bool:
        """Whether the occupied set equals its image under every symmetry of the source."""
        occ = self.occupied
        return all(np.array_equal(_apply_symmetry(occ, *g), occ) for g in self.symmetries)


def _dstn(x: np.ndarray, scale: float) -> np.ndarray:
    """Unnormalized DST-I over every axis in turn, the first axis's output times scale.

    Along an axis of length m it keeps minus the imaginary part of bins 1..m
    of the real FFT of the odd extension [0, x, 0, -reversed x].  pocketfft
    computes scipy.fft.dstn(type=1) the same way and applies idstn's factor
    1 / prod 2(m + 1), rounded from long double, on the first axis, so with
    scale 1 or that factor this is bit for bit scipy's dstn or idstn.
    """
    for axis in range(x.ndim):
        m = x.shape[axis]
        zero = np.zeros_like(x.take([0], axis=axis))
        odd = np.concatenate([zero, x, zero, -np.flip(x, axis=axis)], axis=axis)
        x = -numpy.fft.rfft(odd, axis=axis).imag.take(range(1, m + 1), axis=axis)
        if axis == 0:
            x *= scale
    return x


def _dirichlet_poisson(rhs: np.ndarray) -> np.ndarray:
    """Solve the zero-boundary problem (neighbour average - identity) g = rhs on a cube.

    Sine-transform diagonalization on the interior nodes; the result is
    embedded back into the full grid with zeros on the outer ring.
    """
    d = rhs.ndim
    interior = tuple(slice(1, -1) for _ in range(d))
    coeffs = _dstn(rhs[interior], 1.0)
    m = coeffs.shape[0]
    lam = axis_sum(np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 1.0, d)
    lam /= d
    coeffs /= lam
    out = np.zeros_like(rhs)
    out[interior] = _dstn(coeffs, float(1 / np.longdouble((2 * (m + 1)) ** d)))
    return out


def _apply_symmetry(arr: np.ndarray, perm, signs) -> np.ndarray:
    return np.flip(np.transpose(arr, perm), axis=tuple(k for k, s in enumerate(signs) if s < 0))


def _source_symmetries(source: np.ndarray) -> tuple:
    """Every signed axis permutation (perm, signs) except the identity that fixes the source."""
    d = source.ndim
    found = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            identity = perm == tuple(range(d)) and -1 not in signs
            if not identity and np.array_equal(_apply_symmetry(source, perm, signs), source):
                found.append((perm, signs))
    return tuple(found)


# Cap on the active-set iterations at d <= 2 and on the toppling steps at d = 3.
OBSTACLE_ITERATIONS = 400_000


def continuum_obstacle_solve(source: np.ndarray, h: float) -> ObstacleSolution:
    """Predicted limiting shape for a source density on a centered grid.

    The obstacle is gamma(x) = -|x|^2 plus a zero-boundary potential with
    (normalized discrete) Laplacian h^2 * source, so that the grid analogue of
    the continuum relation holds exactly for the quadratic part.  v is the
    least superharmonic function on the box interior that is at least gamma
    and equals gamma on the box edge.

    Since L gamma = h^2 (source - 1) inside the box, v = gamma + h^2 u for u
    the sandpile odometer of the heights source, which _box_odometer finds:
    exactly by active sets at d <= 2, by parallel toppling at d = 3 until
    every excess is at most stop / h^2, stop being 1e-10 max|gamma|.
    ``iterations`` counts active-set iterations or toppling steps, and
    ``residual`` is h^2 max |source + L u - 1| over the sites where u > 0:
    the solve's rounding at d <= 2, at most stop at d = 3.  The
    non-coincidence set uses a threshold ten times stop to separate rounding
    noise from genuine contact.  A shape that reaches the box edge raises
    BoundaryTouchError.
    """
    source = np.asarray(source, dtype=np.float64)
    d = source.ndim
    side = source.shape[0]
    if source.shape != (side,) * d or side % 2 != 1 or side < 5:
        raise ValueError("source must be a centered cube grid with odd side at least 5")
    support = np.argwhere(source != 0.0)
    if support.size and (support.min() == 0 or support.max() == side - 1):
        raise ValueError("source support must sit strictly inside the box")
    radius = (side - 1) // 2
    axis = (np.arange(side) - radius).astype(np.float64)
    gamma = -(h * h) * axis_sum(axis**2, d) + _dirichlet_poisson(h * h * source)
    stop = 1e-10 * float(np.max(np.abs(gamma)))
    try:
        u, _, iterations = _box_odometer(source, stop / (h * h), OBSTACLE_ITERATIONS)
    except BoundaryTouchError:
        raise BoundaryTouchError(
            f"the shape reached the box edge; increase the box beyond {radius * h:g}"
        ) from None
    v = gamma + (h * h) * u
    residual = (h * h) * float(np.abs(source + _box_laplacian(u) - 1.0)[u > 0.0].max(initial=0.0))
    occupied = v > gamma + 10.0 * stop
    return ObstacleSolution(float(h), gamma, v, occupied, iterations, residual, _source_symmetries(source))
