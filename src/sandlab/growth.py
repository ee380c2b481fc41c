"""Growth models on a bounded box and the continuum shape predictor.

Three aggregation mechanisms share the box infrastructure: internal DLA
(random walks settling at the first unoccupied site), the rotor-router walk
(its derandomization), and the divisible sandpile started from a point mass.
All three live on {-B..B}^d with an explicit boundary-touch check, so a valid
run certifies that the finite box did not distort the shape.

The continuum predictor solves the obstacle problem for the scaled sandpile:
gamma is minus the squared norm plus a Dirichlet potential of the source, the
value function is the least superharmonic majorant computed by monotone
relaxation, and the non-coincidence set {v > gamma} is the predicted shape.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

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

    def contains_origin(self) -> bool:
        return bool(self.occupied[(self.radius,) * self.d])

    def touches_boundary(self) -> bool:
        pts = self.points()
        return bool(pts.size) and bool(np.max(np.abs(pts)) >= self.radius)


def _direction_table(d: int) -> np.ndarray:
    """Rows +e1, -e1, ..., +ed, -ed."""
    dirs = np.zeros((2 * d, d), dtype=np.int64)
    for axis in range(d):
        dirs[2 * axis, axis] = 1
        dirs[2 * axis + 1, axis] = -1
    return dirs


def _flat_offsets(d: int, side: int) -> np.ndarray:
    strides = np.array([side**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    return _direction_table(d) @ strides


def _outer_ring(side: int, d: int) -> np.ndarray:
    """Boolean mask of the cells of the (side,)*d cube that lie on its faces."""
    ring = np.zeros((side,) * d, dtype=bool)
    for axis in range(d):
        idx = [slice(None)] * d
        idx[axis] = 0
        ring[tuple(idx)] = True
        idx[axis] = -1
        ring[tuple(idx)] = True
    return ring


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
    edge = _outer_ring(side, d).ravel()
    offsets = _flat_offsets(d, side)
    origin = int((side ** np.arange(d - 1, -1, -1) * radius).sum())
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
    unoccupied site it reaches.
    """
    if particles < 1:
        raise ValueError("need at least one particle")
    if not 0 <= initial_direction < 2 * d:
        raise ValueError("initial rotor direction out of range")
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    n_dirs = 2 * d
    edge = _outer_ring(side, d).ravel().tobytes()
    occupied = bytearray(side**d)
    rotors = bytearray([initial_direction]) * side**d
    turn = bytes((r + 1) % n_dirs for r in range(n_dirs))
    offsets = [int(o) for o in _flat_offsets(d, side)]
    origin = int((side ** np.arange(d - 1, -1, -1) * radius).sum())
    for _ in range(particles):
        pos = origin
        while occupied[pos]:
            r = rotors[pos]
            rotors[pos] = turn[r]
            pos += offsets[r]
        occupied[pos] = 1
        if edge[pos]:
            raise _edge_touch(pos, radius, d)
    grid = np.frombuffer(occupied, dtype=np.uint8).reshape((side,) * d)
    return AggregateSet(d, radius, grid.astype(bool))


@dataclass(frozen=True)
class PointSourceResult:
    aggregate: AggregateSet
    final: np.ndarray
    odometer: np.ndarray
    steps: int


class _Window:
    """Contiguous working copies of the centred window of s and u.

    Holds the excess and emitted-share buffers, the window's outer ring as an
    index tuple and the stencil's (destination, source) view pairs in the
    order axis 0 up, axis 0 down, axis 1 up, ...  Built once per window size.
    """

    def __init__(self, s: np.ndarray, u: np.ndarray, radius: int, window: int):
        d = s.ndim
        self.sl = tuple(slice(radius - window, radius + window + 1) for _ in range(d))
        self.s = s[self.sl].copy()
        self.u = u[self.sl].copy()
        self.excess = np.empty_like(self.s)
        self.shed = np.empty_like(self.s)
        self.ring = np.nonzero(_outer_ring(self.s.shape[0], d))
        self.stencil = []
        for axis in range(d):
            lo = [slice(None)] * d
            hi = [slice(None)] * d
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            self.stencil.append((self.s[tuple(hi)], self.shed[tuple(lo)]))
            self.stencil.append((self.s[tuple(lo)], self.shed[tuple(hi)]))

    def store(self, s: np.ndarray, u: np.ndarray):
        s[self.sl] = self.s
        u[self.sl] = self.u


def point_source_sandpile(
    mass: float,
    d: int,
    box_radius: int | None = None,
    tol: float = 1e-6,
    step_limit: int = 2_000_000,
) -> PointSourceResult:
    """Divisible sandpile from a point mass, relaxed by parallel toppling.

    Each step every site with height above one sheds its excess equally to
    its 2d neighbours.  The relaxation runs on a growing window around the
    origin (excess spreads at most one cell per step, so a quiet window edge
    certifies that nothing outside it has ever toppled) until the largest
    excess falls to tol.  Mass is conserved to the last bit: window-edge sites
    are never allowed to emit, they just trigger window growth.

    The steps run on contiguous copies of the window, rebuilt only when it
    grows; every site receives its neighbours' shares in the fixed order
    axis 0 up, axis 0 down, axis 1 up, ..., so the result is reproducible to
    the bit.
    """
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    radius = default_box_radius(max(mass, 1.0), d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    s = np.zeros((side,) * d)
    u = np.zeros_like(s)
    s[(radius,) * d] = mass
    share = 1.0 / (2 * d)
    window = 1
    w = _Window(s, u, radius, window)
    steps = 0
    while True:
        excess = w.excess
        np.subtract(w.s, 1.0, out=excess)
        np.maximum(excess, 0.0, out=excess)
        if float(excess.max()) <= tol:
            break
        if float(excess[w.ring].max()) > tol:
            if window >= radius:
                raise BoundaryTouchError(
                    f"excess reached the box edge; increase the box radius beyond {radius}"
                )
            w.store(s, u)
            window += 1
            w = _Window(s, u, radius, window)
            continue
        excess[w.ring] = 0.0
        w.s -= excess
        np.multiply(excess, share, out=w.shed)
        for dst, src in w.stencil:
            dst += src
        w.u += excess
        steps += 1
        if steps > step_limit:
            raise RuntimeError(
                f"parallel toppling did not settle in {step_limit} steps; max excess {excess.max():.3e}"
            )
    w.store(s, u)
    occupied = u > 0.0
    return PointSourceResult(AggregateSet(d, radius, occupied), s, u, steps)


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


def _dirichlet_poisson(rhs: np.ndarray) -> np.ndarray:
    """Solve the zero-boundary problem (neighbour average - identity) g = rhs on a cube.

    Sine-transform diagonalization on the interior nodes; the result is
    embedded back into the full grid with zeros on the outer ring.
    """
    d = rhs.ndim
    interior = tuple(slice(1, -1) for _ in range(d))
    inner = rhs[interior]
    coeffs = scipy.fft.dstn(inner, type=1)
    m = inner.shape[0]
    lam = axis_sum(np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) - 1.0, d)
    lam /= d
    coeffs /= lam
    out = np.zeros_like(rhs)
    out[interior] = scipy.fft.idstn(coeffs, type=1)
    return out


def _apply_symmetry(arr: np.ndarray, perm, signs) -> np.ndarray:
    out = np.transpose(arr, perm)
    for axis, s in enumerate(signs):
        if s < 0:
            out = np.flip(out, axis=axis)
    return out


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


def _symmetrize_like_source(field: np.ndarray, symmetries: tuple) -> np.ndarray:
    """Average the field over the lattice symmetries that fix the source.

    The averaged entries differ from the raw solve only by rounding noise,
    and the output then commutes bit for bit with those symmetries, which the
    monotone iteration preserves because its neighbour sums are grouped by
    axis and floating addition commutes.
    """
    if not symmetries:
        return field
    return np.mean([field] + [_apply_symmetry(field, *g) for g in symmetries], axis=0)


def continuum_obstacle_solve(
    source: np.ndarray,
    h: float,
    iteration_limit: int = 400_000,
) -> ObstacleSolution:
    """Predicted limiting shape for a source density on a centered grid.

    The obstacle is gamma(x) = -|x|^2 plus a zero-boundary potential with
    (normalized discrete) Laplacian h^2 * source, so that the grid analogue of
    the continuum relation holds exactly for the quadratic part.  v starts at
    the constant max(gamma), stays clamped to gamma on the box edge, and
    relaxes by v <- max(gamma, neighbour average); the iteration is monotone
    nonincreasing and bounded below by gamma.  The non-coincidence set uses a
    threshold ten times the stopping tolerance to separate rounding noise
    from genuine contact.
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
    norm2 = axis_sum(axis**2, d)
    symmetries = _source_symmetries(source)
    potential = _dirichlet_poisson(h * h * source)
    gamma = -(h * h) * norm2 + _symmetrize_like_source(potential, symmetries)

    stop = 1e-10 * float(np.max(np.abs(gamma)))
    v = np.full_like(gamma, float(gamma.max()))
    boundary_mask = _outer_ring(side, d)
    v[boundary_mask] = gamma[boundary_mask]
    interior = tuple(slice(1, -1) for _ in range(d))
    share = 1.0 / (2 * d)
    # Sweep buffers and the shifted interior views of v, built once.  The
    # neighbour sum stays grouped by axis, (lo_0 + hi_0) + (lo_1 + hi_1) + ...
    v_inner = v[interior]
    gamma_inner = gamma[interior].copy()
    shifted = []
    for k in range(d):
        lo = [slice(1, -1)] * d
        hi = [slice(1, -1)] * d
        lo[k] = slice(0, -2)
        hi[k] = slice(2, None)
        shifted.append((v[tuple(lo)], v[tuple(hi)]))
    avg = np.empty_like(gamma_inner)
    pair = np.empty_like(gamma_inner)
    candidate = np.empty_like(gamma_inner)
    residual = math.inf
    for it in range(1, iteration_limit + 1):
        np.add(*shifted[0], out=avg)
        for lo_view, hi_view in shifted[1:]:
            np.add(lo_view, hi_view, out=pair)
            avg += pair
        avg *= share
        np.maximum(gamma_inner, avg, out=candidate)
        np.subtract(v_inner, candidate, out=avg)  # avg is free again: reuse it
        residual = float(avg.max())
        v_inner[...] = candidate
        if residual < stop:
            occupied = v > gamma + 10.0 * stop
            return ObstacleSolution(float(h), gamma, v, occupied, it, residual, symmetries)
    raise RuntimeError(
        f"obstacle iteration did not converge in {iteration_limit} sweeps; last residual {residual:.3e}"
    )
