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

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from ._util import generator


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


class BoundaryTouchError(RuntimeError):
    """The aggregate reached the box edge; rerun with a larger box radius."""


def _settle(occupied_flat: np.ndarray, flat_index: int, radius: int, d: int, side: int):
    occupied_flat[flat_index] = True
    coords = np.array(np.unravel_index(flat_index, (side,) * d)) - radius
    if np.max(np.abs(coords)) >= radius:
        raise BoundaryTouchError(
            f"aggregate reached the box edge at {tuple(int(c) for c in coords)}; "
            f"increase the box radius beyond {radius}"
        )


def idla_aggregate(particles: int, d: int, seed: int = 0, box_radius: int | None = None) -> AggregateSet:
    """Internal DLA: each particle walks from the origin to the first free site.

    Deterministic given the seed.  Walk steps are drawn in growing batches and
    scanned for the first unoccupied position, which keeps the per-particle
    bookkeeping small; a walker can never stray more than one step outside the
    current aggregate because it settles the moment it leaves it.
    """
    if particles < 1:
        raise ValueError("need at least one particle")
    radius = default_box_radius(particles, d) if box_radius is None else int(box_radius)
    side = 2 * radius + 1
    occupied = np.zeros((side,) * d, dtype=bool)
    flat = occupied.ravel()
    offsets = _flat_offsets(d, side)
    origin_flat = (side ** np.arange(d - 1, -1, -1) * radius).sum()
    rng = generator(seed, 11)
    for _ in range(particles):
        pos = int(origin_flat)
        if not flat[pos]:
            _settle(flat, pos, radius, d, side)
            continue
        batch = 16
        while True:
            steps = offsets[rng.integers(0, 2 * d, size=batch)]
            trail = pos + np.cumsum(steps)
            # Trail entries before the first free site are valid interior
            # indices (the walker is inside the settled cluster until then);
            # later entries are unused, so clamp them instead of indexing out.
            free = ~flat[np.clip(trail, 0, flat.size - 1)]
            if free.any():
                _settle(flat, int(trail[int(np.argmax(free))]), radius, d, side)
                break
            pos = int(trail[-1])
            batch = min(2 * batch, 1024)
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
    occupied = np.zeros((side,) * d, dtype=bool)
    flat = occupied.ravel()
    rotors = np.full(side**d, initial_direction, dtype=np.int8)
    offsets = [int(o) for o in _flat_offsets(d, side)]
    origin_flat = int((side ** np.arange(d - 1, -1, -1) * radius).sum())
    n_dirs = 2 * d
    for _ in range(particles):
        pos = origin_flat
        while flat[pos]:
            r = rotors[pos]
            rotors[pos] = (r + 1) % n_dirs
            pos += offsets[r]
        _settle(flat, pos, radius, d, side)
    return AggregateSet(d, radius, occupied)


@dataclass(frozen=True)
class PointSourceResult:
    aggregate: AggregateSet
    final: np.ndarray
    odometer: np.ndarray
    steps: int


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
    steps = 0
    while True:
        sl = tuple(slice(radius - window, radius + window + 1) for _ in range(d))
        win = s[sl]
        excess = np.maximum(win - 1.0, 0.0)
        if float(excess.max()) <= tol:
            break
        if _ring_active(excess, tol):
            if window >= radius:
                raise BoundaryTouchError(
                    f"excess reached the box edge; increase the box radius beyond {radius}"
                )
            window += 1
            continue
        _zero_ring(excess)
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
    occupied = u > 0.0
    return PointSourceResult(AggregateSet(d, radius, occupied), s, u, steps)


def _ring_active(excess: np.ndarray, tol: float) -> bool:
    d = excess.ndim
    for axis in range(d):
        for edge in (0, -1):
            idx = [slice(None)] * d
            idx[axis] = edge
            if float(excess[tuple(idx)].max(initial=0.0)) > tol:
                return True
    return False


def _zero_ring(excess: np.ndarray):
    d = excess.ndim
    for axis in range(d):
        for edge in (0, -1):
            idx = [slice(None)] * d
            idx[axis] = edge
            excess[tuple(idx)] = 0.0


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
    side = 2 * agg.radius + 1
    axis = np.arange(side) - agg.radius
    norm2 = np.zeros((side,) * agg.d)
    for k in range(agg.d):
        idx = [None] * agg.d
        idx[k] = slice(None)
        norm2 = norm2 + axis[tuple(idx)].astype(np.float64) ** 2
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
    """Obstacle-problem output on a grid of spacing h."""

    h: float
    gamma: np.ndarray
    v: np.ndarray
    occupied: np.ndarray
    iterations: int
    residual: float

    @property
    def d(self) -> int:
        return self.gamma.ndim

    def area(self) -> float:
        return float(self.occupied.sum()) * self.h**self.d

    def aggregate(self) -> AggregateSet:
        radius = (self.gamma.shape[0] - 1) // 2
        return AggregateSet(self.d, radius, self.occupied)


def _dirichlet_poisson(rhs: np.ndarray) -> np.ndarray:
    """Solve the zero-boundary problem (neighbour average - identity) g = rhs.

    Sine-transform diagonalization on the interior nodes; the result is
    embedded back into the full grid with zeros on the outer ring.
    """
    d = rhs.ndim
    interior = tuple(slice(1, -1) for _ in range(d))
    inner = rhs[interior]
    coeffs = scipy.fft.dstn(inner, type=1)
    lam = np.zeros(inner.shape)
    for axis, m in enumerate(inner.shape):
        j = np.arange(1, m + 1)
        per_axis = np.cos(np.pi * j / (m + 1)) - 1.0
        idx = [None] * d
        idx[axis] = slice(None)
        lam = lam + per_axis[tuple(idx)]
    lam /= d
    coeffs /= lam
    out = np.zeros_like(rhs)
    out[interior] = scipy.fft.idstn(coeffs, type=1)
    return out


def _signed_permutations(d: int):
    """Every signed axis permutation of the d-cube except the identity."""
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            if perm != tuple(range(d)) or any(s < 0 for s in signs):
                yield perm, signs


def _apply_symmetry(arr: np.ndarray, perm, signs) -> np.ndarray:
    out = np.transpose(arr, perm)
    for axis, s in enumerate(signs):
        if s < 0:
            out = np.flip(out, axis=axis)
    return out


def _symmetrize_like_source(field: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Average the field over every lattice symmetry fixing the source.

    The averaged entries differ from the raw solve only by rounding noise,
    and the output then commutes bit for bit with those symmetries, which the
    monotone iteration preserves because its neighbour sums are grouped by
    axis and floating addition commutes.
    """
    stack = [field]
    for perm, signs in _signed_permutations(field.ndim):
        if np.array_equal(_apply_symmetry(source, perm, signs), source):
            stack.append(_apply_symmetry(field, perm, signs))
    if len(stack) == 1:
        return field
    return np.mean(stack, axis=0)


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
    norm2 = np.zeros((side,) * d)
    for k in range(d):
        idx = [None] * d
        idx[k] = slice(None)
        norm2 = norm2 + axis[tuple(idx)] ** 2
    potential = _dirichlet_poisson(h * h * source)
    gamma = -(h * h) * norm2 + _symmetrize_like_source(potential, source)

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
    residual = math.inf
    for it in range(1, iteration_limit + 1):
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
            occupied = v > gamma + 10.0 * stop
            return ObstacleSolution(float(h), gamma, v, occupied, it, residual)
    raise RuntimeError(
        f"obstacle iteration did not converge in {iteration_limit} sweeps; last residual {residual:.3e}"
    )
