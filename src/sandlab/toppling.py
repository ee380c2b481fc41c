"""Divisible sandpile toppling dynamics.

A site with height above one is unstable; toppling emits its full excess
through the generator's redistribution rule.  For the nearest-neighbour rule
the excess splits equally over the 2d neighbours, for the long-range rule it
spreads by the jump kernel (a toppling site keeps the p(0) fraction through
its self-loop).  The odometer accumulates everything a site has emitted.

Stabilization succeeds exactly when the total mass is at most the number of
sites, so the entry test ``sum(s) > nsites + tol`` certifies explosion without
running the dynamics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import generator
from .lattice import LatticeField, TorusShape
from .operators import BufferedGenerator, OperatorSpec


@dataclass(frozen=True)
class SandpileState:
    """Heights, odometer, and step count of one toppling run."""

    op: OperatorSpec
    s: LatticeField
    u: LatticeField
    t: int = 0

    def __post_init__(self):
        if self.s.shape != self.op.shape or self.u.shape != self.op.shape:
            raise ValueError("state fields must live on the operator's torus")
        if np.any(self.u.values < 0):
            raise ValueError("odometer must be nonnegative")

    @classmethod
    def initial(cls, op: OperatorSpec, s: LatticeField) -> "SandpileState":
        return cls(op, s, LatticeField.zeros(op.shape), 0)


@dataclass(frozen=True)
class StabilizationReport:
    status: str  # "stabilized" | "exploded" | "step-limit"
    steps: int
    max_excess: float
    total_excess: float


def _excess(values: np.ndarray) -> np.ndarray:
    return np.maximum(values - 1.0, 0.0)


def _checked_order(order, shape: TorusShape) -> list:
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1:
        raise ValueError("order must be a flat sequence of site indices")
    if order.size and (order.min() < 0 or order.max() >= shape.nsites):
        raise ValueError("order contains an out-of-range site index")
    return order.tolist()


def _sequential_pass(state: SandpileState) -> tuple:
    """A pass function and the copies of heights and odometer it updates.

    ``topple_pass(s, u, order)`` topples each listed site in turn, in place.
    For nearest neighbour s and u are flat Python lists: Python floats round
    like float64 scalars, so they give the same bits as numpy element access
    at a fraction of the cost.  For long range they are arrays.
    """
    op, shape = state.op, state.op.shape
    if op.kind == "nn":
        neigh = _neighbour_lists(shape)
        share = 1.0 / (2.0 * shape.d)

        def nn_pass(s, u, order):
            for x in order:
                e = s[x] - 1.0
                if e <= 0.0:
                    continue
                s[x] -= e
                a = e * share
                for y in neigh[x]:
                    s[y] += a
                u[x] += e
        return nn_pass, state.s.values.ravel().tolist(), state.u.values.ravel().tolist()

    # tiled[n - x + y] = p[(y - x) mod n] axis by axis, so a window of the
    # kernel tiled to (2n,) * d is the kernel centred on site x
    n, tiled = shape.n, np.tile(op.kernel(), (2,) * shape.d)
    sites = [(x, tuple(slice(n - c, 2 * n - c) for c in x))
             for x in itertools.product(range(n), repeat=shape.d)]

    def lr_pass(s, u, order):
        for x in order:
            idx, window = sites[x]
            e = s[idx] - 1.0
            if e <= 0.0:
                continue
            s += e * tiled[window]
            s[idx] -= e
            u[idx] += e
    return lr_pass, state.s.values.copy(), state.u.values.copy()


def sequential_topple_pass(state: SandpileState, order) -> SandpileState:
    """Topple sites one at a time in the given order, using current heights.

    The order is a sequence of flat site indices in canonical raveling; each
    listed site is toppled once if unstable when its turn arrives.
    """
    shape = state.op.shape
    order = _checked_order(order, shape)
    topple_pass, s, u = _sequential_pass(state)
    topple_pass(s, u, order)
    dims = shape.dims
    return SandpileState(state.op, LatticeField(shape, np.reshape(s, dims)),
                         LatticeField(shape, np.reshape(u, dims)), state.t + 1)


def _neighbour_lists(shape: TorusShape) -> list:
    """Flat indices of the 2d directional neighbours of every site, x + e
    then x - e along axis 0, then axis 1, ...

    Directions that coincide on a small torus appear twice, which keeps the
    redistribution weights right at n = 2.
    """
    index = np.arange(shape.nsites).reshape(shape.dims)
    cols = [np.roll(index, -step, axis).ravel() for axis in range(shape.d) for step in (1, -1)]
    return np.stack(cols, axis=1).tolist()


# At most this many sites step in one replicate stack, so a stack's buffers
# stay near 32 MiB for any number of states.
STACK_SITES = 1 << 20


def _explosion(state: SandpileState, tol: float) -> StabilizationReport | None:
    """The report of a state whose mass certifies explosion, else None.

    The explosion margin never drops below the rounding noise of summing
    nsites heights, so a critical configuration (mass exactly nsites) is not
    misread as exploding when tol is tiny or zero.
    """
    nsites = state.op.shape.nsites
    if float(state.s.values.sum()) <= nsites + max(tol, 1e-12 * nsites):
        return None
    e = _excess(state.s.values)
    return StabilizationReport("exploded", 0, float(e.max()), float(e.sum()))


def _stabilize_stack(op: OperatorSpec, s: np.ndarray, u: np.ndarray, tol: float, step_limit: int) -> list:
    """Topple the stack s, u of shape ``(R,) + dims`` in place; (s, u, report) per replicate.

    Each step writes the excess into the generator's input buffer, reads
    L e from its output buffer and adds both in place.  A replicate whose
    excess is within tol, or that has reached the step limit, is copied out
    with its own report, and the rest are compacted into a smaller stack.
    """
    done, live, steps = [None] * len(s), list(range(len(s))), 0
    gen = BufferedGenerator(op, len(s))
    while True:
        e = np.maximum(np.subtract(s, 1.0, out=gen.x), 0.0, out=gen.x)
        if len(live) == 1:  # one whole-buffer sum, so a single run pays nothing extra
            totals = (float(e.sum()),)
            finished = totals[0] <= tol
        else:
            totals = e.reshape(len(live), -1).sum(axis=1)
            finished = totals.min() <= tol
        if finished or steps >= step_limit:
            keep = []
            for k, total in enumerate(totals):
                if total > tol and steps < step_limit:
                    keep.append(k)
                    continue
                status = "stabilized" if total <= tol else "step-limit"
                report = StabilizationReport(status, steps, float(e[k].max()), float(total))
                done[live[k]] = (s[k].copy(), u[k].copy(), report)
            if not keep:
                return done
            live, s, u = [live[k] for k in keep], s[keep], u[keep]
            gen = BufferedGenerator(op, len(keep))
            continue  # the excess of the kept replicates is rewritten into the new buffer
        np.add(s, gen.apply(), out=s)
        np.add(u, e, out=u)
        steps += 1


def stabilize_stack(states, tol: float = None, step_limit: int = 500_000):
    """Stabilize states of one operator together; yield (state, report) in order.

    Each state gets what ``stabilize`` gives it alone, report, step count
    and fields bit for bit.  A state whose mass certifies explosion is
    yielded unchanged.  The others step together in replicate stacks of
    shape ``(R,) + dims``: ``states`` is read ``STACK_SITES // nsites`` states
    at a time (one if a state alone is larger), so peak memory stays bounded
    however many are given.  Within a stack each replicate keeps its own
    convergence test and step count; a finished replicate is copied out and
    the rest are compacted into a smaller stack, at most R rebuilds.
    """
    states = iter(states)
    first = next(states, None)
    if first is None:
        return
    op, shape = first.op, first.op.shape
    tol = 1e-10 * shape.nsites if tol is None else tol
    states = itertools.chain([first], states)
    while chunk := list(itertools.islice(states, max(1, STACK_SITES // shape.nsites))):
        if any(state.op != op for state in chunk):
            raise ValueError("stacked states must share one operator")
        exploded = [_explosion(state, tol) for state in chunk]
        live = [state for state, report in zip(chunk, exploded) if report is None]
        stepped = iter(_stabilize_stack(
            op, np.stack([x.s.values for x in live]), np.stack([x.u.values for x in live]), tol, step_limit
        ) if live else ())
        for state, report in zip(chunk, exploded):
            if report is None:
                s, u, report = next(stepped)
                state = SandpileState(op, LatticeField(shape, s), LatticeField(shape, u), state.t + report.steps)
            yield state, report


def stabilize(
    state: SandpileState,
    tol: float = None,
    step_limit: int = 500_000,
) -> tuple[SandpileState, StabilizationReport]:
    """Run parallel toppling until the total excess falls below tol.

    tol defaults to 1e-10 * nsites.  A configuration carrying more than
    nsites + tol of mass can never stabilize (mass is conserved and a stable
    state holds at most one per site), so it is reported as exploded without
    stepping.  ``step_limit=k`` runs at most k parallel steps, so k = 1 is a
    single step in which every unstable site topples at once.

    This is the one-replicate call of the stacked engine, ``stabilize_stack``:
    heights and odometer are toppled in place on copies of the input fields,
    through ``operators.BufferedGenerator``, whose fixed summation order
    (nearest neighbour) and half-grid multiply by the operator's cached
    symbol (long range) keep every report, odometer and final field
    bit-identical to the reference engine frozen in the tests.
    """
    return next(stabilize_stack([state], tol, step_limit))


def stabilize_sequential(
    state: SandpileState,
    order,
    tol: float = None,
    pass_limit: int = 200_000,
) -> tuple[SandpileState, StabilizationReport]:
    """Repeat sequential passes in a fixed site order until the excess is gone."""
    shape = state.op.shape
    if tol is None:
        tol = 1e-10 * shape.nsites
    exploded = _explosion(state, tol)
    if exploded is not None:
        return state, exploded
    order = _checked_order(order, shape)
    topple_pass, s, u = _sequential_pass(state)
    passes = 0
    while True:
        e = _excess(np.reshape(s, shape.dims))
        total = float(e.sum())
        if total <= tol:
            status = "stabilized"
            break
        if passes >= pass_limit:
            status = "step-limit"
            break
        topple_pass(s, u, order)
        passes += 1
    final = SandpileState(state.op, LatticeField(shape, np.reshape(s, shape.dims)),
                          LatticeField(shape, np.reshape(u, shape.dims)), state.t + passes)
    return final, StabilizationReport(status, passes, float(e.max()), total)


@dataclass(frozen=True)
class DensityProbeResult:
    density: float
    trials: int
    fraction_stabilized: float
    mean_odometer: float


def density_probe(
    density: float,
    shape: TorusShape,
    op: OperatorSpec = None,
    trials: int = 20,
    seed: int = 0,
    noise_scale: float = 0.01,
    tol: float = None,
    step_limit: int = 500_000,
) -> DensityProbeResult:
    """Stabilize i.i.d. configurations of mean ``density`` with no centering.

    Heights are density plus small Gaussian fluctuations, so subcritical
    densities stabilize and supercritical ones explode by the mass test.
    Reports the stabilized fraction and the mean odometer over all trials;
    an exploded trial adds an odometer of 0.  Each trial draws from its own
    stream, and the trials that do not explode step together through
    ``stabilize_stack`` (stacks of at most ``STACK_SITES`` sites), with the
    per-trial results of separate ``stabilize`` calls, summed in trial order.
    """
    if op is None:
        op = OperatorSpec.nearest_neighbour(shape)

    def trial_states():
        for trial in range(trials):
            gen = generator(seed, 7, trial)
            s = density + noise_scale * gen.standard_normal(shape.dims)
            yield SandpileState.initial(op, LatticeField(shape, s))

    stabilized = 0
    odometer_sum = 0.0
    for final, report in stabilize_stack(trial_states(), tol, step_limit):
        if report.status == "stabilized":
            stabilized += 1
        odometer_sum += float(final.u.values.mean())
    return DensityProbeResult(density, trials, stabilized / trials, odometer_sum / trials)
