"""Statistical verification of scaling limits for odometer fluctuation fields.

The rescaled field a_n * Xi_n pairs against smooth mean-zero test functions
through cell integrals, and the pairing is a fixed linear functional of the
noise: <Xi_n, f> = sum_x sigma(x) k(x) with k the mean-zero potential of the
cell-integral field.  That identity powers everything here: Monte Carlo
pairings are one dot product per replicate, Gaussian pairing variances are
exact finite sums, and stable pairings have an exact finite-size
characteristic exponent sum |a_n k(x)|^alpha.

Limit predictions carry one deliberate normalization constant.  The package's
generator is 1/(2d) times the unnormalized neighbour-sum Laplacian that the
classical prefactors (the 4 pi^2 factors) are written for, so second-moment
predictions pick up (2d)^2 for nearest-neighbour modes and amplitude
predictions pick up 2d.  Long-range generators carry a kernel-dependent
constant with no closed form; there the experiments test flatness of the
ratio across sizes and agreement across test functions, with the exact
spectral variance reported alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import axis_sum, loglog_slope
from .lattice import (
    LatticeField,
    TorusShape,
    cell_integral_field,
    half_grid_forward,
    half_grid_inverse,
)
from .odometer import eta_covariance_exact
from .operators import OperatorSpec, power_law_multiplier, solve_poisson
from .sampling import SigmaSpec, color, replicate_blocks, unfiltered
from .testfun import TestFunction


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    stderr: float
    count: int

    def __post_init__(self):
        if self.stderr < 0 or self.count <= 0:
            raise ValueError("estimate needs nonnegative stderr and positive count")


@dataclass(frozen=True)
class ScalingMode:
    """Which limit theorem an experiment targets."""

    kind: str  # "nn-ind" | "nn-cor" | "lr-ind" | "stable"
    alpha: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("nn-ind", "nn-cor", "lr-ind", "stable"):
            raise ValueError(f"unknown scaling mode {self.kind!r}")
        if self.kind in ("lr-ind", "stable") and not (self.alpha and self.alpha > 0):
            raise ValueError(f"mode {self.kind} needs alpha > 0")
        if self.kind == "stable" and not (self.alpha < 2):
            raise ValueError("stable mode needs alpha < 2")
        if self.kind == "nn-cor" and self.delta is None:
            raise ValueError("correlated mode needs the spectral decay delta")


def scaling_constant(mode: ScalingMode, shape: TorusShape) -> float:
    """Deterministic normalization a_n for the chosen limit."""
    n, d = float(shape.n), shape.d
    four_pi2 = 4.0 * math.pi**2
    if mode.kind == "nn-ind":
        return four_pi2 * n ** ((d - 4) / 2.0)
    if mode.kind == "nn-cor":
        return four_pi2 * n**-2.0
    if mode.kind == "lr-ind":
        a = mode.alpha
        if a < 2.0:
            return n ** ((d - 2.0 * a) / 2.0)
        if a == 2.0:
            return n ** ((d - 4.0) / 2.0) * math.log(n)
        return n ** ((d - 4.0) / 2.0)
    # stable
    return four_pi2 * n ** (d - d / mode.alpha - 2.0)


def pairing_vector(op: OperatorSpec, f: TestFunction) -> LatticeField:
    """Weights k with <Xi_n, f> = sum_x sigma(x) k(x) for the potential field.

    k is the mean-zero potential of the cell-integral field, by self-adjointness
    of the generator; the centering of sigma drops out because k sums to zero.
    """
    return solve_poisson(cell_integral_field(f, op.shape), op)


def limit_variance(f: TestFunction, khat=None, e: float = 2.0) -> float:
    """Predicted limit variance sum_{z != 0} khat(z) ||z||^(-2e) |fhat(z)|^2.

    khat is a callable on integer frequency vectors (None means identically
    one).  The sum is finite because test functions have finitely many modes.
    """
    total = 0.0
    for z in f.support_frequencies():
        coeff = f.fourier_coefficient(z)
        if coeff == 0:
            continue
        norm2 = float(sum(v * v for v in z))
        weight = 1.0 if khat is None else float(khat(np.asarray(z, dtype=np.float64)))
        total += weight * norm2 ** (-e) * abs(coeff) ** 2
    return total


def exact_pairing_variance(op: OperatorSpec, f: TestFunction, khat: np.ndarray | None = None) -> float:
    """Exact Gaussian variance of <Xi_n, f> before any a_n rescaling.

    khat = None is independent unit-variance noise; an array is the colored
    sampler's multiplier, which ``half_multiplier`` checks.  The pairing
    is <x, v> for independent unit Gaussians x and the ``_noise_vector`` v
    (k itself for white noise, F k for colored), so its variance is ||v||^2.
    """
    spec = SigmaSpec.iid_gaussian() if khat is None else SigmaSpec.correlated_gaussian(khat)
    k = _noise_vector(spec, op.shape, pairing_vector(op, f).ravel())
    return float(np.sum(k * k))


def _noise_vector(spec: SigmaSpec, shape: TorusShape, k: np.ndarray) -> np.ndarray:
    """The flat vector the unfiltered draws of spec pair with to give <sigma, k>.

    Colored noise is sigma = F x for the raw draws x, and F is symmetric, so
    <sigma, k> = <x, F k>; every other regime pairs with k itself.
    """
    if unfiltered(spec) is spec:
        return k
    return color(spec, shape, k.reshape(shape.dims)).ravel()


def _mode_lattice(mode: ScalingMode, shape: TorusShape) -> tuple[OperatorSpec, SigmaSpec]:
    """The mode's operator and Gaussian noise on one torus."""
    if mode.kind == "nn-ind":
        return OperatorSpec.nearest_neighbour(shape), SigmaSpec.iid_gaussian()
    if mode.kind == "nn-cor":
        khat = power_law_multiplier(shape, -4.0 * mode.delta)
        return OperatorSpec.nearest_neighbour(shape), SigmaSpec.correlated_gaussian(khat)
    if mode.kind == "lr-ind":
        return OperatorSpec.long_range(shape, mode.alpha), SigmaSpec.iid_gaussian()
    raise ValueError("stable mode pairs through run_charfun_experiment")


def _limit_law(mode: ScalingMode):
    """Continuum weight khat (None for white noise) and exponent e of `limit_variance`."""
    if mode.kind == "nn-ind":
        return None, 2.0
    if mode.kind == "nn-cor":
        return (lambda z: float(np.dot(z, z)) ** (-2.0 * mode.delta)), 2.0
    if mode.kind == "lr-ind":
        return None, _growth_gamma("lr", mode.alpha)
    raise ValueError("stable mode pairs through run_charfun_experiment")


@dataclass(frozen=True)
class VarianceRow:
    n: int
    variance: EstimateWithCI
    exact_variance: float
    ratio: float
    exact_ratio: float


@dataclass(frozen=True)
class VarianceExperiment:
    mode: ScalingMode
    limit: float
    rows: tuple[VarianceRow, ...]

    def ratio_flatness(self) -> float:
        """Max relative deviation of the measured ratios from their mean."""
        ratios = np.array([r.ratio for r in self.rows])
        return float(np.max(np.abs(ratios - ratios.mean())) / ratios.mean())


def run_variance_experiment(
    mode: ScalingMode,
    fs: tuple[TestFunction, ...],
    ns,
    samples: int,
    seed: int = 0,
) -> tuple[VarianceExperiment, ...]:
    """Estimate Var(a_n <Xi_n, f>) across sizes against the limit prediction.

    The first test function in fs pairs at every size, the others at the
    largest size only.  All of them pair with the same noise samples, and
    each (size, chunk) is drawn once; one experiment comes back per
    function.  The ratio column should flatten in n; its level is the
    calibration constant of the mode, not one.
    """
    if isinstance(fs, TestFunction):
        raise TypeError("fs must be a sequence of test functions; pass one as (f,)")
    limits = [limit_variance(f, *_limit_law(mode)) for f in fs]
    top = max(ns)
    by_size = []
    for n in ns:
        shape = TorusShape(fs[0].d, int(n))
        op, spec = _mode_lattice(mode, shape)
        a = scaling_constant(mode, shape)
        paired = fs if n == top else fs[:1]
        ks = [_noise_vector(spec, shape, pairing_vector(op, f).ravel()) for f in paired]
        rows = []
        for limit, k, xs in zip(limits, ks, _pairing_samples(unfiltered(spec), shape, seed, samples, ks)):
            var = float(np.var(xs * a, ddof=1))
            se = var * math.sqrt(2.0 / (samples - 1))
            exact = a * a * float(np.sum(k * k))
            rows.append(VarianceRow(
                int(n), EstimateWithCI(var, se, samples), exact, var / limit, exact / limit
            ))
        by_size.append(rows)
    return tuple(
        VarianceExperiment(mode, limit, tuple(rows[i] for rows in by_size if i < len(rows)))
        for i, limit in enumerate(limits)
    )


_PAIR_SITES = 4096


def _pairings(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """<row, k> for each row of a (count, nsites) block, single-threaded.

    The sum runs over blocks of _PAIR_SITES sites in order, one einsum per
    block.  einsum splits a reduction longer than its 8192-element buffer at
    places that depend on how many rows share the call, and a BLAS product
    does so for any length, so only blocks this short give every row the
    same bits however rows are grouped.
    """
    out = np.einsum("ij,j->i", rows[:, :_PAIR_SITES], k[:_PAIR_SITES])
    for lo in range(_PAIR_SITES, k.size, _PAIR_SITES):
        out += np.einsum("ij,j->i", rows[:, lo : lo + _PAIR_SITES], k[lo : lo + _PAIR_SITES])
    return out


def _pairing_samples(
    spec: SigmaSpec, shape: TorusShape, seed: int, samples: int, ks: list[np.ndarray]
) -> list[np.ndarray]:
    """Samples of <sigma, k> for each pairing vector k, from one pass over the replicates.

    Each block of `replicate_blocks` is drawn once and paired with every k,
    so the noise held at a time is bounded whatever `samples` is, and the
    bits equal a whole-chunk pass because `_pairings` does not depend on
    how rows are grouped.  Colored noise pairs its raw draws with the
    filtered vector of ``_noise_vector``: one filter per k, none per block.
    That moves the pairings of colored noise by rounding only.
    """
    ks = [_noise_vector(spec, shape, k) for k in ks]
    outs = [np.empty(samples) for _ in ks]
    for lo, block in replicate_blocks(unfiltered(spec), shape, seed, samples):
        rows = block.reshape(len(block), -1)
        for out, k in zip(outs, ks):
            out[lo : lo + len(rows)] = _pairings(rows, k)
    return outs


@dataclass(frozen=True)
class CharfunRow:
    t: float
    cf_abs: float
    stderr: float
    measured_exponent: float
    exact_exponent: float
    target_exponent: float


@dataclass(frozen=True)
class CharfunExperiment:
    alpha: float
    exact_scale: float        # finite-size sum |a_n k|^alpha
    continuum_integral: float  # exact integral of |G_f|^alpha
    calibration: float         # (2d)^alpha from the generator normalization
    rows: tuple[CharfunRow, ...]

    def fitted_scale(self) -> float:
        """Weighted through-origin fit of -log|phi| against t^alpha.

        Rows whose |phi| estimate sits below five standard errors, or
        rounds to one, are dropped: the logarithm of a value consistent with
        zero, or of exactly one, carries no information about the decay
        exponent.
        """
        xs, ys, ws = [], [], []
        for r in self.rows:
            if r.cf_abs < 5.0 * r.stderr or r.cf_abs >= 1.0:
                continue
            se_log = r.stderr / r.cf_abs
            xs.append(r.t ** self.alpha)
            ys.append(r.measured_exponent)
            ws.append(1.0 / (se_log * se_log))
        if not xs:
            raise ValueError("no characteristic-function row rises above the noise floor")
        x = np.asarray(xs)
        y = np.asarray(ys)
        w = np.asarray(ws)
        return float(np.sum(w * x * y) / np.sum(w * x * x))


def charfun_continuum_integral(f: TestFunction, alpha: float) -> float:
    """Exact torus integral of |G_f|^alpha, G_f = sum_z fhat(z) ||z||^-2 e^{-2 pi i z.x}.

    f must have its nonzero coefficients at one pair +-k.  Then
    G_f = c cos(2 pi k.x + phi) with c = 2 |fhat(k)| / ||k||^2, and the
    integral is c^alpha Gamma((alpha + 1)/2) / (sqrt(pi) Gamma(alpha/2 + 1))
    in every dimension.
    """
    pairs = {max(z, tuple(-v for v in z)) for z in f.support_frequencies() if f.fourier_coefficient(z) != 0}
    if len(pairs) != 1:
        raise ValueError(f"charfun target needs a single-frequency test function, got {len(pairs)} pairs")
    (k,) = pairs
    c = 2.0 * abs(f.fourier_coefficient(k)) / sum(v * v for v in k)
    return c**alpha * math.gamma((alpha + 1) / 2) / (math.sqrt(math.pi) * math.gamma(alpha / 2 + 1))


def run_charfun_experiment(
    alpha: float,
    fs: tuple[TestFunction, ...],
    shape: TorusShape,
    samples: int,
    seed: int = 0,
    ts=(0.5, 1.0, 2.0),
) -> tuple[CharfunExperiment, ...]:
    """Empirical characteristic function of the rescaled stable pairing.

    For exactly stable noise the pairing is itself stable, so the finite-size
    characteristic exponent is the exact sum |a_n k(x)|^alpha and the limit
    target is the closed-form continuum integral times the generator
    calibration.  Every f in fs (single-frequency) pairs with the same noise
    samples; one experiment comes back per function.
    """
    mode = ScalingMode("stable", alpha=alpha)
    op = OperatorSpec.nearest_neighbour(shape)
    a = scaling_constant(mode, shape)
    ks = [pairing_vector(op, f).ravel() for f in fs]
    with np.errstate(all="ignore"):  # a pairing that leaves float range is refused below
        pairings = [xs * a for xs in _pairing_samples(SigmaSpec.stable(alpha), shape, seed, samples, ks)]
    calibration = (2.0 * shape.d) ** alpha
    experiments = []
    for f, k, xs in zip(fs, ks, pairings):
        if not (a > 0 and np.isfinite(xs).all()):
            raise ValueError(f"stable alpha = {alpha:g} at n = {shape.n} leaves float range (a_n = {a:g})")
        exact_scale = float(np.sum(np.abs(k * a) ** alpha))
        cont = charfun_continuum_integral(f, alpha)
        rows = []
        for t in ts:
            z = np.exp(1j * t * xs)
            cf = complex(z.mean())
            cf_abs = abs(cf)
            se_cf = math.sqrt(max(1.0 - cf_abs**2, 0.0) / (2.0 * samples)) + 1e-300
            measured = -math.log(max(cf_abs, 1e-300))
            rows.append(
                CharfunRow(
                    float(t),
                    cf_abs,
                    se_cf,
                    measured,
                    exact_scale * abs(t) ** alpha,
                    calibration * cont * abs(t) ** alpha,
                )
            )
        experiments.append(CharfunExperiment(alpha, exact_scale, cont, calibration, tuple(rows)))
    return tuple(experiments)


@dataclass(frozen=True)
class CurveRow:
    n: int
    value: EstimateWithCI


@dataclass(frozen=True)
class GrowthCurve:
    rows: tuple[CurveRow, ...]
    slope: float
    predicted_slope: float | None
    predicted_values: tuple[float, ...]


def _growth_gamma(kind: str, alpha: float | None) -> float:
    """The growth law's order gamma: 2 for nearest-neighbour, min(2, alpha) long-range."""
    if kind == "nn":
        return 2.0
    if kind == "lr":
        return min(2.0, float(alpha))
    raise ValueError(f"unknown operator kind {kind!r}")


def mean_odometer_prediction(kind: str, d: int, n: float, alpha: float | None = None) -> float:
    """Growth-law prediction for the mean odometer, up to a constant.

    With gamma from `_growth_gamma`: n^(gamma - d/2) when gamma exceeds d/2,
    log n at equality, sqrt(log n) below.  For nearest-neighbour that is
    n^(2 - d/2) below dimension four, log n at four, and sqrt(log n) above.
    The last long-range case reads the evident regime ordering; see the
    package notes on the source table.
    """
    g = _growth_gamma(kind, alpha)
    if g > d / 2.0:
        return float(n) ** (g - d / 2.0)
    if g == d / 2.0:
        return math.log(n)
    return math.sqrt(math.log(n))


def mean_odometer_exponent(kind: str, d: int, alpha: float | None = None) -> float | None:
    """Pure power exponent of the growth law, or None in a logarithmic regime."""
    g = _growth_gamma(kind, alpha)
    return g - d / 2.0 if g > d / 2.0 else None


def mean_odometer_curve(
    kind: str,
    d: int,
    ns,
    samples: int,
    seed: int = 0,
    alpha: float | None = None,
) -> GrowthCurve:
    """Monte Carlo E[u(0)] = E[-min eta] across sizes, with the fitted slope.

    Gaussian noise throughout, in the one replicate layout of
    `replicate_blocks`; eta is solved spectrally one bounded block at a
    time and the minimum taken over sites.  One helper thread draws the
    next block while the current one is solved (`_neg_min_eta_samples`);
    the result depends only on the arguments, bit for bit.
    """
    rows = []
    for n in ns:
        op = OperatorSpec(kind, TorusShape(d, int(n)), alpha=alpha)
        stats = _neg_min_eta_samples(op, samples, seed)
        mean = float(stats.mean())
        se = float(stats.std(ddof=1) / math.sqrt(samples))
        rows.append(CurveRow(int(n), EstimateWithCI(mean, se, samples)))
    slope = loglog_slope([r.n for r in rows], [r.value.point for r in rows])
    predicted = mean_odometer_exponent(kind, d, alpha)
    pred_vals = tuple(mean_odometer_prediction(kind, d, r.n, alpha) for r in rows)
    return GrowthCurve(tuple(rows), slope, predicted, pred_vals)


def _neg_min_eta_samples(op: OperatorSpec, samples: int, seed: int) -> np.ndarray:
    """-min eta of replicates 0 .. samples - 1, one block of `replicate_blocks` at a time.

    One helper thread draws block i + 1 while this thread solves block i;
    both the draws and the FFTs release the GIL.  The draw starts only once
    block i is transformed and dropped, so the new block takes its place,
    and every block is drawn and solved as in a serial walk, bit for bit.
    """
    out = np.empty(samples)
    blocks = replicate_blocks(SigmaSpec.iid_gaussian(), op.shape, seed, samples)
    with ThreadPoolExecutor(max_workers=1) as helper:
        item = next(blocks, None)
        while item is not None:
            lo, block = item
            coeffs = half_grid_forward(block, op.shape)
            # The next draw starts once no reference to this block is left,
            # and the potentials go before it lands.  Live potentials leave
            # the traced peak alone but fragment the heap: a d=2 n=256 curve
            # run after the d=3 sizes peaked 7 MB higher in RSS (99 against
            # 92 MB).
            del item, block
            drawing = helper.submit(next, blocks, None)
            eta = half_grid_inverse(coeffs, op.inverse_symbol(), op.shape)
            del coeffs
            out[lo : lo + len(eta)] = -eta.reshape(len(eta), -1).min(axis=1)
            del eta
            item = drawing.result()
            del drawing  # it holds the next block as well
    return out


def structure_prediction(kind: str, d: int, n: float, r: float, alpha: float | None = None) -> float:
    """Tabulated growth shape of E[(eta(r e1) - eta(0))^2], up to a constant."""
    if kind == "nn":
        if d == 1:
            return n * r**2
        if d == 2:
            return r**2 * math.log(n / r)
        if d == 3:
            return float(r)
        if d == 4:
            return math.log(1.0 + r)
        return 1.0
    if kind == "lr":
        a = float(alpha)
        half = d / 2.0
        if a > half + 1.0:
            return float(n) ** (2.0 * a - d - 2.0) * r**2
        if a == half + 1.0:
            return math.log(n / r) * r**2
        if a > half:
            return r ** (2.0 * a - d)
        if a == half:
            return math.log(r)
        return 1.0  # flat regime; the evident reading of the source table
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class StructureCurve:
    rs: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    target_slope: float


def variance_structure_curve(
    kind: str,
    d: int,
    n: int,
    rs,
    alpha: float | None = None,
) -> StructureCurve:
    """Exact increment variances along the first axis, with fitted exponents.

    Both the measured values (from the exact covariance) and the tabulated
    formula are fitted over the same separations, so logarithmic corrections
    enter both sides of the comparison identically.
    """
    rs = [int(r) for r in rs]
    cov = covariance_profile(kind, d, n, [0] + rs, alpha=alpha)
    c0 = cov[0]
    values = [2.0 * (c0 - c) for c in cov[1:]]
    slope = loglog_slope(rs, values)
    formula = [structure_prediction(kind, d, n, r, alpha) for r in rs]
    target = loglog_slope(rs, formula)
    return StructureCurve(tuple(rs), tuple(values), slope, target)


def covariance_profile(kind: str, d: int, n: int, rs, alpha: float | None = None) -> np.ndarray:
    """Exact eta covariance at offsets r e1 under independent Gaussian noise.

    Small grids go through the full covariance table.  Large nearest-neighbour
    grids (high dimension) sum 1/lambda^2 over the transverse frequencies one
    first-axis frequency at a time, in a single preallocated n^(d-1) buffer
    (add, scale, square and invert in place; the zero mode inverts to 0), so
    nothing of size n^d is ever materialized and the loop allocates nothing.
    """
    shape = TorusShape(d, n)
    rs = [int(r) for r in rs]
    if kind == "nn" and shape.nsites > 2_000_000:
        s1 = np.sin(np.pi * np.arange(n) / n) ** 2
        rest = axis_sum(s1, d - 1)
        sums = np.empty(n)
        buf = np.empty_like(rest)
        for w1 in range(n):
            np.add(rest, s1[w1], out=buf)
            np.multiply(buf, 2.0 / d, out=buf)  # |lambda|; its sign drops out when squared
            np.square(buf, out=buf)
            if w1 == 0:
                buf.flat[0] = np.inf  # the zero mode, the only zero of lambda: 1/inf = 0
            np.reciprocal(buf, out=buf)
            sums[w1] = buf.sum()
        phases = np.cos(2.0 * np.pi * np.outer(rs, np.arange(n)) / n)
        # Mode weight 1/nsites, matching eta_covariance_exact for white noise.
        return (phases @ sums) / shape.nsites
    table = eta_covariance_exact(OperatorSpec(kind, shape, alpha=alpha)).values
    out = []
    for r in rs:
        idx = tuple([int(r) % n] + [0] * (d - 1))
        out.append(table[idx])
    return np.asarray(out)


@dataclass(frozen=True)
class DecayResult:
    valid: bool
    reason: str
    slope: float | None
    predicted_slope: float | None
    values: tuple[float, ...]


def covariance_decay_slope(kind: str, d: int, n: int, rs, alpha: float | None = None) -> DecayResult:
    """Log-log decay rate of the covariance along the first axis.

    Polynomial decay only exists above the critical dimension (d > 4 for the
    nearest-neighbour kernel, d > 2 alpha for the long-range one); below it a
    flag comes back instead of a meaningless fit.
    """
    rs = [int(r) for r in rs]
    if kind == "nn":
        if d < 5:
            return DecayResult(False, f"no polynomial decay regime at d={d} (needs d >= 5)", None, None, ())
        predicted = 4.0 - d
    elif kind == "lr":
        if not (alpha and 2.0 * alpha < d):
            return DecayResult(
                False,
                f"no polynomial decay regime at d={d}, alpha={alpha} (needs d > 2 alpha)",
                None,
                None,
                (),
            )
        predicted = 2.0 * alpha - d
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    values = covariance_profile(kind, d, n, rs, alpha=alpha)
    if np.any(values <= 0):
        return DecayResult(False, "covariance is not positive over the requested range", None, predicted, tuple(values))
    return DecayResult(True, "", loglog_slope(rs, values), predicted, tuple(values))


@dataclass(frozen=True)
class HurstReport:
    """Smoothness classification of the long-range limit field."""

    h: float
    regime: str  # "distribution" | "boundary" | "function"
    derivatives_reported: int | None
    derivatives_usual: int | None
    ambiguous: bool


def hurst_classify(alpha: float, d: int) -> HurstReport:
    """Classify the limit field by H = alpha - d/2.

    Negative H is a genuine distribution, H = 0 the boundary case.  For
    non-integer H in (k, k+1) two derivative counts are reported: the
    convention this mirrors states k - 1 continuous derivatives, while the
    usual Holder counting gives k.  The pair is flagged ambiguous so callers
    surface both.
    """
    h = float(alpha) - d / 2.0
    if h < 0:
        return HurstReport(h, "distribution", None, None, False)
    if h == 0:
        return HurstReport(h, "boundary", None, None, False)
    if h == math.floor(h):
        # integer H sits between the open intervals the counting applies to
        return HurstReport(h, "function", None, None, False)
    k = int(math.floor(h))
    return HurstReport(h, "function", k - 1, k, True)
