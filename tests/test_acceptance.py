"""End-to-end checks of the laboratory's stated guarantees.

Each test covers one numbered guarantee and prints a single PASS line with
the measured margin once its assertions hold.  The heavier tests share work
through module-level caches so the whole file stays inside the advertised
runtime budgets on one core.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from sandlab import LatticeField, OperatorSpec, TorusShape
from sandlab import TestFunction as Wave
from sandlab.cli import main as cli_main
from sandlab.fieldstats import (
    ScalingMode,
    covariance_decay_slope,
    limit_variance,
    mean_odometer_curve,
    run_charfun_experiment,
    run_variance_experiment,
    variance_structure_curve,
)
from sandlab.growth import (
    idla_aggregate,
    point_source_sandpile,
    rotor_router_aggregate,
    shape_metrics,
)
from sandlab.odometer import (
    eta_covariance_exact,
    eta_sample_batch,
    odometer_routes,
    odometer_spectral,
)
from sandlab.sampling import (
    CHUNK_REPLICATES,
    SigmaSpec,
    sample_sigma,
    sigma_chunk,
)
from sandlab.toppling import (
    SandpileState,
    density_probe,
    stabilize,
    stabilize_sequential,
)


def report(num, text):
    print(f"[criterion {num:02d}] {text}: PASS", flush=True)


def critical_config(shape, seed, amplitude=0.2):
    """Mean-one Gaussian configuration at the critical total mass."""
    v = sample_sigma(SigmaSpec.iid_gaussian(), shape, seed).values
    return LatticeField(shape, 1.0 + amplitude * (v - v.mean()))


# ---------------------------------------------------------------------------
# criteria 1 and 3 share one sweep of stabilization runs

_CRITICAL_CELLS = [
    (d, n, kind) for d in (1, 2) for n in (8, 16, 32) for kind in ("nn", "lr")
]
_critical_runs = None


def critical_runs():
    global _critical_runs
    if _critical_runs is not None:
        return _critical_runs
    runs = []
    for i in range(100):
        d, n, kind = _CRITICAL_CELLS[i % len(_CRITICAL_CELLS)]
        shape = TorusShape(d, n)
        if kind == "nn":
            op = OperatorSpec.nearest_neighbour(shape)
        else:
            op = OperatorSpec.long_range(shape, 1.0)
        s = critical_config(shape, 1000 + i)
        mass0 = float(s.values.sum())
        u_closed = odometer_spectral(s, op)
        final, rep = stabilize(SandpileState.initial(op, s))
        runs.append((shape, mass0, u_closed, final, rep))
    _critical_runs = runs
    return runs


def test_criterion_01_toppling_matches_closed_form_odometer():
    t0 = time.time()
    worst = 0.0
    for shape, _, u_closed, final, rep in critical_runs():
        assert rep.status == "stabilized"
        gap = float(np.max(np.abs(final.u.values - u_closed.values)))
        rel = gap / (1.0 + float(np.max(np.abs(u_closed.values))))
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(1, f"100 critical instances, worst relative gap {worst:.2e} ({elapsed:.0f}s)")


def test_criterion_02_parallel_and_sequential_orders_agree():
    shape = TorusShape(2, 8)
    op = OperatorSpec.nearest_neighbour(shape)
    worst = 0.0
    for seed in range(20):
        s = critical_config(shape, seed)
        par, prep = stabilize(SandpileState.initial(op, s))
        assert prep.status == "stabilized"
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(3):
            order = rng.permutation(shape.nsites)
            seq, srep = stabilize_sequential(SandpileState.initial(op, s), order)
            assert srep.status == "stabilized"
            gap = float(np.max(np.abs(seq.u.values - par.u.values)))
            worst = max(worst, gap)
            assert gap <= 1e-6
    report(2, f"20 seeds x 3 random orders, worst odometer gap {worst:.2e}")


def test_criterion_03_critical_runs_flatten_and_conserve_mass():
    worst_flat = 0.0
    worst_drift = 0.0
    for shape, mass0, _, final, _ in critical_runs():
        flat = float(np.max(np.abs(final.s.values - 1.0)))
        drift = abs(float(final.s.values.sum()) - mass0) / abs(mass0)
        assert flat <= 1e-8 * shape.nsites
        assert drift <= 1e-10
        worst_flat = max(worst_flat, flat / shape.nsites)
        worst_drift = max(worst_drift, drift)
    report(3, f"worst |s-1| {worst_flat:.1e} per site, worst mass drift {worst_drift:.1e}")


def test_criterion_04_obstacle_route_is_algebraically_identical():
    specs = [SigmaSpec.iid_gaussian(), SigmaSpec.stable(1.5), SigmaSpec.pareto(3.0)]
    worst = 0.0
    for i in range(50):
        shape = TorusShape(1 + i % 2, (8, 16, 32)[i % 3])
        if i % 4 < 2:
            op = OperatorSpec.nearest_neighbour(shape)
        else:
            op = OperatorSpec.long_range(shape, 0.5 + 0.25 * (i % 3))
        s = critical_config(shape, 500 + i)
        u, w = (route.values for route in odometer_routes(s, op))
        gap = float(np.max(np.abs(u - w)))
        worst = max(worst, gap)
        assert gap <= 1e-12
    report(4, f"50 instances, worst obstacle-route gap {worst:.2e}")


def test_criterion_05_exact_covariance_matches_monte_carlo():
    shape = TorusShape(1, 4)
    op = OperatorSpec.nearest_neighbour(shape)
    row = eta_covariance_exact(op).values
    cov = np.array([[row[(j - i) % 4] for j in range(4)] for i in range(4)])
    samples = 200_000
    chunks = -(-samples // CHUNK_REPLICATES)
    sig = np.concatenate(
        [sigma_chunk(SigmaSpec.iid_gaussian(), shape, 99, c) for c in range(chunks)]
    )[:samples]
    etas = eta_sample_batch(op, sig)
    emp = etas.T @ etas / samples
    # Wick stderr of a Gaussian covariance entry: (C_ii C_jj + C_ij^2) / N.
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / samples)
    z = np.abs(emp - cov) / se
    assert float(z.max()) <= 5.0
    report(5, f"2e5 samples, worst covariance deviation {float(z.max()):.2f} SE")


def _variance_pair(mode, seed):
    f = Wave.cosine((1, 0))
    f2 = Wave.sine((1, 1))
    e1 = run_variance_experiment(mode, f, (16, 32, 64), 2000, seed=seed)
    e2 = run_variance_experiment(mode, f2, (16, 32, 64), 2000, seed=seed)
    flat = e1.ratio_flatness()
    agree = abs(e1.rows[-1].ratio / e2.rows[-1].ratio - 1.0)
    return e1, flat, agree


def test_criterion_06_white_noise_variance_scaling():
    t0 = time.time()
    exp, flat, agree = _variance_pair(ScalingMode("nn-ind"), seed=0)
    assert flat <= 0.15
    assert agree <= 0.10
    assert exp.limit == pytest.approx(limit_variance(Wave.cosine((1, 0))))
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(6, f"ratio flatness {flat:.3f}, two-function agreement {agree:.3f} ({elapsed:.0f}s)")


def test_criterion_07_correlated_noise_variance_scaling():
    exp, flat, agree = _variance_pair(ScalingMode("nn-cor", delta=0.25), seed=1)
    assert flat <= 0.15
    assert agree <= 0.10
    # the limit under |z|^-1 spectral weight, continuum route
    target = limit_variance(
        Wave.cosine((1, 0)),
        khat=lambda z: float(np.sum(z * z)) ** -0.5,
        e=2.0,
    )
    assert exp.limit == pytest.approx(target, rel=1e-12)
    report(7, f"correlated flatness {flat:.3f}, agreement {agree:.3f}")


def test_criterion_08_long_range_variance_and_eigenvalue_scaling():
    exp, flat, _ = _variance_pair(ScalingMode("lr-ind", alpha=1.0), seed=2)
    assert flat <= 0.15
    assert exp.limit == pytest.approx(limit_variance(Wave.cosine((1, 0)), e=1.0))
    # deterministic half: smallest nonzero eigenvalue decays like n^-alpha
    ns = (16, 32, 64, 128)
    vals = []
    for n in ns:
        lam = OperatorSpec.long_range(TorusShape(2, n), 1.0).eigenvalues()
        vals.append(-lam[1, 0])
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    assert abs(slope + 1.0) <= 0.15
    report(8, f"long-range flatness {flat:.3f}, eigenvalue slope {slope:.3f}")


def test_criterion_09_mean_odometer_growth_exponents():
    t0 = time.time()
    cases = [
        ("nn", 1, (16, 32, 64, 128, 256), None, 1.5, 0.15),
        ("nn", 2, (16, 32, 64, 128, 256), None, 1.0, 0.15),
        ("nn", 3, (24, 48, 96), None, 0.5, 0.10),
        ("lr", 1, (16, 32, 64, 128, 256), 1.0, 0.5, 0.10),
    ]
    got = []
    for kind, d, ns, alpha, want, tol in cases:
        curve = mean_odometer_curve(kind, d, ns, 500, seed=0, alpha=alpha)
        assert curve.predicted_slope == pytest.approx(want)
        assert abs(curve.slope - want) <= tol
        got.append(f"{kind} d={d}: {curve.slope:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    report(9, "; ".join(got) + f" ({elapsed:.0f}s)")


def test_criterion_10_increment_variance_structure():
    windows = [
        ("nn", 1, 256, tuple(range(1, 17)), None),
        ("nn", 2, 256, tuple(range(1, 17)), None),
        ("nn", 3, 64, (1, 2, 3, 4, 6, 8), None),
        ("lr", 1, 32, tuple(range(2, 9)), 0.75),
    ]
    got = []
    for kind, d, n, rs, alpha in windows:
        curve = variance_structure_curve(kind, d, n, rs, alpha=alpha)
        gap = abs(curve.slope - curve.target_slope)
        assert gap <= 0.2
        got.append(f"{kind} d={d}: gap {gap:.3f}")
    report(10, "; ".join(got))


def test_criterion_11_covariance_decay_above_critical_dimension():
    nn = covariance_decay_slope("nn", 5, 32, (1, 2, 3))
    assert nn.valid
    assert nn.predicted_slope == pytest.approx(-1.0)
    assert abs(nn.slope - nn.predicted_slope) <= 0.3
    lr = covariance_decay_slope("lr", 3, 64, (1, 2, 3), alpha=1.0)
    assert lr.valid
    assert lr.predicted_slope == pytest.approx(-1.0)
    assert abs(lr.slope - lr.predicted_slope) <= 0.3
    # below the critical dimension the fit is refused, not fudged
    assert not covariance_decay_slope("nn", 3, 32, (1, 2, 3)).valid
    report(11, f"nn d=5 slope {nn.slope:.3f}, lr d=3 slope {lr.slope:.3f}")


def test_criterion_12_cauchy_characteristic_function_scale():
    t0 = time.time()
    f = Wave.cosine((1, 0))
    shape = TorusShape(2, 64)
    exp, doubled = run_charfun_experiment(1.0, (f, f.scaled(2.0)), shape, 10**4, seed=3)
    for r in exp.rows:
        se_log = r.stderr / r.cf_abs
        err = abs(r.measured_exponent - r.target_exponent)
        assert err <= 0.15 * r.target_exponent + 3.0 * se_log
    ratio = doubled.fitted_scale() / exp.fitted_scale()
    assert abs(ratio - 2.0) <= 0.10 * 2.0
    elapsed = time.time() - t0
    assert elapsed < 900.0
    report(12, f"scale doubling ratio {ratio:.3f} ({elapsed:.0f}s)")


def test_criterion_13_growth_models_approach_the_ball():
    t0 = time.time()
    particles = 10**4
    predicted = (particles / np.pi) ** 0.5
    devs, radii = [], []
    for seed in range(20):
        m = shape_metrics(idla_aggregate(particles, 2, seed=seed), predicted)
        devs.append(m.ball_deviation)
        radii.append(0.5 * (m.inradius + m.outradius))
    mean_dev = float(np.mean(devs))
    radius_err = abs(float(np.mean(radii)) / predicted - 1.0)
    assert mean_dev <= 0.15
    assert radius_err <= 0.05

    rotor = shape_metrics(rotor_router_aggregate(particles, 2), predicted)
    assert rotor.ball_deviation <= 0.05

    result = point_source_sandpile(float(particles), 2)
    point = shape_metrics(result.aggregate, predicted)
    assert point.ball_deviation <= 0.10
    assert float(result.final.sum()) == pytest.approx(particles, abs=1e-6)

    elapsed = time.time() - t0
    assert elapsed < 900.0
    report(13, f"idla dev {mean_dev:.3f} radius err {radius_err:.4f}, "
              f"rotor dev {rotor.ball_deviation:.3f}, "
              f"point dev {point.ball_deviation:.3f} ({elapsed:.0f}s)")


def test_criterion_14_density_dichotomy():
    shape = TorusShape(2, 16)
    low = density_probe(0.5, shape, trials=50, seed=21)
    high = density_probe(1.5, shape, trials=50, seed=22)
    assert low.fraction_stabilized == 1.0
    assert high.fraction_stabilized == 0.0
    report(14, "50/50 trials stabilize at density 0.5, 0/50 at density 1.5")


def test_criterion_15_worker_count_does_not_change_output_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = (
        "kind = variance\n"
        "d = 2\n"
        "n = 8, 16\n"
        "f = cos 1 0\n"
        "samples = 200\n"
        "seed = 5\n"
    )
    Path("m1.txt").write_text(base + "out = out1\n")
    Path("m4.txt").write_text(base + "out = out4\n")
    monkeypatch.setenv("SANDLAB_THREADS", "1")
    assert cli_main(["run", "m1.txt"]) == 0
    monkeypatch.setenv("SANDLAB_THREADS", "4")
    assert cli_main(["run", "m4.txt"]) == 0
    names = sorted(os.listdir("out1"))
    assert names == sorted(os.listdir("out4"))
    for name in names:
        if name == "summary.txt":
            # first line hashes the manifest, whose out= keys differ
            a = Path("out1", name).read_text().splitlines()[1:]
            b = Path("out4", name).read_text().splitlines()[1:]
            assert a == b
        else:
            assert Path("out1", name).read_bytes() == Path("out4", name).read_bytes()
    report(15, f"{len(names)} output files byte-identical across worker counts")
