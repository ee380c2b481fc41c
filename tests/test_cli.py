"""Manifest grammar, experiment runner, exit codes, reproducibility."""

import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sandlab import cli, fieldstats, growth, sampling, torus_kinds  # torus_kinds registers its kinds
from sandlab.cli import (
    ManifestError,
    load_manifest,
    main,
    manifest_hash,
    parse_manifest,
    serialize_manifest,
    validate_manifest,
)
from sandlab.fieldio import read_field
from sandlab.lattice import LatticeField
from sandlab.operators import OperatorSpec
from sandlab.toppling import SandpileState, StabilizationReport


TOPPLE = "kind = topple\nn = 8\nd = 2\nsigma = gaussian\nseed = 1\n"


def test_parse_serialize_round_trip():
    m = parse_manifest(TOPPLE)
    text = serialize_manifest(m)
    m2 = parse_manifest(text)
    assert m2.kind == "topple"
    assert manifest_hash(m2) == manifest_hash(m)
    # canonical form: kind first, then sorted keys
    lines = text.strip().splitlines()
    assert lines[0] == "kind = topple"
    assert lines[1:] == sorted(lines[1:])


def test_hash_ignores_formatting_noise():
    noisy = "# header\n\nkind = topple\nd = 2   # trailing\nn = 8\nseed = 1\nsigma = gaussian\n"
    assert manifest_hash(parse_manifest(noisy)) == manifest_hash(parse_manifest(TOPPLE))


def test_parse_lists_and_scalars():
    m = parse_manifest("kind = variance\nn = 8, 16\nd = 2\nf = cos 1 0\nsamples = 10\n")
    assert m.values["n"] == (8, 16)
    assert m.values["f"] == "cos 1 0"


def test_parse_errors():
    with pytest.raises(ManifestError, match="missing the 'kind'"):
        parse_manifest("n = 8\n")
    with pytest.raises(ManifestError, match="unknown experiment kind"):
        parse_manifest("kind = nosuch\n")
    with pytest.raises(ManifestError, match="duplicate key"):
        parse_manifest("kind = topple\nn = 8\nn = 9\n")
    with pytest.raises(ManifestError, match="expected 'key = value'"):
        parse_manifest("kind = topple\nnonsense\n")
    with pytest.raises(ManifestError, match="empty key or value"):
        parse_manifest("kind = topple\nn =\n")


def test_validate_defaults_and_unknown_keys():
    params = validate_manifest(parse_manifest(TOPPLE))
    assert params["operator"] == "nn"
    assert params["out"] == "runs"
    assert params["write_fields"] is True
    with pytest.raises(ManifestError, match="unknown keys"):
        validate_manifest(parse_manifest("kind = topple\nn = 8\nd = 2\nwat = 1\n"))
    with pytest.raises(ManifestError, match="requires key"):
        validate_manifest(parse_manifest("kind = topple\nn = 8\n"))


def test_regime_keys_default_only_under_their_regime():
    stable = validate_manifest(parse_manifest(TOPPLE.replace("gaussian", "stable") + "stable_alpha = 1.5\n"))
    assert stable["scale"] == 1.0
    assert stable["pareto_index"] is None and stable["delta"] is None
    gaussian = validate_manifest(parse_manifest(TOPPLE))
    assert gaussian["scale"] is None and gaussian["stable_alpha"] is None


# Manifests that validate once accepted.  In run most crashed, hung or
# ignored a key; the rest failed with an error, or paired a test function
# that is zero on the lattice and wrote a variance of 0.  Each is now
# rejected by validate, with a message that names the key.
NEWLY_REJECTED = [
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nsamples = 1\n", "key 'samples': expected samples >= 2"),
    ("kind = mean-odometer\nd = 2\nn = 8, 16\nsamples = 1\n", "key 'samples': expected samples >= 2"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 0\n", "key 'samples'"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 1\n", "key 'samples'"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nt = 0\n",
     "key 't': expected each t > 0"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nt = 1, 0\n",
     "key 't': expected each t > 0"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nquad_points = 0\n",
     "unknown keys for kind 'charfun': quad_points"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 0\nsamples = 10\n",
     r"'cos 1 0 0' needs an amplitude of magnitude in \[1e-100, 1e100\]"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 1 1 0\nsamples = 10\n", "'sin 1 1 0'"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 x\nsamples = 10\n", "'cos 1 0 x'"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 1e-200\nsamples = 10\n", "'cos 1 0 1e-200' needs an amplitude"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 -1e200\nsamples = 10\n", "'cos 1 0 -1e200' needs an amplitude"),
    ("kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1\nsamples = 10\n", "needs 2 integer frequencies"),
    ("kind = charfun\nd = 1\nn = 2\nalpha = 1.0\nf = sin 1 0.5\nsamples = 15\n",
     "key 'f': 'sin 1 0.5' is zero on the n = 2 lattice"),
    ("kind = charfun\nd = 1\nn = 8\nalpha = 1.0\nf = cos 8\nsamples = 10\n",
     "key 'f': 'cos 8' is constant on the n = 8 lattice"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = sin 4 0\nsamples = 10\n", "key 'f': 'sin 4 0' is zero on the n = 8 lattice"),
    ("kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 8 0\nsamples = 10\n",
     "key 'f2': 'sin 8 0' is zero on the n = 16 lattice"),
    ("kind = topple\nd = 3\nn = 4\nheatmap = true\n", "key 'heatmap' needs d = 2, got d = 3"),
    ("kind = odometer\nd = 1\nn = 8\nheatmap = true\n", "key 'heatmap' needs d = 2, got d = 1"),
    ("kind = idla\nparticles = 10\nd = 3\nheatmap = true\n", "key 'heatmap' needs d = 2"),
    ("kind = rotor\nparticles = 10\nd = 3\nheatmap = true\n", "key 'heatmap' needs d = 2"),
    ("kind = point-source\nmass = 10\nd = 1\nheatmap = true\n", "key 'heatmap' needs d = 2"),
    ("kind = mean-odometer\nd = 4\nn = 4, 6\nsamples = 4\nslope_tol = 0.1\n", "key 'slope_tol' does not apply"),
    ("kind = mean-odometer\nd = 2\nn = 8, 16\nsamples = 4\noperator = lr\nalpha = 1.0\nslope_tol = 0.1\n",
     "key 'slope_tol' does not apply"),
    ("kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = point x\n", "not understood"),
    ("kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 0\nsource = point 1\n", "key 'box': expected box > 0"),
    ("kind = topple\nd = 2\nn = 1\n", "key 'n': expected n >= 2"),
    ("kind = mean-odometer\nd = 2\nn = 8, 1\nsamples = 4\n", "key 'n': expected each n >= 2"),
    ("kind = kernel-decay\nd = 2\nn = 8\nr = 0, 1\n", "key 'r': expected each r >= 1"),
    ("kind = variance-structure\nd = 2\nn = 8\nr = 1\n", "key 'r': expected at least 2 entries"),
    ("kind = topple\nd = 2\nn = 8\nseed = -1\n", "key 'seed': expected seed >= 0"),
    ("kind = topple\nd = 2\nn = 8\noperator = lr\nalpha = -1\n", "key 'alpha': expected alpha > 0"),
    ("kind = topple\nd = 2\nn = 8\nsigma = stable\nstable_alpha = 2.5\n",
     r"key 'stable_alpha': expected stable_alpha in \(0, 2\]"),
    ("kind = odometer\nd = 2\nn = 8\nsigma = pareto\npareto_index = 0\n",
     "key 'pareto_index': expected pareto_index > 0"),
    ("kind = topple\nd = 2\nn = 8\nsigma = pareto\n", "sigma = pareto requires key 'pareto_index'"),
]


def test_validate_cross_key_rules():
    cases = [
        ("kind = topple\nn = 8\nd = 1\noperator = lr\n", "needs an 'alpha'"),
        ("kind = topple\nn = 8\nd = 1\nalpha = 1.0\n", "only applies to the long-range"),
        ("kind = variance\nn = 8, 16\nd = 2\nsigma = stable\nf = cos 1 0\nsamples = 10\n",
         "key 'sigma': expected one of gaussian, correlated"),
        ("kind = variance\nn = 8\nd = 2\nf = cos 1 0\nsamples = 10\n", "key 'n': expected at least 2 entries"),
        ("kind = charfun\nn = 8\nd = 2\nalpha = 2.5\nf = cos 1 0\nsamples = 10\n", r"alpha in \(0, 2\)"),
        ("kind = topple\nn = 8\nd = 2\nsigma = correlated\n", "delta"),
        ("kind = topple\nn = 8\nd = 2\nsigma = stable\n", "stable_alpha"),
        ("kind = topple\nn = 8\nd = 2\nsigma = stable\nstable_alpha = 1.5\nscale = -1.0\n",
         "key 'scale': expected scale > 0"),
        ("kind = odometer\nn = 8\nd = 2\nsigma = stable\nstable_alpha = 1.5\nscale = 0\n",
         "key 'scale': expected scale > 0"),
        # noise parameters apply to their own sigma regime only
        ("kind = topple\nn = 8\nd = 2\ndelta = 3.0\npareto_index = 2.0\n", "only applies to sigma"),
        ("kind = topple\nn = 8\nd = 2\ndelta = 3.0\n", "'delta' only applies to sigma = correlated"),
        ("kind = topple\nn = 8\nd = 2\nscale = 0.2\n", "'scale' only applies to sigma = stable"),
        ("kind = odometer\nn = 8\nd = 2\nsigma = pareto\npareto_index = 2.0\nstable_alpha = 1.0\n",
         "'stable_alpha' only applies to sigma = stable"),
        ("kind = odometer\nn = 8\nd = 2\nsigma = stable\nstable_alpha = 1.0\npareto_index = 2.0\n",
         "'pareto_index' only applies to sigma = pareto"),
        ("kind = topple\nn = 8\nd = 2\nsigma = correlated\ndelta = 0.5\nscale = 2.0\n",
         "'scale' only applies to sigma = stable"),
        ("kind = variance\nn = 8, 16\nd = 2\nf = cos 1 0\nsamples = 10\ndelta = 0.25\n",
         "'delta' only applies to sigma = correlated"),
        # growth values that would crash inside the runner or be misread
        ("kind = idla\nparticles = 10\nd = 0\n", "key 'd': expected d >= 1"),
        ("kind = rotor\nparticles = 10\nd = 0\n", "key 'd': expected d >= 1"),
        ("kind = point-source\nmass = 10\nd = 0\n", "key 'd': expected d >= 1"),
        ("kind = obstacle-shape\nd = 2\nh = 0\nbox = 1.0\nsource = ball 0.5 4\n", "key 'h': expected h > 0"),
        ("kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = point 0\n", "must be positive"),
        ("kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = ball 0.5 0\n", "must be positive"),
        ("kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = ball -0.5 4\n", "must be positive"),
        ("kind = idla\nparticles = 10\nd = 2\ntrials = 0\n", "key 'trials': expected trials >= 1"),
        ("kind = idla\nparticles = 10\nd = 2\nbox = -3\n", "key 'box': expected box >= 1"),
        ("kind = rotor\nparticles = 10\nd = 2\nbox = 0\n", "key 'box': expected box >= 1"),
        ("kind = point-source\nmass = 10\nd = 2\nbox = -3\n", "key 'box': expected box >= 1"),
        ("kind = point-source\nmass = 10\nd = 2\ntau = -1\n", "key 'tau': expected tau >= 0"),
        ("kind = rotor\nparticles = 0\nd = 2\n", "key 'particles': expected particles >= 1"),
        ("kind = point-source\nmass = -1\nd = 2\n", "key 'mass': expected mass >= 0"),
        *NEWLY_REJECTED,
    ]
    for text, match in cases:
        with pytest.raises(ManifestError, match=match):
            validate_manifest(parse_manifest(text))


def test_load_manifest_requires_ascii(tmp_path):
    p = tmp_path / "m.txt"
    p.write_bytes("kind = topple\nn = 8\nd = 2 # café\n".encode("utf-8"))
    with pytest.raises(ManifestError, match="ASCII"):
        load_manifest(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="ascii")
    return str(p)


def test_run_exit_zero_and_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "m.txt", TOPPLE + "out = out0\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "criterion stabilized = pass" in out
    assert "criterion mass-conserved = pass" in out

    summary = Path("out0/summary.txt").read_text()
    lines = summary.splitlines()
    assert lines[0] == f"manifest-sha256 = {manifest_hash(load_manifest(path))}"
    assert lines[1].startswith("version = ")
    assert any(l.startswith("criterion stabilized = pass") for l in lines)
    assert any(l == "output = odometer.dsf1" for l in lines)
    assert "wall-seconds" not in summary  # timing stays off the reproducible record

    field = read_field("out0/odometer.dsf1")
    assert field.shape.d == 2 and field.shape.n == 8
    assert Path("out0/topple.csv").exists()
    assert Path("out0/config_final.dsf1").exists()


def test_run_exit_two_on_criterion_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write(
        tmp_path,
        "f.txt",
        "kind = density-probe\nn = 8\nd = 2\ndensity = 1.2\ntrials = 3\nexpect = stabilize\nout = outf\n",
    )
    assert main(["run", path]) == 2
    assert "criterion dichotomy = fail" in Path("outf/summary.txt").read_text()


def test_run_exit_one_on_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write(
        tmp_path,
        "e.txt",
        "kind = variance\nn = 8, 16\nd = 2\nf = zig 1 0\nsamples = 10\nout = oute\n",
    )
    assert main(["run", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_exit_one_on_runner_exception(tmp_path, monkeypatch, capsys):
    # A box too small for the aggregate raises inside the runner; the CLI
    # reports it like any other error instead of dying with a traceback.
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "b.txt", "kind = idla\nparticles = 300\nd = 2\ntrials = 1\nbox = 4\nout = outb\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "box" in err
    assert "Traceback" not in err
    assert not Path("outb").exists()  # nothing is written before the experiment finishes


def test_run_exit_one_when_the_obstacle_steps_run_out(tmp_path, monkeypatch, capsys):
    # Parallel toppling runs at d = 3 only.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(growth, "OBSTACLE_ITERATIONS", 5)
    path = write(tmp_path, "o.txt", "kind = obstacle-shape\nd = 3\nh = 0.25\nbox = 1.0\nsource = ball 0.5 4.0\nout = outo\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parallel toppling did not settle in 5 steps")
    assert not Path("outo").exists()


def test_run_exit_one_when_the_obstacle_reaches_the_box_edge(tmp_path, monkeypatch, capsys):
    # A shape clipped by the box used to fail the area criterion (exit 2).
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "c.txt", "kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 0.5\nsource = ball 0.3 4.0\nout = outc\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: the shape reached the box edge; increase the box beyond 0.5\n"
    assert not Path("outc").exists()


def test_point_source_at_tau_zero_settles(tmp_path, monkeypatch, capsys):
    # Parallel toppling never brought the excess to exactly 0; the exact solve
    # leaves heights of exactly 1 on the toppled sites.  The toppled interval
    # {-4..4} of mass 10 has radius 4 against the predicted 5, hence tol_radius.
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "p.txt", "kind = point-source\nmass = 10\nd = 1\ntau = 0\ntol_radius = 0.25\nout = outp\n")
    assert main(["run", path]) == 0
    assert capsys.readouterr().err == ""
    assert Path("outp/point_source.csv").read_text().splitlines() == [
        "volume,inradius,outradius,deviation,steps", "9,4.0,4.0,0.0,2"]


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    manifest = write(tmp_path, "t.txt", TOPPLE)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "sandlab", "validate", manifest], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: standard output closed\n"


@pytest.mark.parametrize("argv", [["run"], ["bogus"], ["run", "m.txt", "--bogus"]],
                         ids=["no-manifest", "unknown-verb", "unknown-flag"])
def test_usage_error_exits_one_with_one_error_line(argv, capsys):
    # Exit 2 is left to a failed criterion.
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_removed_thread_flag_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # Runs are serial; the flag that used to force it is refused, and nothing runs.
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "m.txt", TOPPLE + "out = outs\n")
    with pytest.raises(SystemExit) as stop:
        main(["run", path, "--single-thread"])
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not Path("outs").exists()


def test_run_refuses_more_than_one_worker(tmp_path):
    with pytest.raises(ValueError, match="^sandlab runs serially; workers must be 1$"):
        cli.run(parse_manifest(TOPPLE), tmp_path / "out", workers=2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest, message", [
    ("kind = topple\nd = 2\nn = 8\nsigma = stable\nstable_alpha = 0.005\n",
     "error: stable alpha = 0.005 at n = 8 leaves float range\n"),
    ("kind = odometer\nd = 2\nn = 8\nsigma = pareto\npareto_index = 0.001\n",
     "error: pareto index = 0.001 at n = 8 leaves float range\n"),
], ids=["stable", "pareto"])
def test_overflowing_heavy_tails_print_one_error_line(tmp_path, monkeypatch, capsys, manifest, message):
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "h.txt", manifest + "out = outh\n")
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == message
    assert not Path("outh").exists()


def test_help_exits_zero():
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0


def test_run_rejects_growth_values_without_traceback(tmp_path, monkeypatch, capsys):
    # Rejected before predicted_radius could divide by d = 0 in the runner.
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "z.txt", "kind = point-source\nmass = 10\nd = 0\nout = outz\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "key 'd': expected d >= 1" in err
    assert "Traceback" not in err
    assert not Path("outz").exists()


def test_run_reports_memory_error_without_traceback(tmp_path, monkeypatch, capsys):
    # validate accepts sizes beyond memory (one field on the d = 4, n = 1000
    # torus takes 7.3 TiB); the failed allocation is reported like any error.
    monkeypatch.chdir(tmp_path)

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000, 1000, 1000, 1000)")

    monkeypatch.setattr(torus_kinds, "sample_sigma", out_of_memory)
    path = write(tmp_path, "m.txt", "kind = topple\nd = 4\nn = 1000\nout = outm\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert "Traceback" not in err
    assert not Path("outm").exists()


def test_aliased_test_functions_that_pair_are_accepted():
    # Frequencies at or past n/2 alias to a lower mode that still pairs with the field.
    for text in (
        "kind = charfun\nd = 1\nn = 8\nalpha = 1.0\nf = cos 4\nsamples = 10\n",
        "kind = charfun\nd = 1\nn = 8\nalpha = 1.0\nf = sin 5\nsamples = 10\n",
        "kind = variance\nd = 2\nn = 4, 16\nf = cos 2 0\nsamples = 10\n",
        "kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 8 1\nsamples = 10\n",
    ):
        validate_manifest(parse_manifest(text))


def test_growth_key_bounds_are_accepted():
    for text in (
        "kind = idla\nparticles = 10\nd = 1\ntrials = 1\nbox = 1\n",
        "kind = rotor\nparticles = 10\nd = 3\nbox = 1\n",
        "kind = point-source\nmass = 0\nd = 2\ntau = 0\nbox = 1\n",
        "kind = obstacle-shape\nd = 1\nh = 0.1\nbox = 1.0\nsource = point 0.5\n",
    ):
        validate_manifest(parse_manifest(text))


# One tiny manifest per kind; heatmaps are on wherever the kind has them.
TINY_RUNS = {
    "topple": "kind = topple\nd = 2\nn = 8\nheatmap = true\n",
    "odometer": "kind = odometer\nd = 2\nn = 16\noperator = lr\nalpha = 1.0\nheatmap = true\n",
    "variance": "kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 1 1\nsamples = 200\n",
    "charfun": "kind = charfun\nd = 2\nn = 16\nalpha = 1.0\nf = cos 1 0\nsamples = 500\n",
    "mean-odometer": "kind = mean-odometer\nd = 2\nn = 8, 16\nsamples = 10\n",
    "variance-structure": "kind = variance-structure\nd = 2\nn = 16\nr = 1, 2\n",
    "kernel-decay": "kind = kernel-decay\nd = 3\nn = 8\noperator = lr\nalpha = 1.0\nr = 1, 2\n",
    "idla": "kind = idla\nparticles = 200\nd = 2\ntrials = 2\nheatmap = true\n",
    "rotor": "kind = rotor\nparticles = 200\nd = 2\nheatmap = true\n",
    "point-source": "kind = point-source\nmass = 200\nd = 2\nheatmap = true\n",
    "obstacle-shape": "kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = ball 0.5 4.0\n",
    "density-probe": "kind = density-probe\nd = 2\nn = 8\ndensity = 1.0\ntrials = 20\nexpect = none\n",
}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_summary_lists_exactly_the_written_files(tmp_path, kind):
    out = tmp_path / "out"
    record = cli.run(parse_manifest(TINY_RUNS[kind]), out)
    summary = (out / "summary.txt").read_text().splitlines()
    listed = [line.split(" = ", 1)[1] for line in summary if line.startswith("output = ")]
    assert record.outputs == tuple(listed) + ("summary.txt",)
    assert sorted(listed) == sorted(p.name for p in out.iterdir() if p.name != "summary.txt")
    assert any(name.endswith(".pgm") for name in listed) == ("heatmap = true" in TINY_RUNS[kind])


def run_fresh(script: str):
    """What script, run in a new interpreter on this one's sys.path, prints as JSON."""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_growth_runs_never_load_scipy(tmp_path):
    # The package loads no submodule on import, and the growth kinds run on
    # numpy alone, their sine transform included.
    growth_runs = {kind: TINY_RUNS[kind] for kind in ("idla", "rotor", "point-source", "obstacle-shape")}
    found = run_fresh(f"""
import json, sys
import sandlab
package = sorted(m for m in sys.modules if m.startswith("sandlab."))
from sandlab import cli
for kind, text in {growth_runs!r}.items():
    manifest = cli.parse_manifest(text)
    cli.validate_manifest(manifest)
    cli.run(manifest, {str(tmp_path)!r} + "/" + kind)
print(json.dumps([package, {SCIPY_MODULES}]))
""")
    assert found == [[], []]


def test_validating_a_torus_kind_loads_its_engine_and_runs_import_nothing(tmp_path):
    # scipy.fft loads when the first torus manifest is validated, so that no
    # timed run pays for an import: running every kind adds no module.
    found = run_fresh(f"""
import json, sys
from sandlab import cli
manifests = {{kind: cli.parse_manifest(text) for kind, text in {TINY_RUNS!r}.items()}}
before = {SCIPY_MODULES}
cli.validate_manifest(manifests["topple"])
after = {SCIPY_MODULES}
for manifest in manifests.values():
    cli.validate_manifest(manifest)
validated = set(sys.modules)
for kind, manifest in manifests.items():
    cli.run(manifest, {str(tmp_path)!r} + "/" + kind)
print(json.dumps([before, "scipy.fft" in after, sorted(set(sys.modules) - validated)]))
""")
    assert found == [[], True, []]


def test_every_kind_is_registered_once_the_torus_kinds_load():
    assert set(cli._EXPERIMENTS) == set(cli.KINDS)
    assert len(cli.KINDS) == 12


VARIANCE_F2 = "kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 1 1\nsamples = 300\n"
CORRELATED = "sigma = correlated\ndelta = 0.25\n"


@pytest.mark.parametrize("sigma", ["", CORRELATED])
def test_variance_with_f2_draws_each_chunk_once(tmp_path, monkeypatch, sigma):
    # f2 pairs with the draws of f at the largest size, so each (size, chunk)
    # is drawn once, and colored noise filters pairing vectors, never a chunk.
    draws, filtered = [], []
    site_block, color = sampling._site_block, sampling.color

    def counted_block(seed, shape, count, stream, planes, start=0):
        draws.append((shape.n, stream, count))
        return site_block(seed, shape, count, stream, planes, start)

    def counted_color(spec, shape, x):
        filtered.append(x.shape)
        return color(spec, shape, x)

    monkeypatch.setattr(sampling, "_site_block", counted_block)
    monkeypatch.setattr(sampling, "color", counted_color)
    monkeypatch.setattr(fieldstats, "color", counted_color)
    cli.run(parse_manifest(VARIANCE_F2 + sigma), tmp_path / "out")
    assert sorted(d[:2] for d in draws) == [(n, (1, chunk)) for n in (8, 16) for chunk in (0, 1)]
    # and draws only the replicates it pairs: `samples` per size.
    assert [sum(d[2] for d in draws if d[0] == n) for n in (8, 16)] == [300, 300]
    assert filtered == ([(8, 8), (16, 16), (16, 16)] if sigma else [])


@pytest.mark.parametrize("sigma", ["", CORRELATED])
def test_variance_with_f2_equals_single_function_runs(tmp_path, sigma):
    cli.run(parse_manifest(VARIANCE_F2 + sigma), tmp_path / "both")
    cli.run(parse_manifest(VARIANCE_F2.replace("f2 = sin 1 1\n", "") + sigma), tmp_path / "f")
    cli.run(parse_manifest(VARIANCE_F2.replace("f = cos 1 0\nf2", "f") + sigma), tmp_path / "f2")
    assert filecmp.cmp(tmp_path / "both" / "variance.csv", tmp_path / "f" / "variance.csv", shallow=False)
    # variance_f2.csv holds the largest size only: the header and the n = 16 row
    header, *rows = (tmp_path / "f2" / "variance.csv").read_bytes().splitlines(keepends=True)
    want = header + next(r for r in rows if r.startswith(b"16,"))
    assert (tmp_path / "both" / "variance_f2.csv").read_bytes() == want


@pytest.mark.parametrize("operator", ["operator = nn\n", "operator = lr\nalpha = 1.0\n"])
def test_odometer_run_solves_once(tmp_path, monkeypatch, operator):
    # Both odometer routes come from one potential: one spectral solve per
    # run, and the obstacle route still agrees with the direct one exactly.
    calls = []
    solve = OperatorSpec.solve

    def counted(self, block):
        calls.append(block.shape)
        return solve(self, block)

    monkeypatch.setattr(OperatorSpec, "solve", counted)
    record = cli.run(parse_manifest(f"kind = odometer\nd = 2\nn = 16\n{operator}"), tmp_path / "out")
    assert len(calls) == 1
    assert record.criteria[0].passed
    assert (tmp_path / "out" / "odometer.csv").read_text().splitlines()[1].endswith(",0.0")


def test_stable_scale_reaches_the_sampler(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = "kind = topple\nn = 8\nd = 2\nsigma = stable\nstable_alpha = 1.5\nseed = 2\n"
    fields = []
    for name, extra in (("outs0", ""), ("outs1", "scale = 1.0\n"), ("outs2", "scale = 0.5\n")):
        path = write(tmp_path, f"{name}.txt", base + extra + f"out = {name}\n")
        assert main(["run", path]) == 0
        fields.append(Path(f"{name}/odometer.dsf1").read_bytes())
    assert fields[0] == fields[1]  # an absent scale means 1.0
    assert fields[0] != fields[2]


@pytest.mark.parametrize("mass_before, mass_after, verdict", [
    (64.0, 64.0, "pass (relative drift=0.000e+00)"),
    (-6.6e268, 4.8e269, "fail (relative drift=8.273e+00)"),
    (0.0, 1.0, "fail (relative drift=inf)"),
])
def test_mass_conserved_uses_the_magnitude_of_the_initial_mass(
        tmp_path, monkeypatch, capsys, mass_before, mass_after, verdict):
    # Stand-in for a run whose initial heights sum to zero or below (heavy
    # Pareto tails cancel): the drift is measured against |mass_before|.
    monkeypatch.chdir(tmp_path)
    shape = (8, 8)
    start = np.full(shape, mass_before / 64)
    monkeypatch.setattr(torus_kinds, "make_initial_config",
                        lambda sigma: LatticeField(sigma.shape, start))

    def fake_stabilize(state):
        s = LatticeField(state.op.shape, np.full(shape, mass_after / 64))
        return SandpileState(state.op, s, state.u, state.t + 1), StabilizationReport("stabilized", 1, 0.0, 0.0)

    monkeypatch.setattr(torus_kinds, "stabilize", fake_stabilize)
    path = write(tmp_path, "m.txt", TOPPLE + "out = outm\nwrite_fields = false\n")
    assert main(["run", path]) == (0 if verdict.startswith("pass") else 2)
    assert f"criterion mass-conserved = {verdict}" in capsys.readouterr().out


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(tmp_path, monkeypatch, capsys, token):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ManifestError, match="not a finite number"):
        parse_manifest(f"kind = density-probe\nd = 2\nn = 8\ndensity = {token}\n")
    with pytest.raises(ManifestError, match="not a finite number"):
        parse_manifest(f"kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nt = 0.5, {token}\n")

    path = write(tmp_path, "nf.txt", f"kind = density-probe\nd = 2\nn = 8\ndensity = {token}\nout = outnf\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and "not a finite number" in err
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a finite number" in err
    assert not Path("outnf").exists()


def test_validate_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "g.txt", TOPPLE)
    assert main(["validate", good]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: kind=topple sha256=")

    bad = write(tmp_path, "b.txt", "kind = variance\nn = 8\nd = 2\nf = cos 1 0\nsamples = 10\n")
    assert main(["validate", bad]) == 1
    assert "invalid:" in capsys.readouterr().err

    ignored = write(tmp_path, "i.txt", "kind = topple\nn = 8\nd = 2\nsigma = gaussian\ndelta = 3.0\n")
    assert main(["validate", ignored]) == 1
    assert "'delta' only applies" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "missing.txt")]) == 1


def test_heatmap_and_info_verbs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "m.txt", TOPPLE + "out = outh\n")
    assert main(["run", path]) == 0
    capsys.readouterr()

    assert main(["info", "outh/odometer.dsf1"]) == 0
    info = capsys.readouterr().out
    assert "d = 2" in info and "n = 8" in info and "sha256 = " in info

    assert main(["heatmap", "outh/odometer.dsf1", "outh/u.pgm"]) == 0
    assert Path("outh/u.pgm").read_bytes().startswith(b"P5\n8 8\n255\n")

    assert main(["info", path]) == 1  # manifests are not field snapshots
    errors = [capsys.readouterr().err]

    assert main(["heatmap", "missing.dsf1", "outh/m.pgm"]) == 1
    errors.append(capsys.readouterr().err)
    assert errors[-1].startswith("error: ")

    d1 = write(tmp_path, "d1.txt", "kind = topple\nd = 1\nn = 8\nout = outd1\n")
    assert main(["run", d1]) == 0
    capsys.readouterr()
    assert main(["heatmap", "outd1/odometer.dsf1", "outd1/u.pgm"]) == 1
    errors.append(capsys.readouterr().err)
    assert errors[-1] == "error: heatmaps need d=2, got d=1\n"

    assert main(["validate", str(tmp_path)]) == 1  # a directory is not a manifest
    errors.append(capsys.readouterr().err)
    assert errors[-1].startswith("invalid: ")
    assert not any("Traceback" in err for err in errors)


# Each growth criterion's detail shape: idla labels its trial means "mean"
# even at trials = 1, and rotor has no radius criterion.
_DEV = r"deviation=\d+\.\d{4} tol=\d+\.\d+"
_RADIUS = r"radius=\d+\.\d{3} predicted=\d+\.\d{3} err=\d+\.\d{4}"


@pytest.mark.parametrize("text, details", [
    ("kind = idla\nparticles = 200\nd = 2\ntrials = 1\n",
     {"ball-deviation": "mean " + _DEV, "radius": "mean " + _RADIUS}),
    ("kind = idla\nparticles = 200\nd = 2\ntrials = 2\n",
     {"ball-deviation": "mean " + _DEV, "radius": "mean " + _RADIUS}),
    ("kind = rotor\nparticles = 200\nd = 2\n", {"ball-deviation": _DEV}),
    ("kind = point-source\nmass = 200\nd = 2\n", {"ball-deviation": _DEV, "radius": _RADIUS}),
    ("kind = point-source\nmass = 0.5\nd = 2\n",
     {"ball-deviation": re.escape("no site toppled; mass fits in one cell")}),
], ids=["idla-trials-1", "idla-trials-2", "rotor", "point-source", "point-source-untoppled"])
def test_growth_criteria_wording(tmp_path, text, details):
    cli.run(parse_manifest(text), tmp_path / "out")
    summary = (tmp_path / "out" / "summary.txt").read_text()
    found = dict(re.findall(r"^criterion (\S+) = (?:pass|fail) \((.*)\)$", summary, re.M))
    assert list(found) == list(details)
    for name, pattern in details.items():
        assert re.fullmatch(pattern, found[name]), (name, found[name])


def assert_dirs_equal(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only
    match, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    assert not mismatch and not errors


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = "kind = mean-odometer\nn = 8, 16\nd = 1\nsamples = 40\nseed = 3\n"
    p1 = write(tmp_path, "r1.txt", base + "out = outr1\n")
    p2 = write(tmp_path, "r2.txt", base + "out = outr2\n")
    assert main(["run", p1]) == 0
    assert main(["run", p2]) == 0
    # everything except the manifest hash line must agree byte for byte
    s1 = Path("outr1/summary.txt").read_text().splitlines()[1:]
    s2 = Path("outr2/summary.txt").read_text().splitlines()[1:]
    assert s1 == s2
    for name in os.listdir("outr1"):
        if name == "summary.txt":
            continue
        assert (Path("outr1") / name).read_bytes() == (Path("outr2") / name).read_bytes()


def test_readme_key_table_equals_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    head = lines.index("| key | kinds | bound | sigma |")
    documented = {}
    for line in lines[head + 2:]:
        if not line.startswith("|"):
            break
        key, kinds, bound, regime = (c.strip().replace("`", "") for c in line.strip("|").split("|"))
        documented[key, bound, regime] = set(cli.KINDS) if kinds == "every kind" else set(kinds.split(", "))
    schema = {}
    for kind, (keys, _) in cli._EXPERIMENTS.items():
        for k in keys:
            if k.bound or k.regime:
                schema.setdefault((k.name, k.bound or "", k.regime or ""), set()).add(kind)
    assert documented == schema
